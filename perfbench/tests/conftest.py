import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
# the benchmark's modules, and the package under test from this checkout
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
