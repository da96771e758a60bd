"""spbibd benchmark: drives the ``spbibd`` CLI of this checkout and checks
every output.

    python3 perfbench/run.py --workload gq-verify --seed 1 --seconds 10 --trace 0

With ``--trace 0`` each command is one CLI process (interpreter start
included), run one at a time by a single client: a closed loop with one
client and no ``--workers``.  Whole passes over the workload's command
list repeat until ``--seconds`` is used up, at least twice.  The reference
job (``refjob.py``) runs before the first command of each pass and after
every command.  The host's speed swings by up to 3x within seconds, so
each command's time is divided by the mean of the two reference times
around it and expressed in seconds of a host on which the reference job
takes ``REF_NOMINAL_S``; the timed metrics are medians of those normalised
times.  Raw wall times are printed in the report lines.

With ``--trace 1`` the same commands run in this process through
``spbibd.cli.main``: one untraced pass, then one pass with the span
recorder installed, from which the per-layer metrics come.

Human-readable lines go first on stdout; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The program is taken
from ``src/`` of the checkout; without it the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from refjob import CHECKSUM
from spans import Recorder, layer_metrics
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
# what the installed ``spbibd`` console script runs
ENTRY = "import sys; from spbibd.cli import main; sys.exit(main())"
REF_JOB = Path(__file__).resolve().with_name("refjob.py")
# Normalised times are given in seconds of a host on which the reference job
# takes this long (its typical time on the 2-vCPU VM of the baseline).
REF_NOMINAL_S = 0.15
SETUP_REPS = 5
IMPORT_REPS = 5
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Outcome:
    command: Command
    code: int | None
    out: bytes
    err: bytes
    seconds: float

    def failure(self) -> str | None:
        if self.code is None:
            return "timed out"
        return self.command.check(self.code, self.out, self.err)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_time(env: dict) -> float:
    """Seconds a fresh interpreter spends in ``import spbibd.cli``, after
    checking the module comes from this checkout's ``src/``."""
    code = (
        "import time; t = time.perf_counter(); import spbibd.cli; "
        "dt = time.perf_counter() - t; print(spbibd.cli.__file__); print(repr(dt))"
    )
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("importing spbibd.cli took over 60 s") from exc
    lines = proc.stdout.split("\n")
    if proc.returncode != 0 or Path(lines[0]).resolve() != (SRC / "spbibd" / "cli.py").resolve():
        raise BenchError(f"spbibd.cli does not import from {SRC}: {proc.stderr.strip()[-300:]}")
    return float(lines[1])


def reference_time(env: dict) -> float:
    """Wall seconds of one run of the reference job, checked by its output."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(REF_JOB)], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the reference job took over 60 s") from exc
    dt = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.strip() != str(CHECKSUM):
        raise BenchError(f"the reference job failed: {proc.stderr.strip()[-300:]}")
    return dt


def normalised(seconds: list[float], refs: list[float]) -> list[float]:
    """Each time over the mean of the reference times just before and just
    after it (``refs`` has one more entry), in seconds at ``REF_NOMINAL_S``."""
    return [REF_NOMINAL_S * t * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(seconds)]


class CliRunner:
    """Runs one command as a CLI process, output to files in ``workdir``."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir, self.deadline, self.env = workdir, deadline, child_env()

    def __call__(self, cmd: Command) -> Outcome:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        if time.perf_counter() >= self.deadline:
            return Outcome(cmd, None, b"", b"", 0.0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", ENTRY, *cmd.args], stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            # a blocking wait: Popen.wait(timeout=...) polls in steps of up
            # to 50 ms, which would round every timing up
            timer = threading.Timer(self.deadline - t0, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            dt = time.perf_counter() - t0
        if code == -signal.SIGKILL:
            code = None
        return Outcome(cmd, code, out_path.read_bytes(), err_path.read_bytes(), dt)


def in_process(cli):
    """Runs one command through ``cli.main`` in this process."""

    def run(cmd: Command) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(cmd.args))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed command, not a crashed benchmark
                traceback.print_exc()
                code = -1
        dt = time.perf_counter() - t0
        return Outcome(cmd, code, out.getvalue().encode(), err.getvalue().encode(), dt)

    return run


def run_pass(commands: list[Command], runner) -> tuple[float, list[Outcome]]:
    t0 = time.perf_counter()
    outcomes = [runner(c) for c in commands]
    return time.perf_counter() - t0, outcomes


def paired_pass(commands: list[Command], runner, env: dict) -> tuple[list[Outcome], list[float]]:
    """One pass with the reference job before the first command and after
    every command; returns the outcomes and the len + 1 reference times."""
    refs = [reference_time(env)]
    outcomes = []
    for c in commands:
        outcomes.append(runner(c))
        refs.append(reference_time(env))
    return outcomes, refs


def failures(outcomes: list[Outcome]) -> list[tuple[Outcome, str]]:
    return [(o, why) for o in outcomes if (why := o.failure()) is not None]


def setup(workload, seed: int, run_dir: Path, reps: int, env: dict, paired: bool = False) -> tuple[list[float], list[float], dict]:
    """Build the inputs ``reps`` times, each in a fresh directory, and
    confirm the CLI imports from this checkout (the first time also
    compiles its bytecode).  With ``paired``, the reference job runs before
    the first set-up and after each one."""
    times, refs = [], [reference_time(env)] if paired else []
    for rep in range(reps):
        d = run_dir / f"inputs{rep}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        inputs = workload.setup(seed, d)
        import_time(env)
        times.append(time.perf_counter() - t0)
        if paired:
            refs.append(reference_time(env))
    return times, refs, inputs


def report_failures(bad: list[tuple[Outcome, str]]) -> None:
    for o, why in bad[:10]:
        print(f"FAILED {' '.join(o.command.args)}: {why}", file=sys.stderr)


def measure(name: str, seed: int, seconds: int, run_dir: Path, start: float) -> dict:
    workload = WORKLOADS[name]
    env = child_env()
    setup_times, setup_refs, inputs = setup(workload, seed, run_dir, SETUP_REPS, env, paired=True)
    commands = workload.commands(inputs)
    runner = CliRunner(run_dir, start + DEADLINE_S)

    passes, bad = [], []
    t_measure = time.perf_counter()
    while True:
        got, refs = paired_pass(commands, runner, env)
        passes.append((got, refs))
        bad += failures(got)
        elapsed = time.perf_counter() - t_measure
        mean = elapsed / len(passes)
        # whole passes, at least two; stop when the next would mostly run
        # past --seconds
        if len(passes) >= 2 and elapsed + mean / 2 >= seconds:
            break
        if time.perf_counter() + mean > start + DEADLINE_S - 10:
            break
    report_failures(bad)

    outcomes = [o for got, _ in passes for o in got]
    # per pass, each command's time relative to the reference job around it
    norm = [normalised([o.seconds for o in got], refs) for got, refs in passes]
    metrics = {
        "pass_s": sum(statistics.median(col) for col in zip(*norm)),
        "setup_s": statistics.median(normalised(setup_times, setup_refs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    walls = [sum(o.seconds for o in got) for got, _ in passes]
    ref_times = [r for _, refs in passes for r in refs]
    print(f"# {name} seed={seed} passes={len(passes)} commands/pass={len(commands)} (one client, closed loop)")
    print(f"pass_s {metrics['pass_s']:.4f} s (sum over the pass of each command's median normalised time, n={len(passes)} each)")
    print(f"setup_s {metrics['setup_s']:.4f} s normalised, raw median {statistics.median(setup_times):.4f} s n={len(setup_times)}")
    print(f"raw pass wall: median {statistics.median(walls):.4f} s n={len(walls)}; reference job: median {statistics.median(ref_times):.4f} s min {min(ref_times):.4f} s n={len(ref_times)}")
    by_sub = defaultdict(list)
    for got, row in zip((got for got, _ in passes), norm):
        for o, x in zip(got, row):
            by_sub[o.command.sub].append((o.seconds, x))
    for sub in sorted(by_sub):
        raw, nrm = zip(*by_sub[sub])
        print(f"{sub.replace('-', '_')}_s median {statistics.median(nrm):.4f} s normalised, {statistics.median(raw):.4f} s raw, n={len(raw)}")
    times = [o.seconds for o in outcomes]
    if len(times) >= 100:
        print(f"cmd_p90_s {statistics.quantiles(times, n=10, method='inclusive')[8]:.4f} s raw n={len(times)}")
    print(f"failed_frac {len(bad) / len(outcomes):.4f} ({len(bad)}/{len(outcomes)})")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    return {
        "correct": not bad,
        "attempted": len(outcomes),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def per_layer_unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    return "ratio" if metric.endswith(("_ratio", "_frac")) else "s"


def trace(name: str, seed: int, run_dir: Path) -> dict:
    workload = WORKLOADS[name]
    env = child_env()
    _, _, inputs = setup(workload, seed, run_dir, 1, env)
    commands = workload.commands(inputs)
    import_s = statistics.median(import_time(env) for _ in range(IMPORT_REPS))

    sys.path.insert(0, str(SRC))
    import spbibd.cli as cli

    plain_wall, plain = run_pass(commands, in_process(cli))
    rec = Recorder()
    rec.install()
    try:
        traced_wall, traced = run_pass(commands, in_process(cli))
    finally:
        rec.uninstall()
    WORK.mkdir(parents=True, exist_ok=True)
    rec.write(WORK / f"spans-{name}-s{seed}.json")

    bad = failures(plain) + failures(traced)
    report_failures(bad)
    rows = sum(o.out.count(b"\n") - 1 for o in traced if o.command.sub == "search" and o.code == 0)
    metrics = {"cli.import_s": import_s, **layer_metrics(rec, rows)}
    metrics["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    print(f"# {name} seed={seed} in-process passes, commands={len(commands)}: untraced {plain_wall:.4f} s, traced {traced_wall:.4f} s")
    for k, v in metrics.items():
        print(f"{k} {v}")
    return {
        "correct": not bad,
        "attempted": len(plain) + len(traced),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "spbibd" / "cli.py").is_file():
        print(f"error: no spbibd package under {SRC}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = trace(args.workload, args.seed, run_dir)
        else:
            result = measure(args.workload, args.seed, args.seconds, run_dir, start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
