"""The package surface: which modules each CLI command loads, and the
public names that resolve on first use."""

import ast
import gc
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spbibd
from spbibd.cli import main
from spbibd.core import ConsistencyError, IntersectionArray, build_bipartite, validate_structure

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# prints the modules in sys.modules whose code has run: a lazily registered
# submodule stays an importlib.util._LazyModule until its first attribute
# access, and only a plain module has run
PRINT_LOADED = """
import sys, types
print(' '.join(sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType)))
"""
# as the console script does: main() reads the command line from sys.argv
RUN_CLI = "from spbibd.cli import main; main()"

ALWAYS = {"spbibd", "spbibd.cli", "spbibd.core"}
# what a command loads beyond ALWAYS: only the commands that classify a
# graph load spbibd.graph, and only the one that reports Delta loads
# spbibd.homogeneity; it renders each rational from integers, so no
# command loads fractions
LOADS = {
    ("analyze-graph", "tc.json"): {"spbibd.graph"},
    ("analyze-graph", "tc.json", "--human"): {"spbibd.graph", "spbibd.usage"},
    ("to-graph", "gq22.json"): {"spbibd.correspondence"},
    ("from-graph", "tc.json"): {"spbibd.correspondence", "spbibd.graph"},
    ("check-homogeneous", "tc.json"): {
        "spbibd.graph",
        "spbibd.homogeneity",
        "spbibd.equalities",
    },
    ("analyze-design", "gq22.json"): {"spbibd.design", "spbibd.equalities"},
    ("search", "--target", "full-b", "--max-r", "12", "--max-k", "12"): {
        "spbibd.correspondence",
        "spbibd.equalities",
        "spbibd.search",
    },
    ("generate", "fano"): {"spbibd.correspondence", "spbibd.generators", "spbibd.usage"},
}
# the help and usage text, --human and generate's families: no report and
# no search loads them
RARE = "spbibd.usage"
# what no command loads: the command line is parsed from the table in cli
NEVER = {"argparse", "gettext", "locale"}
# what the commands that only decide integer equalities never load, and
# search, which reads no file and writes CSV, loads no json either;
# check-homogeneous prints its rationals from integer numerators
NO_RATIONALS = {"fractions", "decimal", "spbibd.homogeneity", "spbibd.graph"}
NEVER_IN = {
    "analyze-graph": {"spbibd.equalities"},
    "to-graph": {"spbibd.equalities"},
    "from-graph": {"spbibd.equalities"},
    "analyze-design": NO_RATIONALS,
    "search": NO_RATIONALS | {"json"},
    "check-homogeneous": {"fractions", "decimal"},
}


def fresh_process(script: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter that imports the package from
    src/, its output as bytes.  It runs without site initialisation
    (``-S``), so that no ``.pth`` file of the host preloads a module that a
    check here says the package never loads."""
    return subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def fresh_interpreter(script: str, *args: str, cwd=None) -> set[str]:
    """The words ``script`` prints in a ``fresh_process``."""
    proc = fresh_process(script, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr.decode()
    return set(proc.stdout.decode().split())


@pytest.fixture(scope="module")
def bare():
    return fresh_interpreter(PRINT_LOADED)


@pytest.mark.parametrize("argv", list(LOADS), ids=lambda argv: argv[0] + "-human" * ("--human" in argv))
def test_each_command_loads_only_what_it_runs(tmp_path, capsys, bare, argv):
    for family, name in (("gq22", "gq22.json"), ("tutte-coxeter", "tc.json")):
        assert main(["generate", family, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    loaded = fresh_interpreter(RUN_CLI + PRINT_LOADED, *argv, "--out", "report", cwd=tmp_path) - bare
    assert (tmp_path / "report").stat().st_size > 0
    ours = {m for m in loaded if m.partition(".")[0] in ("spbibd", "fractions")}
    assert ours == (ALWAYS | LOADS[argv]) - bare
    assert not (NEVER | NEVER_IN.get(argv[0], set())) & loaded
    assert (RARE in loaded) == (argv[0] == "generate" or "--human" in argv)


@pytest.mark.parametrize(
    "argv",
    [("search", "--target", "full-b", "--max-r", "12", "--max-k", "12"), ("check-homogeneous", "tc.json")],
    ids=lambda argv: argv[0],
)
def test_main_without_argv_freezes_the_start_up_heap(tmp_path, capsys, monkeypatch, argv):
    # main() owns the process: what start-up left alive is frozen, so the
    # collections at exit skip it, and the report bytes are main(argv)'s
    assert main(["generate", "tutte-coxeter", "--out", str(tmp_path / "tc.json")]) == 0
    capsys.readouterr()
    script = "import gc, sys; from spbibd.cli import main; code = main(); print(code, gc.get_freeze_count(), file=sys.stderr)"
    proc = fresh_process(script, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    code, frozen = map(int, proc.stderr.split())
    assert code == 0 and frozen > 0
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_with_argv_leaves_the_callers_collector(tmp_path, capsys, monkeypatch, enabled):
    # a caller's own command line: main(argv) neither freezes its objects
    # nor switches its collector, whatever the exit code
    def planted_defect(g):
        raise ConsistencyError("planted")

    monkeypatch.setattr("spbibd.graph.analyze_graph_report", planted_defect)
    assert main(["generate", "tutte-coxeter", "--out", str(tmp_path / "tc.json")]) == 0
    runs = [
        (["generate", "fano"], 0),
        (["analyze-graph", str(tmp_path / "missing.json")], 1),
        (["no-such-command"], 2),
        (["analyze-graph", str(tmp_path / "tc.json")], 3),
    ]
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        for argv, code in runs:
            frozen = gc.get_freeze_count()
            assert main(argv) == code
            assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    finally:
        gc.enable() if was_enabled else gc.disable()
    capsys.readouterr()


def test_cli_import_loads_no_exact_arithmetic(bare):
    loaded = fresh_interpreter("import spbibd.cli" + PRINT_LOADED) - bare
    assert "spbibd.cli" in loaded
    assert not {"fractions", "decimal", "spbibd.graph", "json", RARE} & loaded
    assert not NEVER & loaded


@pytest.mark.parametrize(
    "argv, code",
    [(("--help",), 0), (("search", "--help"), 0), (("search", "--target", "nope"), 2)],
    ids=["help", "search-help", "usage-error"],
)
def test_help_and_usage_errors_load_no_json(bare, argv, code):
    # the command's output is swallowed, so only the exit code and the
    # loaded modules are printed
    quiet = (
        "import io, sys; from spbibd.cli import main; sys.stdout = sys.stderr = io.StringIO(); "
        "code = main(); sys.stdout = sys.__stdout__; print('exit', code)"
    )
    loaded = fresh_interpreter(quiet + PRINT_LOADED, *argv) - bare
    assert {"exit", str(code), RARE} <= loaded
    assert not ({"json"} | NEVER) & loaded


def test_cli_import_registers_every_traced_module():
    # a tracer that wraps package functions from outside looks the
    # submodules up in sys.modules right after this import
    registered = fresh_interpreter("import sys, spbibd.cli; print(' '.join(sys.modules))")
    names = {"cli", "core", "graph", "design", "correspondence", "equalities", "homogeneity", "search"}
    assert {f"spbibd.{n}" for n in names} <= registered


def test_every_traced_function_resolves_in_its_module():
    # perfbench/spans.TRACED names (module, function, how) triples that the
    # benchmark's traced run wraps; read as data, without importing perfbench
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    assert traced
    missing = [(m, f) for m, f, _ in traced if not callable(getattr(importlib.import_module(f"spbibd.{m}"), f, None))]
    assert not missing


def test_generate_choices_are_the_families_usage_builds():
    from spbibd.cli import _COMMANDS
    from spbibd.usage import FAMILIES

    assert _COMMANDS["generate"][2][0][2] == tuple(FAMILIES)


def test_public_names_are_their_defining_modules_objects():
    assert len(spbibd.__all__) == len(set(spbibd.__all__)) == 29
    for name in spbibd.__all__:
        obj = getattr(spbibd, name)
        assert obj.__module__.startswith("spbibd.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_readme_imports_and_unknown_names():
    from spbibd import delta_value, parameter_homogeneity
    from spbibd import design_from_graph, generators, homogeneity_report, incidence_graph
    from spbibd.equalities import parameter_homogeneity as home
    from spbibd.homogeneity import delta_value as delta_home

    assert (parameter_homogeneity, delta_value) == (home, delta_home)

    d = generators.gq22()
    ext = design_from_graph(incidence_graph(d), "Y")
    assert ext.structure == d
    assert homogeneity_report(incidence_graph(d), "Y").verdict
    with pytest.raises(AttributeError):
        spbibd.no_such_name
    with pytest.raises(ImportError):
        from spbibd import no_such_name  # noqa: F401


# the lazily registered submodules of spbibd/__init__.py
LAZY = ("correspondence", "design", "equalities", "generators", "graph", "homogeneity", "search")
# a fresh interpreter that imports the CLI, runs every lazily registered
# submodule and then each command given as a JSON list of argument lists,
# and prints their exit codes, and "typing" if anything imported it
NO_TYPING = f"""
import json, sys, types
import spbibd
from spbibd.cli import main
for name in {LAZY!r}:
    getattr(spbibd, name).__doc__
    assert type(sys.modules["spbibd." + name]) is types.ModuleType, name
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(" ".join(map(str, codes)), "typing" * ("typing" in sys.modules))
"""


def test_no_command_imports_typing(tmp_path, capsys):
    # annotation names come from builtins and collections.abc, and stay
    # unevaluated, so no command pays typing's import (nor re's and enum's),
    # and none can build a typing.NamedTuple
    for family, name in (("gq22", "gq22.json"), ("tutte-coxeter", "tc.json")):
        assert main(["generate", family, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    commands = [[*argv, "--out", f"report{k}"] for k, argv in enumerate(LOADS)]
    assert fresh_interpreter(NO_TYPING, json.dumps(commands), cwd=tmp_path) == {"0"}
    assert all((tmp_path / f"report{k}").stat().st_size > 0 for k in range(len(LOADS)))


# every record class with its fields and defaults: a report or a caller
# may read any of them by name
RECORDS = {
    "core.IncidenceStructure": (("num_points", "blocks"), {}),
    "core.BipartiteGraph": (("num_vertices", "edges", "side"), {}),
    "core.IntersectionArray": (("b", "c"), {}),
    "graph.NotRegularizedAt": (("vertex", "distance", "count_kind", "witnesses", "counts"), {}),
    "graph.ClassificationResult": (
        ("kind", "array_y", "array_yprime", "ecc_y", "ecc_yprime", "witness_y", "witness_yprime"),
        {"witness_y": None, "witness_yprime": None},
    ),
    "homogeneity.FormulaResult": (("p2ii", "delta", "c2", "verdict"), {}),
    "homogeneity.BruteForceResult": (("side", "eccentricity", "level_counts", "verdict"), {}),
    "homogeneity.HomogeneityReport": (
        ("side", "verdict", "bruteforce_counts", "p2ii", "delta", "c2", "formula_verdict", "formula_skipped"),
        {},
    ),
    "equalities.SpbibdParams": (
        ("v", "b", "r", "k", "lambda1", "lambda2", "s", "t", "x", "y", "lambda2_realized"),
        {"x": None, "y": None, "lambda2_realized": True},
    ),
    "equalities.ScopeInequality": (("name", "test", "detail"), {}),
    "equalities.ParameterHomogeneity": (("almost_2p", "full_2p", "almost_2b", "full_2b", "notes"), {}),
    "design.NotUniform": (("what", "witnesses", "values"), {}),
    "design.QuasiSymmetryInfo": (("sizes", "x", "y", "proper"), {}),
    "design.NotSpbibd": (("reason", "detail"), {}),
    "design.ConstraintCheck": (("name", "holds", "detail"), {}),
    "design.ConstraintReport": (("checks",), {}),
    "correspondence.DerivedDesignParams": (("v", "b", "r", "k", "lambda1", "s", "t", "y"), {}),
    "correspondence.GraphDesignExtraction": (("structure", "params", "point_vertices", "block_vertices"), {}),
    "search.CandidateTuple": (
        ("r", "k", "lambda1", "t", "y", "v", "b", "satisfied", "existence"),
        {"existence": "unresolved"},
    ),
}
# the records that validate their fields keep an instance __dict__ for
# their cached views; the others have none
VALIDATED = {
    "core.IncidenceStructure": lambda: validate_structure(3, [[0, 1], [1, 2]]),
    "core.BipartiteGraph": lambda: build_bipartite(4, [(0, 1), (1, 2), (2, 3)]),
    "core.IntersectionArray": lambda: IntersectionArray((2, 1, 0), (0, 1, 2)),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_keep_their_fields_and_behaviour(name):
    module, _, cls_name = name.partition(".")
    cls = getattr(importlib.import_module(f"spbibd.{module}"), cls_name)
    fields, defaults = RECORDS[name]
    assert (cls._fields, cls._field_defaults) == (fields, defaults)
    obj = VALIDATED[name]() if name in VALIDATED else cls(*(f"{f}-value" for f in fields))
    assert hasattr(obj, "__dict__") == (name in VALIDATED)
    for copy in (pickle.loads(pickle.dumps(obj)), obj._replace(**{fields[0]: obj[0]})):
        assert type(copy) is cls
        assert copy == obj
    assert repr(obj).startswith(f"{cls_name}({fields[0]}=")
    assert obj._asdict() == dict(zip(fields, obj))


def test_every_record_class_is_pinned():
    found = set()
    for info in pkgutil.iter_modules(spbibd.__path__):
        module = importlib.import_module(f"spbibd.{info.name}")
        for cls_name, obj in vars(module).items():
            if isinstance(obj, type) and hasattr(obj, "_fields") and obj.__module__ == module.__name__:
                found.add(f"{info.name}.{cls_name}")
    assert found == set(RECORDS)
