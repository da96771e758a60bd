"""The benchmark's workloads: the input files each one writes from a seed
and the CLI commands it runs on them, each with its expected answer.

A workload is two steps.  ``setup(seed, workdir)`` builds and writes the
inputs; its time, with one fresh import of the CLI, is the ``setup_s``
metric.  ``commands(inputs)`` derives every expected answer from the oracle
and returns the command list; it is not timed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable

import families as fam
import oracle

# A check gets (exit code, stdout, stderr) and returns None or the reason
# the output is wrong.
Check = Callable[[int, bytes, bytes], "str | None"]


@dataclass(frozen=True)
class Command:
    sub: str  # CLI subcommand; the per-subcommand timings group by it
    args: tuple[str, ...]
    check: Check


def exact(text: str) -> Check:
    want = text.encode()

    def check(code, out, err):
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace').strip()}"
        return None if out == want else f"output differs from the expected {len(want)} bytes"

    return check


def report(judge: Callable[[dict], "str | None"]) -> Check:
    def check(code, out, err):
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace').strip()}"
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return f"not JSON: {exc}"
        try:
            return judge(doc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed report: {exc!r}"

    return check


def rejected(needle: str) -> Check:
    """An expected rejection: exit code 1, nothing on stdout, ``needle`` in
    the one-line error message."""

    def check(code, out, err):
        msg = err.decode(errors="replace")
        if code != 1 or out or needle not in msg or "Traceback" in msg:
            return f"expected rejection with {needle!r}, got exit {code}: {msg.strip()[:200]}"
        return None

    return check


def search_csv(target: str) -> Check:
    rows, digest = oracle.SEARCH_20[target]

    def check(code, out, err):
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace').strip()}"
        lines = out.decode(errors="replace").splitlines()
        if not lines or lines[0] != oracle.SEARCH_HEADER or len(lines) - 1 != rows:
            return f"{target}: {len(lines) - 1} rows, expected {rows}"
        return None if sha256(out).hexdigest() == digest else f"{target}: CSV digest differs"

    return check


# ---- input files -------------------------------------------------------------


@dataclass(frozen=True)
class DesignCase:
    """A design file and its incidence-graph file (points are class Y)."""

    v: int
    blocks: list[list[int]]
    design: Path
    graph: Path
    design_text: str
    graph_text: str

    @property
    def edges(self):
        return fam.incidence_edges(self.v, self.blocks)

    @property
    def n(self) -> int:
        return self.v + len(self.blocks)


@dataclass(frozen=True)
class GraphCase:
    n: int
    edges: list[tuple[int, int]]
    path: Path


def write_design(workdir: Path, name: str, v: int, blocks, *, with_graph: bool = True) -> DesignCase:
    blocks = fam.canonical(blocks)
    design_text = fam.dump(fam.design_doc(v, blocks))
    (workdir / f"{name}.design.json").write_text(design_text)
    graph_text = ""
    if with_graph:
        graph_text = fam.dump(fam.graph_doc(v + len(blocks), fam.incidence_edges(v, blocks)))
        (workdir / f"{name}.graph.json").write_text(graph_text)
    return DesignCase(v, blocks, workdir / f"{name}.design.json", workdir / f"{name}.graph.json", design_text, graph_text)


def write_graph(workdir: Path, name: str, n: int, edges) -> GraphCase:
    doc = fam.graph_doc(n, edges)
    (workdir / f"{name}.graph.json").write_text(fam.dump(doc))
    return GraphCase(n, [tuple(e) for e in doc["edges"]], workdir / f"{name}.graph.json")


def write_raw_design(workdir: Path, name: str, v: int, blocks) -> Path:
    """A design file written as given (repeated blocks kept)."""
    path = workdir / f"{name}.design.json"
    path.write_text(fam.dump({"v": v, "blocks": blocks}))
    return path


def _rng(seed: int, family: str) -> random.Random:
    return random.Random(f"{seed}:{family}")


# ---- commands ----------------------------------------------------------------


def full_design_commands(case: DesignCase, dfacts: oracle.DesignFacts, gfacts: oracle.GraphFacts, verdicts: dict, counts: dict | None = None) -> list[Command]:
    """Every design- and graph-side command on an in-scope design: report,
    conversion both ways, classification and homogeneity of both classes."""
    adj = oracle.adjacency(case.n, case.edges)
    dual_text = fam.dump(fam.design_doc(*fam.dual(case.v, case.blocks)))
    d, g = str(case.design), str(case.graph)
    return [
        Command("analyze-design", ("analyze-design", d), report(lambda doc: oracle.check_design_report(doc, dfacts))),
        Command("to-graph", ("to-graph", d), exact(case.graph_text)),
        Command("analyze-graph", ("analyze-graph", g), report(lambda doc: oracle.check_graph_report(doc, gfacts, adj))),
        Command("from-graph", ("from-graph", g, "--points", "Y"), exact(case.design_text)),
        Command("from-graph", ("from-graph", g, "--points", "Yprime"), exact(dual_text)),
    ] + [
        Command("check-homogeneous", ("check-homogeneous", g, "--side", side), report(homogeneity_judge(side, verdicts[side], gfacts, counts)))
        for side in oracle.SIDES
    ]


# a class with mixed eccentricities, where homogeneity is not defined
NOT_IN_SCOPE = "not-in-scope"


def homogeneity_judge(side, verdict, gfacts, counts=None):
    if verdict == NOT_IN_SCOPE:
        return lambda doc: None if set(doc) == {"schema", "side", "not_in_scope"} and doc["side"] == side else f"expected not_in_scope, got {doc}"
    return lambda doc: oracle.check_homogeneity_report(doc, side, verdict, gfacts, counts)


def from_graph_command(n: int, edges, path: Path, side: str, gfacts: oracle.GraphFacts) -> Command:
    """from-graph succeeds exactly when the chosen class is regularized with
    eccentricity 4; the design is then read off this module's own BFS."""
    arr = gfacts.array(side)
    args = ("from-graph", str(path), "--points", side)
    if arr is None:
        return Command("from-graph", args, rejected("NotSemiregularError"))
    if len(arr[0]) - 1 != 4:
        return Command("from-graph", args, rejected("WrongEccentricityError"))
    return Command("from-graph", args, exact(fam.dump(fam.design_doc(*oracle.design_from_class(n, edges, side)))))


def graph_commands(case: GraphCase, verdict: Callable[[str, oracle.GraphFacts], str] | None, sides=("Y",)) -> list[Command]:
    """analyze-graph, then per side check-homogeneous (when ``verdict`` is
    given) and from-graph."""
    gfacts = oracle.graph_facts(case.n, case.edges)
    adj = oracle.adjacency(case.n, case.edges)
    p = str(case.path)
    cmds = [Command("analyze-graph", ("analyze-graph", p), report(lambda doc: oracle.check_graph_report(doc, gfacts, adj)))]
    for side in sides:
        if verdict is not None:
            cmds.append(Command("check-homogeneous", ("check-homogeneous", p, "--side", side), report(homogeneity_judge(side, verdict(side, gfacts), gfacts))))
        cmds.append(from_graph_command(case.n, case.edges, case.path, side, gfacts))
    return cmds


# ---- gq-verify -------------------------------------------------------------------

GQ_VERIFY_Q = 5


def gq_verify_setup(seed: int, workdir: Path) -> dict:
    v, blocks = fam.symplectic_gq(GQ_VERIFY_Q)
    blocks = fam.relabel_points(v, blocks, _rng(seed, "wq"))
    return {"wq": write_design(workdir, f"w{GQ_VERIFY_Q}", v, blocks)}


def wq_commands(q: int, case: DesignCase) -> list[Command]:
    return full_design_commands(
        case,
        oracle.gq_design_facts(q, q),
        oracle.gq_graph_facts(q),
        {"Y": "almost-only", "Yprime": "almost-only"},
        oracle.gq_bruteforce_counts(),
    )


def gq_verify_commands(inputs: dict) -> list[Command]:
    return wq_commands(GQ_VERIFY_Q, inputs["wq"])


# ---- search-sweep ----------------------------------------------------------------

SEARCH_BOUND = 20


def search_sweep_setup(seed: int, workdir: Path) -> dict:
    targets = list(oracle.SEARCH_20)
    _rng(seed, "targets").shuffle(targets)
    return {"targets": targets}


def search_sweep_commands(inputs: dict) -> list[Command]:
    bound = str(SEARCH_BOUND)
    return [
        Command("search", ("search", "--target", t, "--max-r", bound, "--max-k", bound), search_csv(t))
        for t in inputs["targets"]
    ]


# ---- small-batch -------------------------------------------------------------------

GRID_SIZES = (2, 8, 14)
GRID_ALL_COMMANDS = (14,)


def small_batch_setup(seed: int, workdir: Path) -> dict:
    def relabelled(name, v, blocks):
        return write_design(workdir, name, v, fam.relabel_points(v, blocks, _rng(seed, name)))

    def graph(name, n, edges):
        return write_graph(workdir, name, n, fam.relabel_vertices(n, edges, _rng(seed, name)))

    inputs = {
        "grids": {n: relabelled(f"grid{n}", *fam.grid(n)) for n in GRID_SIZES},
        "gq22": relabelled("gq22", *fam.duad_syntheme()),
        "cube4": relabelled("cube4", *fam.hypercube_design(4)),
        "fano": relabelled("fano", *fam.fano()),
        "repeated": write_raw_design(workdir, "repeated", *fam.repeated_block_design(_rng(seed, "repeated"))),
        "non_uniform": [
            write_design(workdir, f"nonuniform{i}", *fam.non_uniform_design(_rng(seed, f"nonuniform{i}")), with_graph=False)
            for i in range(1)
        ],
        "cycles": [graph(f"cycle{n}", n, fam.cycle_edges(n)) for n in (12,)],
        "subdivisions": [graph(f"subdivision{n}", *fam.subdivision_edges(n)) for n in (5,)],
        # paths keep their labels: from-graph stops at the first
        # non-regularized vertex, so relabelling would move the work done
        "paths": [write_graph(workdir, f"path{n}", n, fam.path_edges(n)) for n in (8,)],
        "random": [
            write_graph(workdir, f"random{i}", *fam.witness_rich_bipartite(_rng(seed, f"random{i}"), 8, 10, 6))
            for i in range(1)
        ],
        "cube8": graph("cube8", 256, fam.hypercube_edges(8)),
    }
    return inputs


def _grid_verdict(n: int, side: str) -> str:
    # cells (side Y) see blocks of size n: almost only unless n = 2; lines
    # see cells in 2 lines: the subdivision graph, fully 2-homogeneous
    return "almost-only" if side == "Y" and n > 2 else "2-homogeneous"


def _other_valency(side: str, gfacts: oracle.GraphFacts) -> int:
    return gfacts.array(oracle.SIDES[1 - oracle.SIDES.index(side)])[0][0]


def small_batch_commands(inputs: dict) -> list[Command]:
    cmds = []
    for n, case in inputs["grids"].items():
        gfacts = oracle.graph_facts(case.n, case.edges)
        full = full_design_commands(case, oracle.grid_design_facts(n), gfacts, {s: _grid_verdict(n, s) for s in oracle.SIDES})
        # analyze-design and check-homogeneous Y on every size, the other
        # five commands on the largest only
        cmds += [full[0], full[5]] + (full[1:5] + [full[6]] if n in GRID_ALL_COMMANDS else [])
    almost = {"Y": "almost-only", "Yprime": "almost-only"}
    cmds += full_design_commands(inputs["gq22"], oracle.gq_design_facts(2, 2), oracle.gq_graph_facts(2), almost, oracle.gq_bruteforce_counts())
    cube = inputs["cube4"]
    full = full_design_commands(cube, oracle.cube4_design_facts(), oracle.graph_facts(cube.n, cube.edges), {"Y": "2-homogeneous", "Yprime": "2-homogeneous"})
    cmds += [full[0], full[5]]

    fano = inputs["fano"]
    fano_facts = oracle.graph_facts(fano.n, fano.edges)
    fano_adj = oracle.adjacency(fano.n, fano.edges)
    cmds += [
        Command("analyze-design", ("analyze-design", str(fano.design)), report(_judge_fano)),
        Command("to-graph", ("to-graph", str(fano.design)), exact(fano.graph_text)),
        Command("analyze-graph", ("analyze-graph", str(fano.graph)), report(lambda doc: oracle.check_graph_report(doc, fano_facts, fano_adj))),
        # the Heawood graph: Delta_2 = 2, and almost 2-homogeneity is vacuous at D = 3
        Command("check-homogeneous", ("check-homogeneous", str(fano.graph), "--side", "Y"), report(homogeneity_judge("Y", "almost-only", fano_facts))),
        from_graph_command(fano.n, fano.edges, fano.graph, "Y", fano_facts),
    ]

    rep = str(inputs["repeated"])
    cmds += [
        Command("analyze-design", ("analyze-design", rep), rejected("repeated")),
        Command("analyze-design", ("analyze-design", rep, "--allow-repeated"), report(_judge_rejection("repeated-blocks"))),
        Command("to-graph", ("to-graph", rep), rejected("repeated")),
    ]
    for case in inputs["non_uniform"]:
        cmds.append(Command("analyze-design", ("analyze-design", str(case.design)), report(_judge_non_uniform(case))))

    for case in inputs["cycles"]:
        cmds += graph_commands(case, lambda side, g: "2-homogeneous")
    for case in inputs["subdivisions"]:
        # the class of degree-2 vertices is almost only; the other one sees
        # valency 2 and is fully 2-homogeneous
        cmds += graph_commands(case, lambda side, g: "2-homogeneous" if _other_valency(side, g) == 2 else "almost-only", sides=oracle.SIDES)
    for case in inputs["paths"]:
        cmds += graph_commands(case, lambda side, g: NOT_IN_SCOPE)
    for case in inputs["random"]:
        cmds += graph_commands(case, None)
    cmds += graph_commands(inputs["cube8"], lambda side, g: "2-homogeneous")
    return cmds


def _judge_fano(doc: dict) -> str | None:
    """The Fano plane is a 2-design: one pair concurrence, t = k, and
    any two lines meet once, so it is out of scope."""
    want = {
        "counts": {"points": 7, "blocks": 7, "simple": True},
        "uniform": {"r": 3, "k": 3},
        "quasi_symmetry": {"sizes": [1], "x": 1, "y": None, "proper": False},
        "spbibd": {"v": 7, "b": 7, "r": 3, "k": 3, "lambda1": 1, "lambda2": 0, "lambda2_realized": False, "s": 2, "t": 3, "x": 1, "y": None},
        "flags": {"two_design_degenerate": True, "in_scope": False, "partial_geometry": False, "generalized_quadrangle": False},
    }
    got = {k: doc.get(k) for k in want}
    if got != want:
        return f"Fano report {got} != {want}"
    if "not_in_scope" not in (doc.get("constraints") or {}) or "not_in_scope" not in (doc.get("parameter_homogeneity") or {}):
        return "Fano constraints and homogeneity must be reported out of scope"
    return None


def _judge_rejection(reason: str):
    def judge(doc):
        got = (doc.get("spbibd") or {}).get("rejected")
        return None if got == reason and doc.get("flags") is None else f"rejection {got!r}, expected {reason!r}"

    return judge


def _judge_non_uniform(case: DesignCase):
    """Rejected as not uniform, with a witness pair of blocks whose sizes
    really differ."""

    def judge(doc):
        if (doc.get("spbibd") or {}).get("rejected") != "not-uniform":
            return f"expected a not-uniform rejection, got {doc.get('spbibd')}"
        w = doc["uniform"]["witness"]
        sizes = [len(case.blocks[j]) for j in w["indices"]]
        if w["what"] != "block-size" or sizes != w["values"] or sizes[0] == sizes[1]:
            return f"bad uniformity witness {w}, block sizes {sizes}"
        return None

    return judge


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], dict]
    commands: Callable[[dict], list[Command]]


WORKLOADS = {
    "gq-verify": Workload(gq_verify_setup, gq_verify_commands),
    "search-sweep": Workload(search_sweep_setup, search_sweep_commands),
    "small-batch": Workload(small_batch_setup, small_batch_commands),
}
