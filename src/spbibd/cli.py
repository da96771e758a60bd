"""Command-line surface: analyze designs and graphs, convert between
them, check homogeneity, run the parameter search and emit fixture
families.

All reports are deterministic byte streams (sorted-key JSON) so batch
pipelines can diff them; verdict outcomes never set a nonzero exit code.
Exit codes: 0 success, 1 I/O, parse, input-range or transform failure,
3 an internal cross-check disagreed (ConsistencyError, a defect here).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import correspondence, design, generators, homogeneity, search
from .core import (
    BipartiteGraph,
    ConsistencyError,
    IncidenceStructure,
    NotInScopeError,
    SIDES,
    TARGETS,
    ToolkitError,
    build_bipartite,
    validate_structure,
)
from .graph import classify


class ParseError(ToolkitError):
    pass


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers a decode error, bytes that are not UTF-8 and an
        # integer beyond the interpreter's digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _is_int(x: Any) -> bool:
    """JSON integers only: ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_design_file(path: str, *, allow_repeated: bool = False) -> IncidenceStructure:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "v" not in doc or "blocks" not in doc:
        raise ParseError(f"{path}: design file needs fields 'v' and 'blocks'")
    v, blocks = doc["v"], doc["blocks"]
    if not _is_int(v) or not isinstance(blocks, list):
        raise ParseError(f"{path}: 'v' must be an integer and 'blocks' a list")
    for blk in blocks:
        if not isinstance(blk, list) or not all(_is_int(p) for p in blk):
            raise ParseError(f"{path}: blocks must be lists of integer point indices")
    try:
        return validate_structure(v, blocks, allow_repeated=allow_repeated)
    except ToolkitError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def parse_graph_file(path: str) -> BipartiteGraph:
    """The graph of a graph file.  A ``partition``, when given, names the
    colour classes (its class 0 is Y) and must be the BFS 2-colouring or
    its complement; without one, vertex 0's class is Y."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ParseError(f"{path}: graph file needs fields 'n' and 'edges'")
    n, edges = doc["n"], doc["edges"]
    if not _is_int(n) or not isinstance(edges, list):
        raise ParseError(f"{path}: 'n' must be an integer and 'edges' a list")
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(_is_int(u) for u in e):
            raise ParseError(f"{path}: edges must be 2-element integer lists")
    try:
        g = build_bipartite(n, edges)
    except ToolkitError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if "partition" in doc:
        part = doc["partition"]
        if (
            not isinstance(part, list)
            or len(part) != n
            or any(not _is_int(p) or p not in (0, 1) for p in part)
        ):
            raise ParseError(f"{path}: 'partition' must be a 0/1 list of length n")
        part = tuple(part)
        if part != g.side:
            if tuple(1 - p for p in part) != g.side:
                raise ParseError(f"{path}: 'partition' does not match the BFS 2-coloring")
            # the complement of a proper colouring is proper: nothing to recheck
            g = g._replace(side=part)
    return g


def design_file_doc(d: IncidenceStructure) -> dict:
    return {"v": d.num_points, "blocks": [list(b) for b in d.blocks]}


def graph_file_doc(g: BipartiteGraph) -> dict:
    return {
        "n": g.num_vertices,
        "edges": [list(e) for e in g.edges],
        "partition": list(g.side),
    }


def _emit(doc: Any, out: str | None) -> None:
    _emit_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _plain(x: Any) -> Any:
    """A report section as JSON-shaped data: a record becomes a dict of its
    fields and a tuple a list, recursively."""
    if hasattr(x, "_asdict"):
        return {key: _plain(val) for key, val in x._asdict().items()}
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    return x


def analyze_design_report(d: IncidenceStructure) -> dict:
    report: dict[str, Any] = {
        "schema": "spbibd.analyze-design/1",
        "counts": {"points": d.num_points, "blocks": d.num_blocks, "simple": d.simple},
    }
    rk = design.replication_and_block_size(d)
    if isinstance(rk, design.NotUniform):
        report["uniform"] = {
            "witness": {"what": rk.what, "indices": list(rk.witnesses), "values": list(rk.values)}
        }
    else:
        report["uniform"] = {"r": rk[0], "k": rk[1]}

    if d.num_blocks >= 2:
        qs = design.block_intersections(d)
        report["quasi_symmetry"] = _plain(qs)
    else:
        report["quasi_symmetry"] = None

    params = design.spbibd_type(d)
    if isinstance(params, design.NotSpbibd):
        report["spbibd"] = {"rejected": params.reason, "detail": params.detail}
        report["flags"] = None
        report["constraints"] = None
        report["parameter_homogeneity"] = None
        return report

    report["spbibd"] = _plain(params)
    report["flags"] = {
        "two_design_degenerate": params.two_design_degenerate,
        "in_scope": params.in_scope,
        "partial_geometry": params.is_partial_geometry,
        "generalized_quadrangle": params.is_generalized_quadrangle,
    }
    try:
        cons = design.check_parameter_constraints(params)
        report["constraints"] = {"all_pass": cons.all_pass, **_plain(cons)}
    except NotInScopeError as exc:
        report["constraints"] = {"not_in_scope": str(exc)}
    try:
        props = homogeneity.parameter_homogeneity(params)
        report["parameter_homogeneity"] = _plain(props)
    except NotInScopeError as exc:
        report["parameter_homogeneity"] = {"not_in_scope": str(exc)}
    return report


def analyze_graph_report(g: BipartiteGraph) -> dict:
    cls = classify(g)
    return {
        "schema": "spbibd.analyze-graph/1",
        "counts": {
            "vertices": g.num_vertices,
            "edges": len(g.edges),
            "class_sizes": [len(g.class_vertices("Y")), len(g.class_vertices("Yprime"))],
        },
        "kind": cls.kind,
        "eccentricities": {"Y": cls.ecc_y, "Yprime": cls.ecc_yprime},
        "arrays": {"Y": _plain(cls.array_y), "Yprime": _plain(cls.array_yprime)},
        "witness": _plain(cls.witness),
    }


def homogeneity_report_doc(g: BipartiteGraph, side: str) -> dict:
    try:
        rep = homogeneity.homogeneity_report(g, side)
    except homogeneity.EccentricityNotUniformError as exc:
        return {
            "schema": "spbibd.check-homogeneous/1",
            "side": side,
            "not_in_scope": str(exc),
        }
    return {
        "schema": "spbibd.check-homogeneous/1",
        "side": side,
        "verdict": rep.verdict,
        "bruteforce_counts": {str(i): list(v) for i, v in rep.bruteforce_counts.items()},
        "p2ii": {str(i): str(v) for i, v in rep.p2ii.items()},
        "delta": {str(i): str(v) for i, v in rep.delta.items()},
        "formula_verdict": rep.formula_verdict,
        "formula_skipped": rep.formula_skipped,
    }


def _render_human(doc: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for key in sorted(doc):
            val = doc[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_human(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines)
    if isinstance(doc, list):
        if all(not isinstance(v, (dict, list)) for v in doc):
            return f"{pad}{', '.join(str(v) for v in doc)}"
        return "\n".join(_render_human(v, indent) for v in doc)
    return f"{pad}{doc}"


def _emit_report(doc: dict, out: str | None, human: bool) -> None:
    if human:
        _emit_text(_render_human(doc) + "\n", out)
    else:
        _emit(doc, out)


# family -> file document; a size outside a family's range raises ValueError
_FAMILIES = {
    "gq22": lambda a: design_file_doc(generators.gq22()),
    "fano": lambda a: design_file_doc(generators.fano()),
    "grid": lambda a: design_file_doc(generators.grid_design(a.n)),
    "wq": lambda a: design_file_doc(generators.symplectic_gq(a.n)),
    "complete": lambda a: design_file_doc(generators.complete_bipartite_design(a.v, a.b)),
    "cycle": lambda a: graph_file_doc(generators.even_cycle(a.n)),
    "path": lambda a: graph_file_doc(generators.path_graph(a.n)),
    "subdivision": lambda a: graph_file_doc(generators.subdivision_complete_bipartite(a.n)),
    "tutte-coxeter": lambda a: graph_file_doc(generators.tutte_coxeter()),
}


def _cmd_generate(args) -> int:
    try:
        doc = _FAMILIES[args.family](args)
    except ValueError as exc:
        raise ParseError(f"{args.family}: {exc}") from exc
    _emit(doc, args.out)
    return 0


def _cmd_analyze_design(args) -> int:
    d = parse_design_file(args.path, allow_repeated=args.allow_repeated)
    _emit_report(analyze_design_report(d), args.out, args.human)
    return 0


def _cmd_analyze_graph(args) -> int:
    g = parse_graph_file(args.path)
    _emit_report(analyze_graph_report(g), args.out, args.human)
    return 0


def _cmd_to_graph(args) -> int:
    d = parse_design_file(args.path, allow_repeated=args.allow_repeated)
    g = correspondence.incidence_graph(d)
    _emit(graph_file_doc(g), args.out)
    return 0


def _cmd_from_graph(args) -> int:
    g = parse_graph_file(args.path)
    ext = correspondence.design_from_graph(g, args.points)
    _emit(design_file_doc(ext.structure), args.out)
    return 0


def _cmd_check_homogeneous(args) -> int:
    g = parse_graph_file(args.path)
    doc = homogeneity_report_doc(g, args.side)
    _emit_report(doc, args.out, args.human)
    return 0


def _cmd_search(args) -> int:
    candidates = search.enumerate_candidates(
        args.max_r, args.max_k, args.target, force_y=args.force_y
    )
    _emit_text(search.candidates_csv(candidates), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spbibd",
        description="Verify designs and bipartite distance-regularized graphs, "
        "check 2-homogeneity, and search parameter tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a fixture design or graph file")
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument(
        "--n", type=int, default=3, help="size parameter (grid/cycle/path/subdivision; prime q for wq)"
    )
    p.add_argument("--v", type=int, default=2, help="points (complete)")
    p.add_argument("--b", type=int, default=2, help="blocks (complete)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze-design", help="full design-side report")
    p.add_argument("path")
    p.add_argument("--allow-repeated", action="store_true")
    p.add_argument("--human", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_design)

    p = sub.add_parser("analyze-graph", help="distance-regularity classification report")
    p.add_argument("path")
    p.add_argument("--human", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_graph)

    p = sub.add_parser("to-graph", help="design file -> incidence graph file")
    p.add_argument("path")
    p.add_argument("--allow-repeated", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_to_graph)

    p = sub.add_parser("from-graph", help="graph file -> design file (chosen class as points)")
    p.add_argument("path")
    p.add_argument("--points", choices=list(SIDES), default="Y")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_from_graph)

    p = sub.add_parser("check-homogeneous", help="(almost) 2-homogeneity report for one class")
    p.add_argument("path")
    p.add_argument("--side", choices=list(SIDES), default="Y")
    p.add_argument("--human", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_homogeneous)

    p = sub.add_parser("search", help="enumerate admissible parameter tuples as CSV")
    p.add_argument("--target", choices=list(TARGETS), required=True)
    p.add_argument("--max-r", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--force-y", type=int, default=None, help="restrict to one y >= 1 (diagnostic)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConsistencyError) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
