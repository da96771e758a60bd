"""Command-line surface: analyze designs and graphs, convert between
them, check homogeneity, run the parameter search and emit fixture
families.

All reports are deterministic byte streams (sorted-key JSON) so batch
pipelines can diff them; verdict outcomes never set a nonzero exit code.
Exit codes: 0 success, 1 I/O, parse, input-range or transform failure,
2 a bad command line, 3 an internal cross-check disagreed
(ConsistencyError, a defect here).

``json`` is imported where a file is read or a report is written, not at
import: ``search`` writes CSV and reads no file, so it never loads it.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Any

from . import correspondence, design, equalities, generators, graph, homogeneity, search
from .core import (
    BipartiteGraph,
    ConsistencyError,
    IncidenceStructure,
    NotInScopeError,
    SIDES,
    TARGETS,
    ToolkitError,
    build_bipartite,
    fraction_text,
    validate_structure,
)


class ParseError(ToolkitError):
    pass


def _read_json(path: str) -> Any:
    import json

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
    """JSON integers only: the exact type refuses ``true`` (a bool, an int subclass) and ``1.0``."""
    return type(x) is int


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
        if type(e) is not list or len(e) != 2 or not (_is_int(e[0]) and _is_int(e[1])):
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


def _emit(doc: Any, out: str | None, human: bool = False) -> None:
    """Writes text as it is, a document as sorted-key JSON or indented text."""
    if not isinstance(doc, str):
        if human:
            doc = _render_human(doc) + "\n"
        else:
            import json

            doc = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(doc)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc)


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
        props = equalities.parameter_homogeneity(params)
        report["parameter_homogeneity"] = _plain(props)
    except NotInScopeError as exc:
        report["parameter_homogeneity"] = {"not_in_scope": str(exc)}
    return report


def analyze_graph_report(g: BipartiteGraph) -> dict:
    cls = graph.classify(g)
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
        "p2ii": {str(i): fraction_text(v, rep.c2) for i, v in rep.p2ii.items()},
        "delta": {str(i): fraction_text(v, rep.c2) for i, v in rep.delta.items()},
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


def _cmd_generate(args) -> None:
    try:
        doc = _FAMILIES[args.family](args)
    except ValueError as exc:
        raise ParseError(f"{args.family}: {exc}") from exc
    _emit(doc, args.out)


def _cmd_analyze_design(args) -> None:
    d = parse_design_file(args.path, allow_repeated=args.allow_repeated)
    _emit(analyze_design_report(d), args.out, args.human)


def _cmd_analyze_graph(args) -> None:
    _emit(analyze_graph_report(parse_graph_file(args.path)), args.out, args.human)


def _cmd_to_graph(args) -> None:
    d = parse_design_file(args.path, allow_repeated=args.allow_repeated)
    _emit(graph_file_doc(correspondence.incidence_graph(d)), args.out)


def _cmd_from_graph(args) -> None:
    ext = correspondence.design_from_graph(parse_graph_file(args.path), args.points)
    _emit(design_file_doc(ext.structure), args.out)


def _cmd_check_homogeneous(args) -> None:
    _emit(homogeneity_report_doc(parse_graph_file(args.path), args.side), args.out, args.human)


def _cmd_search(args) -> None:
    candidates = search.enumerate_candidates(args.max_r, args.max_k, args.target, force_y=args.force_y)
    _emit(search.candidates_csv(candidates), args.out)


def _cmd_help(command: str | None) -> None:
    """The usage line, then one line per command, or per argument of one."""
    if command is None:
        text, rows = _ABOUT, [(name, entry[0]) for name, entry in _COMMANDS.items()]
    else:
        text, rows = _COMMANDS[command][0], [(_spelling(a), a[4]) for a in _COMMANDS[command][2]]
    rows.insert(0, ("-h, --help", "show this help and exit"))
    print(_usage(command), "", text, "", *(f"  {left:<20}  {right}" for left, right in rows), sep="\n")


_PATH = ("path", str, None, True, "input file")
_REPEATED = ("--allow-repeated", bool, False, False, "accept repeated blocks")
_HUMAN = ("--human", bool, False, False, "indented text instead of JSON")
_OUT = ("--out", str, None, False, "write to this file instead of stdout")
_ABOUT = "Verify designs and bipartite distance-regularized graphs, check 2-homogeneity and search parameter tuples."

# command -> (help, handler, arguments).  An argument is (name, kind, default
# or choices, required, help) with kind int, str or bool (a flag, taking no
# value); a name without dashes is positional, and choices default to the first.
_COMMANDS = {
    "generate": ("emit a fixture design or graph file", _cmd_generate, (
        ("family", str, tuple(_FAMILIES), True, "fixture family"),
        ("--n", int, 3, False, "size parameter (grid/cycle/path/subdivision; prime q for wq)"),
        ("--v", int, 2, False, "points (complete)"),
        ("--b", int, 2, False, "blocks (complete)"), _OUT)),
    "analyze-design": ("full design-side report", _cmd_analyze_design, (_PATH, _REPEATED, _HUMAN, _OUT)),
    "analyze-graph": ("distance-regularity classification report", _cmd_analyze_graph, (_PATH, _HUMAN, _OUT)),
    "to-graph": ("design file -> incidence graph file", _cmd_to_graph, (_PATH, _REPEATED, _OUT)),
    "from-graph": ("graph file -> design file (chosen class as points)", _cmd_from_graph,
                   (_PATH, ("--points", str, SIDES, False, "class that becomes the points"), _OUT)),
    "check-homogeneous": ("(almost) 2-homogeneity report for one class", _cmd_check_homogeneous,
                          (_PATH, ("--side", str, SIDES, False, "class to check"), _HUMAN, _OUT)),
    "search": ("enumerate admissible parameter tuples as CSV", _cmd_search, (
        ("--target", str, TARGETS, True, "homogeneity target"),
        ("--max-r", int, None, True, "largest replication number r"),
        ("--max-k", int, None, True, "largest block size k"),
        ("--force-y", int, None, False, "restrict to one y >= 1 (diagnostic)"), _OUT)),
}


class UsageError(Exception):
    """(command or None, reason) of a bad command line: exit code 2."""


def _spelling(arg: tuple) -> str:
    """An argument as a command line writes it: name and value placeholder."""
    name, kind, default = arg[:3]
    value = "{%s}" % ",".join(default) if isinstance(default, tuple) else name.lstrip("-").upper()
    return value if name[0] != "-" else name if kind is bool else f"{name} {value}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: spbibd [-h] {%s} ..." % ",".join(_COMMANDS)
    words = (_spelling(a) if a[3] else f"[{_spelling(a)}]" for a in _COMMANDS[command][2])
    return " ".join(("usage: spbibd", command, "[-h]", *words))


def _is_option(word: str) -> bool:
    """Whether a word names an option: ``-`` and negative integers are values."""
    return word[:1] == "-" and word != "-" and not word[1:].isdigit()


def _parse(argv: list[str]) -> tuple:
    """The handler of a command line and the argument to call it with."""
    command, *words = argv or [None]
    if command in ("-h", "--help"):
        return _cmd_help, None
    if command not in _COMMANDS:
        raise UsageError(None, f"unknown command {command!r}" if argv else "a command is required")
    spec = _COMMANDS[command][2]
    options = {a[0]: a for a in spec if a[0][0] == "-"}
    positionals = [a for a in spec if a[0][0] != "-"]
    given = {}
    while words:
        word = words.pop(0)
        if word in ("-h", "--help"):
            return _cmd_help, command
        name, eq, value = word.partition("=") if _is_option(word) else ("", "", word)
        arg = options.get(name) if name else positionals.pop(0) if positionals else None
        if arg is None or eq and arg[1] is bool:
            raise UsageError(command, f"unknown option {word!r}" if name else f"unexpected argument {word!r}")
        if arg[1] is bool:
            value = True
        elif name and not eq:
            if not words or _is_option(words[0]):
                raise UsageError(command, f"{name} needs a value")
            value = words.pop(0)
        if isinstance(arg[2], tuple) and value not in arg[2]:
            raise UsageError(command, f"{arg[0]}: invalid choice {value!r} (choose from {', '.join(arg[2])})")
        try:
            given[arg[0]] = arg[1](value)
        except ValueError:
            raise UsageError(command, f"{arg[0]}: not an integer: {value!r}") from None
    missing = [a[0] for a in spec if a[3] and a[0] not in given]
    if missing:
        raise UsageError(command, f"missing {', '.join(missing)}")
    values = {a[0]: a[2][0] if isinstance(a[2], tuple) else a[2] for a in spec} | given
    return _COMMANDS[command][1], SimpleNamespace(**{n.lstrip("-").replace("-", "_"): v for n, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        handler(args)
        return 0
    except UsageError as exc:
        print(f"{_usage(exc.args[0])}\nspbibd: error: {exc.args[1]}", file=sys.stderr)
        return 2
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
