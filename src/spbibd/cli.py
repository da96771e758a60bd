"""Command-line surface: analyze designs and graphs, convert between
them, check homogeneity, run the parameter search and emit fixture
families.

All reports are deterministic byte streams (sorted-key JSON) so batch
pipelines can diff them; verdict outcomes never set a nonzero exit code.
Exit codes: 0 success, 1 I/O, parse, input-range or transform failure or
running out of memory, 2 a bad command line, 3 an internal cross-check
disagreed (ConsistencyError, a defect here).  ``main()``, as the console
script calls it, freezes the start-up heap; ``main(argv)`` never touches
the collector.

``json`` is imported where a file is read or a report is written, not at
import: ``search`` writes CSV and reads no file, so it never loads it.
Each report is built in the module that computes it, and ``usage`` holds
the help text, ``--human`` and ``generate``'s families, loaded likewise.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from . import correspondence, design, graph, homogeneity, search
from .core import (
    BipartiteGraph,
    ConsistencyError,
    IncidenceStructure,
    SIDES,
    TARGETS,
    ToolkitError,
    build_bipartite,
    validate_structure,
)


class ParseError(ToolkitError):
    pass


def _read_json(path: str) -> object:
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


def _is_int(x: object) -> bool:
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
            # the complement of a proper colouring is proper: nothing to
            # recheck, and the edges, so their cached views, stay
            flipped = g._replace(side=part)
            flipped.__dict__.update(g.__dict__)
            g = flipped
    return g


def design_file_doc(d: IncidenceStructure) -> dict:
    return {"v": d.num_points, "blocks": [list(b) for b in d.blocks]}


def graph_file_doc(g: BipartiteGraph) -> dict:
    return {"n": g.num_vertices, "edges": [list(e) for e in g.edges], "partition": list(g.side)}


def _emit(doc: object, out: str | None, human: bool = False) -> None:
    """Writes text as it is, a document as sorted-key JSON or indented text."""
    if not isinstance(doc, str):
        if human:
            from .usage import render_human

            doc = render_human(doc) + "\n"
        else:
            import json

            doc = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(doc)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc)


def _cmd_generate(args) -> None:
    from .usage import FAMILIES

    try:
        built = FAMILIES[args.family](args)
    except ValueError as exc:
        raise ParseError(f"{args.family}: {exc}") from exc
    _emit(design_file_doc(built) if isinstance(built, IncidenceStructure) else graph_file_doc(built), args.out)


def _cmd_analyze_design(args) -> None:
    d = parse_design_file(args.path, allow_repeated=args.allow_repeated)
    _emit(design.analyze_design_report(d), args.out, args.human)


def _cmd_analyze_graph(args) -> None:
    _emit(graph.analyze_graph_report(parse_graph_file(args.path)), args.out, args.human)


def _cmd_to_graph(args) -> None:
    d = parse_design_file(args.path, allow_repeated=args.allow_repeated)
    _emit(graph_file_doc(correspondence.incidence_graph(d)), args.out)


def _cmd_from_graph(args) -> None:
    ext = correspondence.design_from_graph(parse_graph_file(args.path), args.points)
    _emit(design_file_doc(ext.structure), args.out)


def _cmd_check_homogeneous(args) -> None:
    _emit(homogeneity.homogeneity_report_doc(parse_graph_file(args.path), args.side), args.out, args.human)


def _cmd_search(args) -> None:
    candidates = search.enumerate_candidates(args.max_r, args.max_k, args.target, force_y=args.force_y)
    _emit(search.candidates_csv(candidates), args.out)


def _cmd_help(command: str | None) -> None:
    from .usage import print_help

    print_help(_COMMANDS, command)


_PATH = ("path", str, None, True, "input file")
_REPEATED = ("--allow-repeated", bool, False, False, "accept repeated blocks")
_HUMAN = ("--human", bool, False, False, "indented text instead of JSON")
_OUT = ("--out", str, None, False, "write to this file instead of stdout")
# generate's families, in the order of usage.FAMILIES, which builds them
_FAMILIES = ("gq22", "fano", "grid", "wq", "complete", "cycle", "path", "subdivision", "tutte-coxeter")

# command -> (help, handler, arguments).  An argument is (name, kind, default
# or choices, required, help) with kind int, str or bool (a flag, taking no
# value); a name without dashes is positional, and choices default to the first.
_COMMANDS = {
    "generate": ("emit a fixture design or graph file", _cmd_generate, (
        ("family", str, _FAMILIES, True, "fixture family"),
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
    """Runs one command line and returns its exit code.

    Without ``argv`` it reads ``sys.argv`` and owns the process, which ends
    when it returns, so it first freezes what start-up left alive (that
    lives until exit anyway): no collection, those at exit included, walks
    it again.  ``main(argv)`` leaves the caller's collector as it is."""
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    try:
        handler, args = _parse(list(argv))
        handler(args)
        return 0
    except UsageError as exc:
        from .usage import usage_line

        print(f"{usage_line(_COMMANDS, exc.args[0])}\nspbibd: error: {exc.args[1]}", file=sys.stderr)
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
    except MemoryError:
        print("error: MemoryError: the command ran out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
