"""What no report or search runs: the help and usage text, ``--human`` and
``generate``'s families, imported inside the ``cli`` handlers that need it.
Under ``python -m spbibd.cli`` the running module is ``__main__``, not
``spbibd.cli``, so nothing here imports ``cli``: the table is an argument.
"""

from __future__ import annotations

from . import generators

ABOUT = "Verify designs and bipartite distance-regularized graphs, check 2-homogeneity and search parameter tuples."

# family -> the design or graph it names; a size outside a family's range
# raises ValueError.  The keys are cli's choices for generate's family.
FAMILIES = {
    "gq22": lambda a: generators.gq22(),
    "fano": lambda a: generators.fano(),
    "grid": lambda a: generators.grid_design(a.n),
    "wq": lambda a: generators.symplectic_gq(a.n),
    "complete": lambda a: generators.complete_bipartite_design(a.v, a.b),
    "cycle": lambda a: generators.even_cycle(a.n),
    "path": lambda a: generators.path_graph(a.n),
    "subdivision": lambda a: generators.subdivision_complete_bipartite(a.n),
    "tutte-coxeter": lambda a: generators.tutte_coxeter(),
}


def print_help(commands: dict, command: str | None) -> None:
    """The usage line, then one line per command, or per argument of one."""
    if command is None:
        text, rows = ABOUT, [(name, entry[0]) for name, entry in commands.items()]
    else:
        text, rows = commands[command][0], [(_spelling(a), a[4]) for a in commands[command][2]]
    rows.insert(0, ("-h, --help", "show this help and exit"))
    print(usage_line(commands, command), "", text, "", *(f"  {left:<20}  {right}" for left, right in rows), sep="\n")


def _spelling(arg: tuple) -> str:
    """An argument as a command line writes it: name and value placeholder."""
    name, kind, default = arg[:3]
    value = "{%s}" % ",".join(default) if isinstance(default, tuple) else name.lstrip("-").upper()
    return value if name[0] != "-" else name if kind is bool else f"{name} {value}"


def usage_line(commands: dict, command: str | None) -> str:
    if command is None:
        return "usage: spbibd [-h] {%s} ..." % ",".join(commands)
    words = (_spelling(a) if a[3] else f"[{_spelling(a)}]" for a in commands[command][2])
    return " ".join(("usage: spbibd", command, "[-h]", *words))


def render_human(doc: object, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for key in sorted(doc):
            val = doc[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(render_human(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines)
    if isinstance(doc, list):
        if all(not isinstance(v, (dict, list)) for v in doc):
            return f"{pad}{', '.join(str(v) for v in doc)}"
        return "\n".join(render_human(v, indent) for v in doc)
    return f"{pad}{doc}"
