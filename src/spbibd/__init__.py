"""Toolkit for the correspondence between quasi-symmetric SPBIBDs and
bipartite distance-regularized graphs with vertices of eccentricity 4.

Every CLI command uses ``core``, so it is imported here.  The other
submodules but ``usage`` (which ``cli`` imports where it needs it),
``graph`` included (``search``, ``generate``, ``to-graph`` and
``analyze-design`` never classify a graph), are registered in
``sys.modules`` through ``importlib.util.LazyLoader``: a process compiles
and runs a module's code only at its first attribute access, so each
command loads only what it runs.  Modules call ``graph.classify`` through
the module, since binding the name at import would load it.  The public
names below resolve on first use (PEP 562).  ``LazyLoader`` is not
thread-safe before Python 3.12; the package starts no threads, so a
threaded caller should touch each lazily registered submodule from one
thread first.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import core

# defining module -> the public names it provides
_PUBLIC = {
    "core": (
        "BipartiteGraph",
        "IncidenceStructure",
        "IntersectionArray",
        "ToolkitError",
        "build_bipartite",
        "validate_structure",
    ),
    "correspondence": (
        "DerivedDesignParams",
        "design_from_graph",
        "expected_incidence_arrays",
        "incidence_graph",
    ),
    "design": (
        "QuasiSymmetryInfo",
        "block_intersections",
        "check_parameter_constraints",
        "dual",
        "replication_and_block_size",
        "spbibd_type",
    ),
    "equalities": ("SpbibdParams", "parameter_homogeneity"),
    "graph": ("ClassificationResult", "bfs_distances", "classify", "local_intersection_numbers"),
    "homogeneity": (
        "HomogeneityReport",
        "delta_value",
        "homogeneity_report",
        "homogeneous_by_bruteforce",
        "homogeneous_by_formula",
    ),
    "search": ("CandidateTuple", "enumerate_candidates"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)


def _register_lazily(module: str):
    spec = find_spec(f"{__name__}.{module}")
    spec.loader = LazyLoader(spec.loader)
    lazy = module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


correspondence = _register_lazily("correspondence")
design = _register_lazily("design")
equalities = _register_lazily("equalities")
generators = _register_lazily("generators")
graph = _register_lazily("graph")
homogeneity = _register_lazily("homogeneity")
search = _register_lazily("search")


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
