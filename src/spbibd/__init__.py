"""Toolkit for the correspondence between quasi-symmetric SPBIBDs and
bipartite distance-regularized graphs with vertices of eccentricity 4."""

from .core import (
    BipartiteGraph,
    IncidenceStructure,
    IntersectionArray,
    SpbibdParams,
    ToolkitError,
    build_bipartite,
    validate_structure,
)
from .correspondence import (
    DerivedDesignParams,
    design_from_graph,
    expected_incidence_arrays,
    incidence_graph,
)
from .design import (
    QuasiSymmetryInfo,
    block_intersections,
    check_parameter_constraints,
    dual,
    replication_and_block_size,
    spbibd_type,
)
from .graph import ClassificationResult, bfs_distances, classify, local_intersection_numbers
from .homogeneity import (
    HomogeneityReport,
    delta_value,
    homogeneity_report,
    homogeneous_by_bruteforce,
    homogeneous_by_formula,
    p2ii_formula,
    parameter_homogeneity,
)
from .search import CandidateTuple, enumerate_candidates

__all__ = [
    "BipartiteGraph",
    "CandidateTuple",
    "ClassificationResult",
    "DerivedDesignParams",
    "HomogeneityReport",
    "IncidenceStructure",
    "IntersectionArray",
    "QuasiSymmetryInfo",
    "SpbibdParams",
    "ToolkitError",
    "bfs_distances",
    "block_intersections",
    "build_bipartite",
    "check_parameter_constraints",
    "classify",
    "delta_value",
    "design_from_graph",
    "dual",
    "enumerate_candidates",
    "expected_incidence_arrays",
    "homogeneity_report",
    "homogeneous_by_bruteforce",
    "homogeneous_by_formula",
    "incidence_graph",
    "local_intersection_numbers",
    "p2ii_formula",
    "parameter_homogeneity",
    "replication_and_block_size",
    "spbibd_type",
    "validate_structure",
]
