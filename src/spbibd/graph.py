"""Distance-regularity classification for connected bipartite graphs.

Every check reads the graph's one cached distance matrix
(``BipartiteGraph.distances``, one BFS per vertex, built at most once per
graph).  Every test is exhaustive: the graphs in scope are desk-scale, so
an O(V*E) sweep per classification is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BipartiteGraph,
    IntersectionArray,
    SIDES,
    ToolkitError,
    Y_SIDE,
)

KIND_DISTANCE_REGULAR = "distance-regular"
KIND_DISTANCE_BIREGULAR = "distance-biregular"
KIND_SEMIREGULAR_Y_ONLY = "distance-semiregular-Y-only"
KIND_SEMIREGULAR_YPRIME_ONLY = "distance-semiregular-Yprime-only"
KIND_NOT_REGULARIZED = "not-distance-regularized"


class NoEdgesError(ToolkitError):
    """Classification needs at least one edge."""


def bfs_distances(g: BipartiteGraph, v: int) -> tuple[int, ...]:
    """Exact shortest-path distances from v to every vertex."""
    if v < 0 or v >= g.num_vertices:
        raise IndexError(f"vertex {v} out of range")
    return g.distances[v]


def eccentricity(g: BipartiteGraph, v: int) -> int:
    return max(bfs_distances(g, v))


def all_distances(g: BipartiteGraph) -> tuple[tuple[int, ...], ...]:
    """Full distance matrix."""
    return g.distances


@dataclass(frozen=True)
class NotRegularizedAt:
    """Witness that a vertex is not distance-regularized: two vertices at
    the same distance from ``vertex`` with different b- or c-counts."""

    vertex: int
    distance: int
    count_kind: str  # "b" or "c"
    witnesses: tuple[int, int]
    counts: tuple[int, int]


def local_intersection_numbers(
    g: BipartiteGraph, x: int
) -> IntersectionArray | NotRegularizedAt:
    """Intersection numbers of x, or a witness pair if they do not exist.

    For each i and every y at distance i from x the counts
    |Gamma_{i+1}(x) n Gamma(y)| and |Gamma_{i-1}(x) n Gamma(y)| must be
    constant; the first (y1, y2) with differing counts is returned
    otherwise.
    """
    dist = bfs_distances(g, x)
    ecc = max(dist)
    b = [0] * (ecc + 1)
    c = [0] * (ecc + 1)
    first_rep: list[int | None] = [None] * (ecc + 1)
    for y in range(g.num_vertices):
        i = dist[y]
        nc = sum(1 for w in g.neighbors(y) if dist[w] == i - 1)
        nb = g.degree(y) - nc  # a_i = 0 in a bipartite graph
        if first_rep[i] is None:
            first_rep[i] = y
            b[i] = nb
            c[i] = nc
        else:
            if nb != b[i]:
                return NotRegularizedAt(x, i, "b", (first_rep[i], y), (b[i], nb))
            if nc != c[i]:
                return NotRegularizedAt(x, i, "c", (first_rep[i], y), (c[i], nc))
    return IntersectionArray(tuple(b), tuple(c))


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of testing distance-regularity at every vertex.

    ``ecc_y`` / ``ecc_yprime`` are the maximum eccentricities over each
    class (all equal within a class whenever that class is uniform).
    """

    kind: str
    array_y: IntersectionArray | None
    array_yprime: IntersectionArray | None
    ecc_y: int
    ecc_yprime: int
    witness: NotRegularizedAt | None = None

    def is_distance_semiregular(self, side: str) -> bool:
        """Distance-regular around every vertex of ``side`` with common
        parameters (true for both sides of any distance-regularized graph)."""
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if self.kind in (KIND_DISTANCE_REGULAR, KIND_DISTANCE_BIREGULAR):
            return True
        if side == Y_SIDE:
            return self.kind == KIND_SEMIREGULAR_Y_ONLY
        return self.kind == KIND_SEMIREGULAR_YPRIME_ONLY

    def array_for(self, side: str) -> IntersectionArray | None:
        return self.array_y if side == Y_SIDE else self.array_yprime


def uniform_array(
    g: BipartiteGraph, vertices: tuple[int, ...]
) -> tuple[IntersectionArray | None, int, NotRegularizedAt | None]:
    """Scan every vertex of a class: its common array (None unless every
    vertex is distance-regularized with the same array), its maximum
    eccentricity, and the first non-regularity witness when one exists."""
    arrays = [local_intersection_numbers(g, v) for v in vertices]
    witness = next((a for a in arrays if isinstance(a, NotRegularizedAt)), None)
    uniform = witness is None and all(a == arrays[0] for a in arrays)
    common = arrays[0] if arrays and uniform else None
    return common, max((max(g.distances[v]) for v in vertices), default=0), witness


def classify(g: BipartiteGraph) -> ClassificationResult:
    """Classify a connected bipartite graph by testing every vertex.

    Distance-regular when all vertices share one array; distance-biregular
    when the array depends only on the color class (and the graph is not
    regular); semiregular-one-side when only one class is uniform.
    """
    if not g.edges:
        raise NoEdgesError("classification needs at least one edge")
    ys = g.class_vertices("Y")
    yps = g.class_vertices("Yprime")
    array_y, ecc_y, wit_y = uniform_array(g, ys)
    array_yp, ecc_yp, wit_yp = uniform_array(g, yps)

    if array_y is not None and array_yp is not None:
        kind = (
            KIND_DISTANCE_REGULAR
            if array_y == array_yp
            else KIND_DISTANCE_BIREGULAR
        )
    elif array_y is not None:
        kind = KIND_SEMIREGULAR_Y_ONLY
    elif array_yp is not None:
        kind = KIND_SEMIREGULAR_YPRIME_ONLY
    else:
        kind = KIND_NOT_REGULARIZED
    return ClassificationResult(
        kind=kind,
        array_y=array_y,
        array_yprime=array_yp,
        ecc_y=ecc_y,
        ecc_yprime=ecc_yp,
        witness=wit_y if wit_y is not None else wit_yp,
    )
