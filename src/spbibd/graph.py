"""Distance-regularity classification for connected bipartite graphs.

Every check reads the graph's one cached view of distance layers
(``BipartiteGraph.layers``: per vertex, the int bitset of the vertices at
each distance, one bitset BFS per vertex, built at most once per graph).
Intersection numbers are popcounts: c_i of y is the number of y's
neighbours in the layer i-1, and b_i = degree - c_i.  Every test is
exhaustive: the graphs in scope are desk-scale, so an O(V*E) sweep per
classification is acceptable.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    BipartiteGraph,
    IntersectionArray,
    SIDES,
    ToolkitError,
    Y_SIDE,
    distance_row,
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
    return tuple(distance_row(g.layers[v], g.num_vertices))


def all_distances(g: BipartiteGraph) -> tuple[tuple[int, ...], ...]:
    """Full distance matrix."""
    return tuple(tuple(distance_row(layers, g.num_vertices)) for layers in g.layers)


class NotRegularizedAt(NamedTuple):
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
    layers = g.layers[x]
    below = (0, *layers)  # below[i] is the layer i - 1, empty for i = 0
    masks = g.adjacency_masks
    ecc = len(layers) - 1
    b = [0] * (ecc + 1)
    c = [0] * (ecc + 1)
    first_rep: list[int | None] = [None] * (ecc + 1)
    # vertex order, not layer order: it fixes which witness comes first
    for y, i in enumerate(distance_row(layers, g.num_vertices)):
        nbrs = masks[y]
        nc = (nbrs & below[i]).bit_count()
        nb = nbrs.bit_count() - nc  # degree - c_i: a_i = 0 in a bipartite graph
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


class ClassificationResult(NamedTuple):
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
    """Scan a class in vertex order: its common array (None unless every
    vertex is distance-regularized with the same array), its maximum
    eccentricity, and the first non-regularity witness when one exists.
    The scan stops at that witness."""
    ecc = max((len(g.layers[v]) - 1 for v in vertices), default=0)
    arrays = set()
    for v in vertices:
        arr = local_intersection_numbers(g, v)
        if isinstance(arr, NotRegularizedAt):
            return None, ecc, arr
        arrays.add(arr)
    return arrays.pop() if len(arrays) == 1 else None, ecc, None


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
