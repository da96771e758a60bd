"""Distance-regularity classification for connected bipartite graphs.

Every check reads the graph's cached views (``BipartiteGraph.layers``:
per vertex, the int bitset of the vertices at each distance, built for
all sources in one level-by-level sweep, at most once per graph; and
``residues``, the same distances mod 4).  Intersection numbers are
popcounts: c_i of y is the number of y's neighbours in the layer i-1, and
b_i = degree - c_i.  A class is decided for all its vertices at once from
bit-sliced counts (:func:`core.nearer_counts`), about one bitset
operation per edge, whatever the diameter; every test stays exhaustive.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    BipartiteGraph,
    ConsistencyError,
    IntersectionArray,
    NoEdgesError,  # re-exported: classify raises it through class_vertices
    Y_SIDE,
    distance_row,
    nearer_counts,
)

KIND_DISTANCE_REGULAR = "distance-regular"
KIND_DISTANCE_BIREGULAR = "distance-biregular"
KIND_SEMIREGULAR_Y_ONLY = "distance-semiregular-Y-only"
KIND_SEMIREGULAR_YPRIME_ONLY = "distance-semiregular-Yprime-only"
KIND_NOT_REGULARIZED = "not-distance-regularized"


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

    def array_for(self, side: str) -> IntersectionArray | None:
        return self.array_y if side == Y_SIDE else self.array_yprime


def _class_levels(g: BipartiteGraph, vertices: tuple[int, ...], ecc: int) -> list[dict] | None:
    """For each level i = 0..ecc, the keys (b, c) that the class vertices x
    see at distance i, each mapped to the bitset of those x; None as soon
    as one class vertex sees two keys at one level.

    The counts of every x come at once, per y: c_x(y) is the number of
    neighbours of y one step closer to x than y is, which
    :func:`nearer_counts` gives for the whole class in one bit-sliced sum
    over N(y); the groups are then split by the level of x from y.
    """
    cls = sum(1 << v for v in vertices)
    levels: list[dict] = [{} for _ in range(ecc + 1)]
    seen = [0] * len(levels)
    for y, ly in enumerate(g.layers):
        nbrs = g.adjacency_masks[y]
        deg = nbrs.bit_count()
        # only the levels of y's parity as seen from the class meet it
        parity = g.side[y] ^ g.side[vertices[0]]
        for c, members in nearer_counts(g, y, nbrs, cls):
            for i in range(parity, len(ly), 2):
                hit = members & ly[i]
                if hit:
                    keys = levels[i]
                    key = (deg - c, c)
                    had = keys.get(key, 0)
                    if hit & seen[i] & ~had:
                        return None
                    keys[key] = had | hit
                    seen[i] |= hit
                    members ^= hit
                    if not members:
                        break
    return levels


def uniform_array(
    g: BipartiteGraph, vertices: tuple[int, ...]
) -> tuple[IntersectionArray | None, int, NotRegularizedAt | None]:
    """A class's common array (None unless every vertex is
    distance-regularized with the same array), its maximum eccentricity,
    and the first non-regularity witness in vertex order when one exists.
    ``vertices`` is a whole class, never empty (BipartiteGraph.class_vertices).

    The verdict comes from the per-level keys of every vertex at once
    (:func:`_class_levels`); a vertex is called through
    ``local_intersection_numbers`` only to read a uniform class's array
    from its first vertex, or, in vertex order up to the first witness,
    to name that witness."""
    ecc = max(len(g.layers[v]) - 1 for v in vertices)
    levels = _class_levels(g, vertices, ecc)
    if levels is None:
        for v in vertices:
            arr = local_intersection_numbers(g, v)
            if isinstance(arr, NotRegularizedAt):
                return None, ecc, arr
        raise ConsistencyError("class scan found an irregular vertex that has no witness")
    # every vertex has a key at level 0, and b_i > 0 exactly below its
    # eccentricity, so one key per level is one array for the whole class
    if any(len(keys) != 1 for keys in levels):
        return None, ecc, None
    arr = local_intersection_numbers(g, vertices[0])
    if isinstance(arr, NotRegularizedAt):
        raise ConsistencyError(f"class scan missed the witness at vertex {arr.vertex}")
    return arr, ecc, None


def classify(g: BipartiteGraph) -> ClassificationResult:
    """Classify a connected bipartite graph by testing every vertex.

    Distance-regular when all vertices share one array; distance-biregular
    when the array depends only on the color class (and the graph is not
    regular); semiregular-one-side when only one class is uniform.
    The one-vertex graph raises NoEdgesError.
    """
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
