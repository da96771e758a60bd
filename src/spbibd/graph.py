"""Distance-regularity classification for connected bipartite graphs.

Every check reads the graph's cached views (``BipartiteGraph.layers``:
per vertex, the int bitset of the vertices at each distance, built for
all sources in one level-by-level sweep, at most once per graph; and
``residues``, the same distances mod 4).  :func:`classify` decides both
classes in one exhaustive sweep, one :func:`core.nearer_counts` per vertex:
a uniform class's array is its one (b_i, c_i) per level, checked against its
first vertex's layer sizes; :func:`local_intersection_numbers` only names witnesses.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    BipartiteGraph,
    ConsistencyError,
    IntersectionArray,
    YPRIME_SIDE,
    Y_SIDE,
    distance_row,
    nearer_counts,
    plain,
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
    class (all equal within a class whenever that class is uniform).  Each
    class's first witness in vertex order is ``witness_y`` / ``witness_yprime``;
    ``witness``, the one analyze-graph reports, is Y's, else Yprime's.
    """

    kind: str
    array_y: IntersectionArray | None
    array_yprime: IntersectionArray | None
    ecc_y: int
    ecc_yprime: int
    witness_y: NotRegularizedAt | None = None
    witness_yprime: NotRegularizedAt | None = None

    @property
    def witness(self) -> NotRegularizedAt | None:
        return self.witness_y if self.witness_y is not None else self.witness_yprime

    def array_for(self, side: str) -> IntersectionArray | None:
        return self.array_y if side == Y_SIDE else self.array_yprime

    def witness_for(self, side: str) -> NotRegularizedAt | None:
        return self.witness_y if side == Y_SIDE else self.witness_yprime


def _class_levels(g: BipartiteGraph, classes: tuple[int, ...], eccs: tuple[int, ...]) -> list[list[dict] | None]:
    """Per class (bitsets of Y and Yprime), for each level i = 0..ecc, the
    keys (b, c) its vertices x see at distance i, each mapped to the bitset
    of those x; None, and no further scan, once one x sees two at a level.

    The counts of every x come at once, per y: c_x(y) is the number of
    neighbours of y one step closer to x than y is, which
    :func:`nearer_counts` gives for both classes in one bit-sliced sum
    over N(y); each group is split by class, then by the level of x from y.
    """
    levels = [[{} for _ in range(ecc + 1)] for ecc in eccs]
    seen = [[0] * (ecc + 1) for ecc in eccs]
    live = classes[0] | classes[1]
    for y, (ly, nbrs) in enumerate(zip(g.layers, g.adjacency_masks)):
        deg = nbrs.bit_count()
        for c, group in nearer_counts(g, y, nbrs, live):
            key = (deg - c, c)
            for side, cls in enumerate(classes):
                members = group & cls & live
                # only the levels of y's parity as seen from the class meet it
                i = g.side[y] ^ side
                while members:
                    hit = members & ly[i]
                    if hit:
                        keys = levels[side][i]
                        had = keys.get(key, 0)
                        if hit & seen[side][i] & ~had:
                            live &= ~cls
                            break
                        keys[key] = had | hit
                        seen[side][i] |= hit
                        members ^= hit
                    i += 2
        if not live:
            break
    return [keys if cls & live else None for keys, cls in zip(levels, classes)]


def classify(g: BipartiteGraph) -> ClassificationResult:
    """Classify a connected bipartite graph by testing every vertex.

    Distance-regular when all vertices share one array; distance-biregular
    when the array depends only on the color class (and the graph is not
    regular); semiregular-one-side when only one class is uniform.
    The one-vertex graph raises NoEdgesError.  Both classes are decided in
    one sweep (:func:`_class_levels`): a uniform class's array is its one key
    per level, checked on its first vertex x0 by counting the edges between
    layers from both sides, |Gamma_i(x0)| b_i = |Gamma_{i+1}(x0)| c_{i+1} for
    0 <= i <= D; only an irregular class calls local_intersection_numbers,
    up to its first witness.
    """
    classes = (g.class_vertices(Y_SIDE), g.class_vertices(YPRIME_SIDE))
    eccs = tuple(max(len(g.layers[v]) - 1 for v in vertices) for vertices in classes)
    masks = tuple(sum(1 << v for v in vertices) for vertices in classes)
    verdicts = []
    for vertices, levels in zip(classes, _class_levels(g, masks, eccs)):
        arr = witness = None
        if levels is None:
            for v in vertices:
                witness = local_intersection_numbers(g, v)
                if isinstance(witness, NotRegularizedAt):
                    break
            else:
                raise ConsistencyError("class scan found an irregular vertex that has no witness")
        # every vertex has a key at level 0, and b_i > 0 exactly below its
        # eccentricity, so one key per level is one array for the whole class
        elif all(len(keys) == 1 for keys in levels):
            b, c = zip(*(next(iter(keys)) for keys in levels))
            sizes = [layer.bit_count() for layer in g.layers[vertices[0]]]
            edges = zip(sizes, b, sizes[1:] + [0], c[1:] + (0,))  # no layer D + 1
            if len(sizes) != len(b) or any(m * bi != n * ci for m, bi, n, ci in edges):
                raise ConsistencyError(f"class scan array {b}, {c} miscounts the layers {sizes} of vertex {vertices[0]}")
            arr = IntersectionArray(b, c)
        verdicts.append((arr, witness))
    (array_y, wit_y), (array_yp, wit_yp) = verdicts

    if array_y is not None and array_yp is not None:
        kind = KIND_DISTANCE_REGULAR if array_y == array_yp else KIND_DISTANCE_BIREGULAR
    elif array_y is not None:
        kind = KIND_SEMIREGULAR_Y_ONLY
    elif array_yp is not None:
        kind = KIND_SEMIREGULAR_YPRIME_ONLY
    else:
        kind = KIND_NOT_REGULARIZED
    return ClassificationResult(kind, array_y, array_yp, *eccs, wit_y, wit_yp)


def analyze_graph_report(g: BipartiteGraph) -> dict:
    cls = classify(g)
    return {
        "schema": "spbibd.analyze-graph/1",
        "counts": {"vertices": g.num_vertices, "edges": len(g.edges),
                   "class_sizes": [len(g.class_vertices("Y")), len(g.class_vertices("Yprime"))]},
        "kind": cls.kind,
        "eccentricities": {"Y": cls.ecc_y, "Yprime": cls.ecc_yprime},
        "arrays": {"Y": plain(cls.array_y), "Yprime": plain(cls.array_yprime)},
        "witness": plain(cls.witness),
    }
