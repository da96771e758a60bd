"""Distance-regularity classification for connected bipartite graphs.

Every check reads the graph's cached views (``BipartiteGraph.layers``:
per vertex, the int bitset of the vertices at each distance, built for
all sources in one level-by-level sweep, at most once per graph; and
``residues``, the same distances mod 4).  :func:`classify` decides both
classes in one exhaustive scan over bit matrices, a few big-int
operations per level: the pairs (y, x) are their bits, and
:func:`nearer_planes` counts, bit-sliced, the neighbours of each y one
step closer to each x, through ``core.nearer_rows``, the count that the
brute-force homogeneity check runs on its own rows.  Like the brute
force, the scan takes the rows y in bounded runs and unions what the
runs see, which is exact because the keys a column x sees are the union
of those its rows give.  A uniform class's array is its one (b_i, c_i)
per level, checked against its first vertex's layer sizes;
:func:`local_intersection_numbers` only names witnesses.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from . import core
from .core import (
    BipartiteGraph,
    ConsistencyError,
    IntersectionArray,
    YPRIME_SIDE,
    Y_SIDE,
    distance_row,
    nearer_rows,
    plain,
    plane_counts,
    stack_rows,
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


class NotRegularizedAt(namedtuple("NotRegularizedAt", "vertex distance count_kind witnesses counts")):
    """Witness that a vertex is not distance-regularized: two vertices at
    the same distance from ``vertex`` with different b- or c-counts.

    Fields: ``vertex`` and ``distance`` (int), ``count_kind`` (str, "b" or
    "c"), ``witnesses`` and ``counts`` (tuple[int, int]).
    """

    __slots__ = ()


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


class ClassificationResult(
    namedtuple(
        "ClassificationResult",
        "kind array_y array_yprime ecc_y ecc_yprime witness_y witness_yprime",
        defaults=(None, None),
    )
):
    """Outcome of testing distance-regularity at every vertex.

    ``ecc_y`` / ``ecc_yprime`` are the maximum eccentricities over each
    class (all equal within a class whenever that class is uniform).  Each
    class's first witness in vertex order is ``witness_y`` / ``witness_yprime``;
    ``witness``, the one analyze-graph reports, is Y's, else Yprime's.

    Fields: ``kind`` (str), ``array_y`` and ``array_yprime``
    (IntersectionArray | None), ``ecc_y`` and ``ecc_yprime`` (int),
    ``witness_y`` and ``witness_yprime`` (NotRegularizedAt | None, default
    None).
    """

    __slots__ = ()

    @property
    def witness(self) -> NotRegularizedAt | None:
        return self.witness_y if self.witness_y is not None else self.witness_yprime

    def array_for(self, side: str) -> IntersectionArray | None:
        return self.array_y if side == Y_SIDE else self.array_yprime

    def witness_for(self, side: str) -> NotRegularizedAt | None:
        return self.witness_y if side == Y_SIDE else self.witness_yprime


def nearer_planes(g: BipartiteGraph, order: Sequence[int]) -> list[int]:
    """For every pair (y, x), the number c of neighbours of y one step
    closer to x than y is, bit-sliced over n x n bit matrices: bit j of c
    is bit x of row k of ``planes[j]``, where y = order[k], by degree,
    highest first: the rows (y, Gamma(y)) of :func:`core.nearer_rows`."""
    nbrs = g.adjacency_lists
    return nearer_rows(g, [(y, nbrs[y]) for y in order])


def _fold(m: int, steps: list[tuple[int, int]]) -> int:
    """The OR of the rows of the matrix ``m``: the columns with a bit in some
    row.  Each step ORs the upper rows onto the lower half."""
    for shift, low in steps:
        m = (m >> shift) | (m & low)
    return m


def _class_levels(
    g: BipartiteGraph, classes: tuple[int, int], eccs: tuple[int, int]
) -> list[list[tuple[int, int] | None] | None]:
    """Per class (bitsets of Y and Yprime), for each level i = 0..ecc, the
    one key (b, c) that its vertices x see at distance i, or None when they
    see two but none sees both; None for the class, and no further level,
    once some x sees two keys at a level.

    The pairs (y, x) are the bits of bit matrices, each row an n-bit slice
    of one int, the rows y in :func:`nearer_planes`'s order, taken in runs
    of consecutive rows: a run takes as many as keep each matrix within
    1/1024 of ``core.MAX_LAYER_BYTES``, at least one.  c comes from the
    planes of c and b = deg(y) - c, so ``plane_counts`` over the planes of
    c and of deg(y) splits the pairs of a level (each y's layer i cut to
    the class's columns) by key.  At levels 0 and 1, c is 0 and 1, so the
    degree planes alone decide them, and a run builds its count planes only
    for a class that gets past them.  A key's columns are the fold of its
    pairs, OR-ed over the runs; x sees two keys exactly when two keys'
    columns meet.  That is exact in runs: the keys x sees are the union of
    the keys its rows y give, and a row's key depends on y and x alone.
    """
    n = g.num_vertices
    size = (n + 7) // 8
    nbrs = g.adjacency_lists
    order = sorted(range(n), key=lambda y: len(nbrs[y]), reverse=True)
    step = max(1, (core.MAX_LAYER_BYTES >> 10) // size)
    ones, zeros = ((1 << n) - 1).to_bytes(size, "little"), bytes(size)
    # per class and level, the columns of each key; in one run, a level
    # with one key needs none
    keys: list[dict[int, dict] | None] = [{}, {}]
    for start in range(0, n, step):
        run = order[start : start + step]
        top = len(nbrs[run[0]])
        planes = [stack_rows([ones if len(nbrs[y]) >> j & 1 else zeros for y in run]) for j in range(top.bit_length())]
        nc = 0  # the c planes come first, once built
        steps = []
        height = len(run)
        while height > 1:
            height = (height + 1) // 2
            steps.append((8 * size * height, (1 << 8 * size * height) - 1))
        columns = [int.from_bytes(cls.to_bytes(size, "little") * len(run), "little") for cls in classes]
        rows = [g.layers[y] for y in run]
        for i in range(max(eccs) + 1):
            sides = [side for side in (0, 1) if keys[side] is not None and i <= eccs[side]]
            if not sides:
                break
            if i == 2:
                counts = nearer_planes(g, run)
                planes, nc = counts + planes, len(counts)
            level = stack_rows([lv[i].to_bytes(size, "little") if i < len(lv) else zeros for lv in rows])
            for side in sides:
                groups = plane_counts(planes, level & columns[side])
                seen = keys[side].setdefault(i, {})
                for count, members in groups:
                    c = count & ((1 << nc) - 1) if i > 1 else i
                    key = ((count >> nc) - c, c)
                    cols = _fold(members, steps) if len(groups) > 1 or step < n else 0
                    if any(cols & other for k, other in seen.items() if k != key):
                        keys[side] = None
                        break
                    seen[key] = seen.get(key, 0) | cols
    return [None if lv is None else [next(iter(seen)) if len(seen) == 1 else None for seen in lv.values()] for lv in keys]


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
        elif None not in levels:
            b, c = zip(*levels)
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
