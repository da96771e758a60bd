"""Shared data model of every command: incidence structures, bipartite
graphs and intersection arrays (the design parameter records live in
``equalities``), plus the bitset kernels of the package: the BFS over
adjacency bitsets (one source, and all sources level by level), yielding
distance layers, and bit-sliced counters, among them :func:`nearer_rows`,
the one count of both exhaustive graph checks.

Every record of the package is built with ``collections.namedtuple``: its
fields are immutable and it is safe to share between threads.  A record
with a docstring, a default or a method subclasses its namedtuple with
``__slots__ = ()``, and its docstring gives each field's type.  No
module of the package imports ``typing``: annotation names come from
builtins and ``collections.abc``, and ``from __future__ import
annotations`` leaves every annotation unevaluated, so no command loads
``typing`` or the ``re`` and ``enum`` it imports.  A record compares
equal to a plain tuple of the same field values; that is a side effect
of the representation, and no caller may rely on it.  Validation happens
in the constructor: ``IncidenceStructure``, ``BipartiteGraph`` and
``IntersectionArray`` check their fields in ``__init__`` (``_make`` and
``_replace`` skip the check).  The constructor functions canonicalize
raw input first: ``validate_structure`` only adds the repeat check,
``build_bipartite`` the edge and connectivity checks; nothing is
validated lazily.  These three records declare no ``__slots__``, so
they keep an instance ``__dict__``, and their derived views (block sets,
the blocks through each point, the meets of the blocks, the graph's
adjacency bitsets and lists, its diameter bound, its distance layers and
its distances mod 4) are cached properties, computed at most once per
object; every scan reads them and builds no copy of its own.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from itertools import combinations
from types import MappingProxyType


class ToolkitError(Exception):
    """Base class for every structural error raised by this package."""


class NoPointsError(ToolkitError):
    pass


class NoBlocksError(ToolkitError):
    pass


class EmptyBlockError(ToolkitError):
    pass


class PointIndexOutOfRangeError(ToolkitError):
    pass


class DuplicateBlockError(ToolkitError):
    pass


class NotConnectedError(ToolkitError):
    pass


class OddCycleError(ToolkitError):
    pass


class NoEdgesError(ToolkitError):
    """Classification needs at least one edge."""


class LayersTooLargeError(ToolkitError):
    """A graph's distance layers would exceed MAX_LAYER_BYTES."""


class ConsistencyError(ToolkitError):
    """Two independent routes to the same quantity disagree: a defect in
    this package, never a verdict about the input."""


class NotInScopeError(ToolkitError):
    """Raised when an operation's parameter preconditions fail."""


class IncidenceStructure(namedtuple("IncidenceStructure", "num_points blocks")):
    """A point set 0..num_points-1 together with an ordered list of blocks.

    Instances are canonical: each block is a strictly increasing tuple of
    point indices and the block list is sorted lexicographically.  Build
    through :func:`validate_structure`; this constructor alone judges
    validity and names the first faulty block in canonical order.

    Fields: ``num_points`` (int), ``blocks`` (tuple[tuple[int, ...], ...]).
    """

    def __init__(self, *args, **kwargs):
        if self.num_points < 1:
            raise NoPointsError("structure needs at least one point")
        if not self.blocks:
            raise NoBlocksError("structure needs at least one block")
        for blk in self.blocks:
            if not blk:
                raise EmptyBlockError("empty block")
            if any(p < 0 or p >= self.num_points for p in blk):
                raise PointIndexOutOfRangeError(f"block {blk} exceeds point range 0..{self.num_points - 1}")
            if any(a >= b for a, b in zip(blk, blk[1:])):
                raise ToolkitError(f"block {blk} is not strictly increasing; use validate_structure")
        if any(a > b for a, b in zip(self.blocks, self.blocks[1:])):
            raise ToolkitError("block list is not sorted; use validate_structure")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def simple(self) -> bool:
        """True when no two blocks are identical."""
        return all(a != b for a, b in zip(self.blocks, self.blocks[1:]))

    @cached_property
    def block_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(b) for b in self.blocks)

    @cached_property
    def point_blocks(self) -> Mapping[int, tuple[int, ...]]:
        """The indices of the blocks through each covered point, ascending;
        an uncovered point has no entry, so the view is O(sum of block
        sizes), not O(v)."""
        through: dict[int, list[int]] = {}
        for j, blk in enumerate(self.blocks):
            for p in blk:
                through.setdefault(p, []).append(j)
        return MappingProxyType({p: tuple(js) for p, js in through.items()})

    @cached_property
    def block_meets(self) -> Mapping[tuple[int, int], int]:
        """|B_i n B_j| for each pair i < j of blocks through a common point,
        counted through the points (O(sum of r^2)); a pair with no entry
        meets in 0."""
        return MappingProxyType(covered_pairs(self.point_blocks.values()))


def covered_pairs(sets: Iterable[Sequence[int]]) -> dict[tuple[int, int], int]:
    """How many of ``sets`` (each strictly increasing) contain each pair
    that at least one of them contains."""
    counts: dict[tuple[int, int], int] = {}
    for members in sets:
        for pair in combinations(members, 2):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def validate_structure(
    num_points: int,
    blocks: Iterable[Iterable[int]],
    *,
    allow_repeated: bool = False,
) -> IncidenceStructure:
    """Canonicalize raw (point count, block list) input; the record
    validates it, so an empty or out-of-range block is named before a repeat.

    Blocks are treated as sets: points inside a block are deduplicated and
    sorted, and the block list is sorted lexicographically.  Identical
    blocks are rejected unless ``allow_repeated`` is set; the design-theory
    operations only accept simple structures either way.
    """
    d = IncidenceStructure(num_points, tuple(sorted(tuple(sorted(set(raw))) for raw in blocks)))
    if not allow_repeated and not d.simple:
        a = next(a for a, b in zip(d.blocks, d.blocks[1:]) if a == b)
        raise DuplicateBlockError(f"block {a} repeated")
    return d


# The most bytes that one graph's distance layers (BipartiteGraph.layers)
# may take, estimated as n^2 * (2 e0 + 1) / 8: n-bit ints for the levels 0
# to 2 e0, which bounds the diameter, e0 being vertex 0's eccentricity.  It
# is checked before the layers are built.  The 1000-cycle estimates 1.3e8
# bytes and the 2000-vertex path from its end 2.0e9; the 25,000-cycle that
# generate allows would need 2e12.  Both exhaustive checks (graph.classify
# and homogeneity.homogeneous_by_bruteforce) count in runs of rows whose
# bit matrices each take about 1/1024 of it, so they refuse nothing.
MAX_LAYER_BYTES = 2**31


Y_SIDE = "Y"
YPRIME_SIDE = "Yprime"
SIDES = (Y_SIDE, YPRIME_SIDE)

# the parameter search's targets (search.enumerate_candidates); kept here
# so that naming them, as the CLI's --target choices do, does not load search
TARGETS = ("almost-p", "full-p", "almost-b", "full-b")


class BipartiteGraph(namedtuple("BipartiteGraph", "num_vertices edges side")):
    """Connected bipartite graph with a certified 2-coloring.

    ``side[v]`` is 0 for the color class called Y and 1 for the other
    class (Y').  Edges are stored as sorted (u, v) pairs with u < v.
    Build through :func:`build_bipartite`, which puts vertex 0 in Y.  A
    graph file's ``partition``, when given, names the classes instead:
    its class 0 is Y.

    Fields: ``num_vertices`` (int), ``edges`` (tuple[tuple[int, int], ...]),
    ``side`` (tuple[int, ...]).
    """

    def __init__(self, *args, **kwargs):
        for u, v in self.edges:
            if self.side[u] == self.side[v]:
                raise OddCycleError(f"edge ({u}, {v}) joins two vertices of the same class")

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbourhood of each vertex as an int bitset (bit w is vertex w)."""
        return edge_masks(self.num_vertices, self.edges)

    @cached_property
    def adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each vertex, ascending: the lists that the
        layer sweep and the class scan walk."""
        return tuple(tuple(bits(m)) for m in self.adjacency_masks)

    @cached_property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Distance layers: ``layers[v][i]`` is the bitset of the vertices at
        distance i from v, for i = 0..eccentricity(v).  Built for all
        sources at once by :func:`all_layers`; every graph check reads it.
        Each layer is an n-bit int, so the view takes about
        n^2 * (D + 1) / 8 bytes for diameter D: less than a distance matrix
        for the small diameters in scope, more on long paths and cycles.  A
        graph whose bound on that exceeds MAX_LAYER_BYTES is refused first."""
        n, d = self.num_vertices, self.diameter_bound
        if n * n * (d + 1) > 8 * MAX_LAYER_BYTES:
            raise LayersTooLargeError(
                f"the distance layers of {n} vertices, with a diameter of up to {d}, "
                f"would take about {n * n * (d + 1) // 8} bytes, over the limit of {MAX_LAYER_BYTES}"
            )
        return all_layers(self.adjacency_lists)

    @cached_property
    def diameter_bound(self) -> int:
        """Twice vertex 0's eccentricity, which no distance exceeds; filled
        in by :func:`build_bipartite` from its BFS."""
        return 2 * (len(layer_bfs(self.adjacency_masks, 0)) - 1)

    @cached_property
    def residues(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(R, S): ``R[v]`` is the bitset of the vertices at distance 0 or 1
        mod 4 from v, ``S[v]`` at 1 or 2 mod 4 (the sum of disjoint layers
        is their union); read by :func:`nearer_rows`."""
        r = tuple(sum(lv[0::4]) + sum(lv[1::4]) for lv in self.layers)
        return r, tuple(sum(lv[1::4]) + sum(lv[2::4]) for lv in self.layers)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency_lists[v]

    def class_vertices(self, side: str) -> tuple[int, ...]:
        """Vertices of one color class, by side name ("Y" or "Yprime").

        Every check on a class starts here.  The only connected graph
        without edges, one vertex, has an empty class Y', so it is refused
        for both sides."""
        want = 0 if side == Y_SIDE else 1
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if not self.edges:
            raise NoEdgesError("classification needs at least one edge")
        return tuple(v for v in range(self.num_vertices) if self.side[v] == want)


def edge_masks(num_vertices: int, edges: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Neighbourhood of each vertex as an int bitset (bit w is vertex w)."""
    masks = [0] * num_vertices
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending, in a list: no generator frame per index."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def layer_bfs(masks: Sequence[int], source: int) -> tuple[int, ...]:
    """Distance layers from ``source`` over adjacency bitsets: entry i is
    the bitset of the vertices at distance i; unreachable vertices are in
    no layer."""
    frontier = seen = 1 << source
    layers = [frontier]
    while True:
        reach = 0
        for u in bits(frontier):
            reach |= masks[u]
        frontier = reach & ~seen
        if not frontier:
            return tuple(layers)
        seen |= frontier
        layers.append(frontier)


def all_layers(nbrs: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """``layer_bfs`` from every source over the neighbour lists ``nbrs``,
    level by level: layer i + 1 of v is the union of its neighbours'
    layers i minus v's ball of radius i.  That costs sum(deg(v) * ecc(v))
    bitset unions, where one BFS per source would visit every vertex n
    times."""
    front = [1 << v for v in range(len(nbrs))]
    ball = front[:]
    layers = [[f] for f in front]
    live = range(len(nbrs))
    while live:
        step = [0] * len(nbrs)
        for v in live:
            reach = 0
            for u in nbrs[v]:
                reach |= front[u]
            reach &= ~ball[v]
            if reach:
                step[v] = reach
                ball[v] |= reach
                layers[v].append(reach)
            else:
                layers[v] = tuple(layers[v])
        live = [v for v in live if step[v]]
        front = step
    return tuple(layers)


def plane_sum(sets: Iterable[int]) -> list[int]:
    """How many of the bitsets ``sets`` hold each vertex, bit-sliced: bit j
    of a vertex's count is its bit in ``planes[j]``.  Each set is added to
    the planes by a ripple carry."""
    planes: list[int] = []
    for carry in sets:
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
        if carry:
            planes.append(carry)
    return planes


def plane_counts(planes: Sequence[int], mask: int) -> list[tuple[int, int]]:
    """Split the vertices of the bitset ``mask`` by their count in the
    bit-sliced ``planes``: one (count, members) pair per count taken."""
    groups = [(0, mask)] if mask else []
    for j, plane in enumerate(planes):
        split = []
        for count, members in groups:
            high = members & plane
            if high == members:
                split.append((count | 1 << j, members))
            elif high:
                split += (count | 1 << j, high), (count, members ^ high)
            else:
                split.append((count, members))
        groups = split
    return groups


def stack_rows(rows: Iterable[bytes]) -> int:
    """One bit matrix from its rows, each an n-bit slice of ceil(n/8) bytes:
    row k takes the bits from 8 * ceil(n/8) * k up."""
    return int.from_bytes(b"".join(rows), "little")


def nearer_rows(g: BipartiteGraph, rows: Sequence[tuple[int, Sequence[int]]]) -> list[int]:
    """For each row (v, ws), ws some neighbours of v, longest ws first, and
    each vertex x, how many w in ws are one step closer to x than v is,
    bit-sliced: bit j of the count is bit x of row k of ``planes[j]``.

    d(w, x) - d(v, x) is -1 or 1 in a bipartite graph, so w is closer
    exactly when d(v, x) = 0, 1, 2, 3 mod 4 puts d(w, x) at 3, 0, 1, 2,
    not 1, 2, 3, 0: when x is in both or neither of S[v] and R[w]
    (``BipartiteGraph.residues``).  So the k-th members w of all rows add
    the matrix FULL ^ S ^ R_k, row by row R[w]; the rows with a k-th
    member are a prefix, and R_k holds only those.
    """
    size = (g.num_vertices + 7) // 8
    r, s = g.residues
    full = (1 << g.num_vertices) - 1
    # FULL ^ S row by row: ~ on a whole matrix is several times slower than ^
    fs = b"".join([(full ^ s[v]).to_bytes(size, "little") for v, _ in rows])
    rs = [m.to_bytes(size, "little") for m in r]
    lengths = sorted(len(ws) for _, ws in rows)
    heights = [len(rows) - bisect_right(lengths, k) for k in range(lengths[-1] if rows else 0)]
    return plane_sum(
        int.from_bytes(fs[: height * size], "little") ^ stack_rows([rs[ws[k]] for _, ws in rows[:height]])
        for k, height in enumerate(heights)
    )


def distance_row(layers: Sequence[int], num_vertices: int) -> list[int]:
    """Distances from one vertex to every vertex, read off its layers (0
    for a vertex in no layer)."""
    row = [0] * num_vertices
    for i, layer in enumerate(layers):
        for v in bits(layer):
            row[v] = i
    return row


def build_bipartite(num_vertices: int, edges: Iterable[Sequence[int]]) -> BipartiteGraph:
    """Build a connected bipartite graph, colouring each vertex by the parity
    of its distance from vertex 0.

    Raises ``NotConnectedError`` if the graph is not connected and
    ``OddCycleError`` if it is not bipartite (including self-loops).
    """
    if num_vertices < 1:
        raise NotConnectedError("graph needs at least one vertex")
    seen = set()
    for u, v in edges:
        if u == v:
            raise OddCycleError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key[0] < 0 or key[1] >= num_vertices:
            raise PointIndexOutOfRangeError(f"edge ({u}, {v}) exceeds vertex range 0..{num_vertices - 1}")
        seen.add(key)
    norm = sorted(seen)
    # a connected graph needs n - 1 edges; refuse before allocating O(n)
    if len(norm) < num_vertices - 1:
        raise NotConnectedError(f"{len(norm)} edges cannot connect {num_vertices} vertices")

    masks = edge_masks(num_vertices, norm)
    layers = layer_bfs(masks, 0)
    # the layers are disjoint, so their sum is their union
    missing = ~sum(layers) & ((1 << num_vertices) - 1)
    if missing:
        vertex = (missing & -missing).bit_length() - 1
        raise NotConnectedError(f"vertex {vertex} is unreachable from vertex 0")
    # a parity colouring of a connected graph is proper iff there is no odd
    # cycle; BipartiteGraph refuses any edge inside one class
    side = tuple(d % 2 for d in distance_row(layers, num_vertices))
    g = BipartiteGraph(num_vertices, tuple(norm), side)
    # the cached properties, filled from the BFS
    g.__dict__.update(adjacency_masks=masks, diameter_bound=2 * (len(layers) - 1))
    return g


class IntersectionArray(namedtuple("IntersectionArray", "b c")):
    """The b_i / c_i sequence of a distance-regularized vertex.

    ``b`` and ``c`` run over i = 0..D where D is the eccentricity.  The
    a_i are identically zero (bipartite) and never stored.

    Fields: ``b`` (tuple[int, ...]), ``c`` (tuple[int, ...]).
    """

    def __init__(self, *args, **kwargs):
        d = len(self.b) - 1
        if d < 0 or len(self.c) != len(self.b):
            raise ToolkitError("b and c must have equal positive length")
        if self.c[0] != 0:
            raise ToolkitError("c_0 must be 0")
        if d >= 1 and self.c[1] != 1:
            raise ToolkitError("c_1 must be 1")
        if self.b[d] != 0:
            raise ToolkitError("b_D must be 0")
        for i in range(1, d + 1):
            if self.b[i - 1] <= 0:
                raise ToolkitError(f"b_{i - 1} must be positive")
            if self.c[i] <= 0:
                raise ToolkitError(f"c_{i} must be positive")

    @property
    def eccentricity(self) -> int:
        return len(self.b) - 1

    @property
    def valency(self) -> int:
        return self.b[0]

    def b_at(self, i: int) -> int:
        """b_i, with b_i = 0 outside 0..D."""
        return self.b[i] if 0 <= i < len(self.b) else 0

    def c_at(self, i: int) -> int:
        """c_i, with c_i = 0 outside 0..D."""
        return self.c[i] if 0 <= i < len(self.c) else 0


def plain(x: object) -> object:
    """A report section as JSON-shaped data: a record becomes a dict of its
    fields and a tuple a list, recursively."""
    if hasattr(x, "_asdict"):
        return {key: plain(val) for key, val in x._asdict().items()}
    if isinstance(x, tuple):
        return [plain(v) for v in x]
    return x
