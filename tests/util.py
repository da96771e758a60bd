"""Shared test helpers: independent oracles and random instance builders.

Distance/connectivity oracles go through networkx so they share no code
with the package's own BFS.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

import networkx as nx

from spbibd.core import (
    BipartiteGraph,
    IncidenceStructure,
    IntersectionArray,
    build_bipartite,
    plane_counts,
    validate_structure,
)
from spbibd.correspondence import GraphDesignExtraction, derived_sizes, design_from_graph, incidence_graph
from spbibd.design import (
    ConstraintReport,
    NotSpbibd,
    block_intersections,
    replication_and_block_size,
    spbibd_type,
)
from spbibd.equalities import TARGET_NEEDS, SpbibdParams
from spbibd.graph import (
    KIND_DISTANCE_BIREGULAR,
    KIND_DISTANCE_REGULAR,
    KIND_SEMIREGULAR_Y_ONLY,
    KIND_SEMIREGULAR_YPRIME_ONLY,
    ClassificationResult,
    NotRegularizedAt,
    all_distances,
    bfs_distances,
    local_intersection_numbers,
    nearer_planes,
)
from spbibd.homogeneity import (
    VERDICT_ALMOST_ONLY,
    VERDICT_NEITHER,
    VERDICT_TWO_HOMOGENEOUS,
    BruteForceResult,
    EccentricityNotUniformError,
)
from spbibd.search import CandidateTuple, admissibility_failures


def nx_graph(g: BipartiteGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.num_vertices))
    h.add_edges_from(g.edges)
    return h


def degree(g: BipartiteGraph, v: int) -> int:
    return g.adjacency_masks[v].bit_count()


def failed(report: ConstraintReport) -> tuple[str, ...]:
    """Names of the checks of a constraint report that do not hold."""
    return tuple(c.name for c in report.checks if not c.holds)


def oracle_distances(g: BipartiteGraph, v: int) -> dict[int, int]:
    return nx.single_source_shortest_path_length(nx_graph(g), v)


def eccentricity(g: BipartiteGraph, v: int) -> int:
    return max(bfs_distances(g, v))


def uniform_array_oracle(
    g: BipartiteGraph, vertices: tuple[int, ...]
) -> tuple[IntersectionArray | None, int, NotRegularizedAt | None]:
    """One class's part of graph.classify (its common array or None, its
    maximum eccentricity, its first witness) by the vertex-order scan
    that the class sweep replaced: every vertex's
    local_intersection_numbers until the first witness."""
    ecc = max((len(g.layers[v]) - 1 for v in vertices), default=0)
    arrays = set()
    for v in vertices:
        arr = local_intersection_numbers(g, v)
        if isinstance(arr, NotRegularizedAt):
            return None, ecc, arr
        arrays.add(arr)
    return arrays.pop() if len(arrays) == 1 else None, ecc, None


def plus_one(planes: list[int]) -> list[int]:
    """Bit-sliced counts each one too high: a ripple carry of 1 through the
    planes, starting from -1, which holds every bit; a mutant for the
    exhaustive checks' cross-checks and oracles."""
    out, carry = [], -1
    for plane in planes:
        out.append(plane ^ carry)
        carry &= plane
    return out + [carry] if carry else out


def nearer_planes_plus_one(g: BipartiteGraph, order: list[int]) -> list[int]:
    """graph.nearer_planes with every pair's count one too high."""
    return plus_one(nearer_planes(g, order))


def first_split_only(planes: list[int], mask: int) -> list[tuple[int, int]]:
    """core.plane_counts that stops at the first plane that splits a group:
    a mutant for both exhaustive checks."""
    for j in range(len(planes)):
        groups = plane_counts(planes[: j + 1], mask)
        if len(groups) > 1:
            return groups
    return plane_counts(planes, mask)


def is_distance_semiregular(cls: ClassificationResult, side: str) -> bool:
    """Distance-regular around every vertex of ``side`` with common
    parameters (true for both sides of any distance-regularized graph)."""
    if cls.kind in (KIND_DISTANCE_REGULAR, KIND_DISTANCE_BIREGULAR):
        return True
    only = KIND_SEMIREGULAR_Y_ONLY if side == "Y" else KIND_SEMIREGULAR_YPRIME_ONLY
    return cls.kind == only


def pair_coverage_oracle(d: IncidenceStructure) -> dict[tuple[int, int], int]:
    """Blocks-through-each-pair by direct enumeration."""
    out = {}
    for p, q in combinations(range(d.num_points), 2):
        out[(p, q)] = sum(1 for blk in d.block_sets if p in blk and q in blk)
    return out


def full_pair_concurrences(d: IncidenceStructure) -> dict[tuple[int, int], int]:
    """Blocks through every pair of distinct points, uncovered pairs
    included as 0: the O(v^2) fill that design.pair_concurrences replaced,
    kept as the oracle for its sparse form."""
    counts: dict[tuple[int, int], int] = {}
    for blk in d.blocks:
        for pair in combinations(blk, 2):
            counts[pair] = counts.get(pair, 0) + 1
    for pair in combinations(range(d.num_points), 2):
        counts.setdefault(pair, 0)
    return counts


def nonflag_counts_oracle(
    d: IncidenceStructure, conc: dict[tuple[int, int], int], lambda1: int
) -> tuple[int | None, tuple[int, int, int] | None]:
    """design.nonflag_counts by the O(b*v*k) scan it replaced: every
    non-flag in block-then-point order, one concurrence lookup per block
    point."""
    t_val = None
    for j, bs in enumerate(d.block_sets):
        for p in range(d.num_points):
            if p in bs:
                continue
            t_here = sum(1 for q in bs if conc.get((p, q) if p < q else (q, p), 0) == lambda1)
            if t_val is None:
                t_val = t_here
            elif t_here != t_val:
                return t_val, (p, j, t_here)
    return t_val, None


def spbibd_type_oracle(d: IncidenceStructure) -> SpbibdParams | NotSpbibd:
    """design.spbibd_type with s and t taken by the O(b*v*k) scan that the
    mate bitsets replaced: every flag, then every non-flag, in
    block-then-point order, one concurrence lookup per block point.  The
    earlier rejections (repeated blocks, non-uniform, concurrence) are
    spbibd_type's own; the sparse concurrences are checked against the
    full fill elsewhere."""
    res = spbibd_type(d)
    if isinstance(res, NotSpbibd) and res.reason in ("repeated-blocks", "not-uniform", "concurrence"):
        return res
    r, k = replication_and_block_size(d)
    conc = full_pair_concurrences(d)
    values = sorted(set(conc.values()), reverse=True)
    lambda1 = values[0] if values else 0
    s_val = None
    for j, blk in enumerate(d.blocks):
        for p in blk:
            s_here = sum(1 for q in blk if q != p and conc[(p, q) if p < q else (q, p)] == lambda1)
            if s_val is None:
                s_val = s_here
            elif s_here != s_val:
                return NotSpbibd("flag-count", f"flag ({p}, block {j}) sees {s_here}, expected {s_val}")
    t_val, differing = nonflag_counts_oracle(d, conc, lambda1) if lambda1 else (None, None)
    if differing is not None:
        p, j, t_here = differing
        return NotSpbibd("nonflag-count", f"non-flag ({p}, block {j}) sees {t_here}, expected {t_val}")
    qs = block_intersections(d) if d.num_blocks >= 2 else None
    return SpbibdParams(
        v=d.num_points,
        b=d.num_blocks,
        r=r,
        k=k,
        lambda1=lambda1,
        lambda2=values[1] if len(values) == 2 else 0,
        s=s_val,
        t=k if t_val is None else t_val,
        x=qs.x if qs else None,
        y=qs.y if qs else None,
        lambda2_realized=len(values) == 2,
    )


def block_intersection_sizes_oracle(d: IncidenceStructure) -> tuple[int, ...]:
    """Distinct |B n B'| over every pair of blocks, by direct intersection."""
    return tuple(sorted({len(a & b) for a, b in combinations(d.block_sets, 2)}))


def random_connected_bipartite(rng: random.Random, max_side: int = 6) -> BipartiteGraph:
    """Random connected bipartite graph: a random spanning tree across the
    two sides, plus each other cross edge with an edge probability drawn
    per graph from [0.2, 0.7], dense enough that many of them have a z in
    the joins of two common-neighbour groups of one x."""
    a = rng.randint(1, max_side)
    b = rng.randint(1, max_side)
    left = list(range(a))
    right = list(range(a, a + b))
    edges = {(left[0], right[0])}
    in_tree = {0: [left[0]], 1: [right[0]]}
    rest = left[1:] + right[1:]
    rng.shuffle(rest)
    for v in rest:
        side = 0 if v < a else 1
        edges.add((v, rng.choice(in_tree[1 - side])))
        in_tree[side].append(v)
    p = rng.uniform(0.2, 0.7)
    edges |= {(u, w) for u in left for w in right if rng.random() < p}
    return build_bipartite(a + b, sorted(edges))


def relabeled_structure(d: IncidenceStructure, rng: random.Random) -> IncidenceStructure:
    """Random point relabeling plus block shuffle, re-canonicalized."""
    perm = list(range(d.num_points))
    rng.shuffle(perm)
    blocks = [[perm[p] for p in blk] for blk in d.blocks]
    rng.shuffle(blocks)
    return validate_structure(d.num_points, blocks)


def relabeled_graph(g: BipartiteGraph, rng: random.Random) -> tuple[BipartiteGraph, list[int]]:
    """Random vertex relabeling; returns (new graph, permutation)."""
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    return build_bipartite(g.num_vertices, edges), perm


def random_structure(rng: random.Random, max_points: int = 8, max_blocks: int = 8) -> IncidenceStructure | None:
    """Small random simple structure, or None when the draw collides."""
    v = rng.randint(2, max_points)
    nblocks = rng.randint(2, max_blocks)
    blocks = set()
    for _ in range(nblocks):
        size = rng.randint(1, max(1, v - 1))
        blocks.add(tuple(sorted(rng.sample(range(v), size))))
    try:
        return validate_structure(v, [list(b) for b in blocks])
    except Exception:
        return None


def hypercube_design() -> IncidenceStructure:
    """Points: even-weight 4-bit strings; blocks: neighborhoods of the
    odd-weight strings in the 4-cube.  A (8, 8, 4, 4, 2, 0) design of type
    (3, 3) with x = 0, y = 2 whose incidence graph is the 4-cube."""
    def weight(x: int) -> int:
        return bin(x).count("1")

    evens = [x for x in range(16) if weight(x) % 2 == 0]
    odds = [x for x in range(16) if weight(x) % 2 == 1]
    idx = {x: i for i, x in enumerate(evens)}
    blocks = [[idx[u ^ (1 << bit)] for bit in range(4)] for u in odds]
    return validate_structure(len(evens), blocks)


# GF(4) = {0, 1, w, w^2} as 0, 1, 2, 3 with w^2 = w + 1: sums are XOR
GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
# the regular hyperoval of PG(2, 4): the conic (1, t, t^2) and its two
# points (0, 0, 1), (0, 1, 0) off the affine part
HYPEROVAL_4 = tuple((1, t, GF4_MUL[t][t]) for t in range(4)) + ((0, 0, 1), (0, 1, 0))


def _hyperoval_incidence() -> list[list[int]]:
    """Per vector x of GF(4)^3 (x0*16 + x1*4 + x2), the points (i, s) with
    o_i . x = s, point (i, s) numbered 4*i + s."""
    blocks = []
    for x in range(64):
        xs = (x >> 4, (x >> 2) & 3, x & 3)
        blocks.append(
            [4 * i + (GF4_MUL[o[0]][xs[0]] ^ GF4_MUL[o[1]][xs[1]] ^ GF4_MUL[o[2]][xs[2]])
             for i, o in enumerate(HYPEROVAL_4)]
        )
    return blocks


def hyperoval_design() -> IncidenceStructure:
    """The q = 4 regular-hyperoval design: points the 24 pairs (i, s) of a
    hyperoval point o_i and s in GF(4), blocks the 64 vectors x of GF(4)^3,
    x containing (i, s) when o_i . x = s.  (v, b, r, k, lambda1, t, y) =
    (24, 64, 16, 6, 4, 5, 2): a y > 1 design with c_2 = 4."""
    return validate_structure(24, _hyperoval_incidence())


def hyperoval_dual_design() -> IncidenceStructure:
    """The dual of :func:`hyperoval_design`: 64 points (the vectors x), 24
    blocks of size 16 (the x with o_i . x = s); the tuple
    (6, 16, 2, 10, 4, 64, 24) that ROADMAP item 1's `t < r` row rejects."""
    blocks: list[list[int]] = [[] for _ in range(24)]
    for x, points in enumerate(_hyperoval_incidence()):
        for p in points:
            blocks[p].append(x)
    return validate_structure(64, blocks)


def hypercube_graph(dim: int) -> BipartiteGraph:
    edges = [
        (u, u ^ (1 << bit)) for u in range(1 << dim) for bit in range(dim) if u < (u ^ (1 << bit))
    ]
    return build_bipartite(1 << dim, edges)


def sylvester_hadamard_graph(n: int) -> BipartiteGraph:
    """The Hadamard graph of the Sylvester matrix of order n (a power of 2),
    H_ij = (-1)^popcount(i & j): the 4n vertices r_i^a (number 2i, plus 1
    for a = -) and c_j^b (number 2n + 2j, plus 1 for b = -), with
    r_i^a ~ c_j^b when H_ij = ab.  Distance-regular with the array
    {n, n-1, n/2, 1; 1, n/2, n-1, n}; the rows are the class Y."""
    edges = []
    for i, j in product(range(n), repeat=2):
        h = bin(i & j).count("1") % 2  # 1 when H_ij = -1
        # a and b number the signs, 0 for + and 1 for -: ab = H_ij when a xor b = h
        edges += [(2 * i + a, 2 * n + 2 * j + (a ^ h)) for a in (0, 1)]
    return build_bipartite(4 * n, edges)


def golay_coset_graph() -> BipartiteGraph:
    """The coset graph of the extended binary Golay code C: the 4,096
    cosets of C in F_2^24, each joined to its sums with the 24 unit
    vectors.  C is spanned by the 12 shifts x^i g(x), 0 <= i < 12, of
    g = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11, each given a parity bit,
    and is self-dual, so a coset is named by its 12-bit syndrome (its
    inner products with those rows) and vertex s is the coset of syndrome s.
    Distance-regular with the array {24, 23, 22, 21; 1, 2, 3, 24}: the
    incidence graph of a square design with v = b = 2048, r = k = 24 and
    lambda1 = 2."""
    rows = [0b110001110101 << i | 1 << 23 for i in range(12)]
    units = [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(24)]
    return build_bipartite(4096, [(s, s ^ u) for s in range(4096) for u in units if s < s ^ u])


def hexagonal_prism() -> BipartiteGraph:
    """C6 x K2: cubic and bipartite, but not distance-regularized."""
    outer = [(i, (i + 1) % 6) for i in range(6)]
    return build_bipartite(12, outer + [(6 + u, 6 + v) for u, v in outer] + [(i, 6 + i) for i in range(6)])


def contract_degree_two(g: BipartiteGraph) -> nx.Graph:
    """Replace every degree-2 vertex by an edge between its neighbors."""
    h = nx.Graph()
    keep = [v for v in range(g.num_vertices) if degree(g, v) != 2]
    h.add_nodes_from(keep)
    for v in range(g.num_vertices):
        if degree(g, v) == 2:
            a, b = g.neighbors(v)
            h.add_edge(a, b)
    return h


def girth(g: BipartiteGraph) -> int | None:
    """Length of a shortest cycle, or None for a forest.

    Computed by deleting each edge in turn and measuring the surviving
    distance between its endpoints; exact and cheap at this scale.
    """
    best: int | None = None
    for u, v in g.edges:
        dist = [-1] * g.num_vertices
        dist[u] = 0
        queue = deque([u])
        while queue:
            a = queue.popleft()
            for w in g.neighbors(a):
                if (a, w) == (u, v) or (w, a) == (u, v):
                    continue
                if dist[w] == -1:
                    dist[w] = dist[a] + 1
                    queue.append(w)
        if dist[v] != -1:
            cycle = dist[v] + 1
            if best is None or cycle < best:
                best = cycle
    return best


def p2ii_direct_counts(g: BipartiteGraph, side: str, i: int) -> set[int]:
    """Exhaustive |Gamma_2(x) n Gamma_i(z)| over every x in the class and
    every z in Gamma_i(x); the independent oracle for the p^i_{2,i} formula
    (equalities.p2ii_numerator over the side c_2)."""
    dist = all_distances(g)
    counts = set()
    for x in g.class_vertices(side):
        dx = dist[x]
        two = [w for w in range(g.num_vertices) if dx[w] == 2]
        for z in range(g.num_vertices):
            if dx[z] == i:
                counts.add(sum(1 for w in two if dist[z][w] == i))
    return counts


def derived_spbibd_params(ext: GraphDesignExtraction) -> SpbibdParams:
    """DerivedDesignParams as an SpbibdParams record (lambda2 = 0 scope)."""
    p = ext.params
    return SpbibdParams(
        v=p.v,
        b=p.b,
        r=p.r,
        k=p.k,
        lambda1=p.lambda1,
        lambda2=0,
        s=p.s,
        t=p.t,
        x=0 if p.y is not None else None,
        y=p.y,
    )


def array_class_sizes(arr: IntersectionArray) -> tuple[Fraction, Fraction]:
    """(v, b) of the design read off a class array of eccentricity 4, in the
    array form: v = 1 + k_2 + k_4 and b = k_1 + k_3 with
    k_i = b_0 ... b_{i-1} / (c_1 ... c_i); the oracle for derived_sizes."""
    b0, b1, b2, b3 = arr.b[:4]
    c2, c3, c4 = arr.c[2:5]
    v = 1 + Fraction(b0 * b1, c2) + Fraction(b0 * b1 * b2 * b3, c2 * c3 * c4)
    b = b0 + Fraction(b0 * b1 * b2, c2 * c3)
    return v, b


def bruteforce_oracle(g: BipartiteGraph, side: str) -> tuple[dict[int, tuple[int, ...]], str]:
    """Level counts and verdict of homogeneous_by_bruteforce, one z at a time
    over networkx distances: |Gamma(x) n Gamma(y) n Gamma_{i-1}(z)| for
    every x in the class, every y at distance 2 above x and every z in
    Gamma_{i,i}(x, y); the oracle for the bit-sliced counting."""
    vertices = g.class_vertices(side)
    dist = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
    eccs = {max(dist[v].values()) for v in vertices}
    if len(eccs) != 1:
        raise EccentricityNotUniformError(f"class {side} has mixed eccentricities {sorted(eccs)}")
    d = eccs.pop()
    observed: dict[int, set[int]] = {i: set() for i in range(1, d)}
    for pos, x in enumerate(vertices):
        dx = dist[x]
        for y in vertices[pos + 1 :]:
            if dx[y] != 2:
                continue
            dy = dist[y]
            common = [w for w in g.neighbors(x) if dy[w] == 1]
            for z in range(g.num_vertices):
                i = dx[z]
                if i < 1 or i > d - 1 or dy[z] != i:
                    continue
                dz = dist[z]
                observed[i].add(sum(1 for w in common if dz[w] == i - 1))
    counts = {i: tuple(sorted(observed[i])) for i in range(1, d)}
    full = all(len(counts[i]) <= 1 for i in range(1, d))
    almost = all(len(counts[i]) <= 1 for i in range(1, d - 1))
    verdict = (
        VERDICT_TWO_HOMOGENEOUS if full else VERDICT_ALMOST_ONLY if almost else VERDICT_NEITHER
    )
    return counts, verdict


def delta_oracle(
    side_arr: IntersectionArray, other_arr: IntersectionArray, i: int
) -> tuple[Fraction, Fraction]:
    """(p^i_{2,i}, Delta_i) as homogeneity built them before Delta_i became
    one Fraction per scalar: p^i_{2,i} as its own Fraction (b_1 at i = 1),
    then Delta_i = lead - p^i_{2,i}*(c'_2 - 1), three Fractions in all."""
    arr = side_arr if i % 2 == 0 else other_arr
    if i == 1:
        p = Fraction(side_arr.b[1])
    else:
        num = arr.b_at(i) * (arr.c_at(i + 1) - 1) + arr.c_at(i) * (arr.b_at(i - 1) - 1)
        p = Fraction(num, side_arr.c[2])
    lead = (arr.b_at(i - 1) - 1) * (arr.c_at(i + 1) - 1)
    return p, lead - p * (other_arr.c_at(2) - 1)


def product_form_equalities(r: int, k: int, lambda1: int, t: int, y: int) -> frozenset[str]:
    """K3, K4, K30 and K40 as products, each side factored the way the
    Delta_2 and Delta_3 scalars clear their denominators; the oracle for
    the a*r == c form of satisfied_equalities."""
    out = set()
    if lambda1 * (k - 2) * (t - y) == (y - 1) * (r - lambda1) * (t - 1):
        out.add("K3")
    if (r * (k - 1) - t * lambda1) * (y - 1) == lambda1 * (k - y - 1) * (k - 1):
        out.add("K4")
    if lambda1 * (r - 2) * (t - y) * y == (k - y) * (t * lambda1 - y) * (lambda1 - 1):
        out.add("K30")
    if ((k - t) * (r - 1) + t * (r - lambda1 - 1)) * (lambda1 - 1) == y * (r - 1) * (
        r - lambda1 - 1
    ):
        out.add("K40")
    return frozenset(out)


def sweep_candidates(
    max_r: int, max_k: int, target: str, force_y: int | None = None
) -> list[CandidateTuple]:
    """enumerate_candidates by sweeping every r, lambda1, y and t in the
    bounds and keeping the admissible tuples whose product-form equalities
    include the target's; the oracle for solving K3/K30 for r."""
    out = []
    for k in range(4, max_k + 1):
        for r in range(4, max_r + 1):
            for lambda1 in range(1, r):
                for y in range(2, k - 1) if force_y is None else (force_y,):
                    for t in range(y + 1 if y > 1 else y, min(k, r)):
                        if admissibility_failures(r, k, lambda1, t, y):
                            continue
                        sat = product_form_equalities(r, k, lambda1, t, y)
                        if all(label in sat for label in TARGET_NEEDS[target]):
                            v_num, b_num, den = derived_sizes(r, k, lambda1, t)
                            out.append(
                                CandidateTuple(r, k, lambda1, t, y, v_num // den, b_num // den, sat)
                            )
    out.sort(key=CandidateTuple.sort_key)
    return out


def y1_homogeneity_oracle(r: int, k: int, t: int) -> tuple[bool, bool, bool, bool]:
    """(almost_2p, full_2p, almost_2b, full_2b) of an in-scope design with
    y = 1 (so lambda1 = 1) by the case rules parameter_homogeneity used
    before it read the target table, equalities.TARGET_NEEDS: block size 2 (replication 2)
    gives the subdivision graph of a complete bipartite graph, fully
    homogeneous for that class; otherwise the class is almost homogeneous
    iff t = 1 (a generalized quadrangle) and never fully."""
    almost_2p, full_2p = (True, True) if k == 2 else (t == 1, False)
    almost_2b, full_2b = (True, True) if r == 2 else (t == 1, False)
    return almost_2p, full_2p, almost_2b, full_2b


def constant_at(result: BruteForceResult, i: int) -> bool:
    """One observed count at level i (a level with none is vacuously constant)."""
    return len(result.level_counts.get(i, ())) <= 1


class RoundTripReport(NamedTuple):
    ok: bool
    details: tuple[str, ...]


def round_trip_design(d: IncidenceStructure) -> RoundTripReport:
    """design -> incidence graph -> design must reproduce the canonical
    form and parameters exactly."""
    g = incidence_graph(d)
    ext = design_from_graph(g, "Y")
    details = []
    ok = True
    if ext.structure != d:
        ok = False
        details.append("extracted structure differs from input canonical form")
    if ext.params.v != d.num_points or ext.params.b != d.num_blocks:
        ok = False
        details.append(f"derived (v, b) = ({ext.params.v}, {ext.params.b}) does not match input")
    if ok:
        details.append("exact round trip")
    return RoundTripReport(ok, tuple(details))


def round_trip_graph(g: BipartiteGraph, points: str) -> RoundTripReport:
    """graph -> design -> incidence graph must preserve adjacency under the
    provenance bijection (chosen-class vertex i -> i, block vertex -> v+j)."""
    ext = design_from_graph(g, points)
    g2 = incidence_graph(ext.structure)
    v = ext.structure.num_points
    phi = {}
    for i, vertex in enumerate(ext.point_vertices):
        phi[vertex] = i
    for j, vertex in enumerate(ext.block_vertices):
        phi[vertex] = v + j
    details = []
    ok = len(phi) == g.num_vertices == g2.num_vertices
    if not ok:
        details.append("provenance maps do not cover the vertex set")
    else:
        g2_edges = set(g2.edges)
        for u, w in g.edges:
            a, b = phi[u], phi[w]
            if (min(a, b), max(a, b)) not in g2_edges:
                ok = False
                details.append(f"edge ({u}, {w}) lost through the round trip")
                break
        if ok and len(g.edges) != len(g2.edges):
            ok = False
            details.append("edge counts differ")
    if ok:
        details.append("adjacency preserved under the provenance bijection")
    return RoundTripReport(ok, tuple(details))
