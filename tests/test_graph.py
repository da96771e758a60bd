import random
import tracemalloc
from itertools import combinations

import networkx as nx
import pytest

from spbibd import core, graph, homogeneity
from spbibd.core import MAX_LAYER_BYTES, ConsistencyError, build_bipartite, layer_bfs, nearer_rows, validate_structure
from spbibd.correspondence import design_from_graph, expected_incidence_arrays, incidence_graph
from spbibd.design import dual
from spbibd.generators import (
    even_cycle,
    fano,
    gq22,
    grid_design,
    path_graph,
    subdivision_complete_bipartite,
    symplectic_gq,
    tutte_coxeter,
)
from spbibd.graph import (
    KIND_DISTANCE_BIREGULAR,
    KIND_DISTANCE_REGULAR,
    KIND_NOT_REGULARIZED,
    NotRegularizedAt,
    all_distances,
    bfs_distances,
    classify,
    local_intersection_numbers,
)
from spbibd.homogeneity import homogeneous_by_bruteforce
from util import (
    degree,
    eccentricity,
    first_split_only,
    girth,
    hexagonal_prism,
    hypercube_graph,
    is_distance_semiregular,
    nearer_planes_plus_one,
    nx_graph,
    oracle_distances,
    random_connected_bipartite,
    relabeled_graph,
    sylvester_hadamard_graph,
    uniform_array_oracle,
)


def complete_bipartite_graph(a: int, b: int):
    return build_bipartite(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def test_bfs_matches_networkx_oracle():
    rng = random.Random(3)
    for _ in range(30):
        g = random_connected_bipartite(rng)
        v = rng.randrange(g.num_vertices)
        dist = bfs_distances(g, v)
        oracle = oracle_distances(g, v)
        assert all(dist[w] == oracle[w] for w in range(g.num_vertices))


def test_eight_cycle_distances_and_eccentricity():
    g = even_cycle(8)
    dist = bfs_distances(g, 0)
    assert sorted(dist) == [0, 1, 1, 2, 2, 3, 3, 4]
    assert all(eccentricity(g, v) == 4 for v in range(8))


def test_k23_eccentricity():
    g = complete_bipartite_graph(2, 3)
    # degree-3 vertices are the 2-side
    deg3 = [v for v in range(5) if degree(g, v) == 3]
    assert all(eccentricity(g, v) == 2 for v in deg3)


def test_tutte_coxeter_every_vertex_eccentricity_4():
    g = tutte_coxeter()
    assert g.num_vertices == 30
    assert all(eccentricity(g, v) == 4 for v in range(30))


def test_eight_cycle_intersection_numbers():
    g = even_cycle(8)
    for v in range(8):
        arr = local_intersection_numbers(g, v)
        assert arr.b == (2, 1, 1, 1, 0)
        assert arr.c == (0, 1, 1, 1, 2)


def test_path4_witness_confirmed_by_direct_count():
    g = path_graph(4)
    res = local_intersection_numbers(g, 1)
    assert isinstance(res, NotRegularizedAt)
    # recount the b-values of the two witnesses directly
    dist = bfs_distances(g, res.vertex)
    y1, y2 = res.witnesses
    assert dist[y1] == dist[y2] == res.distance

    def count(y, delta):
        return sum(1 for w in g.neighbors(y) if dist[w] == dist[y] + delta)

    if res.count_kind == "b":
        assert (count(y1, 1), count(y2, 1)) == res.counts
    else:
        assert (count(y1, -1), count(y2, -1)) == res.counts
    assert res.counts[0] != res.counts[1]


def test_path4_end_vertices_are_regularized():
    g = path_graph(4)
    arr = local_intersection_numbers(g, 0)
    assert arr.b == (1, 1, 1, 0) and arr.c == (0, 1, 1, 1)


def test_tutte_coxeter_arrays_match_prediction():
    g = tutte_coxeter()
    point, block = expected_incidence_arrays(3, 3, 1, 1, 1)
    assert point == block
    for v in range(g.num_vertices):
        assert local_intersection_numbers(g, v) == point


def test_classify_tutte_coxeter_distance_regular():
    cls = classify(tutte_coxeter())
    assert cls.kind == KIND_DISTANCE_REGULAR
    assert cls.ecc_y == cls.ecc_yprime == 4
    assert cls.array_y == cls.array_yprime


def test_classify_subdivision_k33_biregular():
    cls = classify(subdivision_complete_bipartite(3))
    assert cls.kind == KIND_DISTANCE_BIREGULAR
    assert cls.ecc_y == cls.ecc_yprime == 4
    # original K_{3,3} vertices come first, so Y is the degree-3 class whose
    # array matches the point side of a (3, 2, 1, 1, 1) design
    point, _ = expected_incidence_arrays(3, 2, 1, 1, 1)
    assert cls.array_y == point
    assert cls.array_yprime.valency == 2


def test_classify_star_is_biregular_and_semiregular_both_sides():
    cls = classify(complete_bipartite_graph(1, 4))
    assert cls.kind == KIND_DISTANCE_BIREGULAR
    assert {cls.ecc_y, cls.ecc_yprime} == {1, 2}
    assert is_distance_semiregular(cls, "Y")
    assert is_distance_semiregular(cls, "Yprime")


def test_classify_single_edge_distance_regular():
    cls = classify(path_graph(2))
    assert cls.kind == KIND_DISTANCE_REGULAR
    assert cls.ecc_y == cls.ecc_yprime == 1


def test_classify_path4_not_regularized_with_witness():
    cls = classify(path_graph(4))
    assert cls.kind == KIND_NOT_REGULARIZED
    assert cls.witness is not None
    assert cls.array_y is None and cls.array_yprime is None


def test_classify_regular_implies_matching_arrays():
    # k = k' forces D = D' and identical arrays
    for g in (even_cycle(8), even_cycle(12), tutte_coxeter(), complete_bipartite_graph(3, 3)):
        cls = classify(g)
        if cls.array_y is not None and cls.array_y.valency == cls.array_yprime.valency:
            assert cls.kind == KIND_DISTANCE_REGULAR
            assert cls.ecc_y == cls.ecc_yprime
            assert cls.array_y == cls.array_yprime


def test_eccentricity_gap_at_most_one_when_regularized():
    graphs = [
        even_cycle(8),
        tutte_coxeter(),
        subdivision_complete_bipartite(3),
        complete_bipartite_graph(1, 4),
        complete_bipartite_graph(2, 5),
    ]
    for g in graphs:
        cls = classify(g)
        assert cls.kind != KIND_NOT_REGULARIZED
        assert abs(cls.ecc_y - cls.ecc_yprime) <= 1


def test_sum_identity_c_plus_b():
    # c_i + b_i equals k for even i and k' for odd i, on both classes
    for g in (tutte_coxeter(), subdivision_complete_bipartite(3), subdivision_complete_bipartite(4)):
        cls = classify(g)
        for arr, other in ((cls.array_y, cls.array_yprime), (cls.array_yprime, cls.array_y)):
            k, kp = arr.valency, other.valency
            for i in range(arr.eccentricity + 1):
                expected = k if i % 2 == 0 else kp
                assert arr.c[i] + arr.b[i] == expected


def test_classify_invariant_under_relabeling():
    rng = random.Random(5)
    base_graphs = [tutte_coxeter(), subdivision_complete_bipartite(3), path_graph(5)]
    for g in base_graphs:
        cls = classify(g)
        for _ in range(3):
            h, _ = relabeled_graph(g, rng)
            cls2 = classify(h)
            assert cls2.kind == cls.kind
            # arrays may swap sides when vertex 0 changes class
            assert {cls2.array_y, cls2.array_yprime} == {cls.array_y, cls.array_yprime}
            assert {cls2.ecc_y, cls2.ecc_yprime} == {cls.ecc_y, cls.ecc_yprime}


def oracle_intersection_array(g, x):
    """From-scratch extraction over the networkx distance dict: returns
    (b, c) tuples, or the first witness when some level has inconsistent
    counts (vertices in order, the b-count compared before the c-count)."""
    dist = oracle_distances(g, x)
    ecc = max(dist.values())
    first = {}
    for y in range(g.num_vertices):
        i = dist[y]
        counts = {
            "b": sum(1 for w in g.neighbors(y) if dist[w] == i + 1),
            "c": sum(1 for w in g.neighbors(y) if dist[w] == i - 1),
        }
        if i not in first:
            first[i] = (y, counts)
            continue
        rep, rep_counts = first[i]
        for kind in ("b", "c"):
            if counts[kind] != rep_counts[kind]:
                return NotRegularizedAt(x, i, kind, (rep, y), (rep_counts[kind], counts[kind]))
    levels = [first[i][1] for i in range(ecc + 1)]
    return tuple(lv["b"] for lv in levels), tuple(lv["c"] for lv in levels)


def test_local_intersection_numbers_match_independent_oracle():
    rng = random.Random(29)
    graphs = [tutte_coxeter(), subdivision_complete_bipartite(3), path_graph(6)]
    graphs += [random_connected_bipartite(rng) for _ in range(20)]
    for g in graphs:
        for x in range(g.num_vertices):
            expected = oracle_intersection_array(g, x)
            got = local_intersection_numbers(g, x)
            if isinstance(expected, NotRegularizedAt):
                assert got == expected
            else:
                assert (got.b, got.c) == expected


def class_verdict(cls, side):
    """One class's part of a classification, in the form of
    uniform_array_oracle: (array, maximum eccentricity, first witness)."""
    ecc = cls.ecc_y if side == "Y" else cls.ecc_yprime
    return cls.array_for(side), ecc, cls.witness_for(side)


def test_classify_stops_at_each_class_first_witness(monkeypatch):
    rng = random.Random(31)
    graphs = [path_graph(8)] + [random_connected_bipartite(rng, max_side=8) for _ in range(20)]
    real = local_intersection_numbers
    scanned = []

    def counting(g, v):
        scanned.append(v)
        return real(g, v)

    monkeypatch.setattr(graph, "local_intersection_numbers", counting)
    skipped = 0
    for g in graphs:
        scanned.clear()
        cls = classify(g)
        expected_calls = []
        for side in ("Y", "Yprime"):
            vertices = g.class_vertices(side)
            arrays = [real(g, v) for v in vertices]
            witnesses = [a for a in arrays if isinstance(a, NotRegularizedAt)]
            arr, ecc, witness = class_verdict(cls, side)
            assert ecc == max(eccentricity(g, v) for v in vertices)
            if not witnesses:
                # the verdict needs no per-vertex scan: a uniform class's
                # array is read from the class scan's keys
                assert witness is None
                continue
            assert arr is None and witness == witnesses[0]
            expected_calls += vertices[: vertices.index(witness.vertex) + 1]
            skipped += len(witnesses) - 1
        # Y's calls, then Yprime's, and no other
        assert scanned == expected_calls
    assert skipped > 0  # later witnesses exist and were never computed


def spider(legs, length):
    """``legs`` paths of ``length`` edges from centre 0: the vertex at
    distance t on leg j is (t - 1) * legs + j + 1."""
    rim = [(0, j) for j in range(1, legs + 1)]
    return build_bipartite(legs * length + 1, rim + [(v, v + legs) for v in range(1, legs * (length - 1) + 1)])


def subdivided_star(m):
    """S(K_{1,m}): centre 0, middles 1..m, leaf m + i hanging from middle i."""
    return spider(m, 2)


def subdivided(g, length):
    """``g`` with each edge replaced by a path of ``length`` edges."""
    edges, n = [], g.num_vertices
    for u, v in g.edges:
        path = [u, *range(n, n + length - 1), v]
        n += length - 1
        edges += zip(path, path[1:])
    return build_bipartite(n, edges)


def test_classify_names_one_class_witness_while_the_other_stays_mixed(monkeypatch):
    # class Y (the centre and the leaves) is regularized at every vertex
    # with two arrays; class Yprime (the middles) has its witness at vertex
    # 1.  Only that witness is computed vertex by vertex: Yprime drops out
    # of the sweep at its first conflict and Y is decided without calls.
    g = subdivided_star(300)
    real = local_intersection_numbers
    scanned = []

    def counting(g, v):
        scanned.append(v)
        return real(g, v)

    monkeypatch.setattr(graph, "local_intersection_numbers", counting)
    cls = classify(g)
    assert scanned == [1]
    assert cls.kind == KIND_NOT_REGULARIZED
    assert cls.array_y is None and cls.witness_y is None
    assert cls.witness == cls.witness_yprime == real(g, 1)


def test_count_planes_are_built_once_per_classify(monkeypatch):
    g = incidence_graph(symplectic_gq(5))
    assert g.num_vertices == 312
    calls = []
    real = graph.nearer_planes

    def counting(g, order):
        calls.append(g)
        return real(g, order)

    monkeypatch.setattr(graph, "nearer_planes", counting)
    assert classify(g).kind == KIND_DISTANCE_REGULAR
    assert calls == [g]
    calls.clear()
    design_from_graph(g, "Y")
    assert calls == [g]


def test_classes_that_fail_by_level_1_build_no_count_planes(monkeypatch):
    # on the 8-path each class has a vertex whose neighbours differ in
    # degree, so both fail at level 1, which the degree planes decide
    g = path_graph(8)
    expected = classify(g)
    assert expected.witness_y == NotRegularizedAt(2, 2, "b", (0, 4), (0, 1))
    assert expected.witness_yprime == NotRegularizedAt(1, 1, "b", (0, 2), (0, 1))

    def unreachable(g, order):
        raise AssertionError("count planes built")

    monkeypatch.setattr(graph, "nearer_planes", unreachable)
    assert classify(g) == expected


@pytest.mark.parametrize(
    "mutant, g, message",
    [
        # every pair in count 0: one key per level, a uniform verdict
        # whose array b = (3, 2, 3, 3, 3), c = (0, 1, 0, 0, 0) counts no
        # edge from vertex 0's second layer down to its first (levels 0
        # and 1 come from the degrees, not from the count planes)
        (
            lambda g, order: [],
            hexagonal_prism(),
            r"class scan array \(3, 2, 3, 3, 3\), \(0, 1, 0, 0, 0\) miscounts the layers \[1, 3, 4, 3, 1\] of vertex 0",
        ),
        # every count one too high: one key per level on the 8-cycle, but
        # b_1 = 1 edge leaves each of vertex 0's 2 neighbours, while its 2
        # second neighbours count c_2 = 2
        (nearer_planes_plus_one, even_cycle(8), "miscounts the layers"),
        # row 0 alone counts 1, which on the regular 8-cycle is vertex 0: a
        # conflict on a distance-regular graph, whose per-vertex scan finds
        # no witness
        (lambda g, order: [(1 << g.num_vertices) - 1], even_cycle(8), "has no witness"),
    ],
    ids=["missed-witness", "off-by-one", "no-witness"],
)
def test_class_scan_cross_checks_are_live(monkeypatch, mutant, g, message):
    monkeypatch.setattr(graph, "nearer_planes", mutant)
    with pytest.raises(ConsistencyError, match=message):
        classify(g)


def test_every_plane_is_checked_for_a_column_that_sees_two_keys(monkeypatch):
    # the spider with three legs of 4 edges: at distance 2 vertex 4 sees the
    # centre (degree 3, key (2, 1)) and a leaf (degree 1, key (0, 1)), which
    # differ only in bit 1 of the degree.  Bit 0 of the degree splits that
    # level first, between columns only: the vertices at distance 2 from
    # the centre see degrees 1 and 3 there, the centre and the leaves see
    # degree 2.
    g = spider(3, 4)
    expected = uniform_array_oracle(g, g.class_vertices("Y"))
    assert expected[2] == NotRegularizedAt(4, 2, "b", (0, 10), (2, 0))
    assert class_verdict(classify(g), "Y") == expected
    monkeypatch.setattr(graph, "plane_counts", first_split_only)
    # the scan that splits a level's pairs by their keys only up to the
    # first plane that splits them reads class Y as mixed, with no witness
    assert class_verdict(classify(g), "Y") == (None, 8, None) != expected


def kernel_fixtures():
    """Named families plus 1,000 seeded random graphs of up to 12 + 12
    vertices.  The 40-path, the 60-cycle and the hexagonal prism with its
    edges made paths of 4 reach deep levels (the prism's classes stop at
    levels 5 and 6); the spiders, stars, subdivisions and designs have
    unequal degrees, so rows past their vertex's degree.  The design of
    all triples of 5 points is uniform on its points only, and so is its
    dual on its blocks: one semiregular graph of each kind."""
    graphs = [incidence_graph(symplectic_gq(3)), incidence_graph(gq22()), tutte_coxeter()]
    graphs += [incidence_graph(grid_design(n)) for n in range(2, 6)]
    graphs += [hypercube_graph(dim) for dim in range(1, 9)]
    graphs += [sylvester_hadamard_graph(n) for n in (16, 32)]
    graphs += [even_cycle(n) for n in (*range(4, 21, 2), 60)]
    graphs += [path_graph(n) for n in (*range(2, 14), 40)]
    graphs += [subdivision_complete_bipartite(n) for n in range(2, 6)]
    graphs += [spider(3, 4), spider(4, 3), subdivided_star(5), complete_bipartite_graph(1, 6)]
    graphs += [complete_bipartite_graph(2, 5), subdivided(hexagonal_prism(), 2), subdivided(hexagonal_prism(), 4)]
    triples = validate_structure(5, combinations(range(5), 3))
    graphs += [incidence_graph(triples), incidence_graph(dual(triples))]
    rng = random.Random(41)
    graphs += [random_connected_bipartite(rng, max_side=2 + i % 11) for i in range(1000)]
    return graphs


@pytest.mark.parametrize(
    "make",
    [
        lambda: incidence_graph(symplectic_gq(7)),
        lambda: sylvester_hadamard_graph(32),
        lambda: sylvester_hadamard_graph(64),
    ],
    ids=["W(7)", "Hadamard 32", "Hadamard 64"],
)
def test_the_refusal_estimates_bound_the_peak_memory(monkeypatch, make):
    # neither exhaustive check is refused: the class scan counts its rows y
    # in runs, and so does the brute force its rows (x, W) on either side.
    # Under a limit that cuts the rows into 8 or more runs, each peak is
    # that of one run, at most a quarter of the peak of counting in one.
    # The layers and residues are the graph's cached views, bounded by the
    # layers' own estimate, and are built first.  Each call of nearer_rows
    # also builds the residue byte rows of all n vertices, whatever its
    # run: on Hadamard 32 that is 7 kB of the class scan's 18 kB peak in
    # runs, so the scan's bound is on its peaks above them
    g = make()
    g.residues
    runs = []
    real = graph.nearer_planes
    monkeypatch.setattr(graph, "nearer_planes", lambda g, order: runs.append(len(order)) or real(g, order))
    monkeypatch.setattr(homogeneity, "nearer_rows", lambda g, rows: runs.append(len(rows)) or nearer_rows(g, rows))

    def peak_of(step, *args):
        tracemalloc.start()
        try:
            result = step(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    size = (g.num_vertices + 7) // 8
    _, residue_rows = peak_of(lambda: [m.to_bytes(size, "little") for m in g.residues[0]])
    checks = {"classify": (residue_rows, classify, g), "Y": (0, homogeneous_by_bruteforce, g, "Y")}
    checks["Yprime"] = (0, homogeneous_by_bruteforce, g, "Yprime")
    for name, (shared, step, *args) in checks.items():
        monkeypatch.setattr(core, "MAX_LAYER_BYTES", MAX_LAYER_BYTES)
        whole, one_run = peak_of(step, *args)
        assert len(runs) == 1
        monkeypatch.setattr(core, "MAX_LAYER_BYTES", runs.pop() // 16 * 1024 * size)
        cut, peak = peak_of(step, *args)
        assert cut == whole and len(runs) >= 8, name
        assert 4 * (peak - shared) <= one_run - shared, name
        runs.clear()


def test_all_source_layers_match_per_source_bfs():
    for g in kernel_fixtures():
        masks = g.adjacency_masks
        assert g.layers == tuple(layer_bfs(masks, v) for v in range(g.num_vertices))


def test_classify_matches_vertex_order_oracle(monkeypatch):
    # and gives the same result in runs of one row y (any limit below 1024
    # bytes) and of 3 rows; the layers are built first, under the default
    outcomes = {"array": 0, "mixed": 0, "witness": 0}
    for g in kernel_fixtures():
        cls = classify(g)
        for limit in (1, 3 * 1024 * ((g.num_vertices + 7) // 8)):
            monkeypatch.setattr(core, "MAX_LAYER_BYTES", limit)
            assert classify(g) == cls, limit
        monkeypatch.setattr(core, "MAX_LAYER_BYTES", MAX_LAYER_BYTES)
        for side in ("Y", "Yprime"):
            expected = uniform_array_oracle(g, g.class_vertices(side))
            assert class_verdict(cls, side) == expected
            arr, _, witness = expected
            outcomes["witness" if witness else "array" if arr else "mixed"] += 1
    # every branch of the verdict is exercised
    assert min(outcomes.values()) > 0, outcomes


def test_array_invariants_on_every_successful_extraction():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_bipartite(rng)
        for v in range(g.num_vertices):
            res = local_intersection_numbers(g, v)
            if isinstance(res, NotRegularizedAt):
                continue
            d = res.eccentricity
            assert res.c[0] == 0 and res.b[d] == 0
            if d >= 1:
                assert res.c[1] == 1
                assert all(res.b[i - 1] > 0 and res.c[i] > 0 for i in range(1, d + 1))


def test_classify_kind_matches_independent_reconstruction():
    rng = random.Random(37)
    graphs = [tutte_coxeter(), subdivision_complete_bipartite(3), path_graph(4)]
    graphs += [random_connected_bipartite(rng) for _ in range(30)]
    for g in graphs:
        per_side = []
        for side in ("Y", "Yprime"):
            arrays = [oracle_intersection_array(g, v) for v in g.class_vertices(side)]
            uniform = len(set(arrays)) == 1 and not isinstance(arrays[0], NotRegularizedAt)
            per_side.append(arrays[0] if uniform and arrays else None)
        y_arr, yp_arr = per_side
        if y_arr is not None and yp_arr is not None:
            expected = (
                KIND_DISTANCE_REGULAR if y_arr == yp_arr else KIND_DISTANCE_BIREGULAR
            )
        elif y_arr is not None:
            expected = "distance-semiregular-Y-only"
        elif yp_arr is not None:
            expected = "distance-semiregular-Yprime-only"
        else:
            expected = KIND_NOT_REGULARIZED
        assert classify(g).kind == expected


def test_girth_values():
    assert girth(even_cycle(8)) == 8
    assert girth(tutte_coxeter()) == 8
    assert girth(complete_bipartite_graph(3, 3)) == 4
    assert girth(path_graph(5)) is None
    assert girth(incidence_graph(fano())) == 6


def test_all_distances_consistent():
    g = subdivision_complete_bipartite(3)
    mat = all_distances(g)
    h = nx_graph(g)
    for v in range(g.num_vertices):
        oracle = nx.single_source_shortest_path_length(h, v)
        assert all(mat[v][w] == oracle[w] for w in range(g.num_vertices))


def test_grid2_incidence_graph_is_eight_cycle():
    g = incidence_graph(grid_design(2))
    assert nx.is_isomorphic(nx_graph(g), nx.cycle_graph(8))


def test_bfs_vertex_out_of_range():
    with pytest.raises(IndexError):
        bfs_distances(even_cycle(8), 9)
