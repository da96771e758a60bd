import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from spbibd import core, homogeneity
from spbibd.core import (
    ConsistencyError,
    IntersectionArray,
    ToolkitError,
    build_bipartite,
)
from spbibd.correspondence import expected_incidence_arrays, incidence_graph
from spbibd.design import NotInScopeError, dual, spbibd_type
from spbibd.equalities import SpbibdParams, delta_numerator, fraction_text, p2ii_numerator, parameter_homogeneity
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
from spbibd.graph import classify
from spbibd.homogeneity import (
    VERDICT_ALMOST_ONLY,
    VERDICT_NEITHER,
    VERDICT_TWO_HOMOGENEOUS,
    EccentricityNotUniformError,
    HypothesisViolatedError,
    IndexOutOfRangeError,
    delta_value,
    homogeneity_report,
    homogeneous_by_bruteforce,
    homogeneous_by_formula,
)
from util import (
    bruteforce_oracle,
    constant_at,
    delta_oracle,
    hypercube_design,
    hypercube_graph,
    hyperoval_design,
    p2ii_direct_counts,
    plus_one,
    random_connected_bipartite,
    sylvester_hadamard_graph,
    y1_homogeneity_oracle,
)


TUTTE_ARRAYS = expected_incidence_arrays(3, 3, 1, 1, 1)
Q3_ARRAY = IntersectionArray(b=(3, 2, 1, 0), c=(0, 1, 2, 3))


def p2ii_value(side_arr, other_arr, i):
    """p^i_{2,i} as a Fraction: its equalities numerator over the side c_2."""
    return Fraction(p2ii_numerator(side_arr, other_arr, i), side_arr.c[2])


def test_p2ii_tutte_point_side_values():
    point, block = TUTTE_ARRAYS
    formula = homogeneous_by_formula(point, block)
    assert (formula.p2ii, formula.c2) == ({2: 1, 3: 5}, 1)


def test_p2ii_vanishes_when_both_factors_do():
    # c_{i+1} = 1 and b_{i-1} = 1 at even i: both numerator terms die
    c8 = classify(even_cycle(8))
    assert p2ii_numerator(c8.array_y, c8.array_yprime, 2) == 0


def test_p2ii_formula_matches_direct_count_everywhere():
    graphs = [
        tutte_coxeter(),
        subdivision_complete_bipartite(3),
        subdivision_complete_bipartite(4),
        incidence_graph(fano()),
        hypercube_graph(3),
        hypercube_graph(4),
        incidence_graph(grid_design(5)),
    ]
    for g in graphs:
        cls = classify(g)
        for side, arr, other in (
            ("Y", cls.array_y, cls.array_yprime),
            ("Yprime", cls.array_yprime, cls.array_y),
        ):
            for i in range(2, arr.eccentricity):
                observed = p2ii_direct_counts(g, side, i)
                assert observed == {p2ii_value(arr, other, i)}, (side, i)


def test_delta_tutte_values():
    point, block = TUTTE_ARRAYS
    assert delta_value(point, block, 2) == 0
    assert delta_value(point, block, 3) == 2
    # block side of gq22 has the same arrays by self-duality of parameters
    assert delta_value(block, point, 3) == 2


def test_delta_closed_forms_for_y_equal_one():
    for r, k, t in ((3, 3, 1), (2, 4, 1), (4, 3, 2), (5, 4, 3)):
        point, block = expected_incidence_arrays(r, k, 1, t, 1)
        assert delta_value(point, block, 2) == (k - 2) * (t - 1)
        assert delta_value(point, block, 3) == (k - 2) * (k - 1)
        assert delta_value(block, point, 2) == (r - 2) * (t - 1)
        assert delta_value(block, point, 3) == (r - 2) * (r - 1)


def test_delta_vanishes_when_both_products_do():
    # c'_2 = 1 and c_{i+1} = 1 kill both terms regardless of p^i_{2,i}
    for r, k, t in ((3, 3, 1), (5, 4, 1)):
        point, block = expected_incidence_arrays(r, k, 1, t, 1)
        assert block.c[2] == 1 and point.c[3] == t
        if t == 1:
            assert delta_value(point, block, 2) == 0


def test_delta_index_range():
    point, block = TUTTE_ARRAYS
    with pytest.raises(IndexOutOfRangeError):
        delta_value(point, block, 0)
    with pytest.raises(IndexOutOfRangeError):
        delta_value(point, block, 4)


def test_delta_level_one_is_zero_on_regularized_graphs():
    for g in (tutte_coxeter(), subdivision_complete_bipartite(3), hypercube_graph(4)):
        cls = classify(g)
        assert delta_value(cls.array_y, cls.array_yprime, 1) == 0
        assert delta_value(cls.array_yprime, cls.array_y, 1) == 0


def _check_one_fraction_per_scalar(side_arr, other_arr):
    # the same value and the same str: each Fraction is in lowest terms;
    # the integer numerators are the same scalars times the side c_2, and
    # the report renders them over c_2 as the Fraction prints
    bound = min(side_arr.eccentricity, other_arr.eccentricity) - 1
    c2 = side_arr.c[2]
    for i in range(1, side_arr.eccentricity):
        p, delta = delta_oracle(side_arr, other_arr, i)
        if i >= 2:
            value = p2ii_value(side_arr, other_arr, i)
            num = p2ii_numerator(side_arr, other_arr, i)
            assert (value, str(value)) == (p, str(p)), (side_arr, other_arr, i)
            assert (num, fraction_text(num, c2)) == (value * c2, str(value)), (side_arr, other_arr, i)
        if i <= bound:
            value = delta_value(side_arr, other_arr, i)
            num = delta_numerator(side_arr, other_arr, i)
            assert (value, str(value)) == (delta, str(delta)), (side_arr, other_arr, i)
            assert (num, fraction_text(num, c2)) == (value * c2, str(value)), (side_arr, other_arr, i)


def test_delta_and_p2ii_match_the_three_fraction_oracle_on_predicted_arrays():
    # every array pair of a parameter tuple with r, k <= 20, lambda1 < r and
    # 1 <= y <= t < k that expected_incidence_arrays accepts.  Read from the
    # block side, (r, k, lambda1, t, y) is the point side of its dual
    # (k, r, y, t*lambda1/y, lambda1), in the same range, so one side per
    # tuple covers both.
    pairs = 0
    for r in range(2, 21):
        for k in range(2, 21):
            for lambda1 in range(1, r):
                for t in range(1, k):
                    for y in range(1, t + 1):
                        try:
                            point, block = expected_incidence_arrays(r, k, lambda1, t, y)
                        except ToolkitError:
                            continue
                        _check_one_fraction_per_scalar(point, block)
                        pairs += 1
    assert pairs > 60_000


def test_delta_and_p2ii_match_the_three_fraction_oracle_on_golden_graphs():
    graphs = [
        tutte_coxeter(),
        even_cycle(12),
        path_graph(8),
        subdivision_complete_bipartite(4),
        incidence_graph(symplectic_gq(3)),
        incidence_graph(hypercube_design()),
        incidence_graph(grid_design(5)),
        build_bipartite(20, nx.desargues_graph().edges()),
    ]
    checked = 0
    for g in graphs:
        cls = classify(g)
        if cls.array_y is not None and cls.array_yprime is not None:
            _check_one_fraction_per_scalar(cls.array_y, cls.array_yprime)
            _check_one_fraction_per_scalar(cls.array_yprime, cls.array_y)
            checked += 1
    assert checked == len(graphs) - 1  # all but the path


def test_formula_deltas_cover_expected_levels():
    # the numerators over the side c_2, as exact ints
    point, block = TUTTE_ARRAYS
    formula = homogeneous_by_formula(point, block)
    assert set(formula.delta) == {1, 2, 3} and formula.c2 == point.c[2] == 1
    assert formula.delta == {i: delta_numerator(point, block, i) for i in (1, 2, 3)} == {1: 0, 2: 0, 3: 2}
    assert formula.p2ii == {2: 1, 3: 5}
    assert all(type(v) is int for v in (*formula.delta.values(), *formula.p2ii.values()))


def test_theorem_verdict_tutte_almost_only():
    point, block = TUTTE_ARRAYS
    assert homogeneous_by_formula(point, block).verdict == VERDICT_ALMOST_ONLY
    assert homogeneous_by_formula(block, point).verdict == VERDICT_ALMOST_ONLY


def test_theorem_verdict_neither_for_t2_y1_arrays():
    point, block = expected_incidence_arrays(4, 4, 1, 2, 1)
    assert delta_value(point, block, 2) == (4 - 2) * (2 - 1)
    assert homogeneous_by_formula(point, block).verdict == VERDICT_NEITHER


def test_theorem_verdict_two_homogeneous_at_d3():
    # D = 3 with Delta_2 = 0: the 3-cube
    formula = homogeneous_by_formula(Q3_ARRAY, Q3_ARRAY)
    assert formula.verdict == VERDICT_TWO_HOMOGENEOUS
    # numerators over c_2 = 2: p^2_{2,2} = 4/2, the two common neighbours
    assert formula.delta == {1: 0, 2: 0} and formula.p2ii == {2: 4} and formula.c2 == 2


def test_theorem_hypothesis_violated():
    cls = classify(subdivision_complete_bipartite(3))
    # Y is the degree-3 class, so the other valency is k' = 2
    with pytest.raises(HypothesisViolatedError):
        homogeneous_by_formula(cls.array_y, cls.array_yprime)
    # D = 2 complete bipartite
    k33 = classify(build_bipartite(6, [(i, 3 + j) for i in range(3) for j in range(3)]))
    with pytest.raises(HypothesisViolatedError):
        homogeneous_by_formula(k33.array_y, k33.array_yprime)


def test_bruteforce_subdivision_line_side_two_homogeneous():
    for n in (3, 4, 5):
        g = subdivision_complete_bipartite(n)
        res = homogeneous_by_bruteforce(g, "Y")
        assert res.verdict == VERDICT_TWO_HOMOGENEOUS


def test_bruteforce_subdivision_cell_side_almost_only():
    for n in (3, 4):
        g = subdivision_complete_bipartite(n)
        res = homogeneous_by_bruteforce(g, "Yprime")
        assert res.verdict == VERDICT_ALMOST_ONLY
        assert constant_at(res, 2) and not constant_at(res, 3)


def test_bruteforce_tutte_levels():
    res = homogeneous_by_bruteforce(tutte_coxeter(), "Y")
    assert res.verdict == VERDICT_ALMOST_ONLY
    assert constant_at(res, 2)
    assert not constant_at(res, 3)
    assert len(res.level_counts[3]) == 2


def test_bruteforce_eight_cycle_vacuous():
    res = homogeneous_by_bruteforce(even_cycle(8), "Y")
    assert res.verdict == VERDICT_TWO_HOMOGENEOUS
    assert res.level_counts[2] == ()  # Gamma_{2,2}(x, y) is always empty


def test_bruteforce_star_low_eccentricity():
    g = build_bipartite(5, [(0, i) for i in range(1, 5)])
    res = homogeneous_by_bruteforce(g, "Yprime")
    assert res.eccentricity == 2
    assert res.verdict == VERDICT_TWO_HOMOGENEOUS


def test_bruteforce_requires_uniform_eccentricity():
    with pytest.raises(EccentricityNotUniformError):
        homogeneous_by_bruteforce(path_graph(4), "Y")


def test_bruteforce_matches_per_z_oracle():
    rng = random.Random(43)
    graphs = [
        incidence_graph(symplectic_gq(3)),
        incidence_graph(symplectic_gq(2)),  # GQ(2,2), labelled apart from tutte_coxeter()
        tutte_coxeter(),
        incidence_graph(grid_design(2)),
        incidence_graph(grid_design(5)),
        even_cycle(12),
        hypercube_graph(8),
        subdivision_complete_bipartite(5),
        build_bipartite(20, nx.desargues_graph().edges()),  # verdict "neither"
        build_bipartite(8, _SHARED_Z_GADGET),
        build_bipartite(9, _SHARED_Z_FLIP),
        incidence_graph(hyperoval_design()),
        sylvester_hadamard_graph(16),
    ]
    graphs += [random_connected_bipartite(rng) for _ in range(40)]
    assert sum(_check_against_oracle(g) for g in graphs) > 0


# x = 0 meets y = 1 in {4, 5} and y = 2 in {4, 6}; z = 3 is at distance 2
# from all three and sees 2 and 1 of those common neighbours
_SHARED_Z_GADGET = [(0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 7), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 7)]
# a graph on which adding such overlapping count sets, instead of joining
# them, loses count 0 at level 2 and reads class Y as 2-homogeneous
_SHARED_Z_FLIP = [(0, 7), (1, 7), (1, 8), (2, 6), (2, 8), (3, 6), (3, 7), (4, 6), (5, 8)]


def test_bruteforce_keeps_a_z_counted_by_two_common_neighbour_sets():
    g = build_bipartite(8, _SHARED_Z_GADGET)
    dist = dict(nx.all_pairs_shortest_path_length(nx.Graph(g.edges)))
    x, z = 0, 3
    seen = {}
    for y in (1, 2):
        assert dist[x][y] == dist[x][z] == dist[y][z] == 2
        common = frozenset(w for w in g.neighbors(x) if dist[y][w] == 1)
        seen[common] = sum(1 for w in common if dist[z][w] == 1)
    assert seen == {frozenset({4, 5}): 2, frozenset({4, 6}): 1}
    res = homogeneous_by_bruteforce(g, "Y")
    assert (res.level_counts, res.verdict) == ({1: (1,), 2: (1, 2)}, VERDICT_ALMOST_ONLY)
    res = homogeneous_by_bruteforce(build_bipartite(9, _SHARED_Z_FLIP), "Y")
    assert (res.level_counts, res.verdict) == ({1: (1,), 2: (0, 1), 3: (1,)}, VERDICT_NEITHER)


def _check_against_oracle(g):
    """Both sides of g: the kernel's level counts and verdict equal the
    per-z oracle's, whether it counts a class in one run, in runs of one x
    (any limit below 1024) or in runs that end at 3 rows, or both refuse a
    class of mixed eccentricities; returns how many sides were refused."""
    mixed = 0
    for side in ("Y", "Yprime"):
        try:
            counts, verdict = bruteforce_oracle(g, side)
        except EccentricityNotUniformError:
            mixed += 1
            with pytest.raises(EccentricityNotUniformError):
                homogeneous_by_bruteforce(g, side)
            continue
        for limit in (core.MAX_LAYER_BYTES, 1, 3 * 1024 * ((g.num_vertices + 7) // 8)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "MAX_LAYER_BYTES", limit)
                res = homogeneous_by_bruteforce(g, side)
            assert (res.level_counts, res.verdict) == (counts, verdict), (side, limit)
    return mixed


def _first_split_only(planes, mask):
    """core.plane_counts that stops at the first plane that splits a group."""
    for j in range(len(planes)):
        groups = core.plane_counts(planes[: j + 1], mask)
        if len(groups) > 1:
            return groups
    return core.plane_counts(planes, mask)


@pytest.mark.parametrize(
    "name, mutant, g, side",
    [
        # every count 0, or every count one too high: at level 1 each
        # common neighbour counts only itself, once
        ("nearer_rows", lambda g, rows: [], tutte_coxeter(), "Y"),
        ("nearer_rows", lambda g, rows: plus_one(core.nearer_rows(g, rows)), incidence_graph(symplectic_gq(3)), "Y"),
        # the q = 4 hyperoval design's blocks see counts 1 and 2 at level 3,
        # which plane 0 splits and plane 1 tells apart
        ("plane_counts", _first_split_only, incidence_graph(hyperoval_design()), "Yprime"),
    ],
    ids=["zero", "off-by-one", "first-split-only"],
)
def test_bruteforce_mutants_disagree_with_the_oracle(monkeypatch, name, mutant, g, side):
    expected = bruteforce_oracle(g, side)
    res = homogeneous_by_bruteforce(g, side)
    assert (res.level_counts, res.verdict) == expected
    monkeypatch.setattr(homogeneity, name, mutant)
    res = homogeneous_by_bruteforce(g, side)
    assert (res.level_counts, res.verdict) != expected


def _plant_shared_z(g, rng):
    """g plus a copy of _SHARED_Z_GADGET on eight new vertices: x, y1, y2
    and z, then their four neighbours.  Every new vertex but x is also
    joined to the other class of g, each edge with a probability drawn per
    graph; the last one, a neighbour of y1, y2 and z, always to one vertex
    of g, so the graph stays connected.  x keeps its three gadget
    neighbours, so x meets y1 and y2 in two of them each, one shared, and
    z sees 2 of the first pair and 1 of the second, whatever is added."""
    n = g.num_vertices
    gadget = [(n + u, n + w) for u, w in _SHARED_Z_GADGET]
    p = rng.uniform(0.2, 0.7)
    # gadget vertices 0..3 join class Y' of g, 4..7 class Y (vertex 0's)
    joins = [(n + 7, rng.choice(g.class_vertices("Y")))]
    joins += [
        (n + v, u)
        for v in range(1, 8)
        for u in range(n)
        if g.side[u] == (v < 4) and rng.random() < p
    ]
    return build_bipartite(n + 8, sorted(g.edges) + gadget + joins)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.randoms(use_true_random=False), st.integers(1, 8))
def test_bruteforce_matches_the_oracle_on_drawn_graphs(rng, max_side):
    _check_against_oracle(_plant_shared_z(random_connected_bipartite(rng, max_side), rng))


_RELABELLED = {
    "w3": lambda: incidence_graph(symplectic_gq(3)),
    "cube4": lambda: hypercube_graph(4),
    "desargues": lambda: build_bipartite(20, nx.desargues_graph().edges()),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from(sorted(_RELABELLED)), st.data())
def test_bruteforce_matches_the_oracle_under_relabelling(name, data):
    g = _RELABELLED[name]()
    perm = data.draw(st.permutations(range(g.num_vertices)))
    _check_against_oracle(build_bipartite(g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges]))


def test_formula_and_bruteforce_agree_when_hypotheses_hold():
    cases = [
        (tutte_coxeter(), "Y"),
        (tutte_coxeter(), "Yprime"),
        (incidence_graph(fano()), "Y"),
        (incidence_graph(fano()), "Yprime"),
        (hypercube_graph(3), "Y"),
        (hypercube_graph(4), "Y"),
        (subdivision_complete_bipartite(3), "Yprime"),
        (subdivision_complete_bipartite(5), "Yprime"),
        (incidence_graph(grid_design(4)), "Y"),
    ]
    for g, side in cases:
        rep = homogeneity_report(g, side)
        assert rep.formula_verdict is not None, side
        assert rep.formula_verdict == rep.verdict


def test_hypercubes_are_two_homogeneous_both_routes():
    for dim in (3, 4):
        rep = homogeneity_report(hypercube_graph(dim), "Y")
        assert rep.verdict == VERDICT_TWO_HOMOGENEOUS
        assert rep.formula_verdict == VERDICT_TWO_HOMOGENEOUS


def test_report_skips_formula_for_valency_two():
    rep = homogeneity_report(subdivision_complete_bipartite(3), "Y")
    assert rep.formula_verdict is None
    assert "k'" in rep.formula_skipped
    assert rep.verdict == VERDICT_TWO_HOMOGENEOUS


def test_report_skips_formula_when_not_regularized():
    g = build_bipartite(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    # tree with mixed eccentricities on one side: brute force itself refuses
    with pytest.raises(EccentricityNotUniformError):
        homogeneity_report(g, "Y")


def test_report_fields_tutte():
    rep = homogeneity_report(tutte_coxeter(), "Y")
    assert (rep.p2ii, rep.delta, rep.c2) == ({2: 1, 3: 5}, {1: 0, 2: 0, 3: 2}, 1)
    assert all(type(v) is int for v in (*rep.p2ii.values(), *rep.delta.values()))
    assert rep.bruteforce_counts[1] == (1,)


def test_report_takes_one_formula_result_and_cross_checks_it(monkeypatch):
    real = homogeneity.homogeneous_by_formula
    calls = []

    def counted(side_arr, other_arr):
        calls.append(side_arr)
        return real(side_arr, other_arr)

    monkeypatch.setattr(homogeneity, "homogeneous_by_formula", counted)
    point, block = TUTTE_ARRAYS
    rep = homogeneity_report(tutte_coxeter(), "Y")
    assert calls == [point]
    assert (rep.p2ii, rep.delta, rep.c2, rep.formula_verdict) == tuple(real(point, block))
    # a formula verdict that the brute force contradicts is a typed error
    monkeypatch.setattr(
        homogeneity, "homogeneous_by_formula", lambda s, o: real(s, o)._replace(verdict=VERDICT_NEITHER)
    )
    with pytest.raises(ConsistencyError, match="formula verdict neither"):
        homogeneity_report(tutte_coxeter(), "Y")


def test_verdict_lattice_is_monotone():
    # a fully homogeneous verdict implies the almost condition set
    for g, side in (
        (subdivision_complete_bipartite(3), "Y"),
        (even_cycle(8), "Y"),
        (hypercube_graph(4), "Y"),
    ):
        res = homogeneous_by_bruteforce(g, side)
        assert res.verdict == VERDICT_TWO_HOMOGENEOUS
        assert all(constant_at(res, i) for i in range(1, res.eccentricity - 1))


def pairs_design_graph():
    """Incidence graph of the all-pairs design on 4 points (the
    subdivision of K_4): distance-biregular with D = 3 on the point side
    and D' = 4 on the block side."""
    from itertools import combinations

    from spbibd.core import validate_structure

    d = validate_structure(4, [list(p) for p in combinations(range(4), 2)])
    return incidence_graph(d)


def test_unequal_eccentricities_block_side_neither():
    g = pairs_design_graph()
    cls = classify(g)
    assert (cls.ecc_y, cls.ecc_yprime) == (3, 4)
    # block side: D = 4 but D' = 3, so both verdict ranges end at i = 2
    rep = homogeneity_report(g, "Yprime")
    assert rep.formula_verdict == VERDICT_NEITHER
    assert rep.verdict == VERDICT_NEITHER
    assert not constant_at(homogeneous_by_bruteforce(g, "Yprime"), 2)


def test_unequal_eccentricities_point_side_homogeneous():
    g = pairs_design_graph()
    # point side has k' = 2: formula path refuses, brute force decides
    rep = homogeneity_report(g, "Y")
    assert rep.formula_verdict is None
    assert rep.verdict == VERDICT_TWO_HOMOGENEOUS


_GQ_NOTE = "t = 1: the design is a generalized quadrangle"
_Y_ABOVE_1_NOTE = "y > 1: parameter-level verdicts only, existence of a design is a separate question"


def _y1_params(r, k, t, v=0, b=0):
    return SpbibdParams(v=v, b=b, r=r, k=k, lambda1=1, lambda2=0, s=k - 1, t=t, x=0, y=1)


# Each parameter_homogeneity test pins the whole record: (almost_2p,
# full_2p, almost_2b, full_2b) and the notes, word for word.
def test_parameter_homogeneity_gq22():
    # t = 1 with k, r >= 3: almost but not fully 2-homogeneous on both classes
    props = parameter_homogeneity(spbibd_type(gq22()))
    assert props == (True, False, True, False, (_GQ_NOTE,))


def test_parameter_homogeneity_grid():
    props = parameter_homogeneity(spbibd_type(grid_design(3)))
    # k = 3 >= 3 with t = 1: almost but not fully 2-homogeneous for points;
    # r = 2: fully 2-homogeneous for blocks (subdivision of K_{3,3})
    assert props == (
        True, False, True, True,
        ("r = 2: incidence graph is the subdivision graph of K_{3,3}", _GQ_NOTE),
    )


def test_parameter_homogeneity_block_size_two():
    props = parameter_homogeneity(spbibd_type(dual(grid_design(3))))
    # k = 2: fully 2-homogeneous for points
    assert props == (
        True, True, True, False,
        ("k = 2: incidence graph is the subdivision graph of K_{3,3}", _GQ_NOTE),
    )


def test_parameter_homogeneity_eight_cycle_params():
    props = parameter_homogeneity(_y1_params(2, 2, 1, v=4, b=4))
    assert props == (
        True, True, True, True,
        (
            "k = 2: incidence graph is the subdivision graph of K_{2,2}",
            "r = 2: incidence graph is the subdivision graph of K_{2,2}",
            _GQ_NOTE,
        ),
    )


def test_parameter_homogeneity_y1_beyond_quadrangles():
    # t > 1 at y = 1: neither class is even almost homogeneous, unless r = 2
    assert parameter_homogeneity(_y1_params(4, 4, 2)) == (False, False, False, False, ())
    assert parameter_homogeneity(_y1_params(2, 4, 2)) == (
        False, False, True, True,
        ("r = 2: incidence graph is the subdivision graph of K_{4,4}",),
    )


def test_parameter_homogeneity_y1_matches_the_subdivision_and_quadrangle_rules():
    # y = 1: two blocks meet, so some point lies on two of them (r >= 2)
    for r in range(2, 41):
        for k in range(2, 41):
            for t in range(1, k):
                props = parameter_homogeneity(_y1_params(r, k, t))
                assert props[:4] == y1_homogeneity_oracle(r, k, t), (r, k, t)


def test_parameter_homogeneity_hypercube_all_hold():
    props = parameter_homogeneity(spbibd_type(hypercube_design()))
    assert props == (True, True, True, True, (_Y_ABOVE_1_NOTE,))


def test_parameter_homogeneity_tuple_4422():
    p = SpbibdParams(v=8, b=8, r=4, k=4, lambda1=2, lambda2=0, s=3, t=3, x=0, y=2)
    props = parameter_homogeneity(p)
    assert props.almost_2p  # (y-1)(r-lambda1)(t-1)/(lambda1(t-y)) + 2 = 4 = k
    assert props.full_2p and props.almost_2b and props.full_2b


def test_parameter_homogeneity_y2_failing_case():
    # (25, 25, 5, 5, 1, 0), t = 4, y = 2: K3 fails, so does everything else
    p = SpbibdParams(v=25, b=25, r=5, k=5, lambda1=1, lambda2=0, s=4, t=4, x=0, y=2)
    assert parameter_homogeneity(p) == (False, False, False, False, (_Y_ABOVE_1_NOTE,))
    point, block = expected_incidence_arrays(5, 5, 1, 4, 2)
    assert delta_value(point, block, 2) != 0


def test_parameter_homogeneity_not_in_scope():
    with pytest.raises(NotInScopeError):
        parameter_homogeneity(spbibd_type(fano()))
    with pytest.raises(NotInScopeError) as exc:
        # y = 1 with lambda1 = 2 cannot come from a real structure
        parameter_homogeneity(
            SpbibdParams(v=9, b=6, r=2, k=3, lambda1=2, lambda2=0, s=2, t=1, x=0, y=1)
        )
    assert str(exc.value) == (
        "x = 0, y = 1 forces lambda1 = 1 (two blocks through a pair would meet twice); got lambda1 = 2"
    )
    # y > 0 means two blocks share a point, so r >= 2: one block of three
    # points is out of scope, though its equalities alone would give full_2b
    one_block = SpbibdParams(v=3, b=1, r=1, k=3, lambda1=1, lambda2=0, s=2, t=1, x=0, y=1)
    assert not one_block.in_scope
    with pytest.raises(NotInScopeError):
        parameter_homogeneity(one_block)


def test_homogeneity_report_runs_one_bfs_per_vertex(monkeypatch):
    # the layers of all 30 sources come from one level-by-level sweep, built
    # once per graph; no per-source BFS runs
    g = tutte_coxeter()
    sources = []
    sweeps = []

    def counting_bfs(masks, source):
        sources.append(source)
        return real_bfs(masks, source)

    def counting_sweep(masks):
        sweeps.append(len(masks))
        return real_sweep(masks)

    real_bfs = core.layer_bfs
    real_sweep = core.all_layers
    monkeypatch.setattr(core, "layer_bfs", counting_bfs)
    monkeypatch.setattr(core, "all_layers", counting_sweep)
    homogeneity_report(g, "Y")
    homogeneity_report(g, "Yprime")
    assert sweeps == [30]
    assert sources == []
