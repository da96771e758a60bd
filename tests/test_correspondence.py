from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from spbibd import graph
from spbibd.core import ConsistencyError, IntersectionArray, build_bipartite, validate_structure
from spbibd.correspondence import (
    DerivationError,
    GraphDesignExtraction,
    NotSemiregularError,
    ResultDisconnectedError,
    WrongEccentricityError,
    derived_sizes,
    design_from_graph,
    expected_incidence_arrays,
    incidence_graph,
)
from spbibd.design import spbibd_type
from spbibd.equalities import SpbibdParams
from spbibd.generators import (
    even_cycle,
    fano,
    gq22,
    grid_design,
    path_graph,
    subdivision_complete_bipartite,
    tutte_coxeter,
)
from spbibd.graph import classify, local_intersection_numbers
from spbibd.homogeneity import homogeneous_by_bruteforce
from util import (
    array_class_sizes,
    contract_degree_two,
    degree,
    derived_spbibd_params,
    girth,
    hypercube_design,
    hypercube_graph,
    nx_graph,
    round_trip_design,
    round_trip_graph,
)


def test_incidence_graph_gq22_is_tutte_coxeter_shape():
    g = incidence_graph(gq22())
    assert g.num_vertices == 30
    assert all(degree(g, v) == 3 for v in range(30))
    assert len(g.edges) == 45  # v*r = b*k
    assert girth(g) == 8


def test_incidence_graph_grid3_is_subdivision_of_k33():
    g = incidence_graph(grid_design(3))
    degs = sorted(degree(g, v) for v in range(g.num_vertices))
    assert degs == [2] * 9 + [3] * 6
    contracted = contract_degree_two(g)
    assert nx.is_isomorphic(contracted, nx.complete_bipartite_graph(3, 3))
    assert nx.is_isomorphic(nx_graph(g), nx_graph(subdivision_complete_bipartite(3)))


def test_incidence_graph_single_block_is_path():
    g = incidence_graph(validate_structure(2, [[0, 1]]))
    assert g.num_vertices == 3
    assert nx.is_isomorphic(nx_graph(g), nx.path_graph(3))


def test_incidence_graph_disconnected_rejected():
    d = validate_structure(3, [[0, 1]])  # point 2 in no block
    with pytest.raises(ResultDisconnectedError):
        incidence_graph(d)


def test_expected_arrays_rejects_nonintegral():
    with pytest.raises(DerivationError):
        expected_incidence_arrays(5, 4, 1, 3, 2)  # t*lambda1/y = 3/2


# arrays of eccentricity 4 that classify never gives the Tutte-Coxeter
# graph (15 + 15 vertices, array {3, 2, 2, 1; 1, 1, 1, 3} on both sides)
_NON_INTEGRAL = IntersectionArray((3, 2, 1, 1, 0), (0, 1, 2, 2, 3))  # v = 18/4
_W3 = IntersectionArray((4, 3, 3, 3, 0), (0, 1, 1, 1, 4))  # v = b = 40


@pytest.mark.parametrize(
    "tamper, message",
    [
        ({"array_y": _NON_INTEGRAL}, r"non-integral derived sizes v = 18/4, b = 18/4"),
        ({"array_y": _W3}, r"derived sizes \(40, 40\) disagree with class sizes \(15, 15\)"),
        ({"array_yprime": _W3}, r"block valency 4 differs from b_1 \+ 1 = 3"),
    ],
    ids=["non-integral", "class-sizes", "block-valency"],
)
def test_design_from_graph_cross_checks_the_classified_array(monkeypatch, tamper, message):
    # once classify certifies one array of eccentricity 4, v and b are layer
    # sizes of a point and k the block degree: these checks can fail only on
    # a defect, so they are ConsistencyErrors (exit 3), not DerivationErrors
    real = graph.classify
    monkeypatch.setattr(graph, "classify", lambda g: real(g)._replace(**tamper))
    with pytest.raises(ConsistencyError, match=message):
        design_from_graph(tutte_coxeter(), "Y")


def test_extracted_arrays_equal_prediction_for_in_scope_designs():
    cases = [
        (gq22(), (3, 3, 1, 1, 1)),
        (grid_design(2), (2, 2, 1, 1, 1)),
        (grid_design(3), (2, 3, 1, 1, 1)),
        (grid_design(4), (2, 4, 1, 1, 1)),
        (hypercube_design(), (4, 4, 2, 3, 2)),
    ]
    for d, (r, k, lambda1, t, y) in cases:
        g = incidence_graph(d)
        point, block = expected_incidence_arrays(r, k, lambda1, t, y)
        for p in range(d.num_points):
            assert local_intersection_numbers(g, p) == point
        for j in range(d.num_blocks):
            assert local_intersection_numbers(g, d.num_points + j) == block


def test_design_from_tutte_coxeter():
    ext = design_from_graph(tutte_coxeter(), "Y")
    assert isinstance(ext, GraphDesignExtraction)
    p = ext.params
    assert (p.v, p.b, p.r, p.k, p.lambda1, p.s, p.t, p.y) == (15, 15, 3, 3, 1, 2, 1, 1)
    # the size formulas evaluate to 1 + 6 + 8 and 3 + 12
    assert 1 + 3 * 2 // 1 + (3 * 2 * 2 * 2) // (1 * 1 * 3) == 15
    assert 3 + (3 * 2 * 2) // (1 * 1) == 15
    check = spbibd_type(ext.structure)
    assert isinstance(check, SpbibdParams)
    assert (check.v, check.b, check.r, check.k, check.lambda1, check.lambda2) == (15, 15, 3, 3, 1, 0)
    assert (check.s, check.t, check.x, check.y) == (2, 1, 0, 1)


def test_design_from_subdivision_both_orientations():
    g = subdivision_complete_bipartite(3)
    # original K_{3,3} vertices (degree 3) as points: the dual grid
    ext = design_from_graph(g, "Y")
    p = ext.params
    assert (p.v, p.b, p.r, p.k, p.lambda1, p.t, p.y) == (6, 9, 3, 2, 1, 1, 1)
    # edge vertices (degree 2) as points: the 3x3 grid design
    ext2 = design_from_graph(g, "Yprime")
    p2 = ext2.params
    assert (p2.v, p2.b, p2.r, p2.k, p2.lambda1, p2.t, p2.y) == (9, 6, 2, 3, 1, 1, 1)
    grid_params = spbibd_type(grid_design(3))
    derived = spbibd_type(ext2.structure)
    assert derived == grid_params


def test_design_from_eight_cycle_is_quadrilateral():
    ext = design_from_graph(even_cycle(8), "Y")
    p = ext.params
    assert (p.v, p.b, p.r, p.k, p.lambda1, p.t) == (4, 4, 2, 2, 1, 1)
    assert p.y == 1


def test_design_from_hypercube():
    ext = design_from_graph(hypercube_graph(4), "Y")
    p = ext.params
    assert (p.v, p.b, p.r, p.k, p.lambda1, p.s, p.t, p.y) == (8, 8, 4, 4, 2, 3, 3, 2)
    sp = derived_spbibd_params(ext)
    assert sp.in_scope


def test_fano_graph_rejected_wrong_eccentricity():
    g = incidence_graph(fano())
    with pytest.raises(WrongEccentricityError):
        design_from_graph(g, "Y")


def test_k23_rejected_wrong_eccentricity():
    from spbibd.core import build_bipartite

    g = build_bipartite(5, [(i, 2 + j) for i in range(2) for j in range(3)])
    with pytest.raises(WrongEccentricityError):
        design_from_graph(g, "Y")


def test_derived_sizes_match_array_form_on_graphs():
    graphs = (
        tutte_coxeter(),
        hypercube_graph(4),
        incidence_graph(grid_design(5)),
        even_cycle(8),
        subdivision_complete_bipartite(4),
    )
    for g in graphs:
        cls = classify(g)
        for side, other in (("Y", "Yprime"), ("Yprime", "Y")):
            arr = cls.array_for(side)
            assert arr.eccentricity == 4
            v_num, b_num, den = derived_sizes(arr.b[0], arr.b[1] + 1, arr.c[2], arr.c[3])
            sizes = (Fraction(v_num, den), Fraction(b_num, den))
            assert sizes == array_class_sizes(arr)
            assert sizes == (len(g.class_vertices(side)), len(g.class_vertices(other)))


def test_path4_rejected_not_semiregular():
    with pytest.raises(NotSemiregularError):
        design_from_graph(path_graph(4), "Y")


def test_a_bad_side_is_refused_by_class_vertices():
    # design_from_graph and the brute force leave the side check to class_vertices
    for call in (design_from_graph, homogeneous_by_bruteforce):
        with pytest.raises(ValueError, match=r"^side must be one of \('Y', 'Yprime'\)$"):
            call(tutte_coxeter(), "points")


def test_round_trip_design_exact():
    for d in (gq22(), grid_design(2), grid_design(3), grid_design(4), grid_design(5), hypercube_design()):
        rep = round_trip_design(d)
        assert rep.ok, rep.details


def test_round_trip_graph_preserves_adjacency():
    graphs = [tutte_coxeter(), hypercube_graph(4)]
    graphs += [subdivision_complete_bipartite(n) for n in (2, 3, 4)]
    for g in graphs:
        for side in ("Y", "Yprime"):
            rep = round_trip_graph(g, side)
            assert rep.ok, (side, rep.details)


def test_round_trip_graph_derived_design_passes_spbibd_type():
    g = subdivision_complete_bipartite(4)
    ext = design_from_graph(g, "Yprime")
    p = spbibd_type(ext.structure)
    assert isinstance(p, SpbibdParams)
    assert (p.r, p.k, p.lambda1, p.t) == (
        ext.params.r,
        ext.params.k,
        ext.params.lambda1,
        ext.params.t,
    )
    assert p.y == ext.params.y


def test_block_partner_lemma():
    # every block has a disjoint partner and a y-intersecting partner
    for d in (gq22(), grid_design(3), grid_design(4), hypercube_design()):
        p = spbibd_type(d)
        assert p.in_scope
        sets = d.block_sets
        for bs in sets:
            inter = {len(bs & other) for other in sets if other != bs}
            assert 0 in inter
            assert p.y in inter


def test_valency_identity_s_equals_kprime_minus_one():
    # b_1 = b'_0 - 1 on every in-scope incidence graph
    for d in (gq22(), grid_design(3), hypercube_design()):
        cls = classify(incidence_graph(d))
        assert cls.array_y.b[1] == cls.array_yprime.valency - 1
        assert cls.array_yprime.b[1] == cls.array_y.valency - 1


def test_round_trip_design_counts_pairs():
    # independent sanity: round trips preserve all pairwise concurrences
    d = gq22()
    ext = design_from_graph(incidence_graph(d), "Y")
    for pair in combinations(range(5), 2):
        before = sum(1 for blk in d.block_sets if set(pair) <= blk)
        after = sum(1 for blk in ext.structure.block_sets if set(pair) <= blk)
        assert before == after


_ROUND_TRIP_GRAPHS = {
    "tutte-coxeter": tutte_coxeter,
    "cube4": lambda: hypercube_graph(4),
    "grid3": lambda: incidence_graph(grid_design(3)),
    "subdivision3": lambda: subdivision_complete_bipartite(3),
    "subdivision4": lambda: subdivision_complete_bipartite(4),
}


def _eccentricity_four_sides(g):
    return [s for s in ("Y", "Yprime") if {len(g.layers[v]) - 1 for v in g.class_vertices(s)} == {4}]


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.sampled_from(sorted(_ROUND_TRIP_GRAPHS)), st.data())
def test_relabeled_graph_round_trip(name, data):
    # graph -> design -> graph on every class of eccentricity 4, whichever
    # class vertex 0 of the relabelled graph falls in
    g = _ROUND_TRIP_GRAPHS[name]()
    perm = data.draw(st.permutations(range(g.num_vertices)))
    h = build_bipartite(g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges])
    g_sides, sides = _eccentricity_four_sides(g), _eccentricity_four_sides(h)
    assert len(sides) == len(g_sides) >= 1
    for side in sides:
        assert round_trip_graph(h, side).ok, side
    params = {design_from_graph(g, side).params for side in g_sides}
    assert {design_from_graph(h, side).params for side in sides} == params
