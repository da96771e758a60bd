from itertools import combinations

import networkx as nx
import pytest

from spbibd import generators
from spbibd.core import IntersectionArray
from spbibd.correspondence import incidence_graph
from spbibd.design import replication_and_block_size, spbibd_type
from spbibd.equalities import SpbibdParams
from spbibd.generators import (
    complete_bipartite_design,
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
    classify,
)
from util import degree, eccentricity, girth, nx_graph


def test_complete_design_star():
    d = complete_bipartite_design(1, 3)
    assert d.num_points == 1 and d.num_blocks == 3
    assert not d.simple
    g = incidence_graph(d)
    assert nx.is_isomorphic(nx_graph(g), nx.star_graph(3))
    assert min(eccentricity(g, v) for v in range(g.num_vertices)) == 1


def test_complete_design_k22():
    g = incidence_graph(complete_bipartite_design(2, 2))
    assert nx.is_isomorphic(nx_graph(g), nx.complete_bipartite_graph(2, 2))
    assert all(eccentricity(g, v) == 2 for v in range(4))


def test_complete_design_single_block_is_simple():
    d = complete_bipartite_design(3, 1)
    assert d.simple


def test_even_cycle():
    g = even_cycle(8)
    assert nx.is_isomorphic(nx_graph(g), nx.cycle_graph(8))
    with pytest.raises(ValueError):
        even_cycle(7)
    with pytest.raises(ValueError):
        even_cycle(2)


def test_grid_design_parameters():
    for n in (2, 3, 4, 5):
        d = grid_design(n)
        assert d.num_points == n * n and d.num_blocks == 2 * n
        assert replication_and_block_size(d) == (2, n)
        p = spbibd_type(d)
        assert isinstance(p, SpbibdParams)
        assert (p.lambda1, p.lambda2, p.s, p.t, p.x, p.y) == (1, 0, n - 1, 1, 0, 1)


def test_grid2_graph_is_c8():
    assert nx.is_isomorphic(nx_graph(incidence_graph(grid_design(2))), nx.cycle_graph(8))


def test_grid_graph_classification():
    assert classify(incidence_graph(grid_design(2))).kind == KIND_DISTANCE_REGULAR
    for n in (3, 4, 5):
        cls = classify(incidence_graph(grid_design(n)))
        assert cls.kind == KIND_DISTANCE_BIREGULAR
        assert cls.array_y.valency == 2  # points (cells) come first


def test_gq22_claims():
    d = gq22()
    assert d.num_points == 15 and d.num_blocks == 15
    p = spbibd_type(d)
    assert (p.v, p.b, p.r, p.k, p.lambda1, p.lambda2, p.s, p.t) == (15, 15, 3, 3, 1, 0, 2, 1)
    assert (p.x, p.y) == (0, 1)
    # every block really is a perfect matching of the 6-set read as duads
    duads = list(combinations(range(6), 2))
    for blk in d.blocks:
        covered = sorted(e for i in blk for e in duads[i])
        assert covered == list(range(6))


def test_gq22_dual_is_spbibd_with_same_parameters():
    from spbibd.design import dual

    p = spbibd_type(dual(gq22()))
    assert (p.v, p.b, p.r, p.k, p.lambda1, p.lambda2) == (15, 15, 3, 3, 1, 0)


def test_tutte_coxeter_is_cubic_30_girth_8():
    g = tutte_coxeter()
    assert g.num_vertices == 30
    assert all(degree(g, v) == 3 for v in range(30))
    assert girth(g) == 8
    cls = classify(g)
    assert cls.kind == KIND_DISTANCE_REGULAR
    assert cls.ecc_y == cls.ecc_yprime == 4


def test_symplectic_gq_w3_parameters():
    p = spbibd_type(symplectic_gq(3))
    assert (p.v, p.b, p.r, p.k, p.lambda1) == (40, 40, 4, 4, 1)
    assert (p.s, p.t, p.x, p.y) == (3, 1, 0, 1)
    assert p.is_generalized_quadrangle


def test_symplectic_gq_incidence_arrays_both_classes():
    for q in (2, 3, 5):
        cls = classify(incidence_graph(symplectic_gq(q)))
        expected = IntersectionArray(b=(q + 1, q, q, q, 0), c=(0, 1, 1, 1, q + 1))
        assert cls.array_y == cls.array_yprime == expected


def test_symplectic_gq_w2_is_gq22():
    assert nx.is_isomorphic(nx_graph(incidence_graph(symplectic_gq(2))), nx_graph(tutte_coxeter()))


def test_fano_negative_control():
    d = fano()
    assert d.num_points == 7 and d.num_blocks == 7
    g = incidence_graph(d)
    assert all(eccentricity(g, v) == 3 for v in range(14))


def test_path_graph_controls():
    assert classify(path_graph(4)).kind == KIND_NOT_REGULARIZED
    g = path_graph(2)
    assert g.num_vertices == 2 and g.edges == ((0, 1),)
    assert classify(g).kind == KIND_DISTANCE_REGULAR
    with pytest.raises(ValueError):
        path_graph(1)


def test_subdivision_matches_grid_incidence_graph():
    for n in (2, 3, 4):
        a = nx_graph(subdivision_complete_bipartite(n))
        b = nx_graph(incidence_graph(grid_design(n)))
        assert nx.is_isomorphic(a, b)


def test_generator_input_validation():
    with pytest.raises(ValueError):
        grid_design(1)
    with pytest.raises(ValueError):
        subdivision_complete_bipartite(1)
    with pytest.raises(ValueError):
        complete_bipartite_design(0, 1)
    for q in (-2, 0, 1, 4, 9):
        with pytest.raises(ValueError):
            symplectic_gq(q)


@pytest.mark.parametrize(
    "build",
    [
        lambda: even_cycle(10),
        lambda: path_graph(7),
        lambda: subdivision_complete_bipartite(3),
        lambda: grid_design(4),
        lambda: symplectic_gq(3),
        lambda: complete_bipartite_design(3, 4),
    ],
    ids=["cycle", "path", "subdivision", "grid", "wq", "complete"],
)
def test_size_limit_is_each_familys_vertices_plus_edges(monkeypatch, build):
    # the closed form each family checks equals the size of what it
    # builds: a limit one below it refuses the member, the size itself not
    built = build()
    if hasattr(built, "edges"):
        size = built.num_vertices + len(built.edges)
    else:
        size = built.num_points + built.num_blocks + sum(len(blk) for blk in built.blocks)
    monkeypatch.setattr(generators, "MAX_SIZE", size - 1)
    with pytest.raises(ValueError, match=f"exceed the limit of {size - 1} in all"):
        build()
    monkeypatch.setattr(generators, "MAX_SIZE", size)
    assert build() == built
