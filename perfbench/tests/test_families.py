import random
from itertools import combinations

import pytest

import families as fam
import oracle
from workloads import WORKLOADS


@pytest.mark.parametrize("q", [2, 3, 5])
def test_symplectic_gq_matches_theory(q):
    v, lines = fam.symplectic_gq(q)
    n = (q + 1) * (q * q + 1)
    assert (v, len(lines)) == (n, n)
    assert all(len(line) == q + 1 for line in lines)
    assert all(deg == q + 1 for deg in map(sum, zip(*[[p in line for p in range(v)] for line in lines])))
    sets = [set(line) for line in lines]
    assert all(len(a & b) <= 1 for a, b in combinations(sets, 2))
    collinear = [set() for _ in range(v)]
    for line in lines:
        for p in line:
            collinear[p] |= set(line)
    for line in sets:
        for p in range(v):
            if p not in line:
                assert len(collinear[p] & line) == 1


def test_symplectic_gq_needs_a_prime():
    with pytest.raises(ValueError):
        fam.symplectic_gq(4)


def test_wq_incidence_graph_has_the_closed_form_arrays():
    v, lines = fam.symplectic_gq(3)
    assert oracle.graph_facts(2 * v, fam.incidence_edges(v, lines)) == oracle.gq_graph_facts(3)


def test_random_controls_have_no_regularized_vertex():
    n, edges = fam.witness_rich_bipartite(random.Random(5), 8, 10, 6)
    adj = oracle.adjacency(n, edges)
    assert min(oracle.bfs(adj, 0)) == 0
    assert all(isinstance(oracle.local_array(adj, x), oracle.Witness) for x in range(n))


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        WORKLOADS[name].setup(seed, d)
    assert _files(dirs[0]) == _files(dirs[1])
    if name != "search-sweep":  # writes no files; the seed only orders targets
        assert _files(dirs[0]) != _files(dirs[2])
