import ast
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import spbibd
from spbibd.core import (
    MAX_LAYER_BYTES,
    DuplicateBlockError,
    EmptyBlockError,
    IncidenceStructure,
    IntersectionArray,
    LayersTooLargeError,
    NoBlocksError,
    NoPointsError,
    NotConnectedError,
    OddCycleError,
    PointIndexOutOfRangeError,
    ToolkitError,
    bits,
    build_bipartite,
    edge_masks,
    nearer_rows,
    plane_counts,
    stack_rows,
    validate_structure,
)
from spbibd.equalities import SpbibdParams, fraction_text
from spbibd.generators import even_cycle, path_graph, tutte_coxeter
from spbibd.graph import all_distances
from util import hypercube_graph, nx_graph, oracle_distances, random_connected_bipartite


FANO_RAW = [[i % 7, (i + 1) % 7, (i + 3) % 7] for i in range(7)]


def test_fano_validates_and_covers_every_pair_once():
    d = validate_structure(7, FANO_RAW)
    assert d.num_points == 7 and d.num_blocks == 7
    # oracle: direct enumeration over all 21 pairs
    for p, q in combinations(range(7), 2):
        count = sum(1 for blk in d.blocks if p in blk and q in blk)
        assert count == 1
    assert all(blk == tuple(sorted(blk)) for blk in d.blocks)
    assert list(d.blocks) == sorted(d.blocks)


def test_duplicate_block_rejected_by_default():
    with pytest.raises(DuplicateBlockError):
        validate_structure(1, [[0], [0]])


def test_allow_repeated_keeps_duplicates_and_clears_simple_flag():
    d = validate_structure(1, [[0], [0]], allow_repeated=True)
    assert d.num_blocks == 2
    assert not d.simple


def test_point_index_out_of_range():
    with pytest.raises(PointIndexOutOfRangeError):
        validate_structure(3, [[0, 3]])
    with pytest.raises(PointIndexOutOfRangeError):
        validate_structure(3, [[-1, 0]])


def test_empty_block_and_no_points():
    with pytest.raises(EmptyBlockError):
        validate_structure(3, [[0], []])
    with pytest.raises(NoPointsError):
        validate_structure(0, [])
    with pytest.raises(NoBlocksError, match="structure needs at least one block"):
        validate_structure(3, [])
    with pytest.raises(NoBlocksError):
        IncidenceStructure(3, ())


def test_blocks_are_sets():
    d = validate_structure(3, [[1, 0, 1, 2]])
    assert d.blocks == ((0, 1, 2),)


def test_canonicalization_is_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        v = rng.randint(1, 8)
        blocks = [
            rng.sample(range(v), rng.randint(1, v)) for _ in range(rng.randint(1, 6))
        ]
        try:
            d = validate_structure(v, blocks)
        except DuplicateBlockError:
            continue
        again = validate_structure(d.num_points, [list(b) for b in d.blocks])
        assert again == d


def test_direct_construction_rejects_non_canonical():
    with pytest.raises(ToolkitError):
        IncidenceStructure(3, ((1, 0),))
    with pytest.raises(ToolkitError):
        IncidenceStructure(3, ((1, 2), (0, 1)))


def test_eight_cycle_partition_sizes():
    g = build_bipartite(8, [(i, (i + 1) % 8) for i in range(8)])
    assert len(g.class_vertices("Y")) == 4
    assert len(g.class_vertices("Yprime")) == 4


def test_triangle_is_odd_cycle():
    with pytest.raises(OddCycleError):
        build_bipartite(3, [(0, 1), (1, 2), (2, 0)])


def test_self_loop_rejected():
    with pytest.raises(OddCycleError):
        build_bipartite(2, [(0, 0), (0, 1)])


def test_two_disjoint_edges_not_connected():
    with pytest.raises(NotConnectedError):
        build_bipartite(4, [(0, 1), (2, 3)])
    # enough edges, still disconnected: a 4-cycle plus an isolated vertex
    with pytest.raises(NotConnectedError):
        build_bipartite(5, [(1, 2), (2, 3), (3, 4), (1, 4)])


@st.composite
def small_graphs(draw):
    """A vertex count and an edge list without self-loops; pairs may repeat
    and come in either orientation."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    return n, edges


@settings(derandomize=True, database=None, deadline=None)
@given(small_graphs())
def test_build_bipartite_matches_networkx(graph):
    n, edges = graph
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    if not nx.is_connected(h):
        # the message names the lowest unreachable vertex, unless there are
        # too few edges to connect the graph at all
        lowest = min(set(range(n)) - nx.node_connected_component(h, 0))
        match = "cannot connect" if len(set(map(frozenset, edges))) < n - 1 else f"vertex {lowest} is"
        with pytest.raises(NotConnectedError, match=match):
            build_bipartite(n, edges)
    elif not nx.is_bipartite(h):
        with pytest.raises(OddCycleError):
            build_bipartite(n, edges)
    else:
        g = build_bipartite(n, edges)
        lengths = dict(nx.all_pairs_shortest_path_length(h))
        assert all_distances(g) == tuple(tuple(lengths[u][v] for v in range(n)) for u in range(n))
        assert g.side[0] == 0 and all(g.side[u] != g.side[v] for u, v in edges)
        # the bitsets the build's BFS ran on are the graph's adjacency view
        assert g.adjacency_masks == edge_masks(n, g.edges) == edge_masks(n, edges)
        assert g.diameter_bound == 2 * max(lengths[0].values()) >= max(max(row.values()) for row in lengths.values())


def test_the_layer_limit_admits_the_long_graphs_it_names():
    # estimates n^2 * (2 e0 + 1) / 8: the 1000-cycle 1.3e8 bytes, the
    # 2000-vertex path from its end vertex 2.0e9, the 8-cube 1.4e5
    estimates = {}
    for name, g in [("cycle", even_cycle(1000)), ("path", path_graph(2000)), ("cube", hypercube_graph(8))]:
        e0 = max(oracle_distances(g, 0).values())
        copy = g._replace()  # a copy without the cached views: the bound comes from its own BFS
        assert "diameter_bound" not in copy.__dict__
        assert g.diameter_bound == copy.diameter_bound == 2 * e0
        estimates[name] = g.num_vertices**2 * (2 * e0 + 1) // 8
    assert estimates == {"cycle": 125_125_000, "path": 1_999_500_000, "cube": 139_264}
    assert max(estimates.values()) <= MAX_LAYER_BYTES


def test_layers_over_the_limit_are_refused_before_they_are_built():
    g = even_cycle(6000)
    # 6000^2 * 6001 / 8 = 2.7e10 bytes of layers, never built
    with pytest.raises(LayersTooLargeError, match="6000 vertices, with a diameter of up to 6000"):
        g.layers
    assert "layers" not in g.__dict__
    assert tutte_coxeter().layers  # a small graph is not refused


# built once: the 8-cube (256 vertices, diameter 8) and a long even cycle
# (diameter 101), past the levels that a small random graph reaches
_WIDE_GRAPHS = (hypercube_graph(8), even_cycle(202))


@st.composite
def nearer_count_cases(draw):
    """A graph, a vertex x, a subset ws of N(x) and a mask of vertices."""
    if draw(st.booleans()):
        g = random_connected_bipartite(draw(st.randoms(use_true_random=False)))
    else:
        g = draw(st.sampled_from(_WIDE_GRAPHS))
    x = draw(st.integers(0, g.num_vertices - 1))
    nbrs = list(bits(g.adjacency_masks[x]))
    ws = draw(st.lists(st.sampled_from(nbrs), unique=True))
    return g, x, ws, draw(st.integers(0, (1 << g.num_vertices) - 1))


@settings(derandomize=True, database=None, deadline=None)
@given(nearer_count_cases())
def test_nearer_rows_match_networkx_distances(case):
    # one row (x, ws[:m]) per prefix of ws, longest first, as both
    # exhaustive checks stack theirs; each row's columns are the mask
    g, x, ws, mask = case
    h = nx_graph(g)
    dist = {v: nx.single_source_shortest_path_length(h, v) for v in (x, *ws)}
    rows = [(x, ws[:m]) for m in range(len(ws), -1, -1)]
    expected: dict[int, set[tuple[int, int]]] = {}
    for k, (_, prefix) in enumerate(rows):
        for z in bits(mask):
            closer = sum(dist[w][z] == dist[x][z] - 1 for w in prefix)
            expected.setdefault(closer, set()).add((k, z))
    width = 8 * ((g.num_vertices + 7) // 8)
    masks = stack_rows([mask.to_bytes(width // 8, "little")] * len(rows))
    groups = plane_counts(nearer_rows(g, rows), masks)
    assert {count: {divmod(b, width) for b in bits(members)} for count, members in groups} == expected
    assert len(groups) == len(expected)


def test_too_few_edges_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(NotConnectedError):
            build_bipartite(10**6, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_no_assert_statements_in_package():
    # cross-checks must still run under python -O
    for path in sorted(Path(spbibd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


# (module file, imported name) -> why the module binds a name it never reads
UNUSED_IMPORTS_ALLOWED = {
    ("__init__.py", "core"): "every command uses core, so the package loads it; __getattr__ reads globals()",
    ("homogeneity.py", "parameter_homogeneity"): "perfbench/spans.TRACED patches it in this module",
}


def test_every_module_level_import_is_used():
    # one home per name: a module imports only what it reads itself
    unused = set()
    for path in sorted(Path(spbibd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
                unused |= {(path.name, name) for name in bound - loaded}
    assert unused == set(UNUSED_IMPORTS_ALLOWED)


def test_edge_vertex_range_checked():
    with pytest.raises(PointIndexOutOfRangeError):
        build_bipartite(2, [(0, 2)])


def test_fraction_text_prints_what_fraction_prints():
    # sign, zero, integral and lowest-terms values
    for num in range(-60, 61):
        for den in range(1, 13):
            assert fraction_text(num, den) == str(Fraction(num, den)), (num, den)


def test_every_edge_crosses_partition_random():
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected_bipartite(rng)
        for u, v in g.edges:
            assert g.side[u] != g.side[v]


def test_partition_is_bfs_coloring_from_vertex_zero():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_bipartite(rng)
        dist = oracle_distances(g, 0)
        assert all(g.side[v] == dist[v] % 2 for v in range(g.num_vertices))


def test_parallel_edges_are_merged():
    g = build_bipartite(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


def test_intersection_array_invariants():
    arr = IntersectionArray(b=(3, 2, 2, 2, 0), c=(0, 1, 1, 1, 3))
    assert arr.eccentricity == 4 and arr.valency == 3
    assert arr.b_at(-1) == 0 and arr.c_at(9) == 0
    with pytest.raises(ToolkitError):
        IntersectionArray(b=(2, 0, 0), c=(0, 1, 1))  # b_1 = 0 before D
    with pytest.raises(ToolkitError):
        IntersectionArray(b=(2, 1, 0), c=(0, 2, 2))  # c_1 != 1
    with pytest.raises(ToolkitError):
        IntersectionArray(b=(2, 0), c=(1, 1))  # c_0 != 0
    with pytest.raises(ToolkitError):
        IntersectionArray(b=(2, 1), c=(0, 1))  # b_D != 0


@pytest.mark.parametrize("b, c", [((3, 0), (0, 1)), ((3, 2, 2, 2, 0), (0, 1, 1, 1, 3))])
def test_array_entries_are_zero_outside_0_to_d(b, c):
    arr = IntersectionArray(b=b, c=c)
    d = arr.eccentricity
    assert (arr.b_at(-1), arr.c_at(-1)) == (0, 0)
    assert (arr.b_at(0), arr.c_at(0)) == (b[0], 0)
    assert (arr.b_at(d), arr.c_at(d)) == (0, c[d])
    assert (arr.b_at(d + 1), arr.c_at(d + 1)) == (0, 0)
    assert [arr.b_at(i) for i in range(d + 1)] == list(b)
    assert [arr.c_at(i) for i in range(d + 1)] == list(c)


def test_spbibd_params_flags():
    gq = SpbibdParams(v=15, b=15, r=3, k=3, lambda1=1, lambda2=0, s=2, t=1, x=0, y=1)
    # quasi-symmetric: both block intersection sizes are realized
    assert gq.x is not None and gq.y is not None and gq.in_scope
    assert gq.is_partial_geometry and gq.is_generalized_quadrangle
    assert gq.v * gq.r == gq.b * gq.k and not gq.two_design_degenerate

    fano = SpbibdParams(
        v=7, b=7, r=3, k=3, lambda1=1, lambda2=0, s=2, t=3, x=1, y=None, lambda2_realized=False
    )
    assert fano.two_design_degenerate and not fano.in_scope


def test_records_validate_in_the_constructor_and_cache_their_views():
    from spbibd.core import BipartiteGraph, IncidenceStructure

    # the validation of the constructor holds positionally and by keyword
    with pytest.raises(ToolkitError):
        IncidenceStructure(3, ((1, 0),))
    with pytest.raises(ToolkitError):
        IncidenceStructure(num_points=3, blocks=((1, 0),))
    with pytest.raises(ToolkitError):
        IntersectionArray(b=(2, 1), c=(0, 1))
    with pytest.raises(ToolkitError):
        IntersectionArray((2, 1), (0, 1))
    with pytest.raises(OddCycleError):
        BipartiteGraph(2, ((0, 1),), (0, 0))
    # fields are read-only; derived views are computed once per object
    d = validate_structure(7, FANO_RAW)
    g = build_bipartite(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(AttributeError):
        d.num_points = 8
    with pytest.raises(AttributeError):
        g.side = (0, 0, 0, 0)
    assert d.block_sets is d.block_sets and d.point_blocks is d.point_blocks
    assert g.layers is g.layers and g.adjacency_masks is g.adjacency_masks and g.residues is g.residues
    assert g.layers[0] == (0b0001, 0b1010, 0b0100)
    # distance 0 or 1 mod 4, and 1 or 2 mod 4, from vertex 0
    assert (g.residues[0][0], g.residues[1][0]) == (0b1011, 0b1110)
    assert d.point_blocks[0] == (0, 1, 2)
