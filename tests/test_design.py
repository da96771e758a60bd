import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from spbibd import core, design
from spbibd.core import DuplicateBlockError, validate_structure
from spbibd.design import (
    ConstraintCheck,
    ConstraintReport,
    FewerThanTwoBlocksError,
    NotInScopeError,
    NotSpbibd,
    NotUniform,
    analyze_design_report,
    block_intersections,
    check_parameter_constraints,
    dual,
    dual_blocks_raw,
    pair_concurrences,
    replication_and_block_size,
    spbibd_type,
)
from spbibd.equalities import SpbibdParams
from spbibd.generators import complete_bipartite_design, fano, gq22, grid_design, symplectic_gq
from util import (
    block_intersection_sizes_oracle,
    failed,
    full_pair_concurrences,
    hypercube_design,
    pair_coverage_oracle,
    random_structure,
    relabeled_structure,
    spbibd_type_oracle,
)


def test_fano_replication_and_block_size():
    assert replication_and_block_size(fano()) == (3, 3)


def test_grid_replication_and_block_size():
    assert replication_and_block_size(grid_design(3)) == (2, 3)


def test_non_uniform_witness():
    d = validate_structure(3, [[0, 1], [0, 1, 2]])
    res = replication_and_block_size(d)
    assert isinstance(res, NotUniform)
    assert res.what == "block-size"


def test_replication_witness_matches_a_full_degree_scan():
    # the degree view holds covered points only; the witness is still the
    # first point, in index order, whose degree differs from point 0's
    rng = random.Random(31)
    kinds = set()
    for _ in range(500):
        v = rng.randint(1, 8)
        k = rng.randint(1, v)
        blocks = [rng.sample(range(v), k) for _ in range(rng.randint(1, 5))]
        d = validate_structure(v, blocks, allow_repeated=True)
        deg = [sum(p in blk for blk in d.blocks) for p in range(v)]
        first = next((p for p in range(v) if deg[p] != deg[0]), None)
        res = replication_and_block_size(d)
        if first is None:
            assert res == (deg[0], k)
            kinds.add("uniform")
        else:
            assert res == NotUniform("replication", (0, first), (deg[0], deg[first]))
            kinds.add("point 0 uncovered" if deg[0] == 0 else "uncovered" if deg[first] == 0 else "covered")
    assert kinds == {"uniform", "point 0 uncovered", "uncovered", "covered"}


def test_pair_concurrences_match_oracle():
    rng = random.Random(23)
    for d in (fano(), grid_design(3), gq22(), relabeled_structure(gq22(), rng)):
        assert pair_concurrences(d) == {pair: n for pair, n in pair_coverage_oracle(d).items() if n}


def _cyclic_structure(rng):
    """Translates of one or two random base blocks in Z_v: uniform, so
    spbibd_type reaches the concurrence count, often with uncovered pairs
    and three or more concurrences."""
    v = rng.randint(2, 13)
    k = rng.randint(1, v)
    blocks = set()
    for _ in range(rng.randint(1, 2)):
        base = rng.sample(range(v), k)
        blocks |= {tuple(sorted((p + i) % v for p in base)) for i in range(v)}
    return validate_structure(v, blocks)


def test_sparse_concurrences_decide_like_the_full_fill(monkeypatch):
    # spbibd_type on the covered pairs only must return what it returns on
    # the O(v^2) fill with explicit zeros, detail strings included
    rng = random.Random(41)
    kinds = set()
    for n in range(300):
        d = _cyclic_structure(rng) if n % 3 else random_structure(rng)
        if d is None:
            continue
        full = full_pair_concurrences(d)
        assert pair_concurrences(d) == {pair: c for pair, c in full.items() if c}
        sparse = spbibd_type(d)
        with monkeypatch.context() as m:
            m.setattr(design, "pair_concurrences", full_pair_concurrences)
            filled = spbibd_type(d)
        assert type(sparse) is type(filled) and sparse == filled, d
        if 0 in full.values():
            kinds.add("uncovered")
        if isinstance(sparse, NotSpbibd) and sparse.reason == "concurrence":
            kinds.add("concurrence, 0 shown" if " in 0" in sparse.detail else "concurrence, 0 not shown")
        if isinstance(sparse, SpbibdParams) and 0 in full.values():
            kinds.add("accepted with uncovered pairs")
    assert kinds == {
        "uncovered",
        "concurrence, 0 shown",
        "concurrence, 0 not shown",
        "accepted with uncovered pairs",
    }


def _scan_kind(res):
    if isinstance(res, SpbibdParams):
        return "accepted, t < k" if res.t < res.k else "accepted, t = k"
    if res.reason == "nonflag-count":
        return "nonflag-count, witness sees 0" if " sees 0," in res.detail else "nonflag-count, witness counted"
    return res.reason


def test_nonflag_counts_match_the_full_scan():
    # the per-block mate counts must give the full scan's record: s and t, or
    # the first flag or non-flag that differs, detail strings included
    rng = random.Random(43)
    kinds = set()
    fixed = [gq22(), grid_design(3), grid_design(4), hypercube_design(), fano(), symplectic_gq(3)]
    drawn = (_cyclic_structure(rng) if n % 3 else random_structure(rng) for n in range(300))
    for d in (*fixed, *drawn):
        if d is None:
            continue
        res, want = spbibd_type(d), spbibd_type_oracle(d)
        assert type(res) is type(want) and res == want, d
        kinds.add(_scan_kind(res))
    assert kinds == {
        "not-uniform",
        "concurrence",
        "flag-count",
        "nonflag-count, witness sees 0",
        "nonflag-count, witness counted",
        "accepted, t < k",
        "accepted, t = k",
    }


@st.composite
def small_designs(draw):
    """A small simple structure with its points permuted: the translates of
    one or two base blocks in Z_v (uniform, so the counts are reached) or a
    few random blocks."""
    v = draw(st.integers(2, 10))
    k = draw(st.integers(1, v))
    if draw(st.booleans()):
        bases = draw(st.lists(st.sets(st.integers(0, v - 1), min_size=k, max_size=k), min_size=1, max_size=2))
        blocks = [[(p + i) % v for p in base] for base in bases for i in range(v)]
    else:
        blocks = draw(st.lists(st.sets(st.integers(0, v - 1), min_size=1, max_size=k), min_size=1, max_size=10))
    perm = draw(st.permutations(range(v)))
    return validate_structure(v, {tuple(sorted(perm[p] for p in blk)) for blk in blocks})


def test_spbibd_type_matches_the_full_scan_on_drawn_designs():
    kinds = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(small_designs())
    def check(d):
        res, want = spbibd_type(d), spbibd_type_oracle(d)
        assert type(res) is type(want) and res == want
        kinds.add(res.reason if isinstance(res, NotSpbibd) else "accepted")

    check()
    assert {"not-uniform", "concurrence", "flag-count", "nonflag-count", "accepted"} <= kinds


def test_a_flag_rejection_outranks_an_earlier_non_flag_rejection():
    # non-flag (4, block 0) sees 2 where non-flag (3, block 0) sees 3, but
    # every flag is checked first, and flag (0, block 2) sees 1, not 2
    d = validate_structure(
        8,
        [(0, 1, 2), (0, 1, 3), (0, 2, 7), (0, 3, 4), (0, 4, 6), (0, 5, 6), (1, 2, 6), (1, 3, 5),
         (1, 4, 6), (1, 4, 7), (2, 3, 5), (2, 3, 7), (2, 4, 5), (3, 6, 7), (4, 5, 7), (5, 6, 7)],
    )
    assert spbibd_type(d) == NotSpbibd("flag-count", "flag (0, block 2) sees 1, expected 2")
    assert spbibd_type_oracle(d) == spbibd_type(d)


def test_gq22_spbibd_parameters():
    p = spbibd_type(gq22())
    assert isinstance(p, SpbibdParams)
    assert (p.v, p.b, p.r, p.k) == (15, 15, 3, 3)
    assert (p.lambda1, p.lambda2) == (1, 0)
    assert (p.s, p.t) == (2, 1)
    assert (p.x, p.y) == (0, 1)
    assert p.is_generalized_quadrangle


def test_grid_spbibd_parameters():
    for n in (3, 4):
        p = spbibd_type(grid_design(n))
        assert (p.v, p.b, p.r, p.k) == (n * n, 2 * n, 2, n)
        assert (p.lambda1, p.lambda2) == (1, 0)
        assert (p.s, p.t) == (n - 1, 1)
        assert (p.x, p.y) == (0, 1)
        assert p.is_partial_geometry


def test_grid4_full_parameter_tuple():
    p = spbibd_type(grid_design(4))
    assert (p.v, p.b, p.r, p.k, p.lambda1, p.lambda2) == (16, 8, 2, 4, 1, 0)
    assert (p.s, p.t) == (3, 1)


def test_fano_is_two_design_degenerate():
    p = spbibd_type(fano())
    assert isinstance(p, SpbibdParams)
    assert p.lambda1 == 1 and not p.lambda2_realized
    assert p.t == p.k == 3
    assert p.two_design_degenerate
    assert not p.in_scope


def test_hypercube_design_parameters():
    p = spbibd_type(hypercube_design())
    assert (p.v, p.b, p.r, p.k) == (8, 8, 4, 4)
    assert (p.lambda1, p.lambda2, p.s, p.t) == (2, 0, 3, 3)
    assert (p.x, p.y) == (0, 2)
    assert p.in_scope and not p.is_partial_geometry


def test_spbibd_flag_count_identity():
    for d in (fano(), gq22(), grid_design(3), hypercube_design()):
        p = spbibd_type(d)
        assert p.v * p.r == p.b * p.k


def test_non_simple_structure_rejected():
    d = complete_bipartite_design(2, 2)
    res = spbibd_type(d)
    assert isinstance(res, NotSpbibd)
    assert res.reason == "repeated-blocks"


def test_three_concurrence_values_rejected_with_pair_witnesses():
    # uniform (r, k) = (2, 3) but pair counts 2, 1 and 0 all occur
    d = validate_structure(6, [[0, 1, 2], [0, 1, 3], [2, 4, 5], [3, 4, 5]])
    assert replication_and_block_size(d) == (2, 3)
    res = spbibd_type(d)
    assert isinstance(res, NotSpbibd)
    assert res.reason == "concurrence"
    assert "(0, 1) in 2" in res.detail


def test_spbibd_invariant_under_relabeling():
    rng = random.Random(31)
    base = spbibd_type(gq22())
    for _ in range(5):
        p = spbibd_type(relabeled_structure(gq22(), rng))
        assert p == base


def test_block_intersections_gq22():
    qs = block_intersections(gq22())
    assert qs.sizes == (0, 1)
    assert (qs.x, qs.y) == (0, 1)
    assert qs.proper
    # oracle: all 105 unordered block pairs, sizes in {0, 1}, both realized
    sets = gq22().block_sets
    sizes = [len(a & b) for a, b in combinations(sets, 2)]
    assert len(sizes) == 105
    assert set(sizes) == {0, 1}


def test_block_intersections_fano_single_value():
    qs = block_intersections(fano())
    assert qs.sizes == (1,)
    assert qs.x == 1 and qs.y is None
    assert not qs.proper


def test_block_intersections_disjoint():
    d = validate_structure(4, [[0, 1], [2, 3]])
    qs = block_intersections(d)
    assert qs.sizes == (0,)
    assert not qs.proper


def test_block_intersections_match_every_block_pair():
    # sizes counted through the points, with 0 for block pairs through no
    # common point, equal the sizes over every pair of blocks
    rng = random.Random(43)
    for _ in range(300):
        v = rng.randint(1, 9)
        blocks = [rng.sample(range(v), rng.randint(1, v)) for _ in range(rng.randint(2, 7))]
        d = validate_structure(v, blocks, allow_repeated=True)
        assert block_intersections(d).sizes == block_intersection_sizes_oracle(d)


def test_analyze_design_counts_pairs_in_two_passes(monkeypatch):
    # one pass over the blocks for the pair concurrences and one over
    # point_blocks for the block meets, which block_intersections and
    # spbibd_type both read from the cached view (three passes before)
    d = symplectic_gq(5)
    passes = []
    real = core.covered_pairs

    def counting(sets):
        passes.append(sets)
        return real(sets)

    monkeypatch.setattr(core, "covered_pairs", counting)
    monkeypatch.setattr(design, "covered_pairs", counting)
    report = analyze_design_report(d)
    assert len(passes) == 2
    assert report["quasi_symmetry"]["sizes"] == [0, 1] and report["spbibd"]["y"] == 1
    sets = d.block_sets
    meets = {(i, j): len(sets[i] & sets[j]) for i, j in combinations(range(d.num_blocks), 2)}
    assert dict(d.block_meets) == {pair: n for pair, n in meets.items() if n}


def test_block_intersections_needs_two_blocks():
    with pytest.raises(FewerThanTwoBlocksError):
        block_intersections(validate_structure(2, [[0, 1]]))


def test_dual_fano_parameters():
    dd = dual(fano())
    p = spbibd_type(dd)
    assert (p.v, p.b, p.r, p.k) == (7, 7, 3, 3)


def test_dual_grid3_shape():
    dd = dual(grid_design(3))
    assert dd.num_points == 6
    assert dd.num_blocks == 9
    assert all(len(b) == 2 for b in dd.blocks)


def test_dual_single_block_hits_duplicate():
    d = validate_structure(2, [[0, 1]])
    with pytest.raises(DuplicateBlockError):
        dual(d)
    dd = dual(d, allow_repeated=True)
    assert dd.blocks == ((0,), (0,))


def test_dual_dual_identity_up_to_canonical_relabeling():
    rng = random.Random(41)
    samples = [fano(), gq22(), grid_design(3), grid_design(4), hypercube_design()]
    samples += [relabeled_structure(grid_design(3), rng) for _ in range(3)]
    for d in samples:
        once = dual(d)
        twice = dual(once)
        # sigma: point p of d -> its index after the dual's blocks got sorted
        raw = dual_blocks_raw(d)
        sigma = {p: once.blocks.index(raw[p]) for p in range(d.num_points)}
        assert sorted(sigma.values()) == list(range(d.num_points))
        relabeled = validate_structure(
            d.num_points, [[sigma[p] for p in blk] for blk in d.blocks]
        )
        assert relabeled == twice


def test_dual_of_quasi_symmetric_spbibd_is_spbibd():
    for d in (gq22(), grid_design(3), grid_design(4), hypercube_design()):
        p = spbibd_type(d)
        assert p.in_scope
        pd = spbibd_type(dual(d))
        assert isinstance(pd, SpbibdParams)
        assert (pd.v, pd.b, pd.r, pd.k) == (p.b, p.v, p.k, p.r)


def test_partial_geometry_recognition():
    assert spbibd_type(gq22()).is_partial_geometry
    assert spbibd_type(grid_design(3)).is_partial_geometry
    assert not spbibd_type(fano()).is_partial_geometry
    assert not spbibd_type(hypercube_design()).is_partial_geometry


def _params(r, k, lambda1, t, y, v=None, b=None):
    # v, b only matter for checks that read them; fabricate a consistent pair
    if v is None:
        v, b = k * r, r * r
    return SpbibdParams(v=v, b=b, r=r, k=k, lambda1=lambda1, lambda2=0, s=k - 1, t=t, x=0, y=y)


def test_constraints_gq22_all_pass():
    rep = check_parameter_constraints(_params(3, 3, 1, 1, 1))
    assert isinstance(rep, ConstraintReport)
    assert rep.all_pass


def test_constraints_y_greater_one_branch():
    rep = check_parameter_constraints(_params(5, 4, 2, 3, 2, v=16, b=20))
    by_name = {c.name: c.holds for c in rep.checks}
    assert by_name["t > y"] and by_name["k >= 4"] and by_name["r >= 4"]
    assert by_name["lambda1 < t*lambda1/y"] and by_name["t*lambda1/y < r"]
    assert rep.all_pass


def test_constraints_two_design_degeneracy_fails():
    rep = check_parameter_constraints(_params(3, 3, 1, 3, 1, v=7, b=7))
    assert not rep.all_pass
    assert "t < k" in failed(rep)


# The full checklist of hand-picked (r, k, lambda1, t, y), written out as
# literals.  Every row fails at least once, and every comparison is met
# at its boundary (t = y, t = r, t*lambda1/y = r, k = r = 4, ...), so
# flipping any one of them changes some report.
CHECKLISTS = {
    # GQ(2,2)
    (3, 3, 1, 1, 1): (
        ("y <= t", True, "1 <= 1"),
        ("t < k", True, "1 < 3"),
        ("t < r", True, "1 < 3"),
        ("t*lambda1/y integral", True, "t*lambda1/y = 1"),
    ),
    # Fano: the 2-design degeneracy t = k
    (3, 3, 1, 3, 1): (
        ("y <= t", True, "1 <= 3"),
        ("t < k", False, "3 < 3"),
        ("t < r", False, "3 < 3"),
        ("t*lambda1/y integral", True, "t*lambda1/y = 3"),
    ),
    # the 4-cube design
    (4, 4, 2, 3, 2): (
        ("y <= t", True, "2 <= 3"),
        ("t < k", True, "3 < 4"),
        ("t < r", True, "3 < 4"),
        ("t*lambda1/y integral", True, "t*lambda1/y = 3"),
        ("t > y", True, "3 > 2"),
        ("lambda1 < t*lambda1/y", True, "2 < 3"),
        ("t*lambda1/y < r", True, "3 < 4"),
        ("k >= 4", True, "k = 4"),
        ("r >= 4", True, "r = 4"),
    ),
    (5, 4, 3, 2, 3): (
        ("y <= t", False, "3 <= 2"),
        ("t < k", True, "2 < 4"),
        ("t < r", True, "2 < 5"),
        ("t*lambda1/y integral", True, "t*lambda1/y = 2"),
        ("t > y", False, "2 > 3"),
        ("lambda1 < t*lambda1/y", False, "3 < 2"),
        ("t*lambda1/y < r", True, "2 < 5"),
        ("k >= 4", True, "k = 4"),
        ("r >= 4", True, "r = 5"),
    ),
    (3, 3, 1, 3, 2): (
        ("y <= t", True, "2 <= 3"),
        ("t < k", False, "3 < 3"),
        ("t < r", False, "3 < 3"),
        ("t*lambda1/y integral", False, "t*lambda1/y = 3/2"),
        ("t > y", True, "3 > 2"),
        ("lambda1 < t*lambda1/y", True, "1 < 3/2"),
        ("t*lambda1/y < r", True, "3/2 < 3"),
        ("k >= 4", False, "k = 3"),
        ("r >= 4", False, "r = 3"),
    ),
    (4, 5, 2, 4, 2): (
        ("y <= t", True, "2 <= 4"),
        ("t < k", True, "4 < 5"),
        ("t < r", False, "4 < 4"),
        ("t*lambda1/y integral", True, "t*lambda1/y = 4"),
        ("t > y", True, "4 > 2"),
        ("lambda1 < t*lambda1/y", True, "2 < 4"),
        ("t*lambda1/y < r", False, "4 < 4"),
        ("k >= 4", True, "k = 5"),
        ("r >= 4", True, "r = 4"),
    ),
    # in scope with t*lambda1/y = 3/2: only integrality fails
    (5, 4, 1, 3, 2): (
        ("y <= t", True, "2 <= 3"),
        ("t < k", True, "3 < 4"),
        ("t < r", True, "3 < 5"),
        ("t*lambda1/y integral", False, "t*lambda1/y = 3/2"),
        ("t > y", True, "3 > 2"),
        ("lambda1 < t*lambda1/y", True, "1 < 3/2"),
        ("t*lambda1/y < r", True, "3/2 < 5"),
        ("k >= 4", True, "k = 4"),
        ("r >= 4", True, "r = 5"),
    ),
    # in scope with t*lambda1/y = 10/4, rendered in lowest terms
    (7, 6, 2, 5, 4): (
        ("y <= t", True, "4 <= 5"),
        ("t < k", True, "5 < 6"),
        ("t < r", True, "5 < 7"),
        ("t*lambda1/y integral", False, "t*lambda1/y = 5/2"),
        ("t > y", True, "5 > 4"),
        ("lambda1 < t*lambda1/y", True, "2 < 5/2"),
        ("t*lambda1/y < r", True, "5/2 < 7"),
        ("k >= 4", True, "k = 6"),
        ("r >= 4", True, "r = 7"),
    ),
    (4, 4, 2, 2, 2): (
        ("y <= t", True, "2 <= 2"),
        ("t < k", True, "2 < 4"),
        ("t < r", True, "2 < 4"),
        ("t*lambda1/y integral", True, "t*lambda1/y = 2"),
        ("t > y", False, "2 > 2"),
        ("lambda1 < t*lambda1/y", False, "2 < 2"),
        ("t*lambda1/y < r", True, "2 < 4"),
        ("k >= 4", True, "k = 4"),
        ("r >= 4", True, "r = 4"),
    ),
}


@pytest.mark.parametrize("rklty", list(CHECKLISTS), ids=str)
def test_constraint_report_literal_oracle(rklty):
    expected = ConstraintReport(tuple(ConstraintCheck(*check) for check in CHECKLISTS[rklty]))
    assert check_parameter_constraints(_params(*rklty)) == expected


def test_constraint_details_render_t_lambda1_over_y_as_its_fraction():
    # the detail of the integrality row, which every y >= 1 checks, is
    # str(Fraction(t*lambda1, y)) in lowest terms
    for t in range(1, 31):
        for lambda1 in range(1, 31):
            for y in range(1, 31):
                name, _, detail = check_parameter_constraints(_params(40, 31, lambda1, t, y)).checks[3]
                assert (name, detail) == ("t*lambda1/y integral", f"t*lambda1/y = {Fraction(t * lambda1, y)}")


def test_constraints_not_in_scope():
    with pytest.raises(NotInScopeError):
        check_parameter_constraints(
            SpbibdParams(v=4, b=4, r=2, k=2, lambda1=2, lambda2=1, s=1, t=1, x=0, y=1)
        )
    with pytest.raises(NotInScopeError):
        check_parameter_constraints(
            SpbibdParams(v=7, b=7, r=3, k=3, lambda1=1, lambda2=0, s=2, t=3, x=1, y=None)
        )
    # lambda2 = 0 with s != k - 1: spbibd_type never builds one (with
    # lambda2 = 0 every pair inside a block is a lambda1 pair), so by hand
    with pytest.raises(NotInScopeError, match=r"type is \(1, 1\), scope needs s = k-1 = 2"):
        check_parameter_constraints(_params(3, 3, 1, 1, 1)._replace(s=1))


def test_constraints_hold_for_every_in_scope_structure():
    rng = random.Random(47)
    samples = [gq22(), grid_design(2), grid_design(3), grid_design(4), hypercube_design()]
    samples += [relabeled_structure(s, rng) for s in samples]
    samples += [dual(grid_design(n)) for n in (3, 4)]
    for d in samples:
        p = spbibd_type(d)
        assert isinstance(p, SpbibdParams)
        if not p.in_scope:
            continue
        assert check_parameter_constraints(p).all_pass, (p, failed(check_parameter_constraints(p)))
