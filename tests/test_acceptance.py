"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Everything is exact arithmetic; the only
tolerances are wall-clock budgets."""

import random
import time
from fractions import Fraction

import pytest

from spbibd.equalities import SpbibdParams
from spbibd.correspondence import (
    WrongEccentricityError,
    design_from_graph,
    expected_incidence_arrays,
    incidence_graph,
)
from spbibd.design import check_parameter_constraints, dual, spbibd_type
from spbibd.equalities import p2ii_numerator, parameter_homogeneity
from spbibd.generators import (
    fano,
    gq22,
    grid_design,
    path_graph,
    subdivision_complete_bipartite,
    tutte_coxeter,
)
from spbibd.graph import (
    KIND_DISTANCE_BIREGULAR,
    KIND_DISTANCE_REGULAR,
    KIND_NOT_REGULARIZED,
    classify,
    local_intersection_numbers,
)
from spbibd.homogeneity import (
    VERDICT_ALMOST_ONLY,
    VERDICT_TWO_HOMOGENEOUS,
    delta_value,
    homogeneity_report,
    homogeneous_by_bruteforce,
)
from spbibd.search import candidates_csv, enumerate_candidates
from util import (
    failed,
    hypercube_design,
    hypercube_graph,
    p2ii_direct_counts,
    random_structure,
    relabeled_structure,
    round_trip_design,
    round_trip_graph,
)


def _report(criterion: int, elapsed: float, message: str) -> None:
    print(f"[criterion {criterion}] PASS in {elapsed:.2f}s: {message}")


IN_SCOPE_CASES = [
    ("gq22", gq22(), (3, 3, 1, 1, 1)),
    ("grid2", grid_design(2), (2, 2, 1, 1, 1)),
    ("grid3", grid_design(3), (2, 3, 1, 1, 1)),
    ("grid4", grid_design(4), (2, 4, 1, 1, 1)),
    ("grid5", grid_design(5), (2, 5, 1, 1, 1)),
    ("grid6", grid_design(6), (2, 6, 1, 1, 1)),
]


def test_criterion_1_intersection_arrays_match_closed_forms():
    start = time.perf_counter()
    for name, d, (r, k, lambda1, t, y) in IN_SCOPE_CASES:
        t0 = time.perf_counter()
        g = incidence_graph(d)
        point, block = expected_incidence_arrays(r, k, lambda1, t, y)
        assert point.c == (0, 1, lambda1, t, r)
        assert point.b == (r, k - 1, r - lambda1, k - t, 0)
        assert block.c == (0, 1, y, t * lambda1 // y, k)
        assert block.b == (k, r - 1, k - y, r - t * lambda1 // y, 0)
        for p in range(d.num_points):
            assert local_intersection_numbers(g, p) == point, (name, p)
        for j in range(d.num_blocks):
            assert local_intersection_numbers(g, d.num_points + j) == block, (name, j)
        assert time.perf_counter() - t0 < 1.0, f"{name} exceeded the 1s budget"
    _report(1, time.perf_counter() - start, "point and block arrays exact for gq22 and grids n=2..6")


def test_criterion_2_round_trips_are_identities():
    start = time.perf_counter()
    for name, d, _ in IN_SCOPE_CASES:
        rep = round_trip_design(d)
        assert rep.ok, (name, rep.details)
    graphs = [("tutte-coxeter", tutte_coxeter())]
    graphs += [(f"subdivision{n}", subdivision_complete_bipartite(n)) for n in range(2, 7)]
    for name, g in graphs:
        for side in ("Y", "Yprime"):
            rep = round_trip_graph(g, side)
            assert rep.ok, (name, side, rep.details)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, elapsed, "design and graph round trips exact on all witnesses")


def test_criterion_3_p2ii_formula_equals_exhaustive_count():
    start = time.perf_counter()
    cases = [("tutte-coxeter", tutte_coxeter())]
    cases += [(f"subdivision{n}", subdivision_complete_bipartite(n)) for n in (3, 4, 5)]
    pairs_checked = 0
    for name, g in cases:
        cls = classify(g)
        for side, arr, other in (
            ("Y", cls.array_y, cls.array_yprime),
            ("Yprime", cls.array_yprime, cls.array_y),
        ):
            for i in range(2, arr.eccentricity):
                observed = p2ii_direct_counts(g, side, i)
                predicted = Fraction(p2ii_numerator(arr, other, i), arr.c[2])
                assert observed == {predicted}, (name, side, i)
                pairs_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, elapsed, f"formula equals brute count on {pairs_checked} (graph, side, level) sweeps")


def test_criterion_4_formula_verdicts_equal_bruteforce_verdicts():
    start = time.perf_counter()
    cases = [
        ("tutte-coxeter", tutte_coxeter(), ("Y", "Yprime")),
        ("heawood", incidence_graph(fano()), ("Y", "Yprime")),
        ("cube3", hypercube_graph(3), ("Y", "Yprime")),
        ("cube4", hypercube_graph(4), ("Y", "Yprime")),
        ("grid3-graph", incidence_graph(grid_design(3)), ("Y",)),
        ("grid4-graph", incidence_graph(grid_design(4)), ("Y",)),
        ("grid6-graph", incidence_graph(grid_design(6)), ("Y",)),
        ("subdivision5", subdivision_complete_bipartite(5), ("Yprime",)),
    ]
    for name, g, sides in cases:
        for side in sides:
            rep = homogeneity_report(g, side)
            assert rep.formula_verdict is not None, (name, side)
            assert rep.formula_verdict == rep.verdict, (name, side)
    tutte = homogeneity_report(tutte_coxeter(), "Y")
    assert tutte.verdict == VERDICT_ALMOST_ONLY
    assert homogeneity_report(tutte_coxeter(), "Yprime").verdict == VERDICT_ALMOST_ONLY
    elapsed = time.perf_counter() - start
    _report(4, elapsed, "theorem and brute-force verdicts agree on every k'>=3, D>=3 witness")


def test_criterion_5_grid_graphs_subdivision_homogeneity_and_kind():
    start = time.perf_counter()
    for n in range(2, 7):
        g = incidence_graph(grid_design(n))
        # the subdivided K_{n,n} original vertices are the blocks (lines)
        lines = homogeneous_by_bruteforce(g, "Yprime")
        assert lines.verdict == VERDICT_TWO_HOMOGENEOUS, n
        cls = classify(g)
        if n == 2:
            assert cls.kind == KIND_DISTANCE_REGULAR
            assert cls.array_y.b == (2, 1, 1, 1, 0)  # the 8-cycle
            cells = homogeneous_by_bruteforce(g, "Y")
            assert cells.verdict == VERDICT_TWO_HOMOGENEOUS
        else:
            assert cls.kind == KIND_DISTANCE_BIREGULAR
            assert cls.array_y.valency == 2  # cells are the degree-2 class
            cells = homogeneous_by_bruteforce(g, "Y")
            assert cells.verdict == VERDICT_ALMOST_ONLY, n
    elapsed = time.perf_counter() - start
    _report(5, elapsed, "grid incidence graphs fully homogeneous on the line class, n=2..6")


def test_criterion_6_quadrangle_propositions_and_delta3():
    start = time.perf_counter()
    p = spbibd_type(gq22())
    assert isinstance(p, SpbibdParams)
    props = parameter_homogeneity(p)
    assert props.almost_2p and not props.full_2p
    assert props.almost_2b and not props.full_2b
    point, block = expected_incidence_arrays(p.r, p.k, p.lambda1, p.t, p.y)
    assert delta_value(point, block, 3) == (p.k - 2) * (p.k - 1) == 2
    assert delta_value(block, point, 3) == (p.r - 2) * (p.r - 1) == 2
    # the graph itself confirms the failing level: numerator 2 over c_2 = 1
    rep = homogeneity_report(tutte_coxeter(), "Y")
    assert (rep.delta[3], rep.c2) == (2, 1) and rep.verdict == VERDICT_ALMOST_ONLY
    elapsed = time.perf_counter() - start
    _report(6, elapsed, "almost-but-not-fully homogeneous on both classes, Delta_3 = 2 twice")


def _random_scope_structures(count: int):
    rng = random.Random(2024)
    families = [
        gq22(),
        grid_design(2),
        grid_design(3),
        grid_design(4),
        grid_design(5),
        hypercube_design(),
        dual(grid_design(3)),
        dual(grid_design(4)),
        dual(gq22()),
    ]
    reached = []
    attempts = 0
    while len(reached) < count and attempts < 3000:
        attempts += 1
        if rng.random() < 0.5:
            d = relabeled_structure(rng.choice(families), rng)
        else:
            d = random_structure(rng)
            if d is None:
                continue
        p = spbibd_type(d)
        if isinstance(p, SpbibdParams) and p.in_scope:
            reached.append((d, p))
    return reached, attempts


def test_criterion_7_constraint_lemmas_hold_in_scope():
    start = time.perf_counter()
    for name, d, _ in IN_SCOPE_CASES:
        p = spbibd_type(d)
        assert p.in_scope, name
        assert check_parameter_constraints(p).all_pass, name
    reached, attempts = _random_scope_structures(100)
    assert len(reached) == 100, f"only {len(reached)} structures reached the gate in {attempts} draws"
    for d, p in reached:
        rep = check_parameter_constraints(p)
        assert rep.all_pass, (p, failed(rep))
        if p.y is not None and p.y > 1:
            assert p.k >= 4 and p.r >= 4 and p.t > p.y
        assert p.t < p.r
    elapsed = time.perf_counter() - start
    _report(7, elapsed, f"lemma inequalities hold on all generators plus 100 random in-scope structures ({attempts} draws)")


def test_criterion_8_search_determinism_and_soundness(tmp_path):
    from spbibd.cli import main as cli_main

    start = time.perf_counter()
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = cli_main(
            ["search", "--target", "almost-p", "--max-r", "20", "--max-k", "20",
             "--out", str(path)]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]

    first = enumerate_candidates(20, 20, "almost-p")
    assert candidates_csv(first).encode() == outputs[0]
    assert first, "sweep must be non-empty"
    for c in first:
        # defining equation, factored form
        assert c.lambda1 * (c.k - 2) * (c.t - c.y) == (c.y - 1) * (c.r - c.lambda1) * (c.t - 1)
        # independent re-derivation: unfactored Delta_2(P) expression
        p22 = Fraction((c.r - c.lambda1) * (c.t - 1) + c.lambda1 * (c.k - 2), c.lambda1)
        assert (c.k - 2) * (c.t - 1) - (c.y - 1) * p22 == 0
        assert c.existence == "unresolved"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(8, elapsed, f"byte-identical output across runs; {len(first)} sound tuples")


def test_criterion_9_negative_controls():
    start = time.perf_counter()
    heawood = incidence_graph(fano())
    with pytest.raises(WrongEccentricityError):
        design_from_graph(heawood, "Y")
    cls = classify(path_graph(4))
    assert cls.kind == KIND_NOT_REGULARIZED
    assert cls.witness is not None
    assert cls.witness.counts[0] != cls.witness.counts[1]
    elapsed = time.perf_counter() - start
    _report(9, elapsed, "Fano rejected by eccentricity; path witness concrete")
