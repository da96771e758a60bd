import hashlib
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import spbibd
from spbibd import search
from spbibd.cli import main as cli_main
from spbibd.core import ConsistencyError
from spbibd.correspondence import derived_sizes, expected_incidence_arrays
from spbibd.design import check_parameter_constraints
from spbibd.equalities import SpbibdParams, parameter_homogeneity, r_coefficients
from spbibd.search import (
    CSV_HEADER,
    TARGETS,
    BoundsTooSmallError,
    admissibility_failures,
    candidates_csv,
    deltas_from_arrays,
    enumerate_candidates,
    satisfied_equalities,
)
from util import array_class_sizes, product_form_equalities, sweep_candidates

# Rows and SHA-256 of `search --max-r 20 --max-k 20` per target, as the
# search first produced them; every later version must reproduce them.
SEARCH_20 = {
    "almost-p": (106, "b2e969d730c639096e600c64ab0f64e7666367a2d9b6a2f0a184e4f81a269ea1"),
    "full-p": (46, "de9b95281c85f2e598d4f82a13c5e793dbd4d8a15b1a1e00183ad855d0e16ddb"),
    "almost-b": (56, "2589e5e39071e2e7b170f9df7f09a2b7495871b437a3d93435a1829c6efbe256"),
    "full-b": (9, "797323c76151b4faf33e071335b69c98a0b4610d1b48ab54a6f439f32e7ec36e"),
}
# The same with --force-y 1, the out-of-problem y = 1 mode: almost-p and
# almost-b list the same 289 tuples, full-p and full-b none.
SEARCH_20_Y1 = {
    "almost-p": (289, "22310924a5b16555be67762beda25d3ea5892087214a9fbf7254f699bae34cf0"),
    "full-p": (0, "66fdbeaf4ff6f5f2894342f47980b5ab093680005be54a964b1ea3922590e24b"),
    "almost-b": (289, "22310924a5b16555be67762beda25d3ea5892087214a9fbf7254f699bae34cf0"),
    "full-b": (0, "66fdbeaf4ff6f5f2894342f47980b5ab093680005be54a964b1ea3922590e24b"),
}
# The same at --max-r 30 --max-k 30: rows and SHA-256 prefix.
SEARCH_30 = {
    "almost-p": (279, "671e3ca8cf5fe869"),
    "full-p": (105, "8b5015058ee79196"),
    "almost-b": (116, "97c7e2fe25dda282"),
    "full-b": (14, "8bc859fde66d8887"),
}


def eqq2_delta2p(r, k, lambda1, t, y):
    """Delta_2 of the point side written out directly, the way the almost
    criterion is derived before factoring."""
    p22 = Fraction((r - lambda1) * (t - 1) + lambda1 * (k - 2), lambda1)
    return (k - 2) * (t - 1) - (y - 1) * p22


def eqq22_delta3p(r, k, lambda1, t, y):
    c3p = Fraction(t * lambda1, y)
    p23 = ((r - c3p) * (k - 1) + c3p * (k - y - 1)) / lambda1
    return (k - y - 1) * (k - 1) - (y - 1) * p23


def test_bounds_too_small():
    with pytest.raises(BoundsTooSmallError):
        enumerate_candidates(3, 3, "almost-p")
    with pytest.raises(BoundsTooSmallError):
        enumerate_candidates(20, 3, "full-b")
    with pytest.raises(BoundsTooSmallError):
        enumerate_candidates(10, 10, "almost-p", force_y=0)


def test_unknown_target():
    with pytest.raises(ValueError):
        enumerate_candidates(10, 10, "almost-q")


def test_almost_p_tuples_satisfy_the_defining_equation():
    cands = enumerate_candidates(20, 20, "almost-p")
    assert cands, "the sweep is known to be non-empty (e.g. (4,4,2,3,2))"
    for c in cands:
        lhs = c.lambda1 * (c.k - 2) * (c.t - c.y)
        rhs = (c.y - 1) * (c.r - c.lambda1) * (c.t - 1)
        assert lhs == rhs
        # independent route: the unfactored Delta_2 expression vanishes
        assert eqq2_delta2p(c.r, c.k, c.lambda1, c.t, c.y) == 0


def test_full_p_tuples_satisfy_both_equations():
    for c in enumerate_candidates(20, 20, "full-p"):
        assert eqq2_delta2p(c.r, c.k, c.lambda1, c.t, c.y) == 0
        assert eqq22_delta3p(c.r, c.k, c.lambda1, c.t, c.y) == 0


def test_emitted_tuples_repass_parameter_constraints():
    # the search and parameter_homogeneity must read one target table: each
    # emitted row sets its target's flag (the flags follow TARGETS)
    for target in TARGETS:
        for force_y in (None, 1):
            for c in enumerate_candidates(16, 16, target, force_y=force_y):
                params = SpbibdParams(
                    v=c.v, b=c.b, r=c.r, k=c.k, lambda1=c.lambda1, lambda2=0, s=c.k - 1, t=c.t, x=0, y=c.y
                )
                assert check_parameter_constraints(params).all_pass
                assert parameter_homogeneity(params)[TARGETS.index(target)], (target, c)
                assert c.v * c.r == c.b * c.k
                assert c.existence == "unresolved"


def test_deterministic_across_runs():
    a = enumerate_candidates(20, 20, "almost-p")
    b = enumerate_candidates(20, 20, "almost-p")
    assert a == b
    assert candidates_csv(a) == candidates_csv(b)


def test_lexicographic_order():
    cands = enumerate_candidates(20, 20, "almost-p")
    keys = [c.sort_key() for c in cands]
    assert keys == sorted(keys)


def test_growing_bounds_never_drop_tuples():
    small = set(enumerate_candidates(10, 10, "almost-p"))
    large = set(enumerate_candidates(20, 20, "almost-p"))
    assert small <= large


def test_full_p_with_y_forced_to_one_is_empty():
    # Delta_3(P) = (k-2)(k-1) > 0 for every k >= 4
    assert enumerate_candidates(14, 14, "full-p", force_y=1) == []
    assert enumerate_candidates(14, 14, "full-b", force_y=1) == []


def test_almost_p_with_y_forced_to_one_gives_quadrangle_parameters():
    cands = enumerate_candidates(10, 10, "almost-p", force_y=1)
    assert cands
    for c in cands:
        assert c.y == 1 and c.t == 1 and c.lambda1 == 1


def test_self_dual_tuple_4422_is_found():
    cands = enumerate_candidates(20, 20, "almost-p")
    match = [c for c in cands if (c.r, c.k, c.lambda1, c.t, c.y) == (4, 4, 2, 3, 2)]
    assert len(match) == 1
    c = match[0]
    assert (c.v, c.b) == (8, 8)
    assert c.satisfied == frozenset({"K3", "K4", "K30", "K40"})


def test_satisfied_equalities_against_delta_arrays():
    # sample the admissible space, y = 1 included, and confirm the factored
    # equations track the Delta scalars, not just on emitted tuples
    for r in range(4, 9):
        for k in range(4, 9):
            for lambda1 in range(1, r):
                for y in range(1, k - 1):
                    for t in range(y + 1 if y > 1 else y, min(k, r)):
                        if admissibility_failures(r, k, lambda1, t, y):
                            continue
                        sat = satisfied_equalities(r, k, lambda1, t, y)
                        deltas = deltas_from_arrays(r, k, lambda1, t, y)
                        for label, value in deltas.items():
                            assert (value == 0) == (label in sat)


def test_admissibility_reasons():
    assert admissibility_failures(4, 4, 2, 3, 2) == []
    assert any("t < r" in r for r in admissibility_failures(4, 5, 2, 4, 2))
    assert any("integral" in r for r in admissibility_failures(5, 5, 1, 3, 2))
    assert any("k >= 4" in r for r in admissibility_failures(3, 3, 1, 2, 2))


def test_csv_shape():
    cands = enumerate_candidates(12, 12, "almost-b")
    text = candidates_csv(cands)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(cands) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 9
        assert fields[-1] == "unresolved"
        assert "K30" in fields[7]


def test_equality_delta_disagreement_raises(monkeypatch, capsys):
    def wrong(r, k, lambda1, t, y):
        return {"K3": Fraction(1), "K4": Fraction(1), "K30": Fraction(1), "K40": Fraction(1)}

    monkeypatch.setattr(search, "deltas_from_arrays", wrong)
    with pytest.raises(ConsistencyError):
        enumerate_candidates(10, 10, "almost-p")
    code = cli_main(["search", "--target", "almost-p", "--max-r", "10", "--max-k", "10"])
    assert code == 3
    assert "ConsistencyError" in capsys.readouterr().err


def test_derived_sizes_match_the_array_form():
    for r in range(2, 13):
        for k in range(2, 13):
            for lambda1 in range(1, r):
                for t in range(1, k):
                    # y = t keeps t*lambda1/y integral; the point array
                    # does not depend on y
                    point, _ = expected_incidence_arrays(r, k, lambda1, t, t)
                    v_num, b_num, den = derived_sizes(r, k, lambda1, t)
                    assert (Fraction(v_num, den), Fraction(b_num, den)) == array_class_sizes(point)


def _csv_digest(bound, target, force_y=None):
    cands = enumerate_candidates(bound, bound, target, force_y=force_y)
    return len(cands), hashlib.sha256(candidates_csv(cands).encode()).hexdigest()


@pytest.mark.parametrize("target", TARGETS)
def test_search_csv_is_pinned_at_20_and_30(target):
    assert _csv_digest(20, target) == SEARCH_20[target]
    rows, digest = _csv_digest(30, target)
    assert (rows, digest[:16]) == SEARCH_30[target]


@pytest.mark.parametrize("target", TARGETS)
def test_search_csv_with_y_forced_to_one_is_pinned_at_20(target):
    assert _csv_digest(20, target, force_y=1) == SEARCH_20_Y1[target]


@pytest.mark.parametrize("bound", (12, 16))
@pytest.mark.parametrize("force_y", (None, 1, 2, 3))
def test_solved_search_equals_the_r_sweep(bound, force_y):
    for target in TARGETS:
        solved = enumerate_candidates(bound, bound, target, force_y=force_y)
        assert solved == sweep_candidates(bound, bound, target, force_y), (target, force_y)


@st.composite
def uneven_bounds(draw):
    max_r = draw(st.integers(4, 18))
    max_k = draw(st.integers(4, 18).filter(lambda k: k != max_r))
    force_y = draw(st.none() | st.integers(1, max_k))
    return max_r, max_k, draw(st.sampled_from(TARGETS)), force_y


@settings(derandomize=True, database=None, deadline=None)
@given(uneven_bounds())
def test_lambda1_cut_off_equals_the_r_sweep_on_uneven_bounds(case):
    # the cut-off compares the solved r with max_r, so the bounds must not
    # stand in for each other
    max_r, max_k, target, force_y = case
    solved = enumerate_candidates(max_r, max_k, target, force_y=force_y)
    assert solved == sweep_candidates(max_r, max_k, target, force_y)


# (r_coefficients, admissibility_failures) calls of
# enumerate_candidates(20, 20, target, force_y=force_y).  K3 tries only the
# multiples of lcm(a/gcd(a, m), q) up to the last r <= 20, for q =
# y/gcd(y, t) (961 and 562 calls with the step a/gcd(a, m) alone, 8,771
# r_coefficients calls when every lambda1 was tried up to the first r
# above 20); K30 only the multiples of q among the divisors of y(k-y),
# each sweep ending at the first r above 20 (4,070 and 218 calls with
# every divisor, 6,167 r_coefficients calls before).  Without any cut-off
# every (k, lambda1, y, t) of the grid is solved, 18,411 calls per target.
# y = 1 admits only lambda1 = 1, so that is the only lambda1 tried there.
SOLVES_20 = {
    (None, "almost-p"): (276, 237),
    (None, "full-p"): (276, 237),
    (None, "almost-b"): (1992, 184),
    (None, "full-b"): (1992, 184),
    (1, "almost-p"): (187, 289),
    (1, "full-p"): (187, 289),
    (1, "almost-b"): (187, 289),
    (1, "full-b"): (187, 289),
}


@pytest.mark.parametrize(
    "force_y, target", list(SOLVES_20), ids=[t if y is None else f"{t}-y{y}" for y, t in SOLVES_20]
)
def test_lambda1_sweep_stops_at_max_r(monkeypatch, force_y, target):
    calls = {"r_coefficients": 0, "admissibility_failures": 0}
    for name in calls:
        real = getattr(search, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(search, name, counting)
    enumerate_candidates(20, 20, target, force_y=force_y)
    assert (calls["r_coefficients"], calls["admissibility_failures"]) == SOLVES_20[force_y, target]


def test_linear_form_tracks_the_equalities():
    # a*r == c exactly when the label is satisfied, and the product forms
    # agree; y = 1 and lambda1 = 1 reach the a = 0 and c = 0 branches
    branches = set()
    for k in range(2, 13):
        for lambda1 in range(1, 13):
            for y in range(1, k):
                for t in range(y, k):
                    for label in ("K3", "K30"):
                        a, c = r_coefficients(label, k, lambda1, t, y)
                        branches.add((label, a == 0, c == 0))
                        for r in range(1, 13):
                            sat = satisfied_equalities(r, k, lambda1, t, y)
                            assert (a * r == c) == (label in sat)
                            assert (label in sat) == (label in product_form_equalities(r, k, lambda1, t, y))
    assert {("K3", True, True), ("K3", True, False), ("K30", True, True), ("K30", True, False)} <= branches
    with pytest.raises(ValueError):
        r_coefficients("K4", 4, 1, 2, 1)


def test_pruned_lambda1_keep_every_integral_solution():
    # the divisibility lemmas of _candidates_for_k against the unpruned
    # lambda1 loop: every lambda1 < 60 with a | c and y | t*lambda1 is
    # tried, the K3 range at the smallest max_r that admits its r; every
    # lambda1 the K3 range tries gives an integral r and t*lambda1/y, so its
    # step is exact; and every lambda1 with a | c that the sweep skips is
    # rejected by admissibility_failures for t*lambda1/y
    skipped = {"K3": 0, "K30": 0}
    for k in range(4, 31):
        for y in range(2, k - 1):
            divisors = search._k30_lambda1s(k, y, 60)
            for t in range(y + 1, k):
                q = search._integral_c3_step(t, y)
                k30 = [d for d in divisors if d % q == 0]
                for lambda1 in range(1, 60):
                    for label in ("K3", "K30"):
                        a, c = r_coefficients(label, k, lambda1, t, y)
                        if c % a:
                            continue
                        if label == "K3":
                            tried = lambda1 in search._k3_lambda1s(k, t, y, c // a)
                        else:
                            tried = lambda1 in k30
                        if (t * lambda1) % y == 0:
                            assert tried, (label, k, lambda1, t, y)
                        elif not tried:
                            skipped[label] += 1
                            failures = admissibility_failures(c // a, k, lambda1, t, y)
                            assert "t*lambda1/y integral" in failures, (label, k, lambda1, t, y)
                for lambda1 in search._k3_lambda1s(k, t, y, 60):
                    a, c = r_coefficients("K3", k, lambda1, t, y)
                    assert c % a == 0 and c <= 60 * a and (t * lambda1) % y == 0, (k, lambda1, t, y)
    assert min(skipped.values()) > 0


def _shift_solved_r(monkeypatch):
    real = search.r_coefficients

    def shifted(label, k, lambda1, t, y):
        a, c = real(label, k, lambda1, t, y)
        return a, c + a  # moves every solved r up by one

    monkeypatch.setattr(search, "r_coefficients", shifted)


@pytest.mark.parametrize("target", TARGETS)
def test_solved_r_missing_its_equality_raises(monkeypatch, capsys, target):
    _shift_solved_r(monkeypatch)
    with pytest.raises(ConsistencyError, match="misses"):
        enumerate_candidates(12, 12, target)
    code = cli_main(["search", "--target", target, "--max-r", "12", "--max-k", "12"])
    assert code == 3
    assert "ConsistencyError" in capsys.readouterr().err


def test_solved_r_cross_check_survives_optimize():
    script = textwrap.dedent(
        """
        import sys
        from spbibd import search
        from spbibd.cli import main

        if not sys.flags.optimize:
            raise SystemExit("not running under -O")
        real = search.r_coefficients

        def shifted(*args):
            a, c = real(*args)
            return a, c + a

        search.r_coefficients = shifted
        raise SystemExit(main(["search", "--target", "almost-b", "--max-r", "12", "--max-k", "12"]))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(spbibd.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 3, proc.stderr
    assert "ConsistencyError" in proc.stderr
