"""Bounded exhaustive enumeration of admissible parameter tuples
(r, k, lambda1, t, y) with y > 1 whose incidence graph would be (almost)
2-homogeneous with respect to the point or block class.  A tuple is
admissible when it passes equalities.SCOPE_INEQUALITIES, the rows that the
analyze-design checklist renders, and gives integral v and b.

A target needs the equalities that equalities.TARGET_NEEDS lists, the
table parameter_homogeneity reads too.  The first is K3 (Delta_2 of the
point class) or K30 (Delta_2 of the block class), both linear in r
(equalities.r_coefficients), so the enumeration runs over (y, t) and,
innermost, lambda1, and solves it for r instead of sweeping r.  It tries
only the lambda1 for which the solved r can be an integer and the scope
row "t*lambda1/y integral" can hold: for K3 the multiples of one step up
to the last r <= max_r, for K30 the divisors of y(k-y) that are
multiples of q = y/gcd(y, t), each sweep ending at the first solved r
above max_r (the proofs are in _integral_c3_step, _k3_lambda1s,
_k30_lambda1s and _candidates_for_k).  The old sweep over every r is kept
only as the test oracle.

Emitting a tuple never asserts that a design with these parameters
exists; every row carries an explicit "unresolved" existence marker.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .core import TARGETS, ConsistencyError, ToolkitError
from .correspondence import derived_sizes, expected_incidence_arrays
from .equalities import (
    EQUALITY_LABELS,
    TARGET_NEEDS,
    delta_numerator,
    k3_terms,
    r_coefficients,
    satisfied_equalities,
    scope_inequalities,
)


class BoundsTooSmallError(ToolkitError):
    pass


class CandidateTuple(
    namedtuple("CandidateTuple", "r k lambda1 t y v b satisfied existence", defaults=("unresolved",))
):
    """Fields: ``r``, ``k``, ``lambda1``, ``t``, ``y``, ``v``, ``b`` (int),
    ``satisfied`` (frozenset[str]), ``existence`` (str, default
    "unresolved")."""

    __slots__ = ()

    def sort_key(self) -> tuple[int, int, int, int, int]:
        return (self.k, self.r, self.lambda1, self.y, self.t)


def admissibility_failures(r: int, k: int, lambda1: int, t: int, y: int) -> list[str]:
    """Reasons a tuple fails the scope and counting filters (empty when
    admissible): the names of the failing equalities.SCOPE_INEQUALITIES rows,
    then the integrality of v and b, which is derived only once every row
    holds.

    y = 1 is accepted for diagnostic sweeps; the extra inequalities of the
    y > 1 case are then skipped, but lambda1 = 1 is forced.
    """
    reasons = []
    if y < 1:
        reasons.append("needs y >= 1")
    elif y == 1 and lambda1 != 1:
        reasons.append("y = 1 forces lambda1 = 1")
    if lambda1 < 1:
        reasons.append("needs lambda1 >= 1")
    if reasons:
        return reasons
    reasons = [row.name for row in scope_inequalities(y) if not row.test(r, k, lambda1, t, y)]
    if reasons:
        return reasons
    v_num, b_num, den = derived_sizes(r, k, lambda1, t)
    if v_num % den:
        reasons.append(f"v = {v_num}/{den} not integral")
    if b_num % den:
        reasons.append(f"b = {b_num}/{den} not integral")
    if not reasons and v_num * r != b_num * k:
        raise ConsistencyError(f"flag double counting does not balance at {(r, k, lambda1, t, y)}")
    return reasons


def deltas_from_arrays(r: int, k: int, lambda1: int, t: int, y: int) -> dict[str, int]:
    """Independent evaluation of the same four scalars through the
    predicted intersection arrays and the Delta definition: each is
    Delta_i times the side c_2 > 0 (equalities.delta_numerator), so it is
    zero exactly when Delta_i is."""
    point, block = expected_incidence_arrays(r, k, lambda1, t, y)
    return {
        "K3": delta_numerator(point, block, 2),
        "K4": delta_numerator(point, block, 3),
        "K30": delta_numerator(block, point, 2),
        "K40": delta_numerator(block, point, 3),
    }


def _integral_c3_step(t: int, y: int) -> int:
    """q = y/gcd(y, t), whose multiples are exactly the lambda1 that pass
    the scope row "t*lambda1/y integral" (t*lambda1/y is c3 of the block
    class): with g = gcd(y, t), y divides t*lambda1 iff q divides
    (t/g)*lambda1, which, q being coprime to t/g, holds iff q divides
    lambda1."""
    return y // gcd(y, t)


def _k3_lambda1s(k: int, t: int, y: int, max_r: int) -> range:
    """The lambda1 whose K3 solution r = lambda1*m/a is an integer <= max_r
    and whose t*lambda1/y is an integer, for t > y > 1 (a, m =
    equalities.k3_terms, so 0 < a < m): a divides lambda1*m exactly when
    a/gcd(a, m) divides lambda1, y divides t*lambda1 exactly when q =
    _integral_c3_step(t, y) does, so both hold exactly when their lcm
    divides lambda1; and r <= max_r exactly when lambda1 <= max_r*a/m,
    which is below max_r."""
    a, m = k3_terms(k, t, y)
    step = lcm(a // gcd(a, m), _integral_c3_step(t, y))
    return range(step, max_r * a // m + 1, step)


def _k30_lambda1s(k: int, y: int, max_r: int) -> list[int]:
    """The lambda1 < max_r that divide y(k-y), ascending: for y > 1 the only
    ones whose K30 solution can be integral.  a = lambda1*y*(t-y), so a
    divides c only if lambda1 divides c - 2a = (k-y)(t*lambda1-y)(lambda1-1),
    which is y(k-y) modulo lambda1."""
    n = y * (k - y)
    return [d for d in range(1, min(max_r, n + 1)) if n % d == 0]


def _candidates_for_k(
    k: int, max_r: int, target: str, force_y: int | None
) -> list[CandidateTuple]:
    """The target's admissible tuples at block size k, r <= max_r.

    For each (y, t) the sweep over lambda1 solves a*r = c
    (equalities.r_coefficients) for r, only for the lambda1 that can give
    an integral r and t*lambda1/y (_k3_lambda1s, and the multiples of
    _integral_c3_step among _k30_lambda1s).  The K3 range ends at the last
    r <= max_r.  A K30 sweep, still ascending, ends at the first lambda1
    with c/a > max_r, because c/a grows strictly with lambda1 when a > 0:

        c/a = 2 + (k-y)(t*lambda1 - y)(lambda1 - 1)/(lambda1*y*(t-y)),
        whose step from lambda1 to lambda1 + 1 is
        (k-y)/(y(t-y)) * (t - y/(lambda1(lambda1 + 1))) > 0 for t > y.

    a = 0 only happens for y = 1 (K3) or t = y = 1 (K30); then every r
    fits or none does.  y = 1 admits only lambda1 = 1
    (admissibility_failures), so that is the only lambda1 tried there.
    """
    needed = TARGET_NEEDS[target]
    solved_from = needed[0]
    out = []
    y_range = range(2, k - 1) if force_y is None else (force_y,)
    for y in y_range:
        divisors = _k30_lambda1s(k, y, max_r) if solved_from == "K30" else ()
        for t in range(y + 1 if y > 1 else y, min(k, max_r)):
            if y == 1:
                lambda1s = (1,)
            elif solved_from == "K3":
                lambda1s = _k3_lambda1s(k, t, y, max_r)
            else:
                q = _integral_c3_step(t, y)
                lambda1s = [d for d in divisors if d % q == 0]
            for lambda1 in lambda1s:
                r_min = max(4, lambda1 + 1, t + 1)
                a, c = r_coefficients(solved_from, k, lambda1, t, y)
                if a == 0:
                    solved = range(r_min, max_r + 1) if c == 0 else ()
                elif c > max_r * a:
                    break  # every larger lambda1 solves a larger r
                else:
                    r, rem = divmod(c, a)
                    solved = (r,) if rem == 0 and r >= r_min else ()
                for r in solved:
                    if admissibility_failures(r, k, lambda1, t, y):
                        continue
                    sat = satisfied_equalities(r, k, lambda1, t, y)
                    if solved_from not in sat:
                        raise ConsistencyError(
                            f"r = {r} solved from {solved_from} misses it at {(r, k, lambda1, t, y)}"
                        )
                    if not all(label in sat for label in needed):
                        continue
                    deltas = deltas_from_arrays(r, k, lambda1, t, y)
                    for label in EQUALITY_LABELS:
                        if (deltas[label] == 0) != (label in sat):
                            raise ConsistencyError(
                                f"{label} equality/Delta disagreement at {(r, k, lambda1, t, y)}"
                            )
                    v_num, b_num, den = derived_sizes(r, k, lambda1, t)
                    out.append(CandidateTuple(r, k, lambda1, t, y, v_num // den, b_num // den, sat))
    out.sort(key=CandidateTuple.sort_key)
    return out


def enumerate_candidates(
    max_r: int,
    max_k: int,
    target: str,
    *,
    force_y: int | None = None,
) -> list[CandidateTuple]:
    """All admissible tuples with r <= max_r, k <= max_k meeting the target
    equalities, in (k, r, lambda1, y, t) lexicographic order.

    r is solved from the target's first equality (K3 or K30) for each
    (y, t, lambda1), and each lambda1 sweep ends at the first r above
    max_r.  ``force_y`` restricts the search to one y >= 1
    (y = 1 gives the out-of-problem diagnostic mode).  The result is a pure
    function of (bounds, target, force_y).  An admissible solved r that
    misses its equality, and an emitted tuple whose equalities disagree
    with deltas_from_arrays, raise ConsistencyError.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    if max_r < 4 or max_k < 4:
        raise BoundsTooSmallError("y > 1 forces k >= 4 and r >= 4; raise the bounds")
    if force_y is not None and force_y < 1:
        raise BoundsTooSmallError(f"force_y = {force_y}; y must be at least 1")
    return [c for k in range(4, max_k + 1) for c in _candidates_for_k(k, max_r, target, force_y)]


CSV_HEADER = "r,k,lambda1,t,y,v,b,targets_satisfied,existence=unresolved"


def candidates_csv(candidates: list[CandidateTuple]) -> str:
    """Deterministic CSV rendering, one row per tuple."""
    lines = [CSV_HEADER]
    for c in candidates:
        sat = "+".join(label for label in EQUALITY_LABELS if label in c.satisfied)
        lines.append(
            f"{c.r},{c.k},{c.lambda1},{c.t},{c.y},{c.v},{c.b},{sat},{c.existence}"
        )
    return "\n".join(lines) + "\n"
