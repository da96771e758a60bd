"""Bounded exhaustive enumeration of admissible parameter tuples
(r, k, lambda1, t, y) with y > 1 whose incidence graph would be (almost)
2-homogeneous with respect to the point or block class.

Emitting a tuple never asserts that a design with these parameters
exists; every row carries an explicit "unresolved" existence marker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import ConsistencyError, SpbibdParams, ToolkitError
from .correspondence import derived_sizes, expected_incidence_arrays
from .design import check_parameter_constraints
from .homogeneity import EQUALITY_LABELS, delta_value, satisfied_equalities

TARGET_ALMOST_P = "almost-p"
TARGET_FULL_P = "full-p"
TARGET_ALMOST_B = "almost-b"
TARGET_FULL_B = "full-b"
TARGETS = (TARGET_ALMOST_P, TARGET_FULL_P, TARGET_ALMOST_B, TARGET_FULL_B)

# Which Delta-vanishing equalities (homogeneity.EQUALITY_LABELS) a target
# demands.
_TARGET_NEEDS = {
    TARGET_ALMOST_P: ("K3",),
    TARGET_FULL_P: ("K3", "K4"),
    TARGET_ALMOST_B: ("K30",),
    TARGET_FULL_B: ("K30", "K40"),
}


class BoundsTooSmallError(ToolkitError):
    pass


@dataclass(frozen=True)
class CandidateTuple:
    r: int
    k: int
    lambda1: int
    t: int
    y: int
    v: int
    b: int
    satisfied: frozenset[str]
    existence: str = "unresolved"

    def sort_key(self) -> tuple[int, int, int, int, int]:
        return (self.k, self.r, self.lambda1, self.y, self.t)

    def as_spbibd_params(self) -> SpbibdParams:
        return SpbibdParams(
            v=self.v,
            b=self.b,
            r=self.r,
            k=self.k,
            lambda1=self.lambda1,
            lambda2=0,
            s=self.k - 1,
            t=self.t,
            x=0,
            y=self.y,
        )


def admissibility_failures(r: int, k: int, lambda1: int, t: int, y: int) -> list[str]:
    """Reasons a tuple fails the scope and counting filters (empty when
    admissible).  Divisibility checks come before everything derived.

    y = 1 is accepted for diagnostic sweeps; the extra inequalities of the
    y > 1 case are then skipped, but lambda1 = 1 is forced.
    """
    reasons = []
    if y < 1:
        reasons.append("needs y >= 1")
    elif y == 1:
        if lambda1 != 1:
            reasons.append("y = 1 forces lambda1 = 1")
        if not (y <= t < k):
            reasons.append("needs y <= t < k")
    else:
        if not (2 <= y < t < k):
            reasons.append("needs y < t < k when y > 1")
        if k < 4 or r < 4:
            reasons.append("y > 1 needs k >= 4 and r >= 4")
    if not t < r:
        reasons.append("needs t < r")
    if lambda1 < 1:
        reasons.append("needs lambda1 >= 1")
    if reasons:
        return reasons
    if (t * lambda1) % y != 0:
        reasons.append("t*lambda1/y not integral")
        return reasons
    c3p = (t * lambda1) // y
    if y > 1 and not lambda1 < c3p:
        reasons.append("needs lambda1 < t*lambda1/y")
    if not c3p < r:
        reasons.append("needs t*lambda1/y < r")
    v_num, b_num, den = derived_sizes(r, k, lambda1, t)
    if v_num % den:
        reasons.append(f"v = {v_num}/{den} not integral")
    if b_num % den:
        reasons.append(f"b = {b_num}/{den} not integral")
    if not reasons and v_num * r != b_num * k:
        raise ConsistencyError(f"flag double counting does not balance at {(r, k, lambda1, t, y)}")
    return reasons


def deltas_from_arrays(r: int, k: int, lambda1: int, t: int, y: int) -> dict[str, Fraction]:
    """Independent evaluation of the same four scalars through the
    predicted intersection arrays and the Delta definition."""
    point, block = expected_incidence_arrays(r, k, lambda1, t, y)
    return {
        "K3": delta_value(point, block, 2),
        "K4": delta_value(point, block, 3),
        "K30": delta_value(block, point, 2),
        "K40": delta_value(block, point, 3),
    }


def _candidates_for_k(
    k: int, max_r: int, target: str, force_y: int | None
) -> list[CandidateTuple]:
    needed = _TARGET_NEEDS[target]
    out = []
    for r in range(4, max_r + 1):
        for lambda1 in range(1, r):
            y_range = range(2, k - 1) if force_y is None else (force_y,)
            for y in y_range:
                t_start = y + 1 if y > 1 else y
                for t in range(t_start, min(k, r)):
                    if admissibility_failures(r, k, lambda1, t, y):
                        continue
                    sat = satisfied_equalities(r, k, lambda1, t, y)
                    if not all(label in sat for label in needed):
                        continue
                    deltas = deltas_from_arrays(r, k, lambda1, t, y)
                    for label in EQUALITY_LABELS:
                        if (deltas[label] == 0) != (label in sat):
                            raise ConsistencyError(
                                f"{label} equality/Delta disagreement at {(r, k, lambda1, t, y)}"
                            )
                    v_num, b_num, den = derived_sizes(r, k, lambda1, t)
                    cand = CandidateTuple(r, k, lambda1, t, y, v_num // den, b_num // den, sat)
                    if not check_parameter_constraints(cand.as_spbibd_params()).all_pass:
                        raise ConsistencyError(
                            f"admissible tuple {(r, k, lambda1, t, y)} fails the parameter constraints"
                        )
                    out.append(cand)
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

    ``force_y`` restricts the sweep to one y >= 1 (y = 1 gives the
    out-of-problem diagnostic mode).  The result is a pure function of
    (bounds, target, force_y).  Every emitted tuple is re-checked against
    deltas_from_arrays and check_parameter_constraints; a disagreement
    raises ConsistencyError.
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
