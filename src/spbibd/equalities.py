"""The parameter algebra of the correspondence in integers: the design
parameter records, the scope inequalities, Delta_i and p^i_{2,i} as
numerators over the side c_2, the Delta-vanishing equalities K3/K4/K30/K40
of an in-scope design, the target table and the parameter-level
homogeneity flags.  Nothing here needs ``fractions``; the reports print
each rational with fraction_text.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .core import IntersectionArray, NotInScopeError, TARGETS


class SpbibdParams(
    namedtuple("SpbibdParams", "v b r k lambda1 lambda2 s t x y lambda2_realized", defaults=(None, None, True))
):
    """Parameters (v, b, r, k, lambda1, lambda2) of type (s, t), plus the
    block intersection numbers (x, y) when the design is quasi-symmetric.

    ``lambda2_realized`` is False when every point pair has the same
    concurrence; lambda2 is then reported as 0 by convention.

    Fields: ``v``, ``b``, ``r``, ``k``, ``lambda1``, ``lambda2``, ``s``,
    ``t`` (int), ``x`` and ``y`` (int | None, default None),
    ``lambda2_realized`` (bool, default True).
    """

    __slots__ = ()

    @property
    def two_design_degenerate(self) -> bool:
        """t = k means every pair of points is in lambda1 blocks (a 2-design)."""
        return self.t == self.k

    @property
    def in_scope(self) -> bool:
        """Quasi-symmetric with lambda2 = 0, s = k-1, x = 0, y > 0, 0 < t < k;
        and r >= 2, since with y > 0 two blocks share a point."""
        return (
            self.lambda2 == 0
            and self.s == self.k - 1
            and self.x == 0
            and self.y is not None
            and self.y > 0
            and 0 < self.t < self.k
            and self.r >= 2
        )

    @property
    def is_partial_geometry(self) -> bool:
        return self.in_scope and self.lambda1 == 1 and self.y == 1

    @property
    def is_generalized_quadrangle(self) -> bool:
        return self.is_partial_geometry and self.t == 1


class ScopeInequality(namedtuple("ScopeInequality", "name test detail")):
    """One inequality that an in-scope design satisfies: its report name,
    an exact integer test over (r, k, lambda1, t, y) for y >= 1, and its
    report detail, a ``str.format`` template over r, k, lambda1, t, y and
    c3 = t*lambda1/y.

    Fields: ``name`` (str), ``test`` (Callable[[int, int, int, int, int],
    bool]), ``detail`` (str).
    """

    __slots__ = ()


# The one home of the scope inequalities: design renders them as the
# analyze-design checklist and search filters tuples by them.  The tests
# compare t*lambda1/y by cross-multiplying with y > 0, so they stay in
# integers.
SCOPE_INEQUALITIES = (
    ScopeInequality("y <= t", lambda r, k, lambda1, t, y: y <= t, "{y} <= {t}"),
    ScopeInequality("t < k", lambda r, k, lambda1, t, y: t < k, "{t} < {k}"),
    ScopeInequality("t < r", lambda r, k, lambda1, t, y: t < r, "{t} < {r}"),
    ScopeInequality(
        "t*lambda1/y integral", lambda r, k, lambda1, t, y: (t * lambda1) % y == 0, "t*lambda1/y = {c3}"
    ),
    # for y > 1 only: the incidence graph's arrays force these as well
    ScopeInequality("t > y", lambda r, k, lambda1, t, y: t > y, "{t} > {y}"),
    ScopeInequality(
        "lambda1 < t*lambda1/y", lambda r, k, lambda1, t, y: lambda1 * y < t * lambda1, "{lambda1} < {c3}"
    ),
    ScopeInequality("t*lambda1/y < r", lambda r, k, lambda1, t, y: t * lambda1 < r * y, "{c3} < {r}"),
    ScopeInequality("k >= 4", lambda r, k, lambda1, t, y: k >= 4, "k = {k}"),
    ScopeInequality("r >= 4", lambda r, k, lambda1, t, y: r >= 4, "r = {r}"),
)


def fraction_text(num: int, den: int) -> str:
    """num/den (den > 0) as ``str(Fraction(num, den))`` prints it, "n/d" in
    lowest terms or "n": the reports' one renderer of a rational."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}" if den > g else str(num // g)


def scope_inequalities(y: int) -> tuple[ScopeInequality, ...]:
    """The rows that apply at y >= 1: the first four for y = 1, all nine
    for y > 1."""
    return SCOPE_INEQUALITIES if y > 1 else SCOPE_INEQUALITIES[:4]


def p2ii_numerator(side_arr: IntersectionArray, other_arr: IntersectionArray, i: int) -> int:
    """p^i_{2,i} times the side c_2, for 2 <= i <= D - 1:

        even i: b_i*(c_{i+1} - 1) + c_i*(b_{i-1} - 1)
        odd  i: same with the other class's array.
    """
    arr = side_arr if i % 2 == 0 else other_arr
    return arr.b_at(i) * (arr.c_at(i + 1) - 1) + arr.c_at(i) * (arr.b_at(i - 1) - 1)


def delta_numerator(side_arr: IntersectionArray, other_arr: IntersectionArray, i: int) -> int:
    """Delta_i of the side class times the side c_2, for
    1 <= i <= min(D - 1, D' - 1), where

        even i: Delta_i = (b_{i-1} - 1)*(c_{i+1} - 1) - p^i_{2,i} * (c'_2 - 1)
        odd  i: Delta_i = (b'_{i-1} - 1)*(c'_{i+1} - 1) - p^i_{2,i} * (c'_2 - 1)

    and p^1_{2,1} = b_1 by definition.  c_2 > 0, so it is zero exactly
    when Delta_i is.
    """
    c2 = side_arr.c[2]
    num = side_arr.b[1] * c2 if i == 1 else p2ii_numerator(side_arr, other_arr, i)
    arr = side_arr if i % 2 == 0 else other_arr
    lead = (arr.b_at(i - 1) - 1) * (arr.c_at(i + 1) - 1)
    return lead * c2 - num * (other_arr.c_at(2) - 1)


# K3 <=> Delta_2(P) = 0, K4 <=> Delta_3(P) = 0, K30 <=> Delta_2(B) = 0,
# K40 <=> Delta_3(B) = 0, for P the point class and B the block class of
# the incidence graph of an in-scope design.
EQUALITY_LABELS = ("K3", "K4", "K30", "K40")

# The equalities each of core.TARGETS needs, for every y >= 1: the
# search solves r from the first, parameter_homogeneity sets one flag each.
TARGET_NEEDS = dict(zip(TARGETS, (("K3",), ("K3", "K4"), ("K30",), ("K30", "K40"))))


def k3_terms(k: int, t: int, y: int) -> tuple[int, int]:
    """(a, m) with K3 holding exactly when a*r == lambda1*m:
    a = (y-1)(t-1) and m = (k-2)(t-y) + a."""
    a = (y - 1) * (t - 1)
    return a, (k - 2) * (t - y) + a


def r_coefficients(label: str, k: int, lambda1: int, t: int, y: int) -> tuple[int, int]:
    """(a, c) such that the equality ``label``, K3 or K30, holds exactly
    when a*r == c; both are linear in r:

        K3:  (y-1)(t-1) * r = lambda1*((k-2)(t-y) + (y-1)(t-1))
        K30: lambda1*y*(t-y) * r = (k-y)(t*lambda1-y)(lambda1-1) + 2*lambda1*y*(t-y)
    """
    if label == "K3":
        a, m = k3_terms(k, t, y)
        return a, lambda1 * m
    if label == "K30":
        a = lambda1 * y * (t - y)
        return a, (k - y) * (t * lambda1 - y) * (lambda1 - 1) + 2 * a
    raise ValueError(f"{label} is not one of the equalities linear in r (K3, K30)")


def satisfied_equalities(r: int, k: int, lambda1: int, t: int, y: int) -> frozenset[str]:
    """Which of the four Delta-vanishing equalities hold for the design
    parameters (r, k, lambda1, t, y), y >= 1.

    Each is one Delta scalar of expected_incidence_arrays(r, k, lambda1, t,
    y) set to zero, factored and cleared of denominators, so every test is
    an integer equality even where t*lambda1/y is not integral.  K3 and
    K30 are tested in their r_coefficients form.
    """
    out = set()
    for label in ("K3", "K30"):
        a, c = r_coefficients(label, k, lambda1, t, y)
        if a * r == c:
            out.add(label)
    if (r * (k - 1) - t * lambda1) * (y - 1) == lambda1 * (k - y - 1) * (k - 1):
        out.add("K4")
    if ((k - t) * (r - 1) + t * (r - lambda1 - 1)) * (lambda1 - 1) == y * (r - 1) * (
        r - lambda1 - 1
    ):
        out.add("K40")
    return frozenset(out)


class ParameterHomogeneity(namedtuple("ParameterHomogeneity", "almost_2p full_2p almost_2b full_2b notes")):
    """Parameter-level homogeneity of a design's incidence graph, with
    respect to the point class (2p) and the block class (2b).

    Fields: ``almost_2p``, ``full_2p``, ``almost_2b``, ``full_2b`` (bool),
    ``notes`` (tuple[str, ...]).
    """

    __slots__ = ()


def parameter_homogeneity(p: SpbibdParams) -> ParameterHomogeneity:
    """Evaluate the (almost) 2-homogeneity criteria from the design
    parameters alone: each flag holds iff the equalities that TARGET_NEEDS
    lists for its target are in satisfied_equalities, for every y >= 1.

    At y = 1 (so lambda1 = 1) the equalities reduce to the known cases:
    K3 iff (k-2)(t-1) = 0, K4 iff k = 2, K30 iff (t-1)(r-2) = 0 and K40
    iff r = 2 (two blocks meet, so r >= 2).  Block size 2 (replication 2) gives the subdivision graph
    of a complete bipartite graph, fully homogeneous for that class;
    otherwise the class is almost homogeneous iff t = 1 (a generalized
    quadrangle) and never fully.  The notes name these cases.
    """
    if not p.in_scope:
        raise NotInScopeError(
            "needs a quasi-symmetric design with lambda2 = 0, s = k-1, x = 0, y > 0, 0 < t < k"
        )
    r, k, lambda1, t, y = p.r, p.k, p.lambda1, p.t, p.y
    notes = []
    if y == 1:
        if lambda1 != 1:
            raise NotInScopeError(
                f"x = 0, y = 1 forces lambda1 = 1 (two blocks through a pair "
                f"would meet twice); got lambda1 = {lambda1}"
            )
        if k == 2:
            notes.append(f"k = 2: incidence graph is the subdivision graph of K_{{{r},{r}}}")
        if r == 2:
            notes.append(f"r = 2: incidence graph is the subdivision graph of K_{{{k},{k}}}")
        if t == 1:
            notes.append("t = 1: the design is a generalized quadrangle")
    else:
        notes.append("y > 1: parameter-level verdicts only, existence of a design is a separate question")
    sat = satisfied_equalities(r, k, lambda1, t, y)
    flags = (all(label in sat for label in TARGET_NEEDS[target]) for target in TARGETS)
    return ParameterHomogeneity(*flags, tuple(notes))
