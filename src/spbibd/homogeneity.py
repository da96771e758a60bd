"""(Almost) 2-homogeneity of bipartite graphs with respect to one color
class: closed-formula evaluation through the scalars Delta_i, brute-force
triple counting, and the report that sets them side by side.

Each scalar is its ``equalities`` integer numerator over the side c_2,
so zero tests are exact; only delta_value loads fractions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from . import core, graph
from .core import (
    BipartiteGraph,
    ConsistencyError,
    IntersectionArray,
    SIDES,
    ToolkitError,
    bits,
    nearer_rows,
    plane_counts,
    stack_rows,
)
# parameter_homogeneity is unused here: perfbench/spans.TRACED patches it in this module
from .equalities import delta_numerator, fraction_text, p2ii_numerator, parameter_homogeneity

VERDICT_TWO_HOMOGENEOUS = "2-homogeneous"
VERDICT_ALMOST_ONLY = "almost-only"
VERDICT_NEITHER = "neither"


class IndexOutOfRangeError(ToolkitError):
    pass


class HypothesisViolatedError(ToolkitError):
    """The closed-formula path needs k' >= 3 and D >= 3."""


class EccentricityNotUniformError(ToolkitError):
    """The homogeneity definition presumes one eccentricity per class."""


def _verdict(constant: Callable[[int], bool], full_top: int, almost_top: int) -> str:
    """The definition both routes share: 2-homogeneous iff every level i in
    2..full_top is constant (``constant(i)``), almost iff every level in
    2..almost_top is."""
    if all(constant(i) for i in range(2, full_top + 1)):
        return VERDICT_TWO_HOMOGENEOUS
    if all(constant(i) for i in range(2, almost_top + 1)):
        return VERDICT_ALMOST_ONLY
    return VERDICT_NEITHER


def delta_value(side_arr: IntersectionArray, other_arr: IntersectionArray, i: int) -> Fraction:
    """The scalar Delta_i of the side class, for 1 <= i <= min(D - 1, D' - 1):
    the one Fraction equalities.delta_numerator / c_2, with the formula
    there.  At i = 1 the scalar is informational only; verdicts start at
    i = 2.
    """
    from fractions import Fraction
    bound = min(side_arr.eccentricity - 1, other_arr.eccentricity - 1)
    if i < 1 or i > bound:
        raise IndexOutOfRangeError(f"i = {i} outside 1..{bound}")
    return Fraction(delta_numerator(side_arr, other_arr, i), side_arr.c[2])


class FormulaResult(namedtuple("FormulaResult", "p2ii delta c2 verdict")):
    """The closed-formula view of one class: the integer numerators over c2
    of p^i_{2,i} (levels 2..D-1) and Delta_i (1..min(D-1, D'-1)), and the verdict.

    Fields: ``p2ii`` and ``delta`` (dict[int, int]), ``c2`` (int),
    ``verdict`` (str).
    """

    __slots__ = ()


def homogeneous_by_formula(side_arr: IntersectionArray, other_arr: IntersectionArray) -> FormulaResult:
    """The formula route: p^i_{2,i}, Delta_i and the verdict from the Delta
    scalars alone, 2-homogeneous iff Delta_i = 0 for 2 <= i <= min(D-1,
    D'-1), almost iff Delta_i = 0 for 2 <= i <= D-2.

    Only valid for k' >= 3 and D >= 3; graphs with k' = 2 must use the
    brute-force path.
    """
    d = side_arr.eccentricity
    k_prime = other_arr.valency
    if k_prime < 3 or d < 3:
        raise HypothesisViolatedError(f"needs k' >= 3 and D >= 3, got k' = {k_prime}, D = {d}")
    top = min(d - 1, other_arr.eccentricity - 1)
    deltas = {i: delta_numerator(side_arr, other_arr, i) for i in range(1, top + 1)}
    return FormulaResult(
        p2ii={i: p2ii_numerator(side_arr, other_arr, i) for i in range(2, d)},
        delta=deltas,
        c2=side_arr.c[2],
        verdict=_verdict(lambda i: deltas[i] == 0, top, d - 2),
    )


class BruteForceResult(namedtuple("BruteForceResult", "side eccentricity level_counts verdict")):
    """Observed values of |Gamma(x) n Gamma(y) n Gamma_{i-1}(z)| per level
    i, over all x in the class, y in Gamma_2(x), z in Gamma_{i,i}(x, y).

    Fields: ``side`` (str), ``eccentricity`` (int), ``level_counts``
    (dict[int, tuple[int, ...]]), ``verdict`` (str).
    """

    __slots__ = ()


def homogeneous_by_bruteforce(g: BipartiteGraph, side: str) -> BruteForceResult:
    """Decide (almost) 2-homogeneity with respect to ``side`` by exhaustive
    triple counting: for x in the class, y in Gamma_2(x) above x and z in
    Gamma_{i,i}(x, y), 1 <= i <= D-1, the w in W = Gamma(x) n Gamma(y)
    with z in Gamma_{i-1}(w).

    w is at distance i - 1 or i + 1 from z, so w counts z exactly when it
    is one step closer to z than x is, whatever y is: z's count depends
    only on (W, z).  So the y of one x are grouped by W, each group is one
    row (x, W) of :func:`core.nearer_rows`, the count that the class scan
    runs on its rows (y, Gamma(y)), and its columns are the join of the
    group's equidistant sets (the union over i of Gamma_{i,i}(x, y)).
    x's layers are disjoint, so the join meets Gamma_i(x) in the union of
    the group's Gamma_{i,i}(x, y): one ``plane_counts`` over the whole
    matrix, masked by each row's Gamma_i(x), sees the z and counts that
    one pass per (y, i) would.  d(y, z) - d(x, z) is -2, 0 or 2, so z is
    equidistant iff it is in both or neither of R[x] and R[y]
    (``BipartiteGraph.residues``).

    The rows are built and counted one run of consecutive x at a time, a
    run taking x until each of its matrices (about bit_length(max |W|) + 8
    are live) reaches 1/1024 of ``core.MAX_LAYER_BYTES``.  A row's counts
    depend only on its x, W and join, so each level's count set is the union
    of the runs'.

    A level with no eligible z is vacuously constant.  2-homogeneous needs
    levels 2..D-1 constant, almost needs levels 2..D-2; level 1 always is,
    because its z are the common neighbours and each counts only itself.
    """
    vertices = g.class_vertices(side)
    layers = g.layers
    eccs = {len(layers[v]) - 1 for v in vertices}
    if len(eccs) != 1:
        raise EccentricityNotUniformError(f"class {side} has mixed eccentricities {sorted(eccs)}")
    d = eccs.pop()
    masks = g.adjacency_masks
    r, _ = g.residues
    size = (g.num_vertices + 7) // 8
    seen: dict[int, set[int]] = {i: set() for i in range(1, d)}
    run = []  # (x, W, the join); ~ gives negative ints, cut back by each level
    # below eccentricity 2 there is no Gamma_2(x), so no triple to count
    for x in vertices if d >= 2 else ():
        joined: dict[int, int] = {}
        for y in bits(layers[x][2] >> (x + 1) << (x + 1)):
            common = masks[x] & masks[y]
            joined[common] = joined.get(common, 0) | ~(r[x] ^ r[y])
        run += [(x, bits(common), same) for common, same in joined.items()]
        if len(run) * size < core.MAX_LAYER_BYTES >> 10 and x != vertices[-1]:
            continue
        run.sort(key=lambda row: len(row[1]), reverse=True)
        planes = nearer_rows(g, [(v, ws) for v, ws, _ in run])
        for i in seen:
            level = stack_rows([(same & layers[v][i]).to_bytes(size, "little") for v, _, same in run])
            seen[i].update(count for count, _ in plane_counts(planes, level))
        run = []
    counts = {i: tuple(sorted(seen[i])) for i in seen}
    return BruteForceResult(side, d, counts, _verdict(lambda i: len(counts[i]) <= 1, d - 1, d - 2))


class HomogeneityReport(
    namedtuple(
        "HomogeneityReport", "side verdict bruteforce_counts p2ii delta c2 formula_verdict formula_skipped"
    )
):
    """Combined view: brute-force verdict (always computed, authoritative)
    plus the formula path when the graph is distance-regularized on both
    sides and satisfies k' >= 3, D >= 3 (c2 is None when it is skipped).

    Fields: ``side`` and ``verdict`` (str), ``bruteforce_counts``
    (dict[int, tuple[int, ...]]), ``p2ii`` and ``delta`` (dict[int, int]),
    ``c2`` (int | None), ``formula_verdict`` and ``formula_skipped``
    (str | None).
    """

    __slots__ = ()


def homogeneity_report(g: BipartiteGraph, side: str) -> HomogeneityReport:
    brute = homogeneous_by_bruteforce(g, side)
    cls = graph.classify(g)
    side_arr = cls.array_for(side)
    other_arr = cls.array_for(SIDES[1 - SIDES.index(side)])
    if side_arr is None or other_arr is None:
        skipped = "graph is not distance-regularized on both sides"
    else:
        try:
            formula = homogeneous_by_formula(side_arr, other_arr)
        except HypothesisViolatedError as exc:
            skipped = str(exc)
        else:
            # the two routes are provably equivalent under these hypotheses
            if formula.verdict != brute.verdict:
                raise ConsistencyError(f"formula verdict {formula.verdict} != brute force {brute.verdict}")
            return HomogeneityReport(side, brute.verdict, brute.level_counts, *formula, None)
    return HomogeneityReport(side, brute.verdict, brute.level_counts, {}, {}, None, None, skipped)


def homogeneity_report_doc(g: BipartiteGraph, side: str) -> dict:
    """The check-homogeneous report, each rational in lowest terms."""
    try:
        rep = homogeneity_report(g, side)
    except EccentricityNotUniformError as exc:
        return {"schema": "spbibd.check-homogeneous/1", "side": side, "not_in_scope": str(exc)}
    return {
        "schema": "spbibd.check-homogeneous/1",
        "side": side,
        "verdict": rep.verdict,
        "bruteforce_counts": {str(i): list(v) for i, v in rep.bruteforce_counts.items()},
        "p2ii": {str(i): fraction_text(v, rep.c2) for i, v in rep.p2ii.items()},
        "delta": {str(i): fraction_text(v, rep.c2) for i, v in rep.delta.items()},
        "formula_verdict": rep.formula_verdict,
        "formula_skipped": rep.formula_skipped,
    }
