"""SPBIBD detection, quasi-symmetry, duality, the parameter constraints
that every in-scope design must satisfy, and the analyze-design report
that sets them out.

All counts are exact integer counts over all pairs / flags; nothing is
sampled.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, combinations

from .core import (
    ConsistencyError,
    IncidenceStructure,
    NotInScopeError,
    ToolkitError,
    covered_pairs,
    plain,
    validate_structure,
)
from .equalities import SpbibdParams, fraction_text, parameter_homogeneity, scope_inequalities


class FewerThanTwoBlocksError(ToolkitError):
    pass


class NotUniform(namedtuple("NotUniform", "what witnesses values")):
    """Witness that replication or block size is not constant.

    Fields: ``what`` (str, "block-size" or "replication"), ``witnesses``
    (tuple[int, int], two block indices / two point indices), ``values``
    (tuple[int, int]).
    """

    __slots__ = ()


def replication_and_block_size(d: IncidenceStructure) -> tuple[int, int] | NotUniform:
    """(r, k) when every point lies in r blocks and every block has k
    points; otherwise a witness pair."""
    k = len(d.blocks[0])
    for j, blk in enumerate(d.blocks):
        if len(blk) != k:
            return NotUniform("block-size", (0, j), (k, len(blk)))
    through = d.point_blocks
    r = len(through.get(0, ()))
    # the first point whose degree is not r; an uncovered point differs
    # only when point 0 is covered, and the first one is met within
    # len(through) + 1 steps
    differing = [p for p, js in through.items() if len(js) != r]
    uncovered = next((p for p in range(d.num_points) if p not in through), None)
    if r and uncovered is not None:
        differing.append(uncovered)
    if differing:
        p = min(differing)
        return NotUniform("replication", (0, p), (r, len(through.get(p, ()))))
    return r, k


class QuasiSymmetryInfo(namedtuple("QuasiSymmetryInfo", "sizes x y proper")):
    """Distinct block intersection sizes and the (x, y) pair when at most
    two sizes are realized.  ``proper`` means exactly two.

    Fields: ``sizes`` (tuple[int, ...]), ``x`` and ``y`` (int | None),
    ``proper`` (bool).
    """

    __slots__ = ()


def block_intersections(d: IncidenceStructure) -> QuasiSymmetryInfo:
    """Exact set of |B n B'| over distinct block pairs, read from the
    cached IncidenceStructure.block_meets: a pair of blocks through no
    common point meets in 0."""
    if d.num_blocks < 2:
        raise FewerThanTwoBlocksError("need at least two blocks")
    meets = d.block_meets
    sizes = set(meets.values())
    if len(meets) < d.num_blocks * (d.num_blocks - 1) // 2:
        sizes.add(0)
    ordered = tuple(sorted(sizes))
    if len(ordered) == 2:
        return QuasiSymmetryInfo(ordered, ordered[0], ordered[1], True)
    if len(ordered) == 1:
        return QuasiSymmetryInfo(ordered, ordered[0], None, False)
    return QuasiSymmetryInfo(ordered, None, None, False)


class NotSpbibd(namedtuple("NotSpbibd", "reason detail")):
    """Structured rejection: which condition failed and a witness.

    Fields: ``reason`` and ``detail`` (str).
    """

    __slots__ = ()


def pair_concurrences(d: IncidenceStructure) -> dict[tuple[int, int], int]:
    """Number of blocks containing each pair of distinct points that some
    block covers; an absent pair is in no block.  O(sum of k^2), not
    O(v^2)."""
    return covered_pairs(d.blocks)


def spbibd_type(d: IncidenceStructure) -> SpbibdParams | NotSpbibd:
    """Full SPBIBD parameter extraction, or a structured rejection.

    Requires a simple structure with constant r and k, at most two distinct
    pair concurrences {lambda1 > lambda2}, constant s over flags and
    constant t over non-flags.  Quasi-symmetry numbers (x, y) are attached
    when at least two blocks exist.

    s and t are counted per block B: one Counter over the lambda1-mates of
    B's points gives |mates(p) n B| for every point p, those on B giving s
    and those off B giving t (0 where the Counter has no entry), so work
    and memory grow with the lambda1-pairs, not with v.  Every flag, in
    block-then-point order, is checked before any non-flag.
    """
    if not d.simple:
        return NotSpbibd("repeated-blocks", "structure is not simple")
    rk = replication_and_block_size(d)
    if isinstance(rk, NotUniform):
        return NotSpbibd("not-uniform", f"{rk.what} differs: {rk.values} at {rk.witnesses}")
    r, k = rk

    conc = pair_concurrences(d)
    # the lexicographically first pair in no block, met within len(conc) + 1
    # steps; concurrence 0 is realized exactly when it exists
    uncovered = next((pair for pair in combinations(range(d.num_points), 2) if pair not in conc), None)
    values = sorted(set(conc.values()) | ({0} if uncovered is not None else set()), reverse=True)
    if len(values) > 2:
        witnesses = {}
        for pair, count in conc.items():
            witnesses.setdefault(count, pair)
            if len(witnesses) > 2:
                break
        if len(witnesses) < 3:
            witnesses[0] = uncovered
        shown = ", ".join(f"{pair} in {count}" for count, pair in sorted(witnesses.items()))
        return NotSpbibd("concurrence", f"more than two pair concurrences realized: {shown}")
    if len(values) == 2:
        lambda1, lambda2 = values
        lambda2_realized = True
    elif len(values) == 1:
        lambda1, lambda2, lambda2_realized = values[0], 0, False
    else:  # single point, no pairs
        lambda1, lambda2, lambda2_realized = 0, 0, False

    # lambda1 = 0 means no pair is covered, so k = 1: every flag sees no
    # other point and every non-flag the one point of its block, unscanned
    s_val, t_val = 0, k
    if lambda1:
        v = d.num_points
        mates: list[list[int]] = [[] for _ in range(v)]
        for (p, q), count in conc.items():
            if count == lambda1:
                mates[p].append(q)
                mates[q].append(p)
        s_val = t_val = None
        nonflag = None  # the first non-flag rejection, reported once every flag has passed
        for j, blk in enumerate(d.blocks):
            seen = Counter(chain.from_iterable(map(mates.__getitem__, blk)))
            for p in blk:
                count = seen.pop(p, 0)
                if s_val is None:
                    s_val = count
                elif count != s_val:
                    return NotSpbibd("flag-count", f"flag ({p}, block {j}) sees {count}, expected {s_val}")
            if nonflag is not None:
                continue
            bs = d.block_sets[j]
            if t_val is None:
                # the first non-flag sets t; with none at all, every pair shares
                # lambda1 blocks, the 2-design degeneracy, reported as t = k
                first = next((p for p in range(v) if p not in bs), None)
                t_val = k if first is None else seen.get(first, 0)
            # a non-flag missing from seen counts 0
            if set(seen.values()) - {t_val} or (t_val and len(seen) + k < v):
                differing = [p for p, count in seen.items() if count != t_val]
                if t_val:
                    # the first non-flag counting 0, met within k + len(seen) + 1 steps
                    differing.append(next((p for p in range(v) if p not in bs and p not in seen), v))
                p = min(differing)
                nonflag = NotSpbibd("nonflag-count", f"non-flag ({p}, block {j}) sees {seen.get(p, 0)}, expected {t_val}")
        if nonflag is not None:
            return nonflag

    x = y = None
    if d.num_blocks >= 2:
        qs = block_intersections(d)
        x, y = qs.x, qs.y

    params = SpbibdParams(
        v=d.num_points,
        b=d.num_blocks,
        r=r,
        k=k,
        lambda1=lambda1,
        lambda2=lambda2,
        s=s_val,
        t=t_val,
        x=x,
        y=y,
        lambda2_realized=lambda2_realized,
    )
    if params.v * params.r != params.b * params.k:
        raise ConsistencyError("v*r == b*k must hold for a uniform structure")
    return params


def dual(d: IncidenceStructure, *, allow_repeated: bool = False) -> IncidenceStructure:
    """Exchange points and blocks.

    The j-th point of the dual is the j-th block of ``d``; the raw dual
    blocks are indexed by the points of ``d`` and then canonicalized, so
    the double dual reproduces ``d`` up to the canonical relabeling
    (see :func:`dual_blocks_raw` for the pre-sort order).
    """
    return validate_structure(d.num_blocks, dual_blocks_raw(d), allow_repeated=allow_repeated)


def dual_blocks_raw(d: IncidenceStructure) -> list[tuple[int, ...]]:
    """Dual blocks in point order: entry p lists the blocks containing p."""
    return [d.point_blocks.get(p, ()) for p in range(d.num_points)]


# name (str), holds (bool), detail (str)
ConstraintCheck = namedtuple("ConstraintCheck", "name holds detail")


class ConstraintReport(namedtuple("ConstraintReport", "checks")):
    """Fields: ``checks`` (tuple[ConstraintCheck, ...])."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks)


def check_parameter_constraints(p: SpbibdParams) -> ConstraintReport:
    """Itemized inequality checks for quasi-symmetric designs with
    lambda2 = 0, type (k-1, t), x = 0, y > 0.

    Checks the rows of equalities.SCOPE_INEQUALITIES that apply at y (four
    for y = 1, nine for y > 1) and renders their details with t*lambda1/y
    in lowest terms (equalities.fraction_text).  Raises NotInScopeError when the
    preconditions themselves fail.
    """
    if p.lambda2 != 0:
        raise NotInScopeError(f"lambda2 = {p.lambda2}, scope needs lambda2 = 0")
    if p.s != p.k - 1:
        raise NotInScopeError(f"type is ({p.s}, {p.t}), scope needs s = k-1 = {p.k - 1}")
    if p.x != 0 or p.y is None or p.y <= 0:
        raise NotInScopeError(f"intersection numbers x = {p.x}, y = {p.y}; scope needs x = 0 and y > 0")

    values = {"r": p.r, "k": p.k, "lambda1": p.lambda1, "t": p.t, "y": p.y}
    c3 = fraction_text(p.t * p.lambda1, p.y)
    return ConstraintReport(
        tuple(
            ConstraintCheck(row.name, row.test(**values), row.detail.format(c3=c3, **values))
            for row in scope_inequalities(p.y)
        )
    )


def analyze_design_report(d: IncidenceStructure) -> dict:
    report: dict[str, object] = {
        "schema": "spbibd.analyze-design/1",
        "counts": {"points": d.num_points, "blocks": d.num_blocks, "simple": d.simple},
    }
    rk = replication_and_block_size(d)
    if isinstance(rk, NotUniform):
        report["uniform"] = {"witness": {"what": rk.what, "indices": list(rk.witnesses), "values": list(rk.values)}}
    else:
        report["uniform"] = {"r": rk[0], "k": rk[1]}
    report["quasi_symmetry"] = plain(block_intersections(d)) if d.num_blocks >= 2 else None

    params = spbibd_type(d)
    if isinstance(params, NotSpbibd):
        report["spbibd"] = {"rejected": params.reason, "detail": params.detail}
        return report | dict.fromkeys(("flags", "constraints", "parameter_homogeneity"))

    report["spbibd"] = plain(params)
    report["flags"] = {
        "two_design_degenerate": params.two_design_degenerate,
        "in_scope": params.in_scope,
        "partial_geometry": params.is_partial_geometry,
        "generalized_quadrangle": params.is_generalized_quadrangle,
    }
    try:
        cons = check_parameter_constraints(params)
        report["constraints"] = {"all_pass": cons.all_pass, **plain(cons)}
    except NotInScopeError as exc:
        report["constraints"] = {"not_in_scope": str(exc)}
    try:
        report["parameter_homogeneity"] = plain(parameter_homogeneity(params))
    except NotInScopeError as exc:
        report["parameter_homogeneity"] = {"not_in_scope": str(exc)}
    return report
