"""The two directions of the design/graph correspondence: incidence graph
construction and design extraction from distance-semiregular graphs with
eccentricity 4, with vertex provenance for the extracted points and blocks.

All derived parameters are exact integers, never rounded.  A derived c_3
that is not an integer is a DerivationError; the sizes and the block
valency that design_from_graph derives from a certified array are
cross-checks, so a disagreement there is a ConsistencyError.
"""

from __future__ import annotations

from collections import namedtuple

from . import graph
from .core import (
    BipartiteGraph,
    ConsistencyError,
    IncidenceStructure,
    IntersectionArray,
    NotConnectedError,
    SIDES,
    ToolkitError,
    build_bipartite,
    validate_structure,
)


class ResultDisconnectedError(ToolkitError):
    pass


class WrongEccentricityError(ToolkitError):
    pass


class NotSemiregularError(ToolkitError):
    pass


class DerivationError(ToolkitError):
    """A derived parameter came out non-integral or inconsistent."""


def incidence_graph(d: IncidenceStructure) -> BipartiteGraph:
    """Bipartite graph on points (vertices 0..v-1) and blocks (vertices
    v..v+b-1), joined by incidence.  The result must be connected."""
    v = d.num_points
    edges = [(p, v + j) for j, blk in enumerate(d.blocks) for p in blk]
    try:
        g = build_bipartite(v + d.num_blocks, edges)
    except NotConnectedError as exc:
        raise ResultDisconnectedError(str(exc)) from exc
    return g


def expected_incidence_arrays(
    r: int, k: int, lambda1: int, t: int, y: int
) -> tuple[IntersectionArray, IntersectionArray]:
    """Predicted (point-side, block-side) intersection arrays of the
    incidence graph of an in-scope quasi-symmetric design:

        point side: c = (0, 1, lambda1, t, r),      b = (r, k-1, r-lambda1, k-t, 0)
        block side: c = (0, 1, y, t*lambda1/y, k),  b = (k, r-1, k-y, r-t*lambda1/y, 0)
    """
    if (t * lambda1) % y != 0:
        raise DerivationError(f"t*lambda1/y = {t * lambda1}/{y} is not an integer")
    c3p = (t * lambda1) // y
    point = IntersectionArray(
        b=(r, k - 1, r - lambda1, k - t, 0), c=(0, 1, lambda1, t, r)
    )
    block = IntersectionArray(b=(k, r - 1, k - y, r - c3p, 0), c=(0, 1, y, c3p, k))
    return point, block


def derived_sizes(r: int, k: int, lambda1: int, t: int) -> tuple[int, int, int]:
    """Point and block counts of an in-scope design with replication r,
    block size k, concurrence lambda1 and type (k-1, t), as numerators over
    one denominator: (v*den, b*den, den) with den = lambda1*t, where

        v = 1 + r(k-1)/lambda1 + (k-1)(r-lambda1)(k-t)/(lambda1*t)
        b = r + r(k-1)(r-lambda1)/(lambda1*t)

    are the class sizes read off the point-side array of
    expected_incidence_arrays.  The sizes are integers only when den
    divides both numerators.
    """
    den = lambda1 * t
    v_num = den + r * (k - 1) * t + (k - 1) * (r - lambda1) * (k - t)
    b_num = r * den + r * (k - 1) * (r - lambda1)
    return v_num, b_num, den


class DerivedDesignParams(namedtuple("DerivedDesignParams", "v b r k lambda1 s t y")):
    """Design parameters read off a graph whose chosen class is
    distance-regularized with eccentricity 4 and common array (b_i, c_i):

        r = b0,  k = b1 + 1,  lambda1 = c2,  s = b1,  t = c3

    and (v, b) = derived_sizes(r, k, lambda1, t).  That equals the array
    form v = 1 + b0*b1/c2 + b0*b1*b2*b3/(c2*c3*c4), b = b0 + b0*b1*b2/(c2*c3)
    because one common array in a connected bipartite graph forces
    b2 = b0 - c2, b3 = b1 + 1 - c3 and c4 = b0.

    ``y`` is the other class's c_2 when that class is also regularized.

    Fields: ``v``, ``b``, ``r``, ``k``, ``lambda1``, ``s``, ``t`` (int),
    ``y`` (int | None).
    """

    __slots__ = ()


class GraphDesignExtraction(namedtuple("GraphDesignExtraction", "structure params point_vertices block_vertices")):
    """Design extracted from a graph, with vertex provenance: point i of
    ``structure`` is graph vertex ``point_vertices[i]``, block j is graph
    vertex ``block_vertices[j]``.

    Fields: ``structure`` (IncidenceStructure), ``params``
    (DerivedDesignParams), ``point_vertices`` and ``block_vertices``
    (tuple[int, ...]).
    """

    __slots__ = ()


def design_from_graph(g: BipartiteGraph, points: str) -> GraphDesignExtraction:
    """Read a graph as the incidence graph of a design whose points are the
    chosen color class ("Y" or "Yprime").

    The chosen class must be distance-regularized with one common array
    and eccentricity 4 (:func:`graph.classify`); blocks are the neighborhoods
    of the other class, parameters come from the array (DerivedDesignParams).
    """
    point_vertices = g.class_vertices(points)
    other = SIDES[1 - SIDES.index(points)]
    block_vertices_raw = g.class_vertices(other)

    cls = graph.classify(g)
    witness = cls.witness_for(points)
    if witness is not None:
        raise NotSemiregularError(
            f"vertex {witness.vertex} of class {points} is not distance-regularized "
            f"(witnesses {witness.witnesses} at distance {witness.distance})"
        )
    arr = cls.array_for(points)
    if arr is None:
        raise NotSemiregularError(f"class {points} has no common intersection array")
    if arr.eccentricity != 4:
        raise WrongEccentricityError(
            f"chosen class has eccentricity {arr.eccentricity}, need 4"
        )
    # one array of eccentricity 4 for the class makes v and b the sizes
    # |Gamma_0| + |Gamma_2| + |Gamma_4| and |Gamma_1| + |Gamma_3| of any point's
    # layers and b_1 + 1 every block's degree: the checks below fail only on a defect
    r, k, lambda1, t = arr.b[0], arr.b[1] + 1, arr.c[2], arr.c[3]
    v_num, b_num, den = derived_sizes(r, k, lambda1, t)
    if v_num % den or b_num % den:
        raise ConsistencyError(
            f"non-integral derived sizes v = {v_num}/{den}, b = {b_num}/{den}"
        )
    v, b = v_num // den, b_num // den
    if v != len(point_vertices) or b != len(block_vertices_raw):
        raise ConsistencyError(
            f"derived sizes ({v}, {b}) disagree with class sizes "
            f"({len(point_vertices)}, {len(block_vertices_raw)})"
        )

    # y = c'_2 when the other class is regularized too; the class valency
    # identity k = b_1 + 1 = b'_0 is checked at the same time.
    other_arr = cls.array_for(other)
    y = None if other_arr is None else other_arr.c[2]
    if other_arr is not None and other_arr.b[0] != k:
        raise ConsistencyError(f"block valency {other_arr.b[0]} differs from b_1 + 1 = {k}")

    params = DerivedDesignParams(v=v, b=b, r=r, k=k, lambda1=lambda1, s=k - 1, t=t, y=y)

    point_index = {v: i for i, v in enumerate(point_vertices)}
    raw_blocks = [
        tuple(sorted(point_index[w] for w in g.neighbors(bv)))
        for bv in block_vertices_raw
    ]
    # validation refuses repeated blocks, so each block names one vertex
    structure = validate_structure(len(point_vertices), raw_blocks)
    vertex_of = dict(zip(raw_blocks, block_vertices_raw))
    block_vertices = tuple(vertex_of[blk] for blk in structure.blocks)
    return GraphDesignExtraction(structure, params, point_vertices, block_vertices)
