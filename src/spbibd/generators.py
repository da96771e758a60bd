"""Witness families and negative controls used throughout the test
suites: grids, the duad-syntheme generalized quadrangle, the symplectic
quadrangles W(q), complete designs, cycles, paths, the Fano plane and
subdivisions of complete bipartite graphs."""

from __future__ import annotations

from itertools import combinations, product
from math import isqrt

from .core import BipartiteGraph, IncidenceStructure, build_bipartite, validate_structure
from .correspondence import incidence_graph

# The most vertices plus edges that one family member may have: of the
# graph for a graph family, of the incidence graph (points and blocks,
# joined by incidences) for a design family.  Each family checks its
# closed-form size against it before allocating anything, so an oversize
# request is a ValueError, not a MemoryError or a loop of q^4 steps.  At
# the limit, the 25,000-cycle takes about 100 MB to build; the graph
# commands refuse it, as its distance layers exceed core.MAX_LAYER_BYTES.
MAX_SIZE = 50_000


def _check_size(vertices: int, edges: int) -> None:
    if vertices + edges > MAX_SIZE:
        raise ValueError(f"{vertices} vertices and {edges} edges exceed the limit of {MAX_SIZE} in all")


def complete_bipartite_design(v: int, b: int) -> IncidenceStructure:
    """b identical blocks containing all v points; incidence graph K_{v,b}.

    Non-simple for b >= 2, so built with repeats allowed; the design-theory
    classifiers will refuse it, which is the point of the control.
    """
    if v < 1 or b < 1:
        raise ValueError("v and b must be positive")
    _check_size(v + b, v * b)
    return validate_structure(v, [range(v) for _ in range(b)], allow_repeated=b > 1)


def even_cycle(length: int) -> BipartiteGraph:
    """Cycle graph on an even number (>= 4) of vertices."""
    if length < 4 or length % 2 != 0:
        raise ValueError("cycle length must be even and at least 4")
    _check_size(length, length)
    return build_bipartite(length, [(i, (i + 1) % length) for i in range(length)])


def grid_design(n: int) -> IncidenceStructure:
    """n^2 cells as points; the n rows and n columns as blocks.

    Parameters (n^2, 2n, 2, n, 1, 0) of type (n-1, 1) with x = 0, y = 1;
    the incidence graph is the subdivision graph of K_{n,n}.
    """
    if n < 2:
        raise ValueError("grid needs n >= 2")
    _check_size(n * n + 2 * n, 2 * n * n)
    rows = [[n * i + j for j in range(n)] for i in range(n)]
    cols = [[n * i + j for i in range(n)] for j in range(n)]
    return validate_structure(n * n, rows + cols)


def _perfect_matchings(elements: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    if not elements:
        return [()]
    first, rest = elements[0], elements[1:]
    out = []
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in _perfect_matchings(remaining):
            out.append(((first, partner),) + sub)
    return out


def gq22() -> IncidenceStructure:
    """The generalized quadrangle of order (2, 2), via the duad-syntheme
    model: points are the 15 2-subsets of a 6-set, blocks are the 15
    perfect matchings of the 6-set, incidence is membership.

    Parameters (15, 15, 3, 3, 1, 0) of type (2, 1) with x = 0, y = 1; the
    incidence graph is the Tutte-Coxeter graph.
    """
    duads = list(combinations(range(6), 2))
    index = {d: i for i, d in enumerate(duads)}
    blocks = [
        [index[pair] for pair in matching]
        for matching in _perfect_matchings(tuple(range(6)))
    ]
    return validate_structure(len(duads), blocks)


def symplectic_gq(q: int) -> IncidenceStructure:
    """The symplectic generalized quadrangle W(q) for prime q: the points of
    PG(3, q) and the lines totally isotropic under the alternating form
    x0*y1 - x1*y0 + x2*y3 - x3*y2 (Payne-Thas, Finite Generalized
    Quadrangles, 3.1).

    Parameters ((q+1)(q^2+1), (q+1)(q^2+1), q+1, q+1, 1, 0) of type (q, 1)
    with x = 0, y = 1; W(2) is isomorphic to gq22().
    """
    if q >= 2:  # the size first: the prime test takes isqrt(q) divisions
        # (q+1)(q^2+1) points and as many lines, q+1 points on each line
        _check_size(2 * (q + 1) * (q * q + 1), (q + 1) ** 2 * (q * q + 1))
    if q < 2 or any(q % p == 0 for p in range(2, isqrt(q) + 1)):
        raise ValueError(f"q must be a prime, got {q}")

    def normalized(x: tuple[int, ...]) -> tuple[int, ...]:
        """The representative of x's projective point: first nonzero entry 1."""
        inv = pow(next(c for c in x if c), -1, q)
        return tuple(c * inv % q for c in x)

    points = sorted({normalized(x) for x in product(range(q), repeat=4) if any(x)})
    index = {p: i for i, p in enumerate(points)}
    lines = []
    # each line is a 2-dimensional subspace, met once through its reduced
    # row echelon basis (u, w) with pivots in columns i < j
    for i, j in combinations(range(4), 2):
        free_u = [c for c in range(i + 1, 4) if c != j]
        for u_vals, w_vals in product(
            product(range(q), repeat=len(free_u)), product(range(q), repeat=3 - j)
        ):
            u = [0] * 4
            u[i] = 1
            for c, a in zip(free_u, u_vals):
                u[c] = a
            w = [0] * 4
            w[j] = 1
            w[j + 1 :] = w_vals
            if (u[0] * w[1] - u[1] * w[0] + u[2] * w[3] - u[3] * w[2]) % q:
                continue
            # the q + 1 points of the line: u, and a*u + w for every a
            span = [tuple(u)] + [
                normalized(tuple((a * uc + wc) % q for uc, wc in zip(u, w))) for a in range(q)
            ]
            lines.append([index[p] for p in span])
    return validate_structure(len(points), lines)


def fano() -> IncidenceStructure:
    """The Fano plane: 7 points, lines {i, i+1, i+3} mod 7.

    A 2-design (t = k degeneracy), kept as an out-of-scope control: its
    incidence graph has eccentricity 3, not 4.
    """
    return validate_structure(7, [[i % 7, (i + 1) % 7, (i + 3) % 7] for i in range(7)])


def path_graph(n: int) -> BipartiteGraph:
    """Path on n >= 2 vertices; not distance-regularized for n >= 4."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    _check_size(n, n - 1)
    return build_bipartite(n, [(i, i + 1) for i in range(n - 1)])


def subdivision_complete_bipartite(n: int) -> BipartiteGraph:
    """Subdivision graph of K_{n,n}: one new vertex on every edge.

    Vertices 0..2n-1 are the original K_{n,n} vertices (left part first),
    followed by the n^2 edge vertices.  Isomorphic to the incidence graph
    of grid_design(n) but numbered independently of it.
    """
    if n < 2:
        raise ValueError("subdivision needs n >= 2")
    _check_size(2 * n + n * n, 2 * n * n)
    edges = []
    for i in range(n):
        for j in range(n):
            mid = 2 * n + n * i + j
            edges.append((i, mid))
            edges.append((n + j, mid))
    return build_bipartite(2 * n + n * n, edges)


def tutte_coxeter() -> BipartiteGraph:
    """The Tutte-Coxeter graph, as the incidence graph of gq22()."""
    return incidence_graph(gq22())
