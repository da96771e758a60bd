"""Independent answers for the commands the benchmark runs.

Nothing here imports the package under test.  Graph facts come from a BFS
of this module's own; homogeneity scalars from the p^i_{2,i} and Delta_i
formulas of the paper applied to those facts; design parameters and
verdicts from closed forms for each input family.
"""

from __future__ import annotations

import json
from collections import deque, namedtuple
from dataclasses import dataclass
from fractions import Fraction

Witness = namedtuple("Witness", "vertex distance count_kind witnesses counts")

# intersection array as ((b_0..b_D), (c_0..c_D))
Array = tuple[tuple[int, ...], tuple[int, ...]]


def bfs(adj: list[list[int]], s: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    return [sorted(ns) for ns in adj]


def _bc(adj, dist, y) -> tuple[int, int]:
    """(b, c) counts of y seen from the BFS root of ``dist``."""
    i = dist[y]
    return (
        sum(1 for w in adj[y] if dist[w] == i + 1),
        sum(1 for w in adj[y] if dist[w] == i - 1),
    )


def local_array(adj, x) -> Array | Witness:
    """Intersection array of vertex x, or two vertices at one distance from
    x whose b- or c-counts differ."""
    dist = bfs(adj, x)
    first: dict[int, tuple[int, tuple[int, int]]] = {}
    for y, i in enumerate(dist):
        bc = _bc(adj, dist, y)
        rep, rep_bc = first.setdefault(i, (y, bc))
        if bc != rep_bc:
            k = 0 if bc[0] != rep_bc[0] else 1
            return Witness(x, i, "bc"[k], (rep, y), (rep_bc[k], bc[k]))
    ecc = max(dist)
    return (
        tuple(first[i][1][0] for i in range(ecc + 1)),
        tuple(first[i][1][1] for i in range(ecc + 1)),
    )


def check_witness(adj, w: dict) -> str | None:
    """Re-verify a reported non-regularity witness with this module's BFS."""
    dist = bfs(adj, w["vertex"])
    y1, y2 = w["witnesses"]
    if not dist[y1] == dist[y2] == w["distance"]:
        return f"witness vertices {y1}, {y2} are not both at distance {w['distance']}"
    k = "bc".index(w["count_kind"])
    counts = [_bc(adj, dist, y)[k] for y in (y1, y2)]
    if counts != w["counts"] or counts[0] == counts[1]:
        return f"witness counts {w['counts']} but BFS gives {counts}"
    return None


SIDES = ("Y", "Yprime")


@dataclass(frozen=True)
class GraphFacts:
    """What analyze-graph must report: per class (Y, Yprime) the size, the
    largest eccentricity and the common array (None when the class is not
    uniform), and which class must hold the reported witness (None when
    every vertex is distance-regularized)."""

    sizes: tuple[int, int]
    edges: int
    ecc: tuple[int, int]
    arrays: tuple[Array | None, Array | None]
    witness_side: str | None

    @property
    def kind(self) -> str:
        ay, ayp = self.arrays
        if ay is not None and ayp is not None:
            return "distance-regular" if ay == ayp else "distance-biregular"
        if ay is not None:
            return "distance-semiregular-Y-only"
        if ayp is not None:
            return "distance-semiregular-Yprime-only"
        return "not-distance-regularized"

    def array(self, side: str) -> Array | None:
        return self.arrays[SIDES.index(side)]

    def report(self) -> dict:
        """The analyze-graph document, witness left out."""
        arr = [None if a is None else {"b": list(a[0]), "c": list(a[1])} for a in self.arrays]
        return {
            "schema": "spbibd.analyze-graph/1",
            "counts": {"vertices": sum(self.sizes), "edges": self.edges, "class_sizes": list(self.sizes)},
            "kind": self.kind,
            "eccentricities": {"Y": self.ecc[0], "Yprime": self.ecc[1]},
            "arrays": {"Y": arr[0], "Yprime": arr[1]},
        }


def graph_facts(n: int, edges) -> GraphFacts:
    """Facts by exhaustive BFS from every vertex; Y is vertex 0's class."""
    adj = adjacency(n, edges)
    side = [d % 2 for d in bfs(adj, 0)]
    sizes, eccs, arrays, witness_side = [], [], [], None
    for s, name in enumerate(SIDES):
        members = [x for x in range(n) if side[x] == s]
        results = [local_array(adj, x) for x in members]
        sizes.append(len(members))
        eccs.append(max(max(bfs(adj, x)) for x in members))
        found = [r for r in results if not isinstance(r, Witness)]
        uniform = len(found) == len(results) and len(set(found)) == 1
        arrays.append(found[0] if uniform else None)
        if witness_side is None and len(found) < len(results):
            witness_side = name
    num_edges = len({(min(u, w), max(u, w)) for u, w in edges})
    return GraphFacts(tuple(sizes), num_edges, tuple(eccs), tuple(arrays), witness_side)


def check_graph_report(doc: dict, facts: GraphFacts, adj) -> str | None:
    got = {k: v for k, v in doc.items() if k != "witness"}
    if got != facts.report():
        return f"report {json.dumps(got, sort_keys=True)} != expected {json.dumps(facts.report(), sort_keys=True)}"
    w = doc.get("witness")
    if facts.witness_side is None:
        return None if w is None else f"unexpected witness {w}"
    if w is None:
        return "missing non-regularity witness"
    side_of = bfs(adj, 0)[w["vertex"]] % 2
    if SIDES[side_of] != facts.witness_side:
        return f"witness vertex {w['vertex']} is not in class {facts.witness_side}"
    return check_witness(adj, w)


def design_from_class(n: int, edges, side: str) -> tuple[int, list[list[int]]]:
    """The design read off a graph with class ``side`` as points: point i
    is the i-th vertex of the class, blocks are the other class's
    neighbourhoods."""
    adj = adjacency(n, edges)
    parity = [d % 2 for d in bfs(adj, 0)]
    want = SIDES.index(side)
    points = [x for x in range(n) if parity[x] == want]
    index = {x: i for i, x in enumerate(points)}
    blocks = [sorted(index[w] for w in adj[x]) for x in range(n) if parity[x] != want]
    return len(points), sorted(blocks)


# ---- homogeneity formulas -------------------------------------------------


def _at(seq, i):
    return seq[i] if 0 <= i < len(seq) else 0


def p2ii(side: Array, other: Array, i: int) -> Fraction:
    """p^i_{2,i} = (b_i (c_{i+1} - 1) + c_i (b_{i-1} - 1)) / c_2, with the
    other class's array for odd i."""
    b, c = side if i % 2 == 0 else other
    return Fraction(_at(b, i) * (_at(c, i + 1) - 1) + _at(c, i) * (_at(b, i - 1) - 1), side[1][2])


def delta(side: Array, other: Array, i: int) -> Fraction:
    """Delta_i = (b_{i-1} - 1)(c_{i+1} - 1) - p^i_{2,i} (c'_2 - 1), with the
    other class's array for odd i and p^1_{2,1} = b_1."""
    p = Fraction(side[0][1]) if i == 1 else p2ii(side, other, i)
    b, c = side if i % 2 == 0 else other
    return (_at(b, i - 1) - 1) * (_at(c, i + 1) - 1) - p * (_at(other[1], 2) - 1)


def formula_fields(side: Array | None, other: Array | None) -> dict | None:
    """The formula part of check-homogeneous, or None when the formula
    route does not apply (a class not regularized, k' < 3 or D < 3)."""
    if side is None or other is None:
        return None
    d, d_other = len(side[0]) - 1, len(other[0]) - 1
    if other[0][0] < 3 or d < 3:
        return None
    deltas = {i: delta(side, other, i) for i in range(1, min(d, d_other))}
    full = all(deltas[i] == 0 for i in range(2, min(d, d_other)))
    almost = all(deltas[i] == 0 for i in range(2, d - 1))
    verdict = "2-homogeneous" if full else "almost-only" if almost else "neither"
    return {
        "p2ii": {str(i): str(p2ii(side, other, i)) for i in range(2, d)},
        "delta": {str(i): str(v) for i, v in deltas.items()},
        "formula_verdict": verdict,
    }


def check_homogeneity_report(doc: dict, side: str, verdict: str, facts: GraphFacts, counts: dict | None = None) -> str | None:
    """Verdict is the family's known answer; the formula fields must match
    this module's formulas exactly, and be absent where they do not apply.
    ``counts``, when known in closed form, are the brute-force levels."""
    other = SIDES[1 - SIDES.index(side)]
    formula = formula_fields(facts.array(side), facts.array(other))
    got = {k: doc.get(k) for k in ("side", "verdict", "p2ii", "delta", "formula_verdict")}
    want = {"side": side, "verdict": verdict, "p2ii": {}, "delta": {}, "formula_verdict": None}
    if formula is not None:
        want.update(formula)
    if got != want:
        return f"homogeneity {got} != expected {want}"
    if (doc.get("formula_skipped") is None) != (formula is not None):
        return f"formula_skipped is {doc.get('formula_skipped')!r}"
    if counts is not None and doc.get("bruteforce_counts") != counts:
        return f"brute-force counts {doc.get('bruteforce_counts')} != {counts}"
    return None


# ---- closed forms for generalized quadrangles -------------------------------


def gq_array(s: int, t: int) -> Array:
    """Point-side array of the incidence graph of a GQ of order (s, t):
    points on t+1 lines, lines of s+1 points."""
    return (t + 1, s, t, s, 0), (0, 1, 1, 1, t + 1)


def gq_graph_facts(q: int) -> GraphFacts:
    """W(q) and its dual both have order (q, q)."""
    v = (q + 1) * (q * q + 1)
    arr = gq_array(q, q)
    return GraphFacts((v, v), v * (q + 1), (4, 4), (arr, arr), None)


def gq_bruteforce_counts() -> dict:
    """Level counts |Gamma(x) n Gamma(y) n Gamma_{i-1}(z)| in the incidence
    graph of any thick GQ: x, y collinear share one line w; at level 2 every
    eligible z lies on w; at level 3 the line z may or may not meet w."""
    return {"1": [1], "2": [1], "3": [0, 1]}


# ---- design reports -------------------------------------------------------


@dataclass(frozen=True)
class DesignFacts:
    """Closed-form analyze-design answers for an in-scope design
    (lambda2 = 0, s = k-1, x = 0) plus its four homogeneity properties."""

    v: int
    b: int
    r: int
    k: int
    lambda1: int
    t: int
    y: int
    homogeneity: tuple[bool, bool, bool, bool]  # almost_2p, full_2p, almost_2b, full_2b

    def expected(self) -> dict:
        return {
            "counts": {"points": self.v, "blocks": self.b, "simple": True},
            "uniform": {"r": self.r, "k": self.k},
            "quasi_symmetry": {"sizes": [0, self.y], "x": 0, "y": self.y, "proper": True},
            "spbibd": {
                "v": self.v, "b": self.b, "r": self.r, "k": self.k,
                "lambda1": self.lambda1, "lambda2": 0, "lambda2_realized": True,
                "s": self.k - 1, "t": self.t, "x": 0, "y": self.y,
            },
            "flags": {
                "two_design_degenerate": False,
                "in_scope": True,
                "partial_geometry": self.lambda1 == 1 and self.y == 1,
                "generalized_quadrangle": self.lambda1 == 1 and self.y == 1 and self.t == 1,
            },
            "all_pass": True,
            "homogeneity": list(self.homogeneity),
        }


def check_design_report(doc: dict, facts: DesignFacts) -> str | None:
    try:
        got = {k: doc[k] for k in ("counts", "uniform", "quasi_symmetry", "spbibd", "flags")}
        got["all_pass"] = doc["constraints"]["all_pass"]
        ph = doc["parameter_homogeneity"]
        got["homogeneity"] = [ph["almost_2p"], ph["full_2p"], ph["almost_2b"], ph["full_2b"]]
    except (KeyError, TypeError) as exc:
        return f"report lacks {exc}"
    want = facts.expected()
    if got != want:
        return f"design report {json.dumps(got, sort_keys=True)} != expected {json.dumps(want, sort_keys=True)}"
    return None


def gq_design_facts(s: int, t: int) -> DesignFacts:
    """A thick GQ of order (s, t) (s, t >= 2) read as a design: almost
    2-homogeneous on both sides, fully on neither."""
    v = (s + 1) * (s * t + 1)
    b = (t + 1) * (s * t + 1)
    return DesignFacts(v, b, t + 1, s + 1, 1, 1, 1, (True, False, True, False))


def grid_design_facts(n: int) -> DesignFacts:
    """n x n grid: GQ of order (n-1, 1); block size 2 (n = 2) or
    replication 2 make the class fully 2-homogeneous."""
    return DesignFacts(n * n, 2 * n, 2, n, 1, 1, 1, (True, n == 2, True, True))


def cube4_design_facts() -> DesignFacts:
    """Even/odd halves of the 4-cube: (8, 8, 4, 4, 2, 0) of type (3, 3),
    y = 2; hypercubes are 2-homogeneous on both sides."""
    return DesignFacts(8, 8, 4, 4, 2, 3, 2, (True, True, True, True))


# ---- search ---------------------------------------------------------------

# Rows (header excluded) and SHA-256 of the CSV for `search --max-r 20
# --max-k 20`, one per target.  Recorded from the package as first
# benchmarked; every later version must reproduce them byte for byte.  Each
# CSV is also exactly the rows with r <= 20 and k <= 20 of the same target's
# `--max-r 30 --max-k 30` CSV (279 / 105 / 116 / 14 rows, SHA-256 prefixes
# 671e3ca8cf5fe869 / 8b5015058ee79196 / 97c7e2fe25dda282 / 8bc859fde66d8887).
SEARCH_20 = {
    "almost-p": (106, "b2e969d730c639096e600c64ab0f64e7666367a2d9b6a2f0a184e4f81a269ea1"),
    "full-p": (46, "de9b95281c85f2e598d4f82a13c5e793dbd4d8a15b1a1e00183ad855d0e16ddb"),
    "almost-b": (56, "2589e5e39071e2e7b170f9df7f09a2b7495871b437a3d93435a1829c6efbe256"),
    "full-b": (9, "797323c76151b4faf33e071335b69c98a0b4610d1b48ab54a6f439f32e7ec36e"),
}
SEARCH_HEADER = "r,k,lambda1,t,y,v,b,targets_satisfied,existence=unresolved"
