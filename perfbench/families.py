"""Input families for the benchmark, built here rather than by the package
so that the program under test only ever sees the generated files.

Designs are ``(v, blocks)`` pairs with 0-based points; graphs are
``(n, edges)`` pairs.  Files are written in the CLI's own format (sorted-key
JSON, two-space indent, trailing newline) and designs in canonical form, so
that a design read back through ``from-graph`` can be compared byte for
byte with the file it came from.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, product

from oracle import Witness, adjacency, bfs, local_array


def dump(doc) -> str:
    """The CLI's file and report format."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def canonical(blocks) -> list[list[int]]:
    """Blocks as sorted point lists, the block list sorted."""
    return sorted(sorted(set(b)) for b in blocks)


def design_doc(v: int, blocks) -> dict:
    return {"v": v, "blocks": canonical(blocks)}


def graph_doc(n: int, edges) -> dict:
    """Graph file with normalized edges and the 2-coloring from vertex 0
    (class 0 is the CLI's side Y)."""
    norm = sorted({(min(u, w), max(u, w)) for u, w in edges})
    dist = bfs(adjacency(n, norm), 0)
    if min(dist) < 0:
        raise ValueError("graph is not connected")
    return {"n": n, "edges": [list(e) for e in norm], "partition": [d % 2 for d in dist]}


def incidence_edges(v: int, blocks) -> list[tuple[int, int]]:
    """Points are vertices 0..v-1, the j-th canonical block is vertex v+j."""
    return [(p, v + j) for j, blk in enumerate(canonical(blocks)) for p in blk]


def dual(v: int, blocks) -> tuple[int, list[list[int]]]:
    blocks = canonical(blocks)
    raw: list[list[int]] = [[] for _ in range(v)]
    for j, blk in enumerate(blocks):
        for p in blk:
            raw[p].append(j)
    return len(blocks), canonical(raw)


def relabel_points(v: int, blocks, rng: random.Random) -> list[list[int]]:
    """Random point permutation; the canonical block order follows it."""
    perm = list(range(v))
    rng.shuffle(perm)
    return canonical([perm[p] for p in blk] for blk in blocks)


def relabel_vertices(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[w]) for u, w in edges]


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, int(q**0.5) + 1))


def symplectic_gq(q: int) -> tuple[int, list[list[int]]]:
    """The symplectic generalized quadrangle W(q) for prime q: points of
    PG(3, q), lines the totally isotropic lines of the alternating form
    x0*y1 - x1*y0 + x2*y3 - x3*y2 (Payne-Thas, Finite Generalized
    Quadrangles, 3.1).

    A design ((q+1)(q^2+1), (q+1)(q^2+1), q+1, q+1, 1, 0) of type (q, 1)
    with block intersection numbers x = 0, y = 1.
    """
    if not _is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    # projective points: first nonzero coordinate scaled to 1
    points = [x for x in product(range(q), repeat=4) if next(c for c in x + (1,) if c) == 1 and any(x)]
    index = {x: i for i, x in enumerate(points)}

    def form(x, y) -> int:
        return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % q

    def normalize(x):
        inv = pow(next(c for c in x if c), -1, q)
        return tuple(c * inv % q for c in x)

    lines = set()
    for p in points:
        on_a_line = {p}
        for r in points:
            if r in on_a_line or form(p, r):
                continue
            # the line through p and r: r itself and p + a*r for every a
            line = {r} | {normalize(tuple((pc + a * rc) % q for pc, rc in zip(p, r))) for a in range(q)}
            on_a_line |= line
            lines.add(frozenset(index[x] for x in line))
    return len(points), canonical(lines)


def duad_syntheme() -> tuple[int, list[list[int]]]:
    """GQ(2, 2): points are the 15 two-subsets of a 6-set, lines the 15
    perfect matchings; its incidence graph is the Tutte-Coxeter graph."""
    duads = list(combinations(range(6), 2))
    index = {d: i for i, d in enumerate(duads)}

    def matchings(elems):
        if not elems:
            yield ()
            return
        first, rest = elems[0], elems[1:]
        for i, partner in enumerate(rest):
            for sub in matchings(rest[:i] + rest[i + 1 :]):
                yield ((first, partner),) + sub

    return len(duads), canonical([index[d] for d in m] for m in matchings(tuple(range(6))))


def grid(n: int) -> tuple[int, list[list[int]]]:
    """n x n cells; rows and columns are the blocks."""
    rows = [[n * i + j for j in range(n)] for i in range(n)]
    cols = [[n * i + j for i in range(n)] for j in range(n)]
    return n * n, canonical(rows + cols)


def fano() -> tuple[int, list[list[int]]]:
    return 7, canonical([i % 7, (i + 1) % 7, (i + 3) % 7] for i in range(7))


def hypercube_edges(d: int) -> list[tuple[int, int]]:
    return [(u, u ^ (1 << i)) for u in range(1 << d) for i in range(d) if u < u ^ (1 << i)]


def hypercube_design(d: int) -> tuple[int, list[list[int]]]:
    """Points are the even-weight vertices of the d-cube, blocks the
    neighbourhoods of the odd-weight vertices."""
    even = [u for u in range(1 << d) if bin(u).count("1") % 2 == 0]
    index = {u: i for i, u in enumerate(even)}
    odd = [u for u in range(1 << d) if bin(u).count("1") % 2 == 1]
    return len(even), canonical([index[u ^ (1 << i)] for i in range(d)] for u in odd)


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def subdivision_edges(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Subdivision of K_{n,n}: vertices 0..2n-1 are the original ones,
    then one vertex per original edge."""
    edges = []
    for i in range(n):
        for j in range(n):
            mid = 2 * n + n * i + j
            edges += [(i, mid), (n + j, mid)]
    return 2 * n + n * n, edges


def repeated_block_design(rng: random.Random, v: int = 6) -> tuple[int, list[list[int]]]:
    """A design with one block listed twice; rejected unless repeats are
    allowed, and never an SPBIBD."""
    blocks = [sorted(rng.sample(range(v), 3)) for _ in range(4)]
    blocks.append(list(blocks[0]))
    blocks += [[p] for p in range(v)]  # every point covered
    return v, sorted(blocks)


def non_uniform_design(rng: random.Random, v: int = 8) -> tuple[int, list[list[int]]]:
    """Distinct blocks of two different sizes: rejected as not uniform."""
    small = {tuple(sorted(rng.sample(range(v), 2))) for _ in range(3)}
    large = {tuple(sorted(rng.sample(range(v), 4))) for _ in range(3)}
    return v, canonical(list(small | large) + [list(range(v))])


def witness_rich_bipartite(rng: random.Random, a: int, b: int, extra: int) -> tuple[int, list[tuple[int, int]]]:
    """Random connected bipartite graph on a + b vertices (classes 0..a-1
    and a..a+b-1) in which no vertex is distance-regularized.

    The work the classifier does on such a graph is then fixed by its
    size, whatever the seed draws.
    """
    left, right = list(range(a)), list(range(a, a + b))
    while True:
        rng.shuffle(left)
        rng.shuffle(right)
        # random spanning tree across the classes, then extra cross edges
        edges = {(left[0], right[0])}
        placed = ([left[0]], [right[0]])
        rest = left[1:] + right[1:]
        rng.shuffle(rest)
        for u in rest:
            side = u >= a
            w = rng.choice(placed[1 - side])
            edges.add((min(u, w), max(u, w)))
            placed[side].append(u)
        while len(edges) < a + b - 1 + extra:
            edges.add((rng.choice(left), rng.choice(right)))
        adj = adjacency(a + b, edges)
        if all(isinstance(local_array(adj, x), Witness) for x in range(a + b)):
            return a + b, sorted(edges)
