"""The benchmark's reference job: a fixed pure-Python program of about the
size of one CLI command, independent of the package under test.

    python3 perfbench/refjob.py

It starts an interpreter, imports the standard-library modules the CLI
uses and runs breadth-first searches on a fixed random graph, then prints
the sum of all distances.  ``run.py`` runs it before the first command of a
pass and after every command; dividing a command's time by the mean of the
two reference times around it removes the host's speed, which on a shared
VM swings by up to 3x within seconds.
"""

import argparse  # noqa: F401  (imported for its start-up cost, like the CLI)
import dataclasses  # noqa: F401
import json  # noqa: F401
import random

N = 1500
SOURCES = 40
CHECKSUM = 226802  # what the program prints; run.py checks it


def main() -> int:
    rng = random.Random(1)
    adj = [[] for _ in range(N)]
    for _ in range(4 * N):
        a, b = rng.randrange(N), rng.randrange(N)
        adj[a].append(b)
        adj[b].append(a)
    total = 0
    for s in range(SOURCES):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values())
    print(total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
