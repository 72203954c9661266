#!/usr/bin/env python3
"""Print one exact route's answers on seeded instances, one JSON line each.

Diff the output of two checkouts to check that a change to the vc or the cc
route keeps every answer:

    python scripts/route_answers.py --route {cc,vc} [--count N] > answers.jsonl

A line holds the instance's index, both vertex counts, both edge counts, the
route's bound `k` and its answer (or the name of the error it raised).

- cc: `solve_cc(g1, g2, k)` with k the largest component, on unions of
  random connected components (a random tree plus random extra edges) of at
  most `k` vertices, k from 2 to 8.  `count` seeded pairs come first, then
  fixed pairs of 8-vertex components with n >= 14, whose packing base
  (n // 2 + 1 >= 8) makes the box of codes base**7 wider than 2^20.
- vc: `solve_vc(g1, g2, 3)` on pairs whose vertex cover is at most 3: a
  path or a triangle on the cover vertices, then 0 to 12 independent
  vertices, each joined to a random nonempty subset of the cover.

The script imports only names that earlier versions of both routes have, so
it can run in an older checkout to diff against it.
"""

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from starforest.component_ilp import solve_cc  # noqa: E402
from starforest.errors import PreconditionError, ResourceLimitError  # noqa: E402
from starforest.graph import Graph  # noqa: E402
from starforest.vc_ilp import solve_vc  # noqa: E402

from conftest import complete_graph, cycle_graph, disjoint_union  # noqa: E402


def connected(rng, size, p):
    """A random tree on `size` vertices plus each other pair as an edge with probability p."""
    edges = {(rng.randrange(v), v) for v in range(1, size)}
    edges |= {(u, v) for v in range(size) for u in range(v) if rng.random() < p}
    return Graph.from_edges(size, sorted(edges))


def union(rng, k, total):
    """Random connected components of 1..k vertices, at least one of k, until `total` vertices."""
    p = rng.choice([0.0, 0.2, 0.5])
    parts = [connected(rng, k, p)]
    n = k
    while n < total:
        size = rng.randint(1, k)
        parts.append(connected(rng, size, p))
        n += size
    rng.shuffle(parts)
    return disjoint_union(*parts)


def cc_pairs(count):
    rng = random.Random(19)
    for _ in range(count):
        k = rng.randint(2, 8)
        top = 16 if k >= 6 else 12
        yield union(rng, k, rng.randint(k, top)), union(rng, k, rng.randint(k, top)), k
    # the box of codes past 2^20: two 8-vertex components per side, or one and a 6
    q3 = Graph.from_edges(8, [(a, a | 1 << b) for a in range(8) for b in range(3) if not a >> b & 1])
    k44 = Graph.from_edges(8, [(a, b) for a in range(4) for b in range(4, 8)])
    shapes = [cycle_graph(8), q3, k44, complete_graph(8)]
    for a in shapes:
        for b in shapes:
            yield disjoint_union(a, cycle_graph(6)), disjoint_union(a, b), 8
    for _ in range(12):
        p = rng.choice([0.0, 0.2, 0.5])
        yield union(rng, 8, 16), disjoint_union(connected(rng, 8, p), connected(rng, 8, p)), 8


def cover_graph(rng, independent):
    cover = rng.randint(1, 3)
    edges = [(u, u + 1) for u in range(cover - 1)]
    if cover == 3 and rng.random() < 0.5:
        edges.append((0, 2))
    for v in range(cover, cover + independent):
        edges += [(u, v) for u in rng.sample(range(cover), rng.randint(1, cover))]
    return Graph.from_edges(cover + independent, edges)


def vc_pairs(count):
    rng = random.Random(23)
    for _ in range(count):
        yield cover_graph(rng, rng.randint(0, 12)), cover_graph(rng, rng.randint(0, 12)), 3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--route", choices=["cc", "vc"], required=True)
    parser.add_argument("--count", type=int, default=400)
    args = parser.parse_args()
    pairs, solve = {"cc": (cc_pairs, solve_cc), "vc": (vc_pairs, solve_vc)}[args.route]
    for idx, (g1, g2, k) in enumerate(pairs(args.count)):
        try:
            answer = solve(g1, g2, k)
        except (PreconditionError, ResourceLimitError) as exc:
            answer = type(exc).__name__
        print(json.dumps([idx, [g1.n, g2.n], [g1.edge_count, g2.edge_count], k, answer]))


if __name__ == "__main__":
    main()
