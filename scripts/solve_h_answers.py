#!/usr/bin/env python3
"""Print exact solve_h's answer and certificate on seeded pairs, one JSON line each.

Diff the output of two checkouts to check that a change to solve_h or its
embedding keeps every answer and certificate:

    python scripts/solve_h_answers.py [count] > answers.jsonl

`count` seeded sparse pairs (n 8 to 16, about 0.7 n edges on each side)
come first, then fixed pairs rich in 2-stars (disjoint triangles, paths,
an isolated vertex).  Each pair is asked at h = opt and h = opt + 1, with
opt from solve_tw.  A line holds the query's index, h, the answer, the
forest's star sizes and both embeddings (null on a no).
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from starforest.graph import Graph, Instance  # noqa: E402
from starforest.solve_h import solve_h  # noqa: E402
from starforest.treewidth import solve_tw  # noqa: E402

from conftest import (  # noqa: E402
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_graph,
)


def two_star_pairs():
    """Pairs whose no-answers make the exact embedding place many 2-stars.

    The isolated vertex keeps h = opt + 1 within both vertex counts, so the
    partition sweep runs instead of the trivial no.
    """
    isolated = Graph.from_edges(1, [])
    for k in (3, 4, 5, 6):
        triangles = disjoint_union(*[complete_graph(3)] * k, isolated)
        yield triangles, path_graph(3 * k + 1)
        yield triangles, cycle_graph(3 * k + 2)
    for k in (5, 7, 9):
        yield disjoint_union(path_graph(2 * k + 1), isolated), path_graph(2 * k + 2)


def pairs(count):
    """The (g1, g2) sequence whose answers main prints."""
    rng = random.Random(33)
    for _ in range(count):
        n = rng.randint(8, 16)
        p = 1.4 / (n - 1)  # about 0.7 n edges
        yield random_graph(rng, n, p), random_graph(rng, n, p)
    yield from two_star_pairs()


def main(count):
    idx = 0
    for g1, g2 in pairs(count):
        opt, _ = solve_tw(g1, g2)
        for h in (opt, opt + 1):
            yes, cert = solve_h(Instance(g1, g2, h), mode="exact")
            if yes:
                forest, e1, e2 = cert
                row = [idx, h, yes, list(forest.star_sizes), e1.stars, e2.stars]
            else:
                row = [idx, h, yes, None, None, None]
            print(json.dumps(row))
            idx += 1


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1000)
