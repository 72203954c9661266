#!/usr/bin/env python3
"""Print exact solve_h's answer and certificate on seeded pairs, one JSON line each.

Diff the output of two checkouts to check that a change to solve_h or its
embedding keeps every answer and certificate:

    python scripts/solve_h_answers.py [count] > answers.jsonl

`count` seeded sparse pairs (n 8 to 16, about 0.7 n edges on each side)
come first, then fixed pairs rich in 2-stars (disjoint triangles, paths,
an isolated vertex) and fixed pairs rich in equal 3- and 4-stars (disjoint
K4s, caterpillars, spiders), then the 2-star pairs again with their
vertices renamed by a seeded permutation, so low-index vertices become
leaves of later centres.  Each pair is asked at h = opt and
h = opt + 1, with opt from solve_tw.  A line holds the query's index, h,
the answer, the forest's star sizes and both embeddings (null on a no).
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


def relabelled(g, rng):
    """g with its vertices renamed by a seeded permutation.

    Defined here, not taken from conftest, because the parent-commit diff
    runs this script against the parent's tests directory, whose conftest
    lacks it; once the parent's conftest has it, import it from there.
    """
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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


def spider(legs, length):
    """A centre (vertex 0) joined to `legs` paths of `length` edges each."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges += [(v, v + 1) for v in range(first, first + length - 1)]
    return Graph.from_edges(1 + legs * length, edges)


def caterpillar(spine, leaves):
    """A path on vertices 0 .. spine - 1, each with `leaves` pendant vertices."""
    edges = [(v, v + 1) for v in range(spine - 1)]
    edges += [(v, spine + v * leaves + i) for v in range(spine) for i in range(leaves)]
    return Graph.from_edges(spine * (1 + leaves), edges)


def equal_star_pairs():
    """Pairs whose embeddings place runs of equal 3- and 4-stars, n <= 14.

    Disjoint K4s hold one 4-star each, and so does each spine vertex of a
    caterpillar with 3 leaves per spine vertex, so the sweep reaches
    (4,) * spine; with 2 leaves the spine holds (3,) * spine, as does a
    spider with legs of three edges.  On a caterpillar each star of a run
    centres on the vertex one past the last star's centre, the lowest one a
    level may take.  An isolated vertex on each side again keeps
    h = opt + 1 within both vertex counts.
    """
    isolated = Graph.from_edges(1, [])
    for k in (2, 3):  # the no at k = 4 sweeps 66 partitions in about 0.4 s
        yield (
            disjoint_union(*[complete_graph(4)] * k, isolated),
            disjoint_union(caterpillar(k, 3), isolated),
        )
    for k in (2, 3, 4):
        yield (
            disjoint_union(caterpillar(k, 2), isolated),
            disjoint_union(spider(k, 3), isolated),
        )


def pairs(count):
    """The (g1, g2) sequence whose answers main prints."""
    rng = random.Random(33)
    for _ in range(count):
        n = rng.randint(8, 16)
        p = 1.4 / (n - 1)  # about 0.7 n edges
        yield random_graph(rng, n, p), random_graph(rng, n, p)
    yield from two_star_pairs()
    yield from equal_star_pairs()
    rng = random.Random(38)
    for g1, g2 in two_star_pairs():
        yield relabelled(g1, rng), relabelled(g2, rng)


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
