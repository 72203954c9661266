#!/usr/bin/env python3
"""Print solve_eptas's answer on seeded random pairs, one JSON line each.

Diff the output of two checkouts to check that a change to the EPTAS keeps
its answers:

    python scripts/eptas_answers.py [count] > answers.jsonl

Three of every four pairs are small planar pairs (n <= 14) or G(n, p) pairs
(n <= 14) at eps 0.2 to 0.8; every fourth is a deep planar pair (24 to 40
vertices) at eps 0.5 or 0.8.  The last field says whether every shift
pruned a vertex of both graphs.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from starforest.eptas import EptasConfig, prune_levels, solve_eptas  # noqa: E402

from conftest import deep_planar, planar_low_degree, random_graph  # noqa: E402


def every_shift_prunes(g, k):
    return all(len(prune_levels(g, r, k)[1]) < g.n for r in range(k))


def pairs(count):
    """The seeded (idx, eps, g1, g2) sequence whose answers main prints."""
    rng = random.Random(12)
    for idx in range(count):
        if idx % 4 == 3:
            g1, g2 = deep_planar(rng), deep_planar(rng)
            eps = rng.choice([0.5, 0.8])
        elif idx % 2:
            g1, g2 = planar_low_degree(rng, 14), planar_low_degree(rng, 14)
            eps = rng.choice([0.2, 0.3, 0.5, 0.8])
        else:
            p = rng.choice([0.15, 0.25, 0.35])
            g1 = random_graph(rng, rng.randint(2, 14), p)
            g2 = random_graph(rng, rng.randint(2, 14), p)
            eps = rng.choice([0.2, 0.3, 0.5, 0.8])
        yield idx, eps, g1, g2


def main(count):
    for idx, eps, g1, g2 in pairs(count):
        cfg = EptasConfig(eps)
        size, forest, shifts = solve_eptas(g1, g2, cfg)
        deep = every_shift_prunes(g1, cfg.k) and every_shift_prunes(g2, cfg.k)
        print(json.dumps([idx, eps, size, list(forest.star_sizes), list(shifts), deep]))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1200)
