"""Baker-style (1-eps)-approximation for planar bounded-degree inputs.

Delete every BFS level congruent to 3r+2 mod 3k (per graph, per shift r),
solve each pruned pair exactly with the treewidth DP, and keep the best
answer over all k^2 shift pairs.  Pruned graphs of planar inputs are
3k-outerplanar, so the exact solves stay cheap; a star spans at most three
consecutive levels, so for each side at most one shift in k hits it.  Shifts
that keep the same vertices give the same pruned graph, so each distinct
pruned graph is solved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError
from .graph import Graph, StarForest, bfs_levels
from .treewidth import enum_star_vectors_dp
from .vectors import VectorFamily, best_common, counts_to_sizes


@dataclass(frozen=True)
class EptasConfig:
    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise PreconditionError("epsilon must lie in (0, 1)")

    @property
    def k(self) -> int:
        return math.ceil(2 / self.epsilon)


def prune_levels(g: Graph, r: int, k: int) -> tuple[Graph, list[int]]:
    """Drop vertices on BFS levels congruent to 3r+2 mod 3k; keep an index map."""
    if not 0 <= r < k:
        raise PreconditionError(f"shift r={r} must lie in [0, {k})")
    levels = bfs_levels(g)
    keep = [v for v in range(g.n) if levels[v] % (3 * k) != 3 * r + 2]
    return g.induced(keep)


def solve_eptas(
    g1: Graph, g2: Graph, cfg: EptasConfig
) -> tuple[int, StarForest, tuple[int, int]]:
    """Best exact solve over all shift pairs; ties go to lexicographic (r1, r2).

    Each distinct pruned graph runs the treewidth DP once, and each distinct
    pair of pruned graphs is intersected once.

    The (1-eps) guarantee holds for planar inputs; the computation itself is
    well-defined on any graph and never overshoots the true optimum.
    """
    if g1.edge_count == 0 or g2.edge_count == 0:
        return 0, StarForest(()), (0, 0)
    k = cfg.k
    # families at the shared bound stay intersectable across all shift pairs;
    # a pruned graph cannot host stars above its own degree bound anyway
    delta = min(g1.max_degree(), g2.max_degree())
    sides1 = _distinct_families(g1, k, delta)
    sides2 = _distinct_families(g2, k, delta)
    best = (0, StarForest(()), (0, 0))
    for r1, fam1 in sides1:
        for r2, fam2 in sides2:
            size, vec = best_common(fam1, fam2)
            if size > best[0]:
                best = (size, StarForest(counts_to_sizes(vec)), (r1, r2))
    return best


def _distinct_families(g: Graph, k: int, delta: int) -> list[tuple[int, VectorFamily]]:
    """One family per distinct kept-vertex list, with the first shift that keeps it.

    A later shift keeping the same vertices only ties it, and ties go to the first.
    """
    firsts: dict[tuple[int, ...], tuple[int, VectorFamily]] = {}
    for r in range(k):
        sub, kept = prune_levels(g, r, k)
        if tuple(kept) not in firsts:
            firsts[tuple(kept)] = (r, enum_star_vectors_dp(sub, delta))
    return list(firsts.values())
