"""Baker-style (1-eps)-approximation for planar bounded-degree inputs.

Delete every BFS level congruent to 3r+2 mod 3k (per graph, per shift r),
solve each pruned pair exactly with the treewidth DP, and keep the best
answer over all k^2 shift pairs; ties go to the lexicographically first
(r1, r2).  Pruned graphs of planar inputs are 3k-outerplanar, so the exact
solves stay cheap; a star spans at most three consecutive levels, so for
each side at most one shift in k hits it.

Each graph's BFS levels are computed once, and shifts that keep the same
vertices share one pruned graph.  No star forest covers an isolated vertex,
so a pruned graph's non-isolated vertices bound every answer it takes part
in, and a pair of pruned graphs is bounded by the smaller of its two counts.
Pairs are visited by decreasing bound, then by (r1, r2), and the visit stops
at the first pair that cannot win: its bound is below the best size so far,
or equal to it with shifts not before the incumbent's.  A pruned graph's DP runs
when the first pair that needs it is visited, so a pruned graph whose pairs
cannot win is never solved.
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
    return g.induced(_kept(bfs_levels(g), r, k))


def _kept(levels: list[int], r: int, k: int) -> tuple[int, ...]:
    return tuple(v for v, level in enumerate(levels) if level % (3 * k) != 3 * r + 2)


@dataclass
class _Pruned:
    """One distinct pruned graph, under the first shift that gives it."""

    shift: int
    graph: Graph
    bound: int  # non-isolated vertices: no star forest in the graph covers more
    family: VectorFamily | None = None  # the DP's, filled when a pair first needs it


def solve_eptas(
    g1: Graph, g2: Graph, cfg: EptasConfig
) -> tuple[int, StarForest, tuple[int, int]]:
    """Best exact solve over all shift pairs; ties go to lexicographic (r1, r2).

    Pairs of distinct pruned graphs are visited by decreasing bound (the
    smaller non-isolated vertex count of the two), then by (r1, r2), until
    one cannot beat the incumbent: a larger size wins, an equal size wins
    only with earlier shifts.  Each pruned graph's DP runs at most once, when
    the first pair that needs it is visited, and each visited pair is
    intersected once.  The answer is the one every shift pair would give.

    The (1-eps) guarantee holds for planar inputs; the computation itself is
    well-defined on any graph and never overshoots the true optimum.
    """
    if g1.edge_count == 0 or g2.edge_count == 0:
        return 0, StarForest(()), (0, 0)
    k = cfg.k
    # families at the shared bound stay intersectable across all shift pairs;
    # a pruned graph cannot host stars above its own degree bound anyway
    delta = min(g1.max_degree(), g2.max_degree())
    sides1, sides2 = _distinct_pruned(g1, k), _distinct_pruned(g2, k)
    pairs = sorted(
        ((min(p1.bound, p2.bound), (p1.shift, p2.shift), p1, p2) for p1 in sides1 for p2 in sides2),
        key=lambda pair: (-pair[0], pair[1]),
    )
    best = (0, StarForest(()), (0, 0))
    for bound, shifts, p1, p2 in pairs:
        if bound < best[0] or (bound == best[0] and shifts >= best[2]):
            break
        for p in (p1, p2):
            if p.family is None:
                p.family = enum_star_vectors_dp(p.graph, delta)
        size, vec = best_common(p1.family, p2.family)
        if size > best[0] or (size == best[0] and shifts < best[2]):
            best = (size, StarForest(counts_to_sizes(vec)), shifts)
    return best


def _distinct_pruned(g: Graph, k: int) -> list[_Pruned]:
    """One pruned graph per distinct kept-vertex list, with the first shift that keeps it.

    A later shift keeping the same vertices only ties it, and ties go to the
    first.  Once 3r + 2 passes the deepest level, shift r and every later one
    keep all vertices, so the loop stops there and its length does not grow
    with k.
    """
    levels = bfs_levels(g)
    deepest = max(levels)
    firsts: dict[tuple[int, ...], _Pruned] = {}
    for r in range(k):
        kept = _kept(levels, r, k)
        if kept not in firsts:
            sub = g if len(kept) == g.n else g.induced(kept)[0]
            firsts[kept] = _Pruned(r, sub, sub.n - len(sub.isolated_vertices()))
        if 3 * r + 2 > deepest:
            break  # this shift and every later one delete no level
    return list(firsts.values())
