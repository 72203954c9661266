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
The bounds are read off the levels (the kept vertices with a kept
neighbour), and each pruned graph is built lazily, only when a visited
pair first needs its family.
Pairs are visited by decreasing bound, then by (r1, r2), and the visit stops
at the first pair that cannot win: its bound is below the best size so far,
or equal to it with shifts not before the incumbent's.  A pruned graph's DP runs
when the first pair that needs it is visited, so a pruned graph whose pairs
cannot win is never solved.  Only whole graphs use the DP's two-family
memo, so the EPTAS run right after `solve_tw` on the same pair finds both
whole families there.
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
    kept: tuple[int, ...]
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
        for p, g in ((p1, g1), (p2, g2)):
            if p.family is None:
                # only whole graphs enter the DP's memo, so no pruned graph
                # evicts a family solve_tw left
                whole = len(p.kept) == g.n
                sub = g if whole else g.induced(p.kept)[0]
                p.family = enum_star_vectors_dp(sub, delta, remember=whole)
        size, vec = best_common(p1.family, p2.family)
        if size > best[0] or (size == best[0] and shifts < best[2]):
            best = (size, StarForest(counts_to_sizes(vec)), shifts)
    return best


def _distinct_pruned(g: Graph, k: int) -> list[_Pruned]:
    """One kept-vertex list per distinct pruned graph, with the first shift that keeps it.

    A later shift keeping the same vertices only ties it, and ties go to the
    first.  Once 3r + 2 passes the deepest level, shift r and every later one
    keep all vertices, so the loop stops there and its length does not grow
    with k.  Kept sets are bitmasks: a shift keeps every vertex but those of
    one level residue, and a kept vertex counts towards the bound when its
    neighbour mask meets the kept mask.
    """
    levels = bfs_levels(g)
    deepest = max(levels)
    residue: dict[int, int] = {}  # the vertices of each level residue mod 3k met
    for v, level in enumerate(levels):
        at = level % (3 * k)
        residue[at] = residue.get(at, 0) | 1 << v
    nb = [sum(1 << w for w in a) for a in g.adjacency]  # each vertex's neighbours
    everyone = (1 << g.n) - 1
    firsts: dict[int, _Pruned] = {}
    for r in range(k):
        keep = everyone & ~residue.get(3 * r + 2, 0)
        if keep not in firsts:
            kept = _kept(levels, r, k)
            firsts[keep] = _Pruned(r, kept, sum(1 for v in kept if nb[v] & keep))
        if 3 * r + 2 > deepest:
            break  # this shift and every later one delete no level
    return list(firsts.values())
