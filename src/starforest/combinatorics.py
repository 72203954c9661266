"""Integer partitions and the dominating-set matching.

Star partitions are the star forests `solve_h` tries to embed.  The
packed star-count vectors and their sumsets live in `vectors`.
"""

from __future__ import annotations

from typing import Iterable

from .errors import PreconditionError
from .graph import Graph, StarForest, max_matching

Partition = tuple[int, ...]  # parts sorted non-increasing


def _partitions(h: int, smallest: int) -> list[Partition]:
    """Partitions of h into parts >= smallest, each exactly once.

    Recursive scheme: grow parts non-decreasingly, close each branch with the
    remainder; each partition is listed with its parts non-decreasing.
    """
    if h < 0:
        raise PreconditionError("h must be non-negative")
    if h == 0:
        return [()]
    out: list[Partition] = []

    def rec(prefix: list[int], rem: int):
        out.append(tuple(prefix) + (rem,))
        for part in range(prefix[-1] if prefix else smallest, rem // 2 + 1):
            rec(prefix + [part], rem - part)

    if h >= smallest:
        rec([], h)
    return out


def enum_partitions(h: int) -> list[Partition]:
    """All partitions of h, each exactly once."""
    return [tuple(reversed(p)) for p in _partitions(h, 1)]


def enum_star_partitions(h: int) -> list[StarForest]:
    """Partitions of h with every part >= 2, i.e. the star forests on h vertices."""
    return [StarForest(p) for p in _partitions(h, 2)]


# ---------------------------------------------------------------------------
# matching a dominating set across the cut


def dominating_matching(g: Graph, dom: Iterable[int]) -> set[tuple[int, int]]:
    """A matching of size |D| whose edges all join D to V \\ D.

    Exists whenever D is a minimum dominating set of an isolated-vertex-free
    graph (via Kőnig on the bipartite cut graph); raises if no such matching
    does, which means the caller's precondition was violated.
    """
    dset = set(dom)
    if g.isolated_vertices():
        raise PreconditionError("graph has isolated vertices")
    if not all(0 <= v < g.n for v in dset):
        raise PreconditionError("dominating set contains out-of-range vertices")
    cut = Graph.from_edges(g.n, [(u, w) for u in dset for w in g.adjacency[u] if w not in dset])
    # every cut edge has exactly one end in D, so a matching of size |D| covers D
    matching = max_matching(cut)
    if len(matching) < len(dset):
        raise PreconditionError("D not a minimum dominating set")
    return {(u, w) if u in dset else (w, u) for u, w in matching}
