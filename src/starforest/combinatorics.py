"""Integer partitions and the dominating-set matching.

Star partitions are the star forests `solve_h` tries to embed.  The
packed star-count vectors and their sumsets live in `vectors`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import PreconditionError
from .graph import Graph, StarForest, max_matching

Partition = tuple[int, ...]  # parts sorted non-increasing


def _partitions(h: int, smallest: int) -> Iterator[Partition]:
    """Partitions of h into parts >= smallest (1 or 2), lexicographically decreasing.

    Lazy: the next partition keeps the longest prefix it can.  Its last part
    that can shrink becomes one smaller, and the parts after it are refilled
    as large as they can be.  Under parts >= 2 the last part shrinks by two
    (a lone 1 cannot be refilled), and a part shrunk to 2 needs an even
    remainder.
    """
    if h == 0:
        yield ()
        return
    if h < smallest:
        return
    parts = [h]
    while True:
        yield tuple(parts)
        rest = 0  # what the shrunk part leaves to refill
        while parts:
            part = parts.pop() - 1
            rest += 1
            if rest < smallest:  # a lone 1 under parts >= 2
                part -= 1
                rest += 1
            if part >= smallest and (part > smallest or rest % part == 0):
                break
            rest += part
        else:
            return
        full, left = divmod(rest, part)
        parts += [part] * (full + 1)  # the shrunk part, then its copies
        if left >= smallest:
            parts.append(left)
        elif left:  # a lone 1 under parts >= 2: part + 1 becomes (part - 1, 2)
            parts[-1] -= 1
            parts.append(2)


def enum_partitions(h: int) -> list[Partition]:
    """All partitions of h, each exactly once."""
    if h < 0:
        raise PreconditionError("h must be non-negative")
    return list(_partitions(h, 1))


def enum_star_partitions(h: int) -> Iterator[StarForest]:
    """The star forests on h vertices (partitions of h with every part >= 2), lazily.

    They come lexicographically decreasing by star sizes: (h,) first, then
    (h - 2, 2), and so on, so a caller that stops at the first success never
    builds the rest.
    """
    if h < 0:
        raise PreconditionError("h must be non-negative")
    return (StarForest(p) for p in _partitions(h, 2))


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
