"""Integer partitions, packed integer-vector sumsets, and the dominating-set matching.

The sumset is the workhorse of the treewidth DP's join step.  A vector with
coordinates in [0, base) is packed into one Python int, coordinate j times
base**j (Kronecker substitution).  Packing is linear, so vector addition is
int addition while no coordinate of a sum reaches the base, and a sumset is
a double loop of int additions.  The tuple double loop `_sumset_naive` stays
as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import PreconditionError
from .graph import Graph, StarForest

Partition = tuple[int, ...]  # parts sorted non-increasing


def enum_partitions(h: int) -> list[Partition]:
    """All partitions of h, each exactly once.

    Recursive scheme: grow parts non-decreasingly, close each branch with the
    remainder; output is reversed into non-increasing order.
    """
    if h < 0:
        raise PreconditionError("h must be non-negative")
    if h == 0:
        return [()]
    out: list[Partition] = []

    def rec(prefix: list[int], total: int):
        rem = h - total
        out.append(tuple(reversed(prefix + [rem])))
        lo = prefix[-1] if prefix else 1
        for part in range(lo, rem // 2 + 1):
            rec(prefix + [part], total + part)

    rec([], 0)
    return out


def enum_star_partitions(h: int) -> list[StarForest]:
    """Partitions of h with every part >= 2, i.e. the star forests on h vertices."""
    if h < 0:
        raise PreconditionError("h must be non-negative")
    if h == 0:
        return [StarForest(())]
    out: list[StarForest] = []

    def rec(prefix: list[int], total: int):
        rem = h - total
        out.append(StarForest(tuple(prefix + [rem])))
        lo = prefix[-1] if prefix else 2
        for part in range(lo, rem // 2 + 1):
            rec(prefix + [part], total + part)

    if h >= 2:
        rec([], 0)
    return out


# ---------------------------------------------------------------------------
# sumsets of packed integer vectors


def pack(vec: Iterable[int], base: int) -> int:
    """Kronecker substitution: coordinate j of the vector weighs base**j."""
    code = 0
    for c in reversed(tuple(vec)):
        code = code * base + c
    return code


def unpack(code: int, dimension: int, base: int) -> tuple[int, ...]:
    """Inverse of pack for a vector with coordinates in [0, base)."""
    vec = []
    for _ in range(dimension):
        code, c = divmod(code, base)
        vec.append(c)
    return tuple(vec)


@dataclass(frozen=True)
class IntVectorSet:
    """A set of d-dimensional vectors with coordinates in [0, base), each packed into one int."""

    dimension: int
    base: int
    members: frozenset[int]

    @staticmethod
    def of(vectors: Iterable[tuple[int, ...]], dimension: int, base: int) -> "IntVectorSet":
        """Pack tuples, rejecting a wrong length or a coordinate outside [0, base)."""
        if dimension < 1 or base < 2:
            raise PreconditionError("dimension must be positive and base at least 2")
        packed = set()
        for vec in vectors:
            if len(vec) != dimension:
                raise PreconditionError(f"vector {vec} has dimension != {dimension}")
            if any(c < 0 or c >= base for c in vec):
                raise PreconditionError(f"vector {vec} outside [0, {base})")
            packed.add(pack(vec, base))
        return IntVectorSet(dimension, base, frozenset(packed))

    def vectors(self) -> frozenset[tuple[int, ...]]:
        return frozenset(unpack(m, self.dimension, self.base) for m in self.members)


def sumset(a: IntVectorSet, b: IntVectorSet) -> IntVectorSet:
    """Componentwise sumset {x + y | x in A, y in B}, in the same packing.

    Packing is linear, so this is exact while no coordinate of a sum reaches
    the base; choosing a base that keeps it so is the caller's invariant.
    """
    if a.dimension != b.dimension or a.base != b.base:
        raise PreconditionError(
            f"shape mismatch: dimension {a.dimension} base {a.base}"
            f" vs dimension {b.dimension} base {b.base}"
        )
    return IntVectorSet(
        a.dimension, a.base, frozenset({x + y for x in a.members for y in b.members})
    )


def _sumset_naive(amems: Iterable[tuple[int, ...]], bmems: Iterable[tuple[int, ...]]):
    """Quadratic sumset over tuples: the reference the packed sumset is tested against."""
    return {tuple(x + y for x, y in zip(va, vb)) for va in amems for vb in bmems}


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
    left = sorted(dset)
    right = [v for v in range(g.n) if v not in dset]
    rpos = {v: i for i, v in enumerate(right)}
    adj = [[rpos[w] for w in g.adjacency[v] if w in rpos] for v in left]
    match_l, match_r = _hopcroft_karp(len(left), len(right), adj)
    size = sum(1 for m in match_l if m != -1)
    if size < len(left):
        raise PreconditionError("D not a minimum dominating set")
    return {(left[i], right[match_l[i]]) for i in range(len(left))}


def _hopcroft_karp(nl: int, nr: int, adj: list[list[int]]) -> tuple[list[int], list[int]]:
    INF = float("inf")
    match_l = [-1] * nl
    match_r = [-1] * nr
    while True:
        dist = [INF] * nl
        queue = [u for u in range(nl) if match_l[u] == -1]
        for u in queue:
            dist[u] = 0
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] is INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            break

        def try_augment(u: int) -> bool:
            for v in adj[u]:
                w = match_r[v]
                if w == -1 or (dist[w] == dist[u] + 1 and try_augment(w)):
                    match_l[u] = v
                    match_r[v] = u
                    return True
            dist[u] = INF
            return False

        for u in range(nl):
            if match_l[u] == -1:
                try_augment(u)
    return match_l, match_r
