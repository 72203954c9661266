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
    cut = Graph.from_edges(g.n, [(u, w) for u in dset for w in g.adjacency[u] if w not in dset])
    # every cut edge has exactly one end in D, so a matching of size |D| covers D
    matching = max_matching(cut)
    if len(matching) < len(dset):
        raise PreconditionError("D not a minimum dominating set")
    return {(u, w) if u in dset else (w, u) for u, w in matching}
