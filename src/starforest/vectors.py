"""Star-count vectors and families of them.

A vector is a plain tuple (c_2, ..., c_{delta+1}): entry j counts stars of
size j+2.  Families collect every vector realizable as a star packing of one
graph; the common-subgraph answer is read off the intersection of two
families.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .graph import StarForest

CountVector = tuple[int, ...]


def zero_vector(delta: int) -> CountVector:
    return (0,) * delta


def sizes_to_counts(sizes, delta: int) -> CountVector:
    counts = [0] * delta
    for s in sizes:
        if not 2 <= s <= delta + 1:
            raise PreconditionError(f"star size {s} outside [2, {delta + 1}]")
        counts[s - 2] += 1
    return tuple(counts)


def counts_to_sizes(vec: CountVector) -> tuple[int, ...]:
    sizes: list[int] = []
    for j, c in enumerate(vec):
        sizes.extend([j + 2] * c)
    return tuple(sorted(sizes, reverse=True))


def vector_total(vec: CountVector) -> int:
    """Number of vertices covered: sum of d * c_d."""
    return sum((j + 2) * c for j, c in enumerate(vec))


def pad_vector(vec: CountVector, delta: int) -> CountVector:
    if len(vec) > delta and any(vec[delta:]):
        raise PreconditionError("vector has stars larger than the target bound")
    return tuple(vec[:delta]) + (0,) * (delta - len(vec))


@dataclass(frozen=True)
class VectorFamily:
    """All star-count vectors achievable as star packings of one graph."""

    delta: int
    vectors: frozenset[CountVector]

    def __post_init__(self):
        for vec in self.vectors:
            if len(vec) != self.delta:
                raise PreconditionError(f"vector {vec} has length != delta={self.delta}")

    def rescaled(self, delta: int) -> "VectorFamily":
        return VectorFamily(delta, frozenset(pad_vector(v, delta) for v in self.vectors))


def best_common(fam1: VectorFamily, fam2: VectorFamily) -> tuple[int, CountVector]:
    """Largest total over the intersection; ties broken by the vector itself."""
    delta = max(fam1.delta, fam2.delta)
    common = fam1.rescaled(delta).vectors & fam2.rescaled(delta).vectors
    if not common:
        raise PreconditionError("families share no vector, not even the empty one")
    return max((vector_total(v), v) for v in common)


def common_forest(fam1: VectorFamily, fam2: VectorFamily) -> tuple[int, StarForest]:
    size, vec = best_common(fam1, fam2)
    return size, StarForest(counts_to_sizes(vec))
