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


def counts_to_sizes(vec: CountVector) -> tuple[int, ...]:
    sizes: list[int] = []
    for j, c in enumerate(vec):
        sizes.extend([j + 2] * c)
    return tuple(sorted(sizes, reverse=True))


def vector_total(vec: CountVector) -> int:
    """Number of vertices covered: sum of d * c_d."""
    return sum((j + 2) * c for j, c in enumerate(vec))


@dataclass(frozen=True)
class VectorFamily:
    """All star-count vectors achievable as star packings of one graph."""

    delta: int
    vectors: frozenset[CountVector]

    def __post_init__(self):
        for vec in self.vectors:
            if len(vec) != self.delta:
                raise PreconditionError(f"vector {vec} has length != delta={self.delta}")


def best_common(fam1: VectorFamily, fam2: VectorFamily) -> tuple[int, CountVector]:
    """Largest total over the intersection; ties broken by the vector itself."""
    if fam1.delta != fam2.delta:
        raise PreconditionError(f"families have different deltas {fam1.delta} and {fam2.delta}")
    common = fam1.vectors & fam2.vectors
    if not common:
        raise PreconditionError("families share no vector, not even the empty one")
    return max((vector_total(v), v) for v in common)


def common_forest(fam1: VectorFamily, fam2: VectorFamily) -> tuple[int, StarForest]:
    size, vec = best_common(fam1, fam2)
    return size, StarForest(counts_to_sizes(vec))
