"""Star-count vectors and families of them, packed into ints.

A vector is a tuple (c_2, ..., c_{delta+1}): entry j counts stars of size
j+2.  A family holds every vector realizable as a star packing of one graph,
each packed into one int: coordinate j weighs base**j (Kronecker
substitution), every coordinate in [0, base).  Packing is linear, so vector
addition is int addition while no coordinate of a sum reaches the base, and
a sumset is a double loop of int additions; the tests compare it against a
sumset of tuples.  The common-subgraph answer is read off the intersection of
two families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .errors import PreconditionError
from .graph import StarForest

CountVector = tuple[int, ...]


def counts_to_sizes(vec: CountVector) -> tuple[int, ...]:
    sizes: list[int] = []
    for j, c in enumerate(vec):
        sizes.extend([j + 2] * c)
    return tuple(sorted(sizes, reverse=True))


def pack(vec: Iterable[int], base: int) -> int:
    """Kronecker substitution: coordinate j of the vector weighs base**j."""
    code = 0
    for c in reversed(tuple(vec)):
        code = code * base + c
    return code


def unpack(code: int, delta: int, base: int) -> CountVector:
    """Inverse of pack for a vector with coordinates in [0, base)."""
    vec = []
    for _ in range(delta):
        code, c = divmod(code, base)
        vec.append(c)
    return tuple(vec)


@dataclass(frozen=True)
class VectorFamily:
    """Delta-long star-count vectors with coordinates in [0, base), each packed into one int.

    `members` is read-only by contract: it may be a plain set that its maker
    keeps (a fresh sumset, a component's packings), so nobody mutates it.
    """

    delta: int
    base: int
    members: AbstractSet[int]  # read-only

    @staticmethod
    def of(vectors: Iterable[CountVector], delta: int, base: int) -> "VectorFamily":
        """Pack tuples, rejecting a wrong length or a coordinate outside [0, base)."""
        if delta < 0 or base < 2:
            raise PreconditionError("delta must be non-negative and base at least 2")
        packed = set()
        for vec in vectors:
            if len(vec) != delta:
                raise PreconditionError(f"vector {vec} has length != delta={delta}")
            if any(c < 0 or c >= base for c in vec):
                raise PreconditionError(f"vector {vec} outside [0, {base})")
            packed.add(pack(vec, base))
        return VectorFamily(delta, base, frozenset(packed))

    @property
    def vectors(self) -> frozenset[CountVector]:
        return frozenset(unpack(m, self.delta, self.base) for m in self.members)

    def rebase(self, base: int) -> "VectorFamily":
        """The same vectors packed at `base`; a smaller base must still exceed every coordinate."""
        if base == self.base:
            return self
        digits = (c for m in self.members for c in unpack(m, self.delta, self.base))
        if base < self.base and any(c >= base for c in digits):
            raise PreconditionError(f"a coordinate of the family does not fit base {base}")
        moved = _digit_sums(
            list(self.members), [self.base] * self.delta, [base**j for j in range(self.delta)]
        )
        return VectorFamily(self.delta, base, frozenset(moved))


def _digit_sums(codes: list[int], radices: list[int], coefs: list[int]) -> list[int]:
    """sum(coefs[j] * digit j) of each mixed-radix code, digit j in [0, radices[j]), without
    decoding: digit j is q_j - radices[j] * q_(j+1) for q_j = code // (radices[0] * ... *
    radices[j-1]), so the sum is linear in the q_j, weighing q_j by coefs[j] - radices[j-1] *
    coefs[j-1]."""
    sums = [0] * len(codes)
    place = 1
    carried = 0  # radices[j-1] * coefs[j-1]
    for coef, radix in zip(coefs, radices):
        weight = coef - carried
        sums = [s + code // place * weight for s, code in zip(sums, codes)]
        place *= radix
        carried = radix * coef
    return sums


def sumset(a: VectorFamily, b: VectorFamily) -> VectorFamily:
    """Componentwise sumset {x + y | x in A, y in B}, in the same packing.

    Packing is linear, so this is exact while no coordinate of a sum reaches
    the base; choosing a base that keeps it so is the caller's invariant.
    """
    if a.delta != b.delta or a.base != b.base:
        raise PreconditionError(
            f"shape mismatch: delta {a.delta} base {a.base} vs delta {b.delta} base {b.base}"
        )
    return VectorFamily(a.delta, a.base, {x + y for x in a.members for y in b.members})


def best_common(fam1: VectorFamily, fam2: VectorFamily) -> tuple[int, CountVector]:
    """Largest total over the intersection; ties broken by the vector itself.

    Families of different bases are compared after re-packing the one with
    the smaller base into the larger: its coordinates fit there too.  Totals
    are read off the packed members, and only the top ones are decoded.
    """
    if fam1.delta != fam2.delta:
        raise PreconditionError(f"families have different deltas {fam1.delta} and {fam2.delta}")
    small, large = sorted((fam1, fam2), key=lambda fam: fam.base)
    common = list(large.members & small.rebase(large.base).members)
    if not common:
        raise PreconditionError("families share no vector, not even the empty one")
    totals = _digit_sums(common, [large.base] * large.delta, list(range(2, large.delta + 2)))
    top = max(totals)
    return top, max(unpack(m, large.delta, large.base) for m, t in zip(common, totals) if t == top)


def common_forest(fam1: VectorFamily, fam2: VectorFamily) -> tuple[int, StarForest]:
    size, vec = best_common(fam1, fam2)
    return size, StarForest(counts_to_sizes(vec))
