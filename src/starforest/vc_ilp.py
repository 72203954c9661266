"""Exact algorithm parameterized by the vertex cover sizes of both graphs.

For each graph: fix a minimum vertex cover, bucket the independent-set
vertices into twin classes by exact neighbourhood, then guess the shape of
the solution's stars anchored on the cover: which cover vertices centre
type-I stars, and the (class, leaf-set) description of type-II stars, those
centred outside the cover.  This skeleton is one graph's half of a guess.  A
guess pair plus a star-matching bijection yields one small integer program;
the answer is the best optimum over all guesses.

A guess guesses only what the program cannot decide.  A type-II star has at
least two cover leaves: a one-leaf type-II star is an edge {v, c} with v
independent and c in the cover, and the guess that makes c a type-I centre
with one leaf from v's class reaches the same forests with the same class
capacities and the same leftover cover vertices.  A leftover cover vertex,
neither a centre nor a type-II leaf, that neighbours a centre is one more
leaf class to the program: capacity 1, keyed by the centres it neighbours.
The program picks which centre, if any, takes it, just as it picks leaves
from the twin classes.

Each skeleton carries a size range [lo, hi] per star: a type-I star's is
[2, 1 + room + adjacent leftover vertices], a type-II star's is its one
size.  Matched stars have equal sizes, so a pair that matches two disjoint
ranges has no solution, and any other pair gives at most the sum over
matched stars of min(hi1, hi2), capped at both skeletons' bounds.  A
skeleton's bound, p plus the leftover cover vertices adjacent to some
centre plus the centres' rooms plus the type-II sizes, bounds every forest
it can give.  One heap holds pairs of skeletons of one star count, keyed by
the smaller skeleton bound, and concrete pairs, keyed by their bound; each
key bounds every pair beneath it, so pairs come out in non-increasing bound
order and only the part of the search that can still win is expanded, and
a skeleton's ranges are built only when a pair of it is.  The search stops
at the first pair whose bound, capped at the smaller graph's order, does
not beat the best answer so far.  The program bounds each matched star's
size by the intersection of its two ranges, so only two matched type-I
stars need an equality row.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count, permutations
from typing import Iterator

from . import bip
from .errors import PreconditionError, ResourceLimitError
from .graph import Graph, min_vertex_cover

# the largest cover the guess enumeration handles in interactive time;
# solve_vc refuses a larger bound, and the CLI chooses this route up to it
MAX_COVER = 3


@dataclass(frozen=True)
class TwinClasses:
    cover: tuple[int, ...]
    classes: dict[frozenset[int], tuple[int, ...]]  # exact neighbourhood -> members


def twin_classes(g: Graph, cover) -> TwinClasses:
    cset = set(cover)
    for u, v in g.edges():
        if u not in cset and v not in cset:
            raise PreconditionError(f"not a vertex cover: edge ({u},{v}) uncovered")
    buckets: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        if v in cset:
            continue
        buckets.setdefault(frozenset(g.adjacency[v]), []).append(v)
    ordered = {
        key: tuple(buckets[key])
        for key in sorted(buckets, key=lambda k: tuple(sorted(k)))
    }
    return TwinClasses(tuple(sorted(cset)), ordered)


@dataclass(frozen=True)
class Skeleton:
    """One graph's half of a guess; star indices run type-I first, then type-II."""

    centres: tuple[int, ...]  # type-I centres
    # (class key, cover leaves), at least two leaves: one leaf is a type-I star
    type2_stars: tuple[tuple[frozenset[int], frozenset[int]], ...]
    # per leftover cover vertex next to a centre (no centre, no type-II leaf):
    # the centres it neighbours, the key of its capacity-1 class
    leftover: tuple[frozenset[int], ...]
    # per centre, every usable vertex of the classes around it (ignoring
    # that other stars share them): the most leaves it can take from them
    rooms: tuple[int, ...]
    # the most vertices its stars can cover: each leftover vertex joins one
    bound: int

    @property
    def p(self) -> int:
        return len(self.centres)

    @property
    def q(self) -> int:
        return len(self.type2_stars)

    @property
    def stars(self) -> int:
        return self.p + self.q

    @cached_property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """Per star, its attainable [lo, hi] size; a type-II star's is its fixed size.

        Built on first use: when the search first expands a pair of this skeleton.
        """
        return tuple(
            (2, 1 + room + sum(c in key for key in self.leftover))
            for c, room in zip(self.centres, self.rooms)
        ) + tuple((1 + len(leaves),) * 2 for _, leaves in self.type2_stars)


@dataclass(frozen=True)
class GuessPair:
    side1: Skeleton
    side2: Skeleton
    pi: tuple[int, ...]  # star i on side 1 pairs with star pi[i] on side 2


def enumerate_skeletons(g: Graph, tc: TwinClasses) -> Iterator[Skeleton]:
    """Every skeleton one graph's half of a guess can have, each once."""
    cover = tc.cover
    a = len(cover)
    # a centre's room before any type-II star anchors in its classes
    room = {c: sum(len(m) for key, m in tc.classes.items() if c in key) for c in cover}
    for p in range(a + 1):
        for centres in combinations(cover, p):
            cset = set(centres)
            others = tuple(w for w in cover if w not in cset)
            rooms0 = tuple(room[c] for c in centres)
            # the non-centres that can hang off a centre, with the centres they neighbour
            near = {w: key for w in others if (key := frozenset(g.adjacency[w]) & cset)}
            yield Skeleton(centres, (), tuple(near.values()), rooms0, p + len(near) + sum(rooms0))
            if a - p < 2:
                continue  # each type-II star takes two or more of the non-centres
            # all possible type-II stars: a twin class to anchor the centre in,
            # plus at least two leaves inside its key, avoiding the centres
            cands: list[tuple[frozenset[int], frozenset[int]]] = []
            for key in tc.classes:
                avail = sorted(key - cset)
                for size in range(2, len(avail) + 1):
                    for leaves in combinations(avail, size):
                        cands.append((key, frozenset(leaves)))
            for q in range(1, (a - p) // 2 + 1):
                for stars in combinations(cands, q):
                    taken: set[int] = set()
                    keys: list[frozenset[int]] = []
                    for key, leaves in stars:
                        # no two stars share a leaf, and each class holds its stars' centres
                        if leaves & taken or keys.count(key) == len(tc.classes[key]):
                            break
                        taken |= leaves
                        keys.append(key)
                    else:
                        # a type-II star's centre leaves its class to no type-I star
                        rooms = tuple(
                            room - sum(c in key for key in keys)
                            for c, room in zip(centres, rooms0)
                        )
                        leftover = tuple(key for w, key in near.items() if w not in taken)
                        bound = p + len(leftover) + sum(rooms) + q + len(taken)
                        yield Skeleton(centres, stars, leftover, rooms, bound)


# heap entry kinds; at equal keys a concrete pair pops before a skeleton pair
# that might still produce another pair of that bound
_PAIR, _SKELETONS = range(2)


def enumerate_guesses(
    g1: Graph, g2: Graph, tc1: TwinClasses, tc2: TwinClasses
) -> Iterator[GuessPair]:
    """Every guess pair whose program can be feasible, once, by non-increasing bound.

    A pair matches the stars of two skeletons of one star count in any
    order; it is kept when pair_bound finds its matched ranges meet, which
    also rules out two type-II stars of different sizes.  The search is lazy
    and best first over one heap: a pair of skeletons is keyed by the
    smaller skeleton bound, and a concrete pair by pair_bound, which is
    capped at both.  Each key bounds every pair beneath it, so a pair is
    yielded only when nothing left in the heap can beat it, and a consumer
    that stops early leaves the rest of the search unexpanded.
    """
    by_stars: dict[int, list[Skeleton]] = {}
    for sk2 in enumerate_skeletons(g2, tc2):
        by_stars.setdefault(sk2.stars, []).append(sk2)
    seq = count()  # breaks ties within a kind, so payloads are never compared
    # (-key, kind, seq, payload): the heap pops the largest key first
    heap: list[tuple] = [
        (-min(sk1.bound, sk2.bound), _SKELETONS, next(seq), (sk1, sk2))
        for sk1 in enumerate_skeletons(g1, tc1)
        for sk2 in by_stars.get(sk1.stars, ())
    ]
    heapq.heapify(heap)
    while heap:
        _, kind, _, item = heapq.heappop(heap)
        if kind == _PAIR:
            yield item
            continue
        s1, s2 = item
        for pi in permutations(range(s1.stars)):
            pair = GuessPair(s1, s2, pi)
            bound = pair_bound(pair)
            if bound is not None:
                heapq.heappush(heap, (-bound, _PAIR, next(seq), pair))


def pair_bound(pair: GuessPair) -> int | None:
    """Upper bound on the forest size of the pair's program, or None if it is infeasible.

    Matched stars have equal sizes, so each is at most min(hi1, hi2) and the
    program is infeasible when two matched ranges are disjoint.  A leftover
    vertex counts in the hi of every centre it neighbours, so the sum is
    capped at both skeletons' bounds.
    """
    ranges2 = pair.side2.ranges
    total = 0
    for (lo1, hi1), j in zip(pair.side1.ranges, pair.pi):
        lo2, hi2 = ranges2[j]
        hi = min(hi1, hi2)
        if max(lo1, lo2) > hi:
            return None
        total += hi
    return min(total, pair.side1.bound, pair.side2.bound)


def build_vc_model(pair: GuessPair, tc1: TwinClasses, tc2: TwinClasses) -> bip.BipModel:
    """The pair's program: maximise side 1's type-I sizes; the pair must have a bound."""
    s1, s2 = pair.side1, pair.side2
    # matched stars have equal sizes, so both lie in the meet of their ranges
    meet: dict[tuple[str, int], tuple[int, int]] = {}
    for i, j in enumerate(pair.pi):
        (lo1, hi1), (lo2, hi2) = s1.ranges[i], s2.ranges[j]
        meet["alpha", i] = meet["gamma", j] = (max(lo1, lo2), min(hi1, hi2))
    model = bip.BipModel()
    for size, leaf, side, tc in (("alpha", "x", s1, tc1), ("gamma", "y", s2, tc2)):
        # the twin classes less their type-II centres, then one capacity-1
        # class per leftover cover vertex
        anchored = [key for key, _ in side.type2_stars]
        caps = [(key, len(m) - anchored.count(key)) for key, m in tc.classes.items()]
        caps += [(key, 1) for key in side.leftover]
        # a class can give leaves only to the centres in its key
        takes = [[idx for idx, (key, _) in enumerate(caps) if c in key] for c in side.centres]
        for i, idxs in enumerate(takes):
            model.add_var(f"{size}_{i}", *meet[size, i])
            for idx in idxs:
                model.add_var(f"{leaf}_{i}_c{idx}", 0, caps[idx][1])
            coeffs = {f"{size}_{i}": 1}
            coeffs.update({f"{leaf}_{i}_c{idx}": -1 for idx in idxs})
            model.add_constraint(coeffs, bip.EQ, 1)
        for idx, (_, cap) in enumerate(caps):
            row = {f"{leaf}_{i}_c{idx}": 1 for i, idxs in enumerate(takes) if idx in idxs}
            if row:
                model.add_constraint(row, bip.LE, cap)

    # a type-II partner fixes a type-I star's size through its bounds
    for i, j in enumerate(pair.pi[: s1.p]):
        if j < s2.p:
            model.add_constraint({f"alpha_{i}": 1, f"gamma_{j}": -1}, bip.EQ, 0)

    model.set_objective({f"alpha_{i}": 1 for i in range(s1.p)})
    return model


def solve_vc(g1: Graph, g2: Graph, k: int) -> int:
    """Largest common star forest size, given both covers are within k.

    Raises ResourceLimitError for k above MAX_COVER, before any cover search.
    """
    if k > MAX_COVER:
        raise ResourceLimitError(f"cover bound {k} exceeds the limit {MAX_COVER}")
    cover1 = min_vertex_cover(g1, k)
    cover2 = min_vertex_cover(g2, k)
    for g, cover, tag in ((g1, cover1, "first"), (g2, cover2, "second")):
        if cover is None:
            raise PreconditionError(
                f"{tag} graph has no vertex cover of at most k={k} vertices"
            )
    tc1 = twin_classes(g1, cover1)
    tc2 = twin_classes(g2, cover2)
    ceiling = min(g1.n, g2.n)
    best = 0
    for pair in enumerate_guesses(g1, g2, tc1, tc2):
        if min(pair_bound(pair), ceiling) <= best:
            break
        sol = bip.solve(build_vc_model(pair, tc1, tc2))
        if sol.status == "optimal":
            type2 = sum(lo for lo, _ in pair.side1.ranges[pair.side1.p :])
            best = max(best, sol.objective_value + type2)
    return best
