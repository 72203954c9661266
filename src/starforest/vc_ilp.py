"""Exact algorithm parameterized by the vertex cover sizes of both graphs.

For each graph: fix a minimum vertex cover, bucket the independent-set
vertices into twin classes by exact neighbourhood, then guess the shape of
the solution's stars anchored on the cover: which cover vertices centre
type-I stars, how many leftover cover vertices each of them takes as
leaves, and the (class, leaf-set) description of type-II stars, those
centred outside the cover.  A guess pair plus a star-matching bijection
yields one small integer program; the answer is the best optimum over all
guesses.

A guess guesses only what the program cannot decide.  A type-II star has at
least two cover leaves: a one-leaf type-II star is an edge {v, c} with v
independent and c in the cover, and the guess that makes c a type-I centre
taking no cover vertex and one leaf from v's class reaches the same forests
with the same class capacities and the same leftover cover vertices.  The
program reads only how many leftover cover vertices each centre takes
(beta), so a guess fixes those counts and not which vertices they are.

Each side guess carries a size range [lo, hi] per star; a type-II star's
range is its one size.  Matched stars have equal sizes, so a pair that
matches two disjoint ranges has no solution, and any other pair gives at
most the sum over matched stars of min(hi1, hi2).  The pairs whose ranges
meet come in decreasing order of that bound, and the search stops at the
first whose bound, capped at the smaller graph's order, does not beat the
best answer so far.  The program bounds each matched star's size by the
intersection of its two ranges, so only two matched type-I stars need an
equality row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import itemgetter
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

    @property
    def n(self) -> int:
        return len(self.cover) + sum(len(m) for m in self.classes.values())

    def class_size(self, key: frozenset[int]) -> int:
        return len(self.classes.get(key, ()))


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
class SideGuess:
    """One graph's half of a guess; star indices run type-I first, then type-II."""

    type1_centres: tuple[int, ...]
    # (class key, cover leaves), at least two leaves: one leaf is a type-I star
    type2_stars: tuple[tuple[frozenset[int], frozenset[int]], ...]
    # per type-I star: cover vertices it contains, centre included; which
    # leftover cover vertices make up the count is not part of the guess
    beta: tuple[int, ...]
    # per star: attainable [lo, hi] size; a type-II star's is its fixed size
    ranges: tuple[tuple[int, int], ...]

    @property
    def p(self) -> int:
        return len(self.type1_centres)

    @property
    def q(self) -> int:
        return len(self.type2_stars)

    @property
    def stars(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class GuessPair:
    side1: SideGuess
    side2: SideGuess
    pi: tuple[int, ...]  # star i on side 1 pairs with star pi[i] on side 2


def _canon_key(key: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(key))


def enumerate_side_guesses(g: Graph, tc: TwinClasses) -> Iterator[SideGuess]:
    cover = tc.cover
    a = len(cover)
    for p in range(a + 1):
        for centres in combinations(cover, p):
            cset = set(centres)
            # all possible type-II stars: a twin class to anchor the centre in,
            # plus at least two leaves inside its key, avoiding the centres
            cands: list[tuple[frozenset[int], frozenset[int]]] = []
            for key in tc.classes:
                avail = sorted(key - cset)
                for size in range(2, len(avail) + 1):
                    for leaves in combinations(avail, size):
                        cands.append((key, frozenset(leaves)))
            cands.sort(key=lambda c: (_canon_key(c[0]), _canon_key(c[1])))
            # each type-II star takes two or more of the a - p non-centres
            for q in range((a - p) // 2 + 1):
                for chosen in combinations(range(len(cands)), q):
                    stars = [cands[i] for i in chosen]
                    taken: set[int] = set()
                    per_key: dict[frozenset[int], int] = {}
                    ok = True
                    for key, leaves in stars:
                        if leaves & taken:
                            ok = False
                            break
                        taken |= leaves
                        per_key[key] = per_key.get(key, 0) + 1
                        if per_key[key] > tc.class_size(key):
                            ok = False
                            break
                    if not ok:
                        continue
                    yield from _assign_cover_roles(g, tc, centres, tuple(stars), taken)


def _assign_cover_roles(
    g: Graph,
    tc: TwinClasses,
    centres: tuple[int, ...],
    type2: tuple[tuple[frozenset[int], frozenset[int]], ...],
    type2_leaves: set[int],
) -> Iterator[SideGuess]:
    """One guess per distinct beta the leftover cover vertices can give."""
    rest = [w for w in tc.cover if w not in centres and w not in type2_leaves]
    caps = _capacities(type2, tc)
    # a type-I star may take every usable vertex of the classes around its
    # centre (ignoring that other stars share them)
    rooms = [sum(cap for key, cap in caps.items() if c in key) for c in centres]
    # a leftover cover vertex may hang off an adjacent type-I centre, or sit out (-1)
    choice_lists = [
        [-1] + [i for i, c in enumerate(centres) if g.has_edge(w, c)] for w in rest
    ]
    betas = dict.fromkeys(
        tuple(1 + picks.count(i) for i in range(len(centres)))
        for picks in product(*choice_lists)
    )
    fixed = tuple((1 + len(leaves),) * 2 for _, leaves in type2)
    for beta in betas:
        ranges = tuple((max(2, b), b + room) for b, room in zip(beta, rooms)) + fixed
        yield SideGuess(centres, type2, beta, ranges)


def enumerate_guesses(
    g1: Graph, g2: Graph, tc1: TwinClasses, tc2: TwinClasses
) -> Iterator[GuessPair]:
    """Every guess pair whose program can be feasible, once, by decreasing bound.

    A pair matches the stars of two side guesses of one star count in any
    order; it is kept when pair_bound finds its matched ranges meet, which
    also rules out two type-II stars of different sizes.  Pairs of equal
    bound keep their enumeration order.
    """
    sides2: dict[int, list[SideGuess]] = {}
    for s2 in enumerate_side_guesses(g2, tc2):
        sides2.setdefault(s2.stars, []).append(s2)
    bounded: list[tuple[int, GuessPair]] = []
    for s1 in enumerate_side_guesses(g1, tc1):
        for s2 in sides2.get(s1.stars, ()):
            for pi in permutations(range(s1.stars)):
                pair = GuessPair(s1, s2, pi)
                bound = pair_bound(pair)
                if bound is not None:
                    bounded.append((bound, pair))
    bounded.sort(key=itemgetter(0), reverse=True)  # stable
    for _, pair in bounded:
        yield pair


def _capacities(type2_stars: tuple, tc: TwinClasses) -> dict[frozenset[int], int]:
    """Per-class budget of independent-set vertices usable as type-I leaves."""
    anchored: dict[frozenset[int], int] = {}
    for key, _ in type2_stars:
        anchored[key] = anchored.get(key, 0) + 1
    return {key: tc.class_size(key) - anchored.get(key, 0) for key in tc.classes}


def pair_bound(pair: GuessPair) -> int | None:
    """Upper bound on the forest size of the pair's program, or None if it is infeasible.

    Matched stars have equal sizes, so each is at most min(hi1, hi2) and the
    program is infeasible when two matched ranges are disjoint.
    """
    ranges2 = pair.side2.ranges
    total = 0
    for (lo1, hi1), j in zip(pair.side1.ranges, pair.pi):
        lo2, hi2 = ranges2[j]
        hi = min(hi1, hi2)
        if max(lo1, lo2) > hi:
            return None
        total += hi
    return total


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
        caps = list(_capacities(side.type2_stars, tc).items())
        # a class can give leaves only to the centres in its neighbourhood key
        takes = [
            [idx for idx, (key, _) in enumerate(caps) if c in key]
            for c in side.type1_centres
        ]
        for i, idxs in enumerate(takes):
            model.add_var(f"{size}_{i}", *meet[size, i])
            for idx in idxs:
                model.add_var(f"{leaf}_{i}_c{idx}", 0, max(caps[idx][1], 0))
            coeffs = {f"{size}_{i}": 1}
            coeffs.update({f"{leaf}_{i}_c{idx}": -1 for idx in idxs})
            model.add_constraint(coeffs, bip.EQ, side.beta[i])
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
