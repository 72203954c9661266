"""Decision procedure parameterized by the target size h.

Strategy: answer yes immediately when both graphs carry a ceil(h/2)-edge
matching (a matching is itself a star forest); otherwise walk the star
partitions of exactly h vertices (the partitions of h with every part at
least 2, built lazily here) and look for one embedding in both graphs.
Forest embedding runs either as exact backtracking or as randomized color
coding with one-sided error.  Exact backtracking places centres in
non-increasing star-size order.  One pass over the graph buckets the
vertices by degree into host bitmasks, one per leaf count; a level takes its
centres lowest index first from its star's host mask, less the used
vertices and those below its first allowed centre, so it never scans a
vertex that cannot be its centre.  A 2-star level walks the centre's edges
with no free-leaf list and only to leaves above the centre: the plain
backtracker's first embedding never holds a 2-star whose leaf is below its
centre, since centring that edge at its leaf gives an embedding the search
visits earlier.  So it returns the first embedding of the plain backtracker
and tries each edge as a 2-star in one orientation only.  It nests one
frame per star, so it refuses a forest of more than MAX_EXACT_STARS stars
with ResourceLimitError.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import PreconditionError, ResourceLimitError
from .graph import Embedding, Graph, Instance, StarForest, max_matching, verify_embedding


# Largest automatic trial count (h <= 9 at the default p = 0.01). One trial
# costs 0.15-42 ms on G(20..30, 0.3..0.5) at h = 12-14 (2-vCPU container), so
# h = 12's 7.5e5 automatic trials would take 110 s to hours per star partition.
MAX_AUTO_TRIALS = 100_000

# Most stars an exact embedding searches.  Its backtracker nests one Python
# frame per star, under Python's default recursion limit of 1000 frames; 500
# leaves room for the caller's frames.
MAX_EXACT_STARS = 500


@dataclass(frozen=True)
class ColorCodingConfig:
    trials: int | None = None  # None = auto from failure_probability
    failure_probability: float = 0.01
    rng_seed: int = 0

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise PreconditionError("trials must be >= 1")
        if not 0 < self.failure_probability < 1:
            raise PreconditionError("failure_probability must lie in (0,1)")

    def trial_count(self, h: int) -> int:
        if self.trials is not None:
            return self.trials
        # a fixed h-set is colorful with prob ~ e^-h per trial
        log_failures = math.log(1 / self.failure_probability)
        if h + math.log(log_failures) > math.log(MAX_AUTO_TRIALS):
            raise ResourceLimitError(
                f"color coding at h = {h} needs about e^{h} trials; set trials explicitly"
            )
        return max(1, math.ceil(math.exp(h) * log_failures))


def solve_h(
    inst: Instance,
    cfg: ColorCodingConfig = ColorCodingConfig(),
    mode: str = "exact",
) -> tuple[bool, tuple[StarForest, Embedding, Embedding] | None]:
    """Decide whether a common star forest of >= h vertices exists.

    Every yes comes with a verified certificate.  A no is exact in exact
    mode; under randomized embedding it carries the configured one-sided
    failure probability.
    """
    _check_mode(mode)
    h = inst.h
    if h < 0:
        raise PreconditionError("h must be non-negative")
    if h == 0:
        return True, (StarForest(()), Embedding(()), Embedding(()))
    if inst.trivially_no():
        return False, None

    need = (h + 1) // 2
    m1 = sorted(max_matching(inst.g1))
    m2 = sorted(max_matching(inst.g2))
    if len(m1) >= need and len(m2) >= need:
        forest = StarForest((2,) * need)
        emb1 = Embedding(tuple(m1[:need]))
        emb2 = Embedding(tuple(m2[:need]))
        assert verify_embedding(inst.g1, forest, emb1)
        assert verify_embedding(inst.g2, forest, emb2)
        return True, (forest, emb1, emb2)

    # lexicographically decreasing part order, built lazily; first success wins
    for forest in enum_star_partitions(h):
        emb1 = embeds_star_forest(inst.g1, forest, mode, cfg)
        if emb1 is None:
            continue
        emb2 = embeds_star_forest(inst.g2, forest, mode, cfg)
        if emb2 is None:
            continue
        assert verify_embedding(inst.g1, forest, emb1)
        assert verify_embedding(inst.g2, forest, emb2)
        return True, (forest, emb1, emb2)
    return False, None


def _partitions(h: int) -> Iterator[tuple[int, ...]]:
    """Partitions of h into parts >= 2, lexicographically decreasing.

    Lazy: the next partition keeps the longest prefix it can.  Its last part
    that can shrink becomes smaller, and the parts after it are refilled as
    large as they can be.  The last part shrinks by two (a lone 1 cannot be
    refilled), an earlier one by one, and a part shrunk to 2 needs an even
    remainder.
    """
    if h == 0:
        yield ()
        return
    if h < 2:
        return
    parts = [h]
    while True:
        yield tuple(parts)
        part, rest = parts.pop() - 2, 2  # rest: what the shrunk part leaves to refill
        while part < 2 or (part == 2 and rest % 2):
            if not parts:
                return
            rest += part + 1
            part = parts.pop() - 1
        full, left = divmod(rest, part)
        parts += [part] * (full + 1)  # the shrunk part, then its copies
        if left >= 2:
            parts.append(left)
        elif left:  # a lone 1: part + 1 becomes (part - 1, 2)
            parts[-1] -= 1
            parts.append(2)


def enum_star_partitions(h: int) -> Iterator[StarForest]:
    """The star forests on h vertices (partitions of h with every part >= 2), lazily.

    They come lexicographically decreasing by star sizes: (h,) first, then
    (h - 2, 2), and so on, so a caller that stops at the first success never
    builds the rest.
    """
    if h < 0:
        raise PreconditionError("h must be non-negative")
    return (StarForest(p) for p in _partitions(h))


def embeds_star_forest(
    g: Graph,
    forest: StarForest,
    mode: str = "exact",
    cfg: ColorCodingConfig = ColorCodingConfig(),
) -> Embedding | None:
    """One embedding of the star forest into g, or None.

    Exact mode backtracks over centres in non-increasing star-size order and
    raises ResourceLimitError for a forest of more than MAX_EXACT_STARS stars.
    An unknown mode raises PreconditionError whatever the forest.
    Randomized mode is classic color coding: color vertices with
    total_vertices colors uniformly, search for a colorful copy, repeat;
    a None may be a false negative with the configured probability.
    """
    _check_mode(mode)
    if not forest.star_sizes:
        return Embedding(())
    if forest.total_vertices > g.n:
        return None
    if mode == "exact":
        stars = len(forest.star_sizes)
        if stars > MAX_EXACT_STARS:
            raise ResourceLimitError(
                f"exact embedding searches at most {MAX_EXACT_STARS} stars, not {stars}"
            )
        return _embed_exact(g, forest)
    return _embed_color_coding(g, forest, cfg)


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "randomized"):
        raise PreconditionError(f"unknown embedding mode {mode!r}")


def _embed_exact(g: Graph, forest: StarForest) -> Embedding | None:
    sizes = forest.star_sizes  # already non-increasing
    adj = g.adjacency
    # hosts[k]: the vertices of degree >= k, as a bitmask, for k up to the
    # largest star's leaf count: bucket each vertex by its capped degree,
    # then OR the buckets as suffixes
    top = sizes[0] - 1
    hosts = [0] * (top + 1)
    for v, nbrs in enumerate(adj):
        k = len(nbrs)
        hosts[k if k < top else top] |= 1 << v
    for k in range(top - 1, -1, -1):
        hosts[k] |= hosts[k + 1]
    # sizes do not increase, so the stars at levels 0..i all centre on
    # distinct hosts of level i's size: level i needs i + 1 of them
    for i, d in enumerate(sizes):
        if hosts[d - 1].bit_count() <= i:
            return None
    # per level: star size, its host mask, and whether the previous star has
    # the same size (then centres rise, so no star set is tried twice)
    levels = [(d, hosts[d - 1], i > 0 and sizes[i - 1] == d) for i, d in enumerate(sizes)]
    last = len(sizes)
    stars: list[tuple[int, ...]] = []
    append, pop = stars.append, stars.pop

    def place(idx: int, used: int, min_centre: int) -> bool:
        if idx == last:
            return True
        d, host, same = levels[idx]
        start = min_centre if same else 0
        # the unused hosts from start on, lowest bit first: centres come in
        # index order, as the plain backtracker tries them
        todo = (host & ~used) >> start << start
        while todo:
            bit = todo & -todo
            todo ^= bit
            centre = bit.bit_length() - 1
            if d == 2:
                # Every star partition ends in 2-stars, so most nodes sit here:
                # walk the edges with no free list, and skip every leaf w below
                # the centre (the lower-end rule).  The plain backtracker's
                # first embedding holds no such 2-star: were (c, w) with w < c
                # in it, centring that edge at w, at the first 2-star level
                # whose centre is above w, would give a valid embedding that
                # the search visits earlier (w is unused there and at least
                # that level's start, and the 2-stars from there on shift one
                # level later).  So the subtrees skipped here cannot hold the
                # first embedding, and the search returns it unchanged.  With
                # start <= w this is the mirror rule: centre w with leaf
                # centre was tried earlier in this loop and failed.
                mask = used | bit
                for w in adj[centre]:
                    if w < centre or used >> w & 1:
                        continue
                    append((centre, w))
                    if place(idx + 1, mask | 1 << w, centre + 1):
                        return True
                    pop()
                continue
            # A larger star has a mirror only when an earlier leaf is adjacent
            # to all the others; testing that at every size made decide_h slower
            # (4.5 ms per solve against 2.9 ms for 2-stars alone), so this
            # branch skips no leaf.
            free = [w for w in adj[centre] if not used >> w & 1]
            if len(free) < d - 1:
                continue
            for leaves in combinations(free, d - 1):
                mask = used | bit
                for w in leaves:
                    mask |= 1 << w
                append((centre,) + leaves)
                if place(idx + 1, mask, centre + 1):
                    return True
                pop()
        return False

    if place(0, 0, 0):
        return Embedding(tuple(stars))
    return None


def _trial_seed(seed: int, trial: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9 + 1) % (1 << 63)


def _embed_color_coding(g: Graph, forest: StarForest, cfg: ColorCodingConfig) -> Embedding | None:
    h = forest.total_vertices
    for trial in range(cfg.trial_count(h)):
        rng = random.Random(_trial_seed(cfg.rng_seed, trial))
        colors = [rng.randrange(h) for _ in range(g.n)]
        emb = _colorful_embedding(g, forest, colors, h)
        if emb is not None:
            return emb
    return None


def _colorful_embedding(
    g: Graph, forest: StarForest, colors: list[int], h: int
) -> Embedding | None:
    # per star size: every color set {c(v)} + (d-1 colors among N(v)), as bitmasks;
    # a mask's witness is the first star giving it: centre in index order, the
    # first neighbour of each colour in adjacency order
    full = (1 << h) - 1
    feasible: dict[int, set[int]] = {}
    witness: dict[int, tuple[int, ...]] = {}  # a mask of d bits belongs to size d only
    for d in set(forest.star_sizes):
        masks: set[int] = set()  # its iteration order picks the embedding a seed gives
        for v in range(g.n):
            if g.degree(v) < d - 1:
                continue
            first: dict[int, int] = {}
            for w in g.adjacency[v]:
                if colors[w] != colors[v]:
                    first.setdefault(colors[w], w)
            for pick in combinations(sorted(first), d - 1):
                m = 1 << colors[v]
                for c in pick:
                    m |= 1 << c
                if m not in witness:
                    masks.add(m)
                    witness[m] = (v,) + tuple(first[c] for c in pick)
        if not masks:
            return None
        feasible[d] = masks

    # subset convolution over disjoint color sets, star by star
    reachable: dict[int, tuple] = {0: ()}  # union mask -> chosen star masks
    for d in forest.star_sizes:
        nxt: dict[int, tuple] = {}
        for got, picks in reachable.items():
            for m in feasible[d]:
                if got & m:
                    continue
                u = got | m
                if u not in nxt:
                    nxt[u] = picks + (m,)
        reachable = nxt
        if not reachable:
            return None
    # the forest has h vertices, so every surviving union holds all h colours
    return Embedding(tuple(witness[m] for m in reachable[full]))
