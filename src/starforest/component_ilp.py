"""Exact algorithm parameterized by the largest connected component size.

A disjoint union realises exactly the sums of its components' star-count
vectors, so each graph's family is the sumset of its components' families,
folded in one component at a time; no integer program is solved.  Each
family is one bitset of packed codes (`vectors.Bits`): bit c is set when the
vector whose base-`base` code is c is realisable, so adding a vector shifts
the bitset left by its code.  Each component's own family comes from
`component_family`, a search over star packings inside the component that
branches on its lowest free vertex (left out, a centre, or a leaf of a
larger star), takes each star's leaves as a submask of a neighbour bitmask,
ORs in each choice's shifted bitset, and is memoised on the used-vertex
bitmask: at most 2^k states for k <= MAX_COMPONENT vertices.  Each fold step
ORs the side with more bits shifted by each bit of the other, as the
treewidth DP's join does.  The optimum is the largest total over the codes
set in both graphs' bitsets.  A box of base**(k-1) codes wider than
`vectors.WIDEST_INT_BOX` holds `SparseBits` instead of ints, with the same
operators.  Bounded treedepth plus maximum degree bounds the component size,
so with k read off the input this is also the paper's FPT route for that
parameter pair.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import PreconditionError, ResourceLimitError
from .graph import Graph
from .oracle import enum_star_vectors_brute  # unused; only perfbench/tracing.py looks it up
from .vectors import WIDEST_INT_BOX, Bits, SparseBits, _bits, _digit_sums, _sum_shifts

MAX_COMPONENT = 8  # bounds the 2^k search states of each component's family
# a family can grow like n^(k-1); the budget counts |A| * |B| pairs per fold
# step, as a sumset of sets would pair them, and stops a solve before the step
# that would pass it
DEFAULT_PAIR_BUDGET = 50_000_000


def canonical_form(g: Graph) -> tuple:
    """Lexicographically minimal upper-triangle adjacency bits over the
    labelings that list vertices by non-increasing degree.

    An isomorphism maps each degree class onto one of the same degree and
    size, so isomorphic graphs have the same such labelings up to renaming
    and the same minimum; the bits determine the graph, so the key is exact.
    No solve calls it; `perfbench/tracing.py` still wraps it.
    """
    n = g.n
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(g.degree(v), []).append(v)
    blocks = [permutations(classes[d]) for d in sorted(classes, reverse=True)]
    best: tuple[int, ...] | None = None
    for parts in product(*blocks):
        perm = [v for part in parts for v in part]
        bits = tuple(
            1 if g.has_edge(perm[i], perm[j]) else 0
            for i in range(n)
            for j in range(i + 1, n)
        )
        if best is None or bits < best:
            best = bits
    return (n, best or ())


def solve_cc(g1: Graph, g2: Graph, k: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Exact optimum when every component of both graphs has <= k vertices.

    Raises ResourceLimitError rather than let the fold's sumsets together
    pass `pair_budget` pairs.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if k > MAX_COMPONENT:
        raise ResourceLimitError(f"component bound {k} exceeds the limit {MAX_COMPONENT}")
    hosts = []
    for which, g in enumerate((g1, g2), 1):
        comps = g.components()
        for comp in comps:
            if len(comp) > k:
                raise PreconditionError(
                    f"graph {which} has a component of {len(comp)} vertices (> k={k}): {comp}"
                )
        hosts.append((g, comps))
    if k < 2:
        return 0  # every component is a single vertex
    # every partial sum of the fold is a star packing of one graph, so no
    # coordinate exceeds n // 2 for n = max(n1, n2)
    base = max(2, max(g1.n, g2.n) // 2 + 1)
    fam1, fam2 = build_cc_model(realisation_table(hosts, k, base), k, base, pair_budget)
    return max(_digit_sums(_bits(fam1 & fam2), [base] * (k - 1), list(range(2, k + 1))))


def _empty_family(delta: int, base: int) -> Bits:
    """The family of the empty packing alone, code 0: an int, or `SparseBits` past
    WIDEST_INT_BOX codes."""
    return SparseBits((0,)) if base**delta > WIDEST_INT_BOX else 1


def component_family(g: Graph, comp: list[int], delta: int, base: int) -> Bits:
    """The bitset of every star-count vector (sizes 2..delta+1) realisable by
    vertex-disjoint stars in the subgraph of g induced on `comp`, packed at `base`.

    Branches on the lowest free vertex v: v stays out of every star; v
    centres a star of 1..delta free neighbours; or v is a leaf of a free
    neighbour u that takes 1..delta-1 other free neighbours (the lone edge
    {v, u} is already a star centred at v).  A star of size j + 2 ORs in the
    rest's bitset shifted left by base**j.  Leaves are submasks of a
    neighbour bitmask; memoised on the used-vertex bitmask (<= 2^len(comp)).
    """
    if delta < 1:
        raise PreconditionError("delta must be >= 1")
    if len(comp) > MAX_COMPONENT:
        raise ResourceLimitError(f"component of {len(comp)} vertices exceeds {MAX_COMPONENT}")
    if base <= len(comp) // 2:
        raise PreconditionError(f"base {base} does not exceed every count of {len(comp)} vertices")
    local = {v: i for i, v in enumerate(comp)}
    neighbours = [sum(1 << local[w] for w in g.adjacency[v] if w in local) for v in comp]
    weights = [base**j for j in range(delta)]  # one star of size j + 2
    # a memoised bitset is never changed: each OR below makes a new one
    memo: dict[int, Bits] = {(1 << len(comp)) - 1: _empty_family(delta, base)}

    def with_star(result: Bits, used: int, leaves: int, bump: int, most: int) -> Bits:
        """`result` ORed with the packings left once a star also takes a nonempty
        submask of `leaves` with take <= most bits; its size index is bump + take - 1."""
        sub = leaves if most >= 1 else 0  # most < 1 walks no submask
        while sub:
            if (take := sub.bit_count()) <= most:
                result = result | packings(used | sub) << weights[bump + take - 1]
            sub = (sub - 1) & leaves
        return result

    def packings(used: int) -> Bits:
        cached = memo.get(used)
        if cached is not None:
            return cached
        v = (~used & (used + 1)).bit_length() - 1  # the lowest free vertex
        rest = used | 1 << v
        free = neighbours[v] & ~rest
        # v stays out, or centres a star
        result = with_star(packings(rest), rest, free, 0, delta)
        while free:  # v is a leaf of a free u, which takes other leaves too
            bit = free & -free
            free ^= bit
            taken = rest | bit
            result = with_star(
                result, taken, neighbours[bit.bit_length() - 1] & ~taken, 1, delta - 1
            )
        memo[used] = result
        return result

    return packings(0)


def realisation_table(
    hosts: list[tuple[Graph, list[list[int]]]], k: int, base: int
) -> list[list[Bits]]:
    """Per host graph, per listed component (k >= 2), the bitset of
    star-count vectors (sizes 2..k) realisable inside that component,
    packed at `base`.
    """
    return [[component_family(g, comp, k - 1, base) for comp in comps] for g, comps in hosts]


def build_cc_model(
    tables: list[list[Bits]], k: int, base: int, pair_budget: int
) -> tuple[Bits, Bits]:
    """The bitsets of g1 and g2, each folded as the sumset of its components'
    bitsets, one component at a time.

    Every bitset is packed at `base`, which must exceed every coordinate of
    a folded sum, so the packed sums stay exact.  Each step ORs the side
    with more bits shifted by each bit of the other.  Before each step its
    |A| * |B| pairs are added to a running count; one that would take the
    count past `pair_budget` raises ResourceLimitError instead of running.
    """
    pairs = 0
    families = []
    for table in tables:
        folded = _empty_family(k - 1, base)
        for family in table:
            held, added = folded.bit_count(), family.bit_count()
            pairs += held * added
            if pairs > pair_budget:
                raise ResourceLimitError(f"component fold pair budget {pair_budget} exceeded")
            if held >= added:
                folded = _sum_shifts(folded, _bits(family))
            else:
                folded = _sum_shifts(family, _bits(folded))
        families.append(folded)
    return families[0], families[1]
