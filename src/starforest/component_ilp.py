"""Exact algorithm parameterized by the largest connected component size.

A disjoint union realises exactly the sums of its components' star-count
vectors, so each graph's family is the sumset of its components' families,
folded in one component at a time; no integer program is solved.  Each
component's own family comes from the oracle's star-packing backtracking,
which stays cheap because no component has more than MAX_COMPONENT
vertices.  The optimum is the best vector the two families share.  Bounded
treedepth plus maximum degree bounds the component size, so with k read off
the input this is also the paper's FPT route for that parameter pair.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import PreconditionError, ResourceLimitError
from .graph import Graph
from .oracle import enum_star_vectors_brute
from .vectors import VectorFamily, best_common, sumset

MAX_COMPONENT = 8  # bounds the brute-force family of each component
# a family can grow like n^(k-1); at about 10M sumset pairs/s this stops a
# solve within a few seconds
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
    parts = []
    for which, g in enumerate((g1, g2), 1):
        comps = g.components()
        for comp in comps:
            if len(comp) > k:
                raise PreconditionError(
                    f"graph {which} has a component of {len(comp)} vertices (> k={k}): {comp}"
                )
        parts.append([g.induced(comp)[0] for comp in comps])
    if k < 2:
        return 0  # every component is a single vertex
    fam1, fam2 = build_cc_model(realisation_table(parts, k), k, max(g1.n, g2.n), pair_budget)
    return best_common(fam1, fam2)[0]


def realisation_table(parts: list[list[Graph]], k: int) -> list[list[VectorFamily]]:
    """Per graph, per component (k >= 2), the family of star-count vectors
    (sizes 2..k) realisable inside that component, packed at the oracle's base.
    """
    return [[enum_star_vectors_brute(comp, k - 1) for comp in comps] for comps in parts]


def build_cc_model(
    tables: list[list[VectorFamily]], k: int, n: int, pair_budget: int
) -> tuple[VectorFamily, VectorFamily]:
    """The (VectorFamily, VectorFamily) of g1 and g2, each folded as the
    sumset of its components' families, one component at a time.

    Every partial sum is the vector of a star packing inside one graph, so
    no coordinate exceeds n // 2 for n = max(n1, n2) and the packed sums stay
    exact.  Before each sumset its |A| * |B| pairs are added to a running
    count; one that would take the count past `pair_budget` raises
    ResourceLimitError instead of running.
    """
    base = max(2, n // 2 + 1)
    pairs = 0
    families = []
    for table in tables:
        folded = VectorFamily.of([(0,) * (k - 1)], k - 1, base)
        for family in table:
            pairs += len(folded.members) * len(family.members)
            if pairs > pair_budget:
                raise ResourceLimitError(f"component fold pair budget {pair_budget} exceeded")
            folded = sumset(folded, family.rebase(base))
        families.append(folded)
    return families[0], families[1]
