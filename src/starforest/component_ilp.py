"""Exact algorithm parameterized by the largest connected component size.

Components are cataloged up to isomorphism (exact canonical form, affordable
because components have at most 8 vertices).  For every shape we enumerate
the star-count vectors realisable inside it.  A disjoint union realises
exactly the sums of its components' vectors, so each graph's family is the
sumset of its components' families, folded in one component at a time;
no integer program is solved.  The optimum is the best vector the two
families share.  Bounded treedepth plus maximum degree bounds the
component size, so with k read off the input this is also the paper's FPT
route for that parameter pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .errors import PreconditionError, ResourceLimitError
from .graph import Graph
from .oracle import enum_star_vectors_brute
from .vectors import VectorFamily, best_common, sumset

MAX_COMPONENT = 8  # canonicalization budget
# a family can grow like n^(k-1); at about 10M sumset pairs/s this stops a
# solve within a few seconds
DEFAULT_PAIR_BUDGET = 50_000_000


@dataclass(frozen=True)
class ComponentCatalog:
    shapes: tuple[Graph, ...]
    counts1: tuple[int, ...]
    counts2: tuple[int, ...]
    k: int


def canonical_form(g: Graph) -> tuple:
    """Lexicographically minimal upper-triangle adjacency bits over the
    labelings that list vertices by non-increasing degree.

    An isomorphism maps each degree class onto one of the same degree and
    size, so isomorphic graphs have the same such labelings up to renaming
    and the same minimum; the bits determine the graph, so the key is exact.
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


def catalog_components(g1: Graph, g2: Graph, k: int) -> ComponentCatalog:
    """Shapes occurring in either graph, with per-graph multiplicities."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if k > MAX_COMPONENT:
        raise ResourceLimitError(f"component bound {k} exceeds the limit {MAX_COMPONENT}")
    shapes: list[Graph] = []
    index: dict[tuple, int] = {}
    counts = [[], []]
    for which, g in enumerate((g1, g2)):
        tally: dict[int, int] = {}
        for comp in g.components():
            if len(comp) > k:
                raise PreconditionError(
                    f"graph {which + 1} has a component of {len(comp)} vertices"
                    f" (> k={k}): {comp}"
                )
            sub, _ = g.induced(comp)
            key = canonical_form(sub)
            if key not in index:
                index[key] = len(shapes)
                shapes.append(sub)
            tally[index[key]] = tally.get(index[key], 0) + 1
        counts[which] = [tally.get(i, 0) for i in range(len(shapes))]
    c1 = counts[0] + [0] * (len(shapes) - len(counts[0]))
    c2 = counts[1] + [0] * (len(shapes) - len(counts[1]))
    return ComponentCatalog(tuple(shapes), tuple(c1), tuple(c2), k)


def realisation_table(catalog: ComponentCatalog) -> list[VectorFamily]:
    """Per shape, the family of star-count vectors (sizes 2..k, k >= 2) realisable inside it.

    Found by star-packing backtracking, not by testing all k^k tuples, and
    packed at the oracle's base for the shape.
    """
    return [enum_star_vectors_brute(shape, catalog.k - 1) for shape in catalog.shapes]


def solve_cc(g1: Graph, g2: Graph, k: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Exact optimum when every component of both graphs has <= k vertices.

    Raises ResourceLimitError rather than let the fold's sumsets together
    pass `pair_budget` pairs.
    """
    catalog = catalog_components(g1, g2, k)
    if k < 2:
        return 0  # every component is a single vertex
    table = realisation_table(catalog)
    fam1, fam2 = build_cc_model(catalog, table, pair_budget)
    return best_common(fam1, fam2)[0]


def build_cc_model(
    catalog: ComponentCatalog,
    table: list[VectorFamily],
    pair_budget: int,
) -> tuple[VectorFamily, VectorFamily]:
    """The (VectorFamily, VectorFamily) of g1 and g2, each folded as the
    sumset of its components' families, one component at a time.

    Every partial sum is the vector of a star packing inside one graph, so
    no coordinate exceeds max(n1, n2) // 2 and the packed sums stay exact.
    Before each sumset its |A| * |B| pairs are added to a running count;
    one that would take the count past `pair_budget` raises
    ResourceLimitError instead of running.
    """
    dim = catalog.k - 1
    n = max(
        sum(m * shape.n for m, shape in zip(counts, catalog.shapes))
        for counts in (catalog.counts1, catalog.counts2)
    )
    base = max(2, n // 2 + 1)
    pairs = 0

    def add(a: VectorFamily, b: VectorFamily) -> VectorFamily:
        nonlocal pairs
        pairs += len(a.members) * len(b.members)
        if pairs > pair_budget:
            raise ResourceLimitError(f"component fold pair budget {pair_budget} exceeded")
        return sumset(a, b)

    shape_families = [family.rebase(base) for family in table]
    families = []
    for counts in (catalog.counts1, catalog.counts2):
        folded = VectorFamily.of([(0,) * dim], dim, base)
        for shape_family, m in zip(shape_families, counts):
            for _ in range(m):
                folded = add(folded, shape_family)
        families.append(folded)
    return families[0], families[1]
