"""Exact algorithm parameterized by the largest connected component size.

Components are cataloged up to isomorphism (exact canonical form, affordable
because components have at most 8 vertices).  For every shape we enumerate
the star-count vectors realisable inside it, then a single integer program
distributes vectors over component copies so that both graphs induce the
same number of stars of every size.  Bounded treedepth plus maximum degree
bounds the component size, so with k read off the input this is also the
paper's FPT route for that parameter pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from . import bip
from .errors import PreconditionError, ResourceLimitError
from .graph import Graph
from .oracle import enum_star_vectors_brute
from .vectors import CountVector, vector_total

MAX_COMPONENT = 8  # canonicalization budget


@dataclass(frozen=True)
class ComponentCatalog:
    shapes: tuple[Graph, ...]
    counts1: tuple[int, ...]
    counts2: tuple[int, ...]
    k: int


def canonical_form(g: Graph) -> tuple:
    """Lexicographically minimal upper-triangle adjacency bits over all labelings."""
    n = g.n
    best: tuple[int, ...] | None = None
    for perm in permutations(range(n)):
        bits = tuple(
            1 if g.has_edge(perm[i], perm[j]) else 0
            for i in range(n)
            for j in range(i + 1, n)
        )
        if best is None or bits < best:
            best = bits
    return (n, best or ())


def catalog_components(g1: Graph, g2: Graph, k: int) -> ComponentCatalog:
    """Shapes occurring in either graph, with per-graph multiplicities.

    Only occurring shapes can carry nonzero counts, so cataloging just them
    leaves the integer program unchanged.
    """
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


def realisation_table(catalog: ComponentCatalog) -> list[frozenset[CountVector]]:
    """Per shape, every star-count vector (sizes 2..k) realisable inside it.

    Found by star-packing backtracking, not by testing all k^k tuples.
    """
    k = catalog.k
    if k < 2:
        return [frozenset({()}) for _ in catalog.shapes]
    return [enum_star_vectors_brute(shape, k - 1).vectors for shape in catalog.shapes]


def solve_cc(g1: Graph, g2: Graph, k: int, node_budget: int = 2_000_000) -> int:
    """Exact optimum when every component of both graphs has <= k vertices."""
    catalog = catalog_components(g1, g2, k)
    table = realisation_table(catalog)
    model, _ = build_cc_model(catalog, table)
    sol = bip.solve(model, node_budget)
    assert sol.status == "optimal", "the all-zero realisation is always feasible"
    return sol.objective_value


def build_cc_model(
    catalog: ComponentCatalog, table: list[frozenset[CountVector]]
) -> tuple[bip.BipModel, dict[str, tuple[int, CountVector]]]:
    """The distribution ILP plus a variable-name -> (shape, vector) map."""
    all_sigs = sorted({sig for sigs in table for sig in sigs})
    sig_index = {sig: idx for idx, sig in enumerate(all_sigs)}

    model = bip.BipModel()
    for i, sigs in enumerate(table):
        for sig in sorted(sigs):
            model.add_var(f"x_{i}_{sig_index[sig]}", 0, catalog.counts1[i])
            model.add_var(f"y_{i}_{sig_index[sig]}", 0, catalog.counts2[i])
    for i, sigs in enumerate(table):
        model.add_constraint(
            {f"x_{i}_{sig_index[s]}": 1 for s in sigs}, bip.EQ, catalog.counts1[i]
        )
        model.add_constraint(
            {f"y_{i}_{sig_index[s]}": 1 for s in sigs}, bip.EQ, catalog.counts2[i]
        )
    for j in range(catalog.k - 1):
        coeffs: dict[str, int] = {}
        for i, sigs in enumerate(table):
            for sig in sigs:
                if sig[j]:
                    coeffs[f"x_{i}_{sig_index[sig]}"] = sig[j]
                    coeffs[f"y_{i}_{sig_index[sig]}"] = -sig[j]
        if coeffs:
            model.add_constraint(coeffs, bip.EQ, 0)
    objective: dict[str, int] = {}
    for i, sigs in enumerate(table):
        for sig in sigs:
            weight = vector_total(sig)
            if weight:
                objective[f"x_{i}_{sig_index[sig]}"] = weight
    model.set_objective(objective)
    names = {}
    for i, sigs in enumerate(table):
        for sig in sigs:
            names[f"x_{i}_{sig_index[sig]}"] = (i, sig)
            names[f"y_{i}_{sig_index[sig]}"] = (i, sig)
    return model, names
