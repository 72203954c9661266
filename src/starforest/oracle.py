"""Brute-force ground truth for small instances.

Deliberately simple: backtracking over star packings with centres taken in
increasing index order, memoized on (next centre, used-vertex bitmask).
Every other solver in the package is tested against this module.
"""

from __future__ import annotations

from itertools import combinations

from .errors import PreconditionError, ResourceLimitError
from .graph import Embedding, Graph, StarForest, verify_embedding
from .solve_h import embeds_star_forest
from .vectors import (
    CountVector,
    VectorFamily,
    counts_to_sizes,
    sizes_to_counts,
    vector_total,
    zero_vector,
)

DEFAULT_VERTEX_LIMIT = 12


def enum_star_vectors_brute(
    g: Graph, delta: int, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> VectorFamily:
    """Every star-size multiset realizable by vertex-disjoint stars in g.

    Star sizes are confined to [2, delta+1].  Refuses graphs above the
    vertex limit; the backtracking is exponential and meant for tests only.
    """
    if delta < 1:
        raise PreconditionError("delta must be >= 1")
    if g.n > vertex_limit:
        raise ResourceLimitError(
            f"graph has {g.n} vertices, above the oracle limit {vertex_limit}"
        )
    memo: dict[tuple[int, int], frozenset[CountVector]] = {}
    zero = zero_vector(delta)

    def packings(start: int, used: int) -> frozenset[CountVector]:
        key = (start, used)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = {zero}
        for centre in range(start, g.n):
            if used >> centre & 1:
                continue
            free = [w for w in g.adjacency[centre] if not used >> w & 1]
            if not free:
                continue
            for take in range(1, min(delta, len(free)) + 1):
                for leaves in combinations(free, take):
                    mask = used | 1 << centre
                    for w in leaves:
                        mask |= 1 << w
                    bump = take - 1  # index of size take+1 in the count vector
                    for vec in packings(centre + 1, mask):
                        lifted = list(vec)
                        lifted[bump] += 1
                        result.add(tuple(lifted))
        frozen = frozenset(result)
        memo[key] = frozen
        return frozen

    return VectorFamily(delta, packings(0, 0))


def opt_common_brute(
    g1: Graph, g2: Graph, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> tuple[int, StarForest, Embedding, Embedding]:
    """Exact optimum of the common star forest problem, with certificates."""
    if g1.edge_count == 0 or g2.edge_count == 0:
        return 0, StarForest(()), Embedding(()), Embedding(())
    delta = min(g1.max_degree(), g2.max_degree())
    fam1 = enum_star_vectors_brute(g1, delta, vertex_limit)
    fam2 = enum_star_vectors_brute(g2, delta, vertex_limit)
    _, best = max((vector_total(v), v) for v in fam1.vectors & fam2.vectors)
    forest = StarForest(counts_to_sizes(best))
    emb1 = embeds_star_forest(g1, forest)
    emb2 = embeds_star_forest(g2, forest)
    assert emb1 is not None and emb2 is not None, "family vector must embed"
    assert verify_embedding(g1, forest, emb1) and verify_embedding(g2, forest, emb2)
    return vector_total(best), forest, emb1, emb2


def opt_common_vector(
    g1: Graph, g2: Graph, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> tuple[int, CountVector]:
    """Size and witnessing count vector only (skips certificate extraction)."""
    if g1.edge_count == 0 or g2.edge_count == 0:
        return 0, ()
    delta = min(g1.max_degree(), g2.max_degree())
    fam1 = enum_star_vectors_brute(g1, delta, vertex_limit)
    fam2 = enum_star_vectors_brute(g2, delta, vertex_limit)
    return max((vector_total(v), v) for v in fam1.vectors & fam2.vectors)


def vector_achievable(g: Graph, sizes: tuple[int, ...], vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> bool:
    """Whether the star-size multiset packs into g (brute force)."""
    if not sizes:
        return True
    delta = max(sizes) - 1
    fam = enum_star_vectors_brute(g, delta, vertex_limit)
    return sizes_to_counts(sizes, delta) in fam.vectors
