"""Reference checkers and certificates the test suite compares the routes with.

None of this runs in a route or the CLI.  The forward certificates of the
k-way-partition constructions, a brute-force partition solver, a treedepth
checker and the explicit pw4 path decomposition check what `generators`
builds; the edge-cover, vertex-cover and dominating-set helpers check the
identities the exact routes rest on.  The plain embedding backtracker
checks the exact embedding's pruning.  The tuple sumset and vector total
check the packed vector arithmetic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from starforest.errors import PreconditionError, ResourceLimitError
from starforest.generators import KwayInstance, LabeledInstance
from starforest.graph import Embedding, Graph, StarForest, max_matching
from starforest.treewidth import TreeDecomposition
from starforest.vectors import CountVector


# ---------------------------------------------------------------------------
# graph identities


def min_edge_cover(g: Graph) -> tuple[set[tuple[int, int]], StarForest, Embedding]:
    """Minimum edge cover: a maximum matching plus one edge per exposed vertex.

    The cover induces a spanning star forest (Gallai), returned alongside the
    witnessing embedding.  Raises on isolated vertices.
    """
    isolated = g.isolated_vertices()
    if isolated:
        raise PreconditionError(f"vertex {isolated[0]} is isolated; no edge cover exists")
    matching = max_matching(g)
    covered = [False] * g.n
    for u, v in matching:
        covered[u] = covered[v] = True
    cover = set(matching)
    for v in range(g.n):
        if not covered[v]:
            u = g.adjacency[v][0]
            cover.add((min(u, v), max(u, v)))
    # group the cover's edges into stars
    deg = [0] * g.n
    inc: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in cover:
        deg[u] += 1
        deg[v] += 1
        inc[u].append(v)
        inc[v].append(u)
    seen = [False] * g.n
    stars: list[tuple[int, ...]] = []
    for v in range(g.n):
        if seen[v] or deg[v] == 0:
            continue
        if deg[v] == 1 and deg[inc[v][0]] == 1:
            # a lone K2 in the cover; lower index serves as centre
            u = inc[v][0]
            stars.append((v, u))
            seen[v] = seen[u] = True
        elif deg[v] > 1:
            leaves = tuple(sorted(inc[v]))
            stars.append((v,) + leaves)
            seen[v] = True
            for w in leaves:
                seen[w] = True
    forest = StarForest(tuple(len(s) for s in stars))
    return cover, forest, Embedding(tuple(stars))


def is_vertex_cover(g: Graph, cover: Iterable[int]) -> bool:
    cset = set(cover)
    return all(u in cset or v in cset for u, v in g.edges())


def dominating_matching(g: Graph, dom: Iterable[int]) -> set[tuple[int, int]]:
    """A matching of size |D| whose edges all join D to V \\ D.

    Exists whenever D is a minimum dominating set of an isolated-vertex-free
    graph (via Kőnig on the bipartite cut graph); raises if no such matching
    does, which means the caller's precondition was violated.
    """
    dset = set(dom)
    if g.isolated_vertices():
        raise PreconditionError("graph has isolated vertices")
    if not all(0 <= v < g.n for v in dset):
        raise PreconditionError("dominating set contains out-of-range vertices")
    cut = Graph.from_edges(g.n, [(u, w) for u in dset for w in g.adjacency[u] if w not in dset])
    # every cut edge has exactly one end in D, so a matching of size |D| covers D
    matching = max_matching(cut)
    if len(matching) < len(dset):
        raise PreconditionError("D not a minimum dominating set")
    return {(u, w) if u in dset else (w, u) for u, w in matching}


# ---------------------------------------------------------------------------
# known answers of the dominating-set and P3-factor sources


def domination_number(g: Graph) -> int:
    """The smallest dominating set's size, by branching over bitmasks.

    The lowest undominated vertex is dominated by one of its closed
    neighbourhood, so each level of the search tries those vertices only.
    """
    closed = [1 << v | sum(1 << w for w in g.adjacency[v]) for v in range(g.n)]
    full = (1 << g.n) - 1

    def dominates_within(dominated: int, budget: int) -> bool:
        if dominated == full:
            return True
        if budget == 0:
            return False
        free = ~dominated & full
        u = (free & -free).bit_length() - 1
        return any(
            dominates_within(dominated | closed[w], budget - 1)
            for w in (u,) + g.adjacency[u]
        )

    return next(k for k in range(g.n + 1) if dominates_within(0, k))


def has_p3_factor(g: Graph) -> bool:
    """Whether g's vertices split into paths on three vertices, by bitmask search.

    The lowest uncovered vertex is the middle of its path or an end of it;
    masks that cannot be finished are remembered.
    """
    if g.n % 3:
        return False
    full = (1 << g.n) - 1
    stuck: set[int] = set()

    def finish(used: int) -> bool:
        if used == full:
            return True
        if used in stuck:
            return False
        free = ~used & full
        u = (free & -free).bit_length() - 1
        near = [w for w in g.adjacency[u] if free >> w & 1]
        for i, a in enumerate(near):  # u in the middle
            for b in near[i + 1:]:
                if finish(used | 1 << u | 1 << a | 1 << b):
                    return True
        for mid in near:  # u at an end
            for b in g.adjacency[mid]:
                if b != u and free >> b & 1 and finish(used | 1 << u | 1 << mid | 1 << b):
                    return True
        stuck.add(used)
        return False

    return finish(0)


# ---------------------------------------------------------------------------
# solving k-way partition by brute force

BRUTE_ITEM_LIMIT = 20


def kway_brute(kw: KwayInstance) -> list[list[int]] | None:
    """A solving partition as k lists of 0-based item indices, or None."""
    if len(kw.items) > BRUTE_ITEM_LIMIT:
        raise ResourceLimitError(f"more than {BRUTE_ITEM_LIMIT} items")
    if not kw.solvable_framing:
        return None
    items = kw.items  # sorted non-increasing: large items first prune fastest
    k, C = kw.k, kw.capacity
    loads = [0] * k
    bins: list[list[int]] = [[] for _ in range(k)]

    def place(idx: int) -> bool:
        if idx == len(items):
            return True
        seen_loads = set()
        for b in range(k):
            if loads[b] in seen_loads:  # equal-load bins are interchangeable
                continue
            seen_loads.add(loads[b])
            if loads[b] + items[idx] <= C:
                loads[b] += items[idx]
                bins[b].append(idx)
                if place(idx + 1):
                    return True
                loads[b] -= items[idx]
                bins[b].pop()
        return False

    return bins if place(0) else None


# ---------------------------------------------------------------------------
# forward-direction embeddings


def embed_from_partition(
    inst: LabeledInstance, part: list[list[int]]
) -> tuple[StarForest, Embedding, Embedding]:
    """Spanning certificate pair from a solving partition.

    Star i of the returned forest is embedded by emb1.stars[i] in G1 and by
    emb2.stars[i] in G2 (the identity placement of G2's own stars).
    """
    kind = inst.params.get("construction")
    if kind == "kway_td5":
        pairs = _embed_td5(inst, part)
    elif kind == "kway_pw4":
        pairs = _embed_pw4(inst, part)
    else:
        raise PreconditionError(f"no forward embedding for construction {kind!r}")
    stars1 = tuple(p[0] for p in pairs)
    stars2 = tuple(p[1] for p in pairs)
    forest = StarForest(tuple(len(s) for s in stars1))
    return forest, Embedding(stars1), Embedding(stars2)


def _check_partition(inst: LabeledInstance, part: list[list[int]]) -> list[int]:
    """Validate and flatten to bin_of: item index (0-based) -> bin (1-based)."""
    items = inst.params["items"]
    k, C = inst.params["k"], inst.params["C"]
    if len(part) != k:
        raise PreconditionError(f"partition has {len(part)} bins, expected {k}")
    seen: set[int] = set()
    bin_of = [0] * len(items)
    for b, bucket in enumerate(part, start=1):
        if sum(items[i] for i in bucket) != C:
            raise PreconditionError(f"bin {b} does not sum to C={C}")
        for i in bucket:
            if i in seen:
                raise PreconditionError(f"item {i} placed twice")
            seen.add(i)
            bin_of[i] = b
    if len(seen) != len(items):
        raise PreconditionError("partition does not place every item")
    return bin_of


def _g2_star(inst: LabeledInstance, centre: str) -> tuple[int, ...]:
    """G2's star around the named centre; every G2 component is a star."""
    c = inst.labels2[centre]
    return (c,) + inst.instance.g2.adjacency[c]


def _embed_td5(inst: LabeledInstance, part: list[list[int]]):
    bin_of = _check_partition(inst, part)
    items = inst.params["items"]
    k, D = inst.params["k"], inst.params["D"]
    n = len(items)
    g1 = inst.labels1
    pairs = []
    p_off = [0] * (k + 1)  # per bin: items' total placed so far
    outside = [0] * (k + 1)  # per bin: total of earlier items lying outside it

    for i in range(1, n + 1):
        a_i = items[i - 1]
        b = bin_of[i - 1]
        # P_i on the root
        host = [g1[f"r_{i}"]] + [g1[f"h_{i}_{m}"] for m in range(1, D)] + [g1[f"s_{i}_{b}"]]
        pairs.append((tuple(host), _g2_star(inst, f"alpha_{i}_0")))
        # the k-1 spare branches host the Q stars
        for jp, j in enumerate(
            (j for j in range(1, k + 1) if j != b), start=1
        ):
            host = [g1[f"s_{i}_{j}"]] + [g1[f"t_{i}_{j}_{l}"] for l in range(1, a_i + 1)]
            pairs.append((tuple(host), _g2_star(inst, f"beta_{i}_{jp}_0")))
        # bin branch hosts R stars (with the t rung as the extra leaf)
        for l in range(1, a_i + 1):
            idx = l + p_off[b]
            host = (
                [g1[f"u_{i}_{b}_{l}"]]
                + [g1[f"v_{i}_{b}_{l}_{m}"] for m in range(1, 2 * b + 4 + 1)]
                + [g1[f"t_{i}_{b}_{l}"]]
            )
            pairs.append((tuple(host), _g2_star(inst, f"gamma_{b}_{idx}_0")))
        # spare branches host S stars
        for j in range(1, k + 1):
            if j == b:
                continue
            q_ij = outside[j]
            for l in range(1, a_i + 1):
                idx = l + q_ij
                host = [g1[f"u_{i}_{j}_{l}"]] + [
                    g1[f"v_{i}_{j}_{l}_{m}"] for m in range(1, 2 * j + 4 + 1)
                ]
                pairs.append((tuple(host), _g2_star(inst, f"delta_{j}_{idx}_0")))
        p_off[b] += a_i
        for j in range(1, k + 1):
            if j != b:
                outside[j] += a_i
    return pairs


def _embed_pw4(inst: LabeledInstance, part: list[list[int]]):
    bin_of = _check_partition(inst, part)
    items = inst.params["items"]
    k = inst.params["k"]
    a, D, E = inst.params["a"], inst.params["D"], inst.params["E"]
    n = len(items)
    g1 = inst.labels1
    pairs = []
    p_off = [0] * (k + 1)
    outside = [0] * (k + 1)
    e_off = 0  # W stars consumed so far (items with smaller index)

    for i in range(1, n + 1):
        a_i = items[i - 1]
        b = bin_of[i - 1]
        spare = [j for j in range(1, k + 1) if j != b]
        # P_i
        host = [g1[f"r_{i}"]] + [g1[f"h_{i}_{m}"] for m in range(1, D)] + [g1[f"s_{i}_{b}_0"]]
        pairs.append((tuple(host), _g2_star(inst, f"alpha_{i}_0")))
        # bin-branch rungs carry the 2-leaf stars S_{i,1..a-2}
        for l in range(1, a - 1):
            host = [g1[f"z_{i}_{b}_{l}"], g1[f"y_{i}_{b}_{l}"], g1[f"s_{i}_{b}_{l}"]]
            pairs.append((tuple(host), _g2_star(inst, f"delta_{i}_{l}_0")))
        # spare-branch mouths carry the remaining k-1 2-leaf stars
        for jp, j in enumerate(spare, start=a - 1):
            host = [g1[f"s_{i}_{j}_0"], g1[f"t_{i}_{j}_1"], g1[f"y_{i}_{j}_1"]]
            pairs.append((tuple(host), _g2_star(inst, f"delta_{i}_{jp}_0")))
        # spare-branch spines carry the 3-leaf stars U
        for jp, j in enumerate(spare, start=1):
            for l in range(1, a - 2):
                host = [
                    g1[f"s_{i}_{j}_{l}"],
                    g1[f"z_{i}_{j}_{l}"],
                    g1[f"t_{i}_{j}_{l + 1}"],
                    g1[f"y_{i}_{j}_{l + 1}"],
                ]
                pairs.append((tuple(host), _g2_star(inst, f"epsilon_{i}_{jp}_{l}_0")))
            host = [
                g1[f"s_{i}_{j}_{a - 2}"],
                g1[f"z_{i}_{j}_{a - 2}"],
                g1[f"t_{i}_{j}_{a - 1}"],
                g1[f"t_{i}_{j}_{a}"],
            ]
            pairs.append((tuple(host), _g2_star(inst, f"epsilon_{i}_{jp}_{a - 2}_0")))
        # bin branch: Q stars on the first a_i cups, W stars above them
        for l in range(1, a_i + 1):
            idx = l + p_off[b]
            host = (
                [g1[f"u_{i}_{b}_{l}"]]
                + [g1[f"v_{i}_{b}_{l}_{m}"] for m in range(1, 2 * b + 4 + 1)]
                + [g1[f"t_{i}_{b}_{l}"]]
            )
            pairs.append((tuple(host), _g2_star(inst, f"beta_{b}_{idx}_0")))
        for l in range(1, a - a_i + 1):
            idx = l + e_off
            host = (
                [g1[f"u_{i}_{b}_{l + a_i}"]]
                + [g1[f"v_{i}_{b}_{l + a_i}_{m}"] for m in range(1, E + 1)]
                + [g1[f"t_{i}_{b}_{l + a_i}"]]
            )
            pairs.append((tuple(host), _g2_star(inst, f"zeta_{idx}_0")))
        # spare branches: R stars low, Y stars high
        for rank, j in enumerate(spare):
            q_ij = outside[j]
            for l in range(1, a_i + 1):
                idx = l + q_ij
                host = [g1[f"u_{i}_{j}_{l}"]] + [
                    g1[f"v_{i}_{j}_{l}_{m}"] for m in range(1, 2 * j + 4 + 1)
                ]
                pairs.append((tuple(host), _g2_star(inst, f"gamma_{j}_{idx}_0")))
            f_ij = (k - 1) * e_off + (a - a_i) * rank
            for l in range(1, a - a_i + 1):
                idx = l + f_ij
                host = [g1[f"u_{i}_{j}_{l + a_i}"]] + [
                    g1[f"v_{i}_{j}_{l + a_i}_{m}"] for m in range(1, E + 1)
                ]
                pairs.append((tuple(host), _g2_star(inst, f"eta_{idx}_0")))
        p_off[b] += a_i
        for j in range(1, k + 1):
            if j != b:
                outside[j] += a_i
        e_off += a - a_i
    return pairs


# ---------------------------------------------------------------------------
# structural certificates


def treedepth_at_most(g: Graph, d: int) -> bool:
    """Recursive-elimination treedepth check; exact, meant for small depths."""
    memo: dict[frozenset[int], int] = {}

    def component_ok(comp: frozenset[int], depth: int) -> bool:
        if not comp:
            return True
        if depth <= 0:
            return False
        if len(comp) == 1:
            return True
        cached = memo.get(comp)
        if cached is not None and cached <= depth:
            return True
        # high-degree vertices first: the intended elimination roots
        order = sorted(comp, key=lambda v: -len([w for w in g.adjacency[v] if w in comp]))
        for v in order:
            if all(
                component_ok(sub, depth - 1) for sub in _split(comp - {v}, v)
            ):
                memo[comp] = depth
                return True
        return False

    def _split(rest: frozenset[int], removed: int) -> list[frozenset[int]]:
        comps = []
        left = set(rest)
        while left:
            start = left.pop()
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for w in g.adjacency[x]:
                    if w in rest and w not in seen:
                        seen.add(w)
                        stack.append(w)
                        left.discard(w)
            comps.append(frozenset(seen))
        return comps

    return all(component_ok(frozenset(c), d) for c in g.components())


def pw4_path_decomposition(inst: LabeledInstance) -> TreeDecomposition:
    """The explicit width-4 path decomposition of a pw4 instance's first graph."""
    if inst.params.get("construction") != "kway_pw4":
        raise PreconditionError("expected a kway_pw4 instance")
    items = inst.params["items"]
    k, a, D, E = inst.params["k"], inst.params["a"], inst.params["D"], inst.params["E"]
    g1 = inst.labels1
    bags: list[frozenset[int]] = []
    for i in range(1, len(items) + 1):
        a_i = items[i - 1]
        r = g1[f"r_{i}"]
        for m in range(1, D):
            bags.append(frozenset({r, g1[f"h_{i}_{m}"]}))
        for j in range(1, k + 1):
            for l in range(1, a + 1):
                anchor = g1[f"s_{i}_{j}_{min(l - 1, a - 2)}"]
                width = 2 * j + 4 if l <= a_i else E
                for m in range(1, width + 1):
                    bags.append(
                        frozenset(
                            {r, anchor, g1[f"t_{i}_{j}_{l}"], g1[f"u_{i}_{j}_{l}"], g1[f"v_{i}_{j}_{l}_{m}"]}
                        )
                    )
                if l <= a - 2:
                    bags.append(
                        frozenset(
                            {
                                r,
                                g1[f"s_{i}_{j}_{l - 1}"],
                                g1[f"y_{i}_{j}_{l}"],
                                g1[f"z_{i}_{j}_{l}"],
                                g1[f"s_{i}_{j}_{l}"],
                            }
                        )
                    )
    edges = tuple((t, t + 1) for t in range(len(bags) - 1))
    return TreeDecomposition(tuple(bags), edges, root=len(bags) - 1)


# ---------------------------------------------------------------------------
# star-count vectors as tuples


def vector_total(vec: CountVector) -> int:
    """Number of vertices covered: sum of d * c_d."""
    return sum((j + 2) * c for j, c in enumerate(vec))


def sumset_naive(amems: Iterable[CountVector], bmems: Iterable[CountVector]):
    """Quadratic sumset over tuples: the reference the packed sumset is tested against."""
    return {tuple(x + y for x, y in zip(va, vb)) for va in amems for vb in bmems}


# ---------------------------------------------------------------------------
# star-forest embedding


def embed_exact_plain(g: Graph, forest: StarForest) -> Embedding | None:
    """First embedding of a plain backtracker: centres in index order, equal
    star sizes with increasing centres, every leaf subset of every centre.

    `solve_h._embed_exact` prunes subtrees that cannot succeed, so it must
    return this same embedding.
    """
    sizes = forest.star_sizes  # already non-increasing
    stars: list[tuple[int, ...]] = []

    def place(idx: int, used: int, min_centre: int) -> bool:
        if idx == len(sizes):
            return True
        d = sizes[idx]
        start = min_centre if idx > 0 and sizes[idx - 1] == d else 0
        for centre in range(start, g.n):
            if used >> centre & 1 or g.degree(centre) < d - 1:
                continue
            free = [w for w in g.adjacency[centre] if not used >> w & 1]
            if len(free) < d - 1:
                continue
            for leaves in combinations(free, d - 1):
                mask = used | 1 << centre
                for w in leaves:
                    mask |= 1 << w
                stars.append((centre,) + leaves)
                if place(idx + 1, mask, centre + 1):
                    return True
                stars.pop()
        return False

    if place(0, 0, 0):
        return Embedding(tuple(stars))
    return None
