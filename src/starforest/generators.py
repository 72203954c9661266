"""Hardness-construction instance generators with constructive certificates.

Each generator emits a LabeledInstance: the two graphs, name tables mapping
construction-vertex names (r_i, s_i_j, alpha_i_0, ...) to indices, and the
construction parameters.  For the two k-way-partition trees, a solving
partition converts into a pair of verified spanning embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import PreconditionError, ResourceLimitError
from .graph import Embedding, Graph, Instance, StarForest

if TYPE_CHECKING:
    from .treewidth import TreeDecomposition


@dataclass(frozen=True)
class KwayInstance:
    """Split items into k bins, each summing to capacity."""

    items: tuple[int, ...]  # sorted non-increasing
    k: int
    capacity: int

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items, reverse=True)))
        if self.k < 1 or any(a < 1 for a in self.items):
            raise PreconditionError("need k >= 1 and positive items")

    @property
    def total(self) -> int:
        return sum(self.items)

    @property
    def solvable_framing(self) -> bool:
        return self.k * self.capacity == self.total


def rescale(kw: KwayInstance) -> KwayInstance:
    """Multiply items and capacity up to the normalized regime (even, >= 2k+10)."""
    factor = 2 * kw.k + 10
    return KwayInstance(tuple(a * factor for a in kw.items), kw.k, kw.capacity * factor)


@dataclass
class LabeledInstance:
    instance: Instance
    labels1: dict[str, int]
    labels2: dict[str, int]
    params: dict = field(default_factory=dict)

    def g1_name(self, name: str) -> int:
        return self.labels1[name]


class _Builder:
    """Accumulates named vertices and edges for one graph."""

    def __init__(self):
        self.labels: dict[str, int] = {}
        self.edges: list[tuple[int, int]] = []

    def node(self, name: str) -> int:
        if name in self.labels:
            raise PreconditionError(f"duplicate vertex name {name!r}")
        self.labels[name] = len(self.labels)
        return self.labels[name]

    def edge(self, a: int, b: int):
        self.edges.append((a, b))

    def star(self, centre_name: str, leaf_names: list[str]) -> int:
        c = self.node(centre_name)
        for name in leaf_names:
            self.edge(c, self.node(name))
        return c

    def graph(self) -> Graph:
        return Graph.from_edges(len(self.labels), self.edges)


# ---------------------------------------------------------------------------
# dominating-set and P3-factor sources


def gen_domset(g: Graph, k: int) -> LabeledInstance:
    """G2 = k stars with n-1 leaves each, target n: spanning star forests of g
    with at most k stars correspond to dominating sets of size <= k."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    isolated = g.isolated_vertices()
    if isolated:
        raise PreconditionError(f"input has isolated vertex {isolated[0]}")
    n = g.n
    b = _Builder()
    for i in range(1, k + 1):
        b.star(f"c_{i}", [f"v_{i}_{j}" for j in range(1, n)])
    labels1 = {f"g_{v}": v for v in range(n)}
    return LabeledInstance(
        Instance(g, b.graph(), n),
        labels1,
        b.labels,
        {"construction": "domset", "k": k, "n": n},
    )


def gen_p3(g: Graph) -> LabeledInstance:
    """G2 = n/3 disjoint paths on three vertices, target n."""
    if g.n % 3 != 0:
        raise PreconditionError(f"vertex count {g.n} not divisible by 3")
    b = _Builder()
    for i in range(1, g.n // 3 + 1):
        mid = b.node(f"p_{i}_2")
        b.edge(mid, b.node(f"p_{i}_1"))
        b.edge(mid, b.node(f"p_{i}_3"))
    labels1 = {f"g_{v}": v for v in range(g.n)}
    return LabeledInstance(
        Instance(g, b.graph(), g.n),
        labels1,
        b.labels,
        {"construction": "p3", "n": g.n},
    )


# ---------------------------------------------------------------------------
# k-way partition -> treedepth-5 trees


def gen_kway_td5(kw: KwayInstance) -> LabeledInstance:
    """Trees of depth 5 vs. a star forest; spanning iff the partition solves."""
    k, C, M = kw.k, kw.capacity, kw.total
    if not kw.solvable_framing:
        raise PreconditionError(f"k*C = {k * C} != sum of items {M}")
    for a in kw.items:
        if a % 2 or a < 2 * k + 10:
            raise PreconditionError(
                f"item {a} violates the normalization (even, >= {2 * k + 10});"
                " use rescale() first"
            )
    n = len(kw.items)
    D = M + 20

    b1 = _Builder()
    for i in range(1, n + 1):
        a_i = kw.items[i - 1]
        r = b1.node(f"r_{i}")
        for m in range(1, D):
            b1.edge(r, b1.node(f"h_{i}_{m}"))
        for j in range(1, k + 1):
            s = b1.node(f"s_{i}_{j}")
            b1.edge(r, s)
            for l in range(1, a_i + 1):
                t = b1.node(f"t_{i}_{j}_{l}")
                b1.edge(s, t)
                u = b1.node(f"u_{i}_{j}_{l}")
                b1.edge(t, u)
                for m in range(1, 2 * j + 4 + 1):
                    b1.edge(u, b1.node(f"v_{i}_{j}_{l}_{m}"))

    b2 = _Builder()
    for i in range(1, n + 1):
        b2.star(f"alpha_{i}_0", [f"alpha_{i}_{m}" for m in range(1, D + 1)])
    for i in range(1, n + 1):
        a_i = kw.items[i - 1]
        for j in range(1, k):
            b2.star(f"beta_{i}_{j}_0", [f"beta_{i}_{j}_{m}" for m in range(1, a_i + 1)])
    for j in range(1, k + 1):
        for l in range(1, C + 1):
            b2.star(f"gamma_{j}_{l}_0", [f"gamma_{j}_{l}_{m}" for m in range(1, 2 * j + 5 + 1)])
    for j in range(1, k + 1):
        for l in range(1, M - C + 1):
            b2.star(f"delta_{j}_{l}_0", [f"delta_{j}_{l}_{m}" for m in range(1, 2 * j + 4 + 1)])

    g1, g2 = b1.graph(), b2.graph()
    n_prime = n * (D + k) + M * (k * k + 7 * k)
    assert g1.n == n_prime and g2.n == n_prime, "closed-form vertex count must hold"
    return LabeledInstance(
        Instance(g1, g2, n_prime),
        b1.labels,
        b2.labels,
        {
            "construction": "kway_td5",
            "items": list(kw.items),
            "k": k,
            "C": C,
            "M": M,
            "D": D,
            "n_prime": n_prime,
        },
    )


# ---------------------------------------------------------------------------
# k-way partition -> pathwidth-4 trees


def gen_kway_pw4(kw: KwayInstance) -> LabeledInstance:
    """Pathwidth-4 trees vs. a star forest; degrees stay 3k+7 and 2k+8."""
    k, C, M = kw.k, kw.capacity, kw.total
    if not kw.solvable_framing:
        raise PreconditionError(f"k*C = {k * C} != sum of items {M}")
    n = len(kw.items)
    a = max(kw.items)
    if a < 3:
        # the spine nodes y/z and the in-branch 2-leaf stars need three rungs
        raise PreconditionError("largest item must be >= 3 for this construction")
    D = 2 * k + 8
    E = 2 * k + 6

    b1 = _Builder()
    for i in range(1, n + 1):
        a_i = kw.items[i - 1]
        r = b1.node(f"r_{i}")
        for m in range(1, D):
            b1.edge(r, b1.node(f"h_{i}_{m}"))
        for j in range(1, k + 1):
            s = [b1.node(f"s_{i}_{j}_0")]
            b1.edge(r, s[0])
            for l in range(1, a - 1):
                s.append(b1.node(f"s_{i}_{j}_{l}"))
            y = {l: b1.node(f"y_{i}_{j}_{l}") for l in range(1, a - 1)}
            z = {l: b1.node(f"z_{i}_{j}_{l}") for l in range(1, a - 1)}
            t = {l: b1.node(f"t_{i}_{j}_{l}") for l in range(1, a + 1)}
            u = {l: b1.node(f"u_{i}_{j}_{l}") for l in range(1, a + 1)}
            for l in range(1, a - 1):
                b1.edge(s[l], z[l])
                b1.edge(z[l], y[l])
                b1.edge(y[l], s[l - 1])
                b1.edge(t[l], s[l - 1])
            b1.edge(t[a - 1], s[a - 2])
            b1.edge(t[a], s[a - 2])
            for l in range(1, a + 1):
                b1.edge(u[l], t[l])
                width = 2 * j + 4 if l <= a_i else E
                for m in range(1, width + 1):
                    b1.edge(u[l], b1.node(f"v_{i}_{j}_{l}_{m}"))

    b2 = _Builder()
    for i in range(1, n + 1):
        b2.star(f"alpha_{i}_0", [f"alpha_{i}_{m}" for m in range(1, D + 1)])
    for j in range(1, k + 1):
        for l in range(1, C + 1):
            b2.star(f"beta_{j}_{l}_0", [f"beta_{j}_{l}_{m}" for m in range(1, 2 * j + 5 + 1)])
    for j in range(1, k + 1):
        for l in range(1, M - C + 1):
            b2.star(f"gamma_{j}_{l}_0", [f"gamma_{j}_{l}_{m}" for m in range(1, 2 * j + 4 + 1)])
    for i in range(1, n + 1):
        for j in range(1, a + k - 3 + 1):
            b2.star(f"delta_{i}_{j}_0", [f"delta_{i}_{j}_{m}" for m in (1, 2)])
    for i in range(1, n + 1):
        for j in range(1, k):
            for l in range(1, a - 1):
                b2.star(
                    f"epsilon_{i}_{j}_{l}_0",
                    [f"epsilon_{i}_{j}_{l}_{m}" for m in (1, 2, 3)],
                )
    for l in range(1, n * a - M + 1):
        b2.star(f"zeta_{l}_0", [f"zeta_{l}_{m}" for m in range(1, E + 1 + 1)])
    for l in range(1, (k - 1) * (n * a - M) + 1):
        b2.star(f"eta_{l}_0", [f"eta_{l}_{m}" for m in range(1, E + 1)])

    g1, g2 = b1.graph(), b2.graph()
    n_prime = n * (2 * a * k * k + 11 * a * k - 3 * k + 8) - (k * k + k) * M
    assert g1.n == n_prime and g2.n == n_prime, "closed-form vertex count must hold"
    return LabeledInstance(
        Instance(g1, g2, n_prime),
        b1.labels,
        b2.labels,
        {
            "construction": "kway_pw4",
            "items": list(kw.items),
            "k": k,
            "C": C,
            "M": M,
            "a": a,
            "D": D,
            "E": E,
            "n_prime": n_prime,
        },
    )


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
    from .treewidth import TreeDecomposition

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
