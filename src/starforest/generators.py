"""Hardness-construction instance generators.

Each generator emits a LabeledInstance: the two graphs, name tables mapping
construction-vertex names (r_i, s_i_j, alpha_i_0, ...) to indices, and the
construction parameters.  The constructions' certificates and checkers (the
forward embeddings from a solving partition, the treedepth and path
decomposition certificates) live with the tests in `tests/reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError
from .graph import Graph, Instance


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
