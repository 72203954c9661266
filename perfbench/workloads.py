"""Seeded instance generators for the benchmark workloads.

Every generator draws from ``random.Random`` seeded with a string made of the
workload name and the run seed, so one seed always yields the same instances
and no two workloads share a stream.  Each pool has a fixed composition of
graph families and sizes; the seed only picks the details (random trees,
chords, covers, labels).  That keeps the cost of one pass over a pool close
to the same from seed to seed, which is what lets runs on different seeds
agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from starforest import component_ilp, eptas, graph, oracle, solve_h, treewidth, vc_ilp
from starforest.graph import Graph, StarForest


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def relabel(g: Graph, rng: random.Random) -> Graph:
    """The same graph under a random vertex numbering."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# planar families of small treewidth


def grid(rows: int, cols: int) -> Graph:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def chorded_cycle(n: int, chords: int, rng: random.Random) -> Graph:
    """A cycle plus pairwise non-crossing chords: outerplanar, treewidth 2."""
    placed: list[tuple[int, int]] = []
    for _ in range(50 * chords):
        if len(placed) == chords:
            break
        a, b = sorted(rng.sample(range(n), 2))
        if b - a < 2 or b - a > n - 2 or (a, b) in placed:
            continue
        if any(a < c < b < d or c < a < d < b for c, d in placed):
            continue
        placed.append((a, b))
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + placed)


def hub_tree(n: int, hubs: int, rng: random.Random) -> Graph:
    """Random tree where about half the vertices hang off a few hubs."""
    edges = []
    for v in range(1, n):
        if rng.random() < 0.5:
            parent = rng.randrange(min(v, hubs))
        else:
            parent = rng.randrange(v)
        edges.append((parent, v))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# small-cover and small-component families


def small_cover_graph(cover: int, independent: int, rng: random.Random) -> Graph:
    """Vertices 0..cover-1 cover every edge; the rest form an independent set.

    The cover vertices form a path.  The independent-set vertices take the
    nonempty subsets of the cover as neighbourhoods, in a random order and
    round-robin, so no vertex is isolated, the minimum vertex cover is at
    most ``cover`` and the twin classes are as even as they can be.  (Random
    cover edges and random neighbourhoods changed the guess count, and so
    the solve time, by up to 5x between instances of one shape.)
    """
    subsets = [
        [u for u in range(cover) if mask >> u & 1] for mask in range(1, 1 << cover)
    ]
    rng.shuffle(subsets)
    edges = [(a, a + 1) for a in range(cover - 1)]
    for j in range(independent):
        edges.extend((u, cover + j) for u in subsets[j % len(subsets)])
    return Graph.from_edges(cover + independent, edges)


def component_union(sizes: list[int], rng: random.Random) -> Graph:
    """Disjoint union of random connected graphs with the given vertex counts.

    Each component is a random tree plus one random extra edge when it has
    four or more vertices.
    """
    edges = []
    offset = 0
    for size in sizes:
        for v in range(1, size):
            edges.append((offset + rng.randrange(v), offset + v))
        if size >= 4:
            a, b = rng.sample(range(size), 2)
            edges.append((offset + a, offset + b))
        offset += size
    return Graph.from_edges(offset, edges)


def sparse_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform random graph with n vertices and m edges."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return Graph.from_edges(n, sorted(edges))


# ---------------------------------------------------------------------------
# rounds: one stratified draw of every family a workload mixes


@dataclass(frozen=True)
class Pair:
    family: str
    g1: Graph
    g2: Graph


def _pair(family: str, g1: Graph, g2: Graph, rng: random.Random) -> Pair:
    g1, g2 = relabel(g1, rng), relabel(g2, rng)
    if rng.random() < 0.5:
        g1, g2 = g2, g1
    return Pair(family, g1, g2)


def planar_round(rng: random.Random) -> list[Pair]:
    def tree(n: int) -> Graph:
        return hub_tree(n, rng.randint(1, 3), rng)

    def cycle(n: int) -> Graph:
        return chorded_cycle(n, n // 6, rng)

    # one 3x4 grid pair per round carries the widest decompositions and the
    # largest sumsets; larger grids and n above ~16 cost 0.3-0.5 s per solve
    # and make the exact reference bracket explode (up to 22 s at n = 22).
    # Grid pairs cost 0.1-0.3 s depending on the labels, so two per round
    # made the 90th percentile move 27% between runs, against 8-15% with one.
    draws = [
        ("grid3x4-cycle12", lambda: grid(3, 4), lambda: cycle(12), 1),
        ("tree12-cycle12", lambda: tree(12), lambda: cycle(12), 1),
        ("ladder7-tree14", lambda: grid(2, 7), lambda: tree(14), 4),
        ("cycle14-tree14", lambda: cycle(14), lambda: tree(14), 4),
        ("tree14-tree16", lambda: tree(14), lambda: tree(16), 2),
        ("ladder8-cycle16", lambda: grid(2, 8), lambda: cycle(16), 1),
    ]
    return [
        _pair(family, make1(), make2(), rng)
        for family, make1, make2, copies in draws
        for _ in range(copies)
    ]


def vc_round(rng: random.Random) -> list[Pair]:
    # counts put the median inside the (2,6)-(2,7) family and the 90th
    # percentile inside the (3,4)-(2,4) family, away from the boundaries
    # between families; covers of 3 on both sides cost 0.2-1.2 s per solve
    shapes = [
        ((2, 4), (2, 5), 3),
        ((2, 6), (2, 7), 4),
        ((3, 4), (2, 4), 4),
    ]
    return [
        _pair(
            f"vc{c1}+{s1}-vc{c2}+{s2}",
            small_cover_graph(c1, s1, rng),
            small_cover_graph(c2, s2, rng),
            rng,
        )
        for (c1, s1), (c2, s2), copies in shapes
        for _ in range(copies)
    ]


def cc_round(rng: random.Random) -> list[Pair]:
    def union(sizes: tuple[int, ...]) -> Graph:
        shuffled = list(sizes)
        rng.shuffle(shuffled)
        return component_union(shuffled, rng)

    # four components per side, or 5-vertex components against four, make
    # the branch-and-bound deep; fixed size multisets keep one family's
    # instances close in cost
    shapes = [((3, 4, 5), (3, 4, 5), 3), ((3, 4, 5), (3, 3, 4, 4), 2),
              ((3, 3, 4, 4), (3, 4, 4, 4), 1)]
    return [
        _pair(f"cc{''.join(map(str, a))}-cc{''.join(map(str, b))}", union(a), union(b), rng)
        for a, b, copies in shapes
        for _ in range(copies)
    ]


def decide_round(rng: random.Random) -> list[Pair]:
    # two pairs at n = 12 put the median among the fast no-answers there, two
    # at n = 18 put the 90th percentile inside the slow no-answers there; one
    # pair of each size left both on the boundary between two sizes
    return [
        _pair(f"sparse{n}", sparse_graph(n, round(0.7 * n), rng),
              sparse_graph(n, round(0.7 * n), rng), rng)
        for n in (12, 12, 14, 16, 18, 18)
    ]


# ---------------------------------------------------------------------------
# requests: how each workload solves an instance and checks the answer


class CheckFailed(Exception):
    """The reference route itself produced an answer that does not verify."""


@dataclass(frozen=True)
class Request:
    pair: Pair
    h: int
    text: str  # the instance as a user sends it (graph.serialize_instance)


def _forest_problem(g: Graph, forest: StarForest, memo: dict, tag: str) -> str | None:
    """Find an embedding of ``forest`` in ``g`` and verify it as a certificate."""
    key = ("embeds", tag, forest.star_sizes)
    if key not in memo:
        emb = solve_h.embeds_star_forest(g, forest, "exact")
        if emb is None:
            memo[key] = f"forest {list(forest.star_sizes)} does not embed in {tag}"
        elif not graph.verify_embedding(g, forest, emb):
            memo[key] = f"embedding of {list(forest.star_sizes)} in {tag} fails verification"
        else:
            memo[key] = None
    return memo[key]


def _pair_forest_problem(pair: Pair, forest: StarForest, memo: dict) -> str | None:
    return (_forest_problem(pair.g1, forest, memo, "g1")
            or _forest_problem(pair.g2, forest, memo, "g2"))


def _certificate_problem(pair: Pair, h: int, cert) -> str | None:
    forest, emb1, emb2 = cert
    if forest.total_vertices < h:
        return f"certificate covers {forest.total_vertices} < h={h} vertices"
    if not graph.verify_embedding(pair.g1, forest, emb1):
        return "certificate embedding in g1 fails verification"
    if not graph.verify_embedding(pair.g2, forest, emb2):
        return "certificate embedding in g2 fails verification"
    return None


def tw_reference(pair: Pair, memo: dict) -> int:
    """The ``solve_tw`` optimum; its forest must embed in both graphs."""
    if "tw" not in memo:
        size, forest = treewidth.solve_tw(pair.g1, pair.g2)
        problem = _pair_forest_problem(pair, forest, memo)
        if forest.total_vertices != size:
            problem = f"reference forest covers {forest.total_vertices}, not {size}"
        memo["tw"] = (size, problem)
    size, problem = memo["tw"]
    if problem is not None:
        raise CheckFailed(f"reference solve_tw: {problem}")
    return size


class Workload:
    name: str
    round_fn: staticmethod  # one round of pairs from an rng
    rounds: int  # pool size; a run that exhausts the pool starts over

    def queries(self, pair: Pair, memo: dict) -> list[int]:
        """Targets h asked about the pair; h is ignored by optimizing solvers."""
        return [0]

    def solve(self, text: str):
        raise NotImplementedError

    def check(self, req: Request, answer, memo: dict) -> str | None:
        """None when the answer is right, otherwise what is wrong with it."""
        raise NotImplementedError

    def pool(self, seed: int) -> list[Pair]:
        """``rounds`` consecutive rounds, so any prefix of the pool is stratified."""
        rng = _rng(self.name, seed)
        pairs: list[Pair] = []
        for _ in range(self.rounds):
            batch = self.round_fn(rng)
            rng.shuffle(batch)
            pairs.extend(batch)
        return pairs


class PlanarTw(Workload):
    name = "planar_tw"
    round_fn = staticmethod(planar_round)
    rounds = 24

    def solve(self, text):
        inst = graph.parse_instance(text)
        size, forest = treewidth.solve_tw(inst.g1, inst.g2)
        approx, approx_forest, _ = eptas.solve_eptas(inst.g1, inst.g2, eptas.EptasConfig(0.5))
        return size, forest, approx, approx_forest

    def check(self, req, answer, memo):
        size, forest, approx, approx_forest = answer
        pair = req.pair
        if approx > size:
            return f"eptas {approx} exceeds the exact optimum {size}"
        for label, total, f in (("solve_tw", size, forest), ("eptas", approx, approx_forest)):
            if f.total_vertices != total:
                return f"{label} forest covers {f.total_vertices}, answer is {total}"
            problem = _pair_forest_problem(pair, f, memo)
            if problem:
                return f"{label}: {problem}"
        if max(pair.g1.n, pair.g2.n) <= oracle.DEFAULT_VERTEX_LIMIT:
            if "oracle" not in memo:
                memo["oracle"] = oracle.opt_common_brute(pair.g1, pair.g2)[0]
            if size != memo["oracle"]:
                return f"solve_tw {size}, oracle {memo['oracle']}"
            return None
        key = ("bracket", size)
        if key not in memo:
            memo[key] = self._bracket(pair, size)
        return memo[key]

    @staticmethod
    def _bracket(pair: Pair, size: int) -> str | None:
        """Exact decisions: yes at the answer, no one above it."""
        yes, cert = solve_h.solve_h(graph.Instance(pair.g1, pair.g2, size), mode="exact")
        if not yes:
            return f"solve_h finds no common forest of {size} vertices"
        problem = _certificate_problem(pair, size, cert)
        if problem:
            return problem
        above, _ = solve_h.solve_h(graph.Instance(pair.g1, pair.g2, size + 1), mode="exact")
        if above:
            return f"solve_h finds a common forest of {size + 1} vertices"
        return None


class VcGuess(Workload):
    name = "vc_guess"
    round_fn = staticmethod(vc_round)
    rounds = 48

    def solve(self, text):
        inst = graph.parse_instance(text)
        return vc_ilp.solve_vc(inst.g1, inst.g2, 3)

    def check(self, req, answer, memo):
        ref = tw_reference(req.pair, memo)
        return None if answer == ref else f"solve_vc {answer}, solve_tw {ref}"


class CcCatalog(Workload):
    name = "cc_catalog"
    round_fn = staticmethod(cc_round)
    rounds = 128

    def solve(self, text):
        inst = graph.parse_instance(text)
        k = max(len(c) for g in (inst.g1, inst.g2) for c in g.components())
        return component_ilp.solve_cc(inst.g1, inst.g2, k)

    def check(self, req, answer, memo):
        ref = tw_reference(req.pair, memo)
        return None if answer == ref else f"solve_cc {answer}, solve_tw {ref}"


class DecideH(Workload):
    name = "decide_h"
    round_fn = staticmethod(decide_round)
    rounds = 100

    def queries(self, pair, memo):
        opt = tw_reference(pair, memo)
        return [opt, opt + 1]

    def solve(self, text):
        # auto mode switches to color coding above h = 12, with e^h ln(1/p)
        # trials per forest; exact mode is the only one that finishes here
        return solve_h.solve_h(graph.parse_instance(text), mode="exact")

    def check(self, req, answer, memo):
        yes, cert = answer
        expect = req.h == tw_reference(req.pair, memo)
        if yes != expect:
            return f"h={req.h}: answered {'yes' if yes else 'no'}, reference {'yes' if expect else 'no'}"
        return _certificate_problem(req.pair, req.h, cert) if yes else None


WORKLOADS: dict[str, Workload] = {
    wl.name: wl for wl in (PlanarTw(), VcGuess(), CcCatalog(), DecideH())
}
