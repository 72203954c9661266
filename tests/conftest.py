"""Shared graph builders for the test suite."""

from __future__ import annotations

import contextlib
import random
import signal
from itertools import combinations

from starforest import treewidth
from starforest.graph import Graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def disjoint_union(*graphs: Graph) -> Graph:
    total = sum(g.n for g in graphs)
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph.from_edges(total, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph.from_edges(n, edges)


def cover_path_graph(rng: random.Random, cover: int, independent: int) -> Graph:
    """A path on vertices 0..cover-1 plus `independent` vertices, each joined
    to a random non-empty set of path vertices; the path covers every edge."""
    edges = [(i, i + 1) for i in range(cover - 1)]
    for v in range(cover, cover + independent):
        edges += [(u, v) for u in rng.sample(range(cover), rng.randint(1, cover))]
    return Graph.from_edges(cover + independent, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    right = [(v, v + 1) for v in range(rows * cols) if v % cols < cols - 1]
    down = [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph.from_edges(rows * cols, right + down)


def caterpillar(spine: int, legs: int) -> Graph:
    """A path of `spine` vertices, each with `legs` pendant leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return Graph.from_edges(spine * (legs + 1), edges)


def hub_tree(rng: random.Random, n: int, hubs: int) -> Graph:
    """A random tree where about half the vertices hang off the first few."""
    edges = [(rng.randrange(min(v, hubs) if rng.random() < 0.5 else v), v) for v in range(1, n)]
    return Graph.from_edges(n, edges)


def complete_binary_tree(n: int) -> Graph:
    return Graph.from_edges(n, [((i - 1) // 2, i) for i in range(1, n)])


def ladder_graph(rungs: int) -> Graph:
    """2 x rungs grid; planar with maximum degree 3."""
    edges = []
    for i in range(rungs):
        edges.append((2 * i, 2 * i + 1))
        if i + 1 < rungs:
            edges.append((2 * i, 2 * i + 2))
            edges.append((2 * i + 1, 2 * i + 3))
    return Graph.from_edges(2 * rungs, edges)


def planar_low_degree(rng: random.Random, max_n: int = 10) -> Graph:
    """Planar graphs with max degree <= 3: ladders, trees, cycles with a chord."""
    kind = rng.randrange(4)
    if kind == 0:
        return ladder_graph(rng.randint(2, max_n // 2))
    if kind == 1:
        return random_tree(rng, rng.randint(2, max_n))
    if kind == 2:
        return cycle_graph(rng.randint(3, max_n))
    n = rng.randint(4, max_n)
    edges = {(i, (i + 1) % n) for i in range(n)}
    # one non-adjacent chord keeps the drawing planar and degrees at 3
    a = 0
    b = rng.randint(2, n - 2)
    edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, sorted(edges))


def deep_tree(rng: random.Random, n: int) -> Graph:
    """Random tree hanging vertex i off i-1 or i-2: planar, degree <= 3, depth >= n/2."""
    return Graph.from_edges(n, [(rng.randint(max(0, i - 2), i - 1), i) for i in range(1, n)])


def deep_planar(rng: random.Random) -> Graph:
    """Ladders 2x12 to 2x20, or paths, cycles and deep trees on 24 to 40 vertices.

    Their BFS levels reach 12, so at eps 0.5 and 0.8 every EPTAS shift prunes.
    """
    kind = rng.randrange(4)
    if kind == 0:
        return ladder_graph(rng.randint(12, 20))
    if kind == 1:
        return path_graph(rng.randint(24, 40))
    if kind == 2:
        return cycle_graph(rng.randint(24, 40))
    return deep_tree(rng, rng.randint(24, 40))


def path_decomposition(g: Graph) -> list[frozenset[int]]:
    """The bags of `treewidth.path_order`'s path: bag i is the i-th vertex and the
    placed vertices that no earlier step closed.  The empty graph's path has none."""
    held: set[int] = set()
    bags = []
    for v, closes in treewidth.path_order(g)[0]:
        held.add(v)
        bags.append(frozenset(held))
        held.difference_update(closes)
    return bags


def counted_picks(monkeypatch):
    """Route the DP (its pendant kernel, the pick between the path steps and
    min-fill's tree, and the walk) through a wrapper, called once per DP run;
    returns the list of graphs it was given."""
    calls = []
    real = treewidth._picked_family

    def counted(g, delta):
        calls.append(g)
        return real(g, delta)

    monkeypatch.setattr(treewidth, "_picked_family", counted)
    return calls


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail the block with TimeoutError once it has run `seconds` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
