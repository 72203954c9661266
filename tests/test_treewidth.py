import hashlib
import importlib.util
import math
import random
from itertools import combinations
from pathlib import Path

import pytest

from starforest.errors import PreconditionError
from starforest.graph import Graph
from starforest import treewidth
from starforest.eptas import EptasConfig, solve_eptas
from starforest.oracle import enum_star_vectors_brute, opt_common_vector
from starforest.treewidth import (
    TreeDecomposition,
    degeneracy,
    enum_star_vectors_dp,
    heuristic_decomposition,
    path_order,
    solve_tw,
)
from starforest.vectors import _digit_sums, common_forest, counts_to_sizes, pack

from conftest import (
    caterpillar,
    complete_binary_tree,
    complete_graph,
    counted_picks,
    cycle_graph,
    disjoint_union,
    grid_graph,
    hub_tree,
    ladder_graph,
    path_decomposition,
    path_graph,
    random_graph,
    random_tree,
    relabelled,
    star_graph,
)
from reference import elimination_tree, verify_path_decomposition


def eliminate(adj, v):
    for a, b in combinations(adj[v], 2):
        adj[a].add(b)
        adj[b].add(a)
    for a in adj[v]:
        adj[a].discard(v)
    adj[v] = set()


def naive_min_fill_order(g):
    """Min-fill elimination, every fill recounted at every step, ties to the lower index."""
    adj = [set(a) for a in g.adjacency]
    alive = set(range(g.n))
    order = []
    while alive:
        fills = {
            x: sum(1 for a, b in combinations(adj[x], 2) if b not in adj[a]) for x in alive
        }
        v = min(alive, key=lambda x: (fills[x], x))
        order.append(v)
        eliminate(adj, v)
        alive.discard(v)
    return order


def is_path_decomposition(g, bags):
    """The definition: every vertex of g, and no other, and every edge in a bag,
    and the bags holding each vertex consecutive."""
    if set().union(*bags) != set(range(g.n)):
        return False
    if not all(any({u, v} <= bag for bag in bags) for u, v in g.edges()):
        return False
    for v in range(g.n):
        held = [t for t, bag in enumerate(bags) if v in bag]
        if held != list(range(held[0], held[-1] + 1)):
            return False
    return True


def is_elimination_tree(g, td):
    """The properties the walk relies on: each vertex heads exactly one bag,
    every edge lies in a bag, each parent comes after its child (or is -1),
    and each bag but its own vertex lies inside its parent's bag."""
    if sorted(bag[0] for bag in td.bags) != list(range(g.n)) or len(td.parents) != g.n:
        return False
    if not all(any({u, v} <= set(bag) for bag in td.bags) for u, v in g.edges()):
        return False
    for t, (bag, p) in enumerate(zip(td.bags, td.parents)):
        if p == -1:
            if len(bag) > 1:
                return False
        elif not t < p < g.n or not set(bag[1:]) <= set(td.bags[p]):
            return False
    return True


class TestHeuristicDecomposition:
    def test_trees_have_width_one(self):
        rng = random.Random(81)
        for _ in range(20):
            t = random_tree(rng, rng.randint(2, 12))
            td = heuristic_decomposition(t)
            assert td.width == 1 and is_elimination_tree(t, td)

    def test_clique_forces_full_bag(self):
        assert heuristic_decomposition(complete_graph(4)).width == 3

    def test_c5_width_two(self):
        td = heuristic_decomposition(cycle_graph(5))
        assert td.width == 2
        # no width-1 decomposition exists for a cycle: exhaustive over the
        # possible two-vertex bags is unnecessary, a cycle is not a forest
        assert is_elimination_tree(cycle_graph(5), td)

    def test_valid_on_random_graphs(self):
        # the properties the walk relies on, in place of a check in the module
        rng = random.Random(82)
        graphs = [Graph.from_edges(0, [])]
        graphs += [random_graph(rng, rng.randint(1, 12), rng.random()) for _ in range(60)]
        loose = Graph.from_edges(2, [])
        graphs += [disjoint_union(g, random_tree(rng, 5), loose) for g in graphs[-10:]]
        assert heuristic_decomposition(graphs[0]) == TreeDecomposition((), ())
        for g in graphs:
            assert is_elimination_tree(g, heuristic_decomposition(g))

    def test_widths_are_kept(self):
        # min-fill's widths of these graphs, pinned: the tree's shape must not
        # change which bags elimination makes; -1 for the empty graph
        rng = random.Random(105)
        graphs = [Graph.from_edges(0, [])]
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 14), rng.random())
            if rng.random() < 0.25:
                g = disjoint_union(g, random_tree(rng, 5), Graph.from_edges(2, []))
            graphs.append(g)
        widths = [-1, 2, 1, 2, 6, 2, 1, 5, 3, 4, 2, 1, 1, 7, 3, 1, 0, 5, 0, 2, 2, 1, 1, 0, 0]
        widths += [7, 5, 2, 3, 1, 1, 1, 1, 3, 6, 3, 6, 3, 2, 2, 6]
        assert [heuristic_decomposition(g).width for g in graphs] == widths

    def test_min_fill_order(self):
        rng = random.Random(87)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 14), rng.random() * 0.6)
            td = heuristic_decomposition(g)
            # bag i is the vertex eliminated at step i, then its alive neighbours
            order = [bag[0] for bag in td.bags]
            assert order == naive_min_fill_order(g)
            assert td == elimination_tree(g, order)
            adj = [set(a) for a in g.adjacency]
            for v, bag in zip(order, td.bags):
                assert bag == (v, *sorted(adj[v]))
                eliminate(adj, v)


def frontier(g, placed):
    """The placed vertices that still have an unplaced neighbour."""
    return {u for u in placed if any(w not in placed for w in g.adjacency[u])}


def naive_path_order(g):
    """The greedy path's order and width, every frontier recomputed from scratch at every step."""
    placed = set()
    order, width = [], -1
    while len(placed) < g.n:
        reach = {w for u in placed for w in g.adjacency[u] if w not in placed}
        if reach:
            v = min(
                reach,
                key=lambda x: (
                    len(frontier(g, placed | {x})),
                    -sum(1 for w in g.adjacency[x] if w in placed),
                    x,
                ),
            )
        else:
            v = min(set(range(g.n)) - placed, key=lambda x: (g.degree(x), x))
        width = max(width, len(frontier(g, placed)))
        order.append(v)
        placed.add(v)
    return order, width


def rescanning_path_order(g):
    """The greedy path's order and width, each candidate's key rescanning its
    neighbours for the frontier vertices it would close, at every step."""
    adj = g.adjacency
    unplaced_nbrs = [len(a) for a in adj]
    unplaced, front, reachable = set(range(g.n)), set(), set()
    order, width = [], -1

    def grown(v):
        size = len(front) + (unplaced_nbrs[v] > 0)
        size -= sum(1 for u in adj[v] if unplaced_nbrs[u] == 1 and u in front)
        return size, unplaced_nbrs[v] - len(adj[v]), v

    while unplaced:
        if reachable:
            v = min(reachable, key=grown)
            reachable.discard(v)
        else:
            v = min(unplaced, key=lambda x: (len(adj[x]), x))
        width = max(width, len(front))
        order.append(v)
        unplaced.discard(v)
        for u in adj[v]:
            unplaced_nbrs[u] -= 1
            if u in unplaced:
                reachable.add(u)
            elif unplaced_nbrs[u] == 0:
                front.discard(u)
        if unplaced_nbrs[v]:
            front.add(v)
    return order, width


def placed_order(g):
    """`path_order`'s placement order and width, without the closings."""
    steps, width = path_order(g)
    return [v for v, _ in steps], width


def chorded_cycle(rng, n):
    """A cycle with a few chords from one vertex: outerplanar, treewidth 2."""
    hub = rng.randrange(n)
    chords = {(hub, (hub + d) % n) for d in rng.sample(range(2, n - 1), min(n - 3, n // 6 + 1))}
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + sorted(chords))


def chosen_by_both(g):
    """The choice of walk with min-fill always computed."""
    (steps, width), tree = path_order(g), heuristic_decomposition(g)
    return steps if width <= tree.width + 1 else tree


def mixed_graphs(rng, count):
    """Random graphs with n from 0 to 14, some with isolated vertices and
    several components."""
    graphs = []
    for _ in range(count):
        n = rng.randint(0, 14)
        g = random_graph(rng, n, rng.random())
        if n <= 7 and rng.random() < 0.5:
            g = disjoint_union(g, Graph.from_edges(rng.randint(0, 3), []), random_tree(rng, 4))
        graphs.append(g)
    return graphs


class TestPathDecomposition:
    def test_valid_on_random_graphs(self):
        rng = random.Random(89)
        graphs = mixed_graphs(rng, 300)
        assert any(len(g.components()) > 2 and g.isolated_vertices() for g in graphs)
        for g in graphs:
            bags = path_decomposition(g)
            assert verify_path_decomposition(g, bags) and is_path_decomposition(g, bags)
            assert max(map(len, bags), default=0) - 1 == path_order(g)[1]

    def test_greedy_order(self):
        rng = random.Random(90)
        for g in mixed_graphs(rng, 200):
            assert placed_order(g) == naive_path_order(g)

    def test_closings(self):
        # every vertex is closed once, sorted within its step, at the step that
        # places the last of it and its neighbours
        rng = random.Random(96)
        graphs = mixed_graphs(rng, 200) + [grid_graph(4, 6), complete_binary_tree(31)]
        assert any(len(closes) > 2 for g in graphs for _, closes in path_order(g)[0])
        for g in graphs:
            placed, closed = set(), []
            for v, closes in path_order(g)[0]:
                placed.add(v)
                assert closes == sorted(closes)
                done = {x for x in placed if set(g.adjacency[x]) <= placed}
                assert set(closes) == done - set(closed)
                closed += closes
            assert sorted(closed) == list(range(g.n))

    def test_counted_keys_pick_as_rescanned_keys(self):
        # families do not depend on the decomposition, so no family check
        # would see the kept frontier counts pick another vertex
        rng = random.Random(97)
        graphs = [random_graph(rng, rng.randint(0, 30), rng.random() * 0.3) for _ in range(300)]
        graphs += [
            disjoint_union(random_tree(rng, 8), random_graph(rng, 9, 0.3)) for _ in range(20)
        ]
        shapes = [grid_graph(3, 4), grid_graph(4, 6), ladder_graph(7), ladder_graph(8)]
        shapes += [chorded_cycle(rng, n) for n in (12, 14, 16, 24)]
        shapes += [hub_tree(rng, n, rng.randint(1, 3)) for n in (12, 14, 16, 30) for _ in range(3)]
        graphs += shapes + [relabelled(g, rng) for g in shapes for _ in range(5)]
        assert sum(1 for g in graphs if path_order(g)[1] >= 3) > 50
        for g in graphs:
            assert placed_order(g) == rescanning_path_order(g)

    def test_widths(self):
        assert path_order(path_graph(9))[1] == 1
        assert path_order(cycle_graph(9))[1] == 2
        assert path_order(caterpillar(12, 3))[1] == 1
        assert path_order(Graph.from_edges(5, []))[1] == 0
        assert path_order(Graph.from_edges(0, [])) == ([], -1)

    def test_complete_binary_tree_keeps_min_fill(self):
        # six levels: pathwidth 3, and the greedy path is wider still
        g = complete_binary_tree(63)
        assert path_order(g)[1] > 2
        td = treewidth.dp_pick(g)
        assert td == heuristic_decomposition(g) and td.width == 1

    def test_random_two_tree_keeps_min_fill(self):
        # a 2-tree's greedy path is far wider than its min-fill tree, and walks
        # it many times slower; the script times one such 2-tree
        g = script_module().random_two_tree(random.Random(22), 40)
        assert treewidth.pendant_kernel(g)[0] == g and degeneracy(g) == 2
        td = treewidth.dp_pick(g)
        assert td == heuristic_decomposition(g) and td.width == 2 and path_order(g)[1] == 7
        walked = treewidth._walk(g, 2, path_order(g)[0])
        assert enum_star_vectors_dp(g, 2, remember=False) == walked == treewidth._walk(g, 2, td)

    def test_degeneracy(self):
        assert degeneracy(complete_graph(5)) == 4
        assert degeneracy(grid_graph(4, 5)) == 2
        assert degeneracy(complete_binary_tree(15)) == 1
        assert degeneracy(Graph.from_edges(3, [])) == 0
        rng = random.Random(91)
        for g in mixed_graphs(rng, 100):
            if g.n:
                assert degeneracy(g) <= heuristic_decomposition(g).width

    def test_degeneracy_shortcut_keeps_the_choice(self, monkeypatch):
        rng = random.Random(92)
        graphs = mixed_graphs(rng, 150) + [random_tree(rng, rng.randint(20, 40)) for _ in range(30)]
        graphs += [complete_binary_tree(63), grid_graph(4, 6), caterpillar(15, 3)]
        min_fill = []
        real = treewidth.heuristic_decomposition

        def counted(g):
            min_fill.append(g)
            return real(g)

        monkeypatch.setattr(treewidth, "heuristic_decomposition", counted)
        for g in graphs:
            assert treewidth.dp_pick(g) == chosen_by_both(g)
        # the shortcut skips min-fill on some graphs and not on others
        assert 0 < sum(1 for g in graphs if g not in min_fill) < len(graphs)

    def test_families_equal_min_fills(self):
        rng = random.Random(93)
        graphs = [
            random_graph(rng, rng.randint(2, 11), rng.choice([0.2, 0.4, 0.6])) for _ in range(40)
        ]
        graphs += [grid_graph(5, 5)] + [random_graph(rng, 16, 0.3) for _ in range(3)]
        for g in graphs:
            delta = max(1, g.max_degree())
            pick = treewidth.dp_pick(g)
            width = pick.width if isinstance(pick, TreeDecomposition) else path_order(g)[1]
            assert width <= heuristic_decomposition(g).width + 1
            want = treewidth._walk(g, delta, heuristic_decomposition(g))
            assert treewidth._walk(g, delta, pick) == want

    def test_path_walk_makes_no_sumset_call(self, monkeypatch):
        # the join is the one step that sums two tables' codes
        calls = []
        real = treewidth._join

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(treewidth, "_join", counted)
        g = grid_graph(3, 4)
        assert treewidth.dp_pick(g) == path_order(g)[0]
        treewidth._remembered_family.cache_clear()
        fam = enum_star_vectors_dp(g, 4)
        assert fam.vectors == enum_star_vectors_brute(g, 4).vectors
        assert calls == []
        treewidth._walk(g, 4, heuristic_decomposition(g))
        assert calls


def walked_graphs(rng):
    """Mixed graphs, grids up to 5x5, random trees of 30-40 vertices and the
    63-vertex binary tree, whose greedy path is far wider than min-fill's tree.  Mixed
    graphs wider than 7 are left out: a dense 14-vertex graph's families take
    seconds each."""
    graphs = [g for g in mixed_graphs(rng, 150) if path_order(g)[1] <= 7]
    graphs += [grid_graph(r, c) for r in range(1, 6) for c in range(r, 6)]
    graphs += [random_tree(rng, rng.randint(30, 40)) for _ in range(6)]
    return graphs + [complete_binary_tree(63)]


class TestOrderWalk:
    def test_family_equals_the_path_and_min_fill_walks(self):
        rng = random.Random(99)
        for g in walked_graphs(rng):
            steps, width = path_order(g)
            assert width == max(map(len, path_decomposition(g)), default=0) - 1
            for delta in sorted({2, max(1, g.max_degree())}):
                walked = treewidth._walk(g, delta, steps)
                assert walked == treewidth._walk(g, delta, heuristic_decomposition(g))
                if g.n <= 9:
                    assert walked.vectors == enum_star_vectors_brute(g, delta).vectors

    def test_slots_stay_below_width_plus_one(self, monkeypatch):
        forgets = []
        real = treewidth._forget

        def recorded(star, field, s, nbrs, child, pendants=0):
            forgets.append((field.bit_length(), s, nbrs))
            return real(star, field, s, nbrs, child, pendants)

        monkeypatch.setattr(treewidth, "_forget", recorded)
        rng = random.Random(100)
        for g in walked_graphs(rng):
            steps, width = path_order(g)
            forgets.clear()
            treewidth._walk(g, 2, steps)
            assert len(forgets) == g.n  # every vertex is forgotten, once
            for w, s, nbrs in forgets:
                # the forgotten vertex and its held neighbours hold distinct slots
                slots = [sh // w for sh in (s, *nbrs)]
                assert len(set(slots)) == len(slots) and max(slots) <= width

    def test_a_vertex_left_out_of_the_order_is_caught(self):
        g = grid_graph(3, 4)
        steps, _ = path_order(g)
        with pytest.raises(AssertionError):
            treewidth._walk(g, 2, steps[:-1])

    def test_dp_walks_the_order_on_paths_only(self, monkeypatch):
        walks = []
        real = treewidth._tree_nodes

        def counted(td, shift, w):
            walks.append(td)
            return real(td, shift, w)

        monkeypatch.setattr(treewidth, "_tree_nodes", counted)
        for g in (grid_graph(4, 5), caterpillar(12, 3), complete_binary_tree(63)):
            want = treewidth._walk(g, 3, heuristic_decomposition(g))
            walks.clear()
            assert enum_star_vectors_dp(g, 3, remember=False) == want
            # only min-fill's tree, which the binary tree's 31-vertex pendant
            # kernel keeps, walks a decomposition
            kernel = treewidth.pendant_kernel(g)[0]
            assert walks == ([heuristic_decomposition(kernel)] if g.n == 63 else [])


def random_forest(rng, n):
    """A random tree on n vertices with about a quarter of its edges dropped."""
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.75])


def with_pendants(g, vertices):
    """g with one new pendant on each of `vertices`."""
    vertices = list(vertices)
    pendants = [(v, g.n + i) for i, v in enumerate(vertices)]
    return Graph.from_edges(g.n + len(vertices), list(g.edges()) + pendants)


def joined_binary_tree():
    """The 63-vertex binary tree with each sibling pair above the leaves
    joined: a 31-vertex kernel of triangles, with 32 pendants."""
    edges = list(complete_binary_tree(63).edges())
    return Graph.from_edges(63, edges + [(v, v + 1) for v in range(15, 31, 2)])


def pendant_graphs(rng):
    """Graphs the pendant kernel shrinks most: matchings with isolated
    vertices, stars wider than delta + 1, P2 and P3, caterpillars, hub trees,
    kernels with cycles (a sun, a 3x4 grid with pendants on its border and
    `joined_binary_tree`) and random forests."""
    isolated = Graph.from_edges(1, [])
    graphs = [
        disjoint_union(*[path_graph(2)] * k, *[isolated] * i) for k, i in ((1, 0), (3, 2), (6, 1))
    ]
    graphs += [star_graph(m) for m in (5, 6, 9)] + [path_graph(2), path_graph(3)]
    graphs += [caterpillar(4, 2), caterpillar(6, 1), caterpillar(3, 3)]
    graphs += [hub_tree(rng, n, hubs) for n, hubs in ((10, 1), (14, 2), (20, 3))]
    border = [v for v in range(12) if v // 4 in (0, 2) or v % 4 in (0, 3)]
    graphs += [with_pendants(cycle_graph(6), range(6)), with_pendants(grid_graph(3, 4), border)]
    graphs.append(joined_binary_tree())
    return graphs + [random_forest(rng, rng.randint(2, 14)) for _ in range(12)]


class TestPendantKernel:
    def test_kernel_and_pendant_counts(self):
        # a lone edge keeps its lower end; a leaf of a vertex of degree >= 2 leaves
        g = disjoint_union(path_graph(2), star_graph(3), Graph.from_edges(1, []))
        kernel, pendants = treewidth.pendant_kernel(g)
        assert kernel == Graph.from_edges(3, []) and pendants == [1, 3, 0]
        kernel, pendants = treewidth.pendant_kernel(caterpillar(3, 2))
        assert kernel == path_graph(3) and pendants == [2, 2, 2]
        assert treewidth.pendant_kernel(cycle_graph(5)) == (cycle_graph(5), [0] * 5)
        kernel, pendants = treewidth.pendant_kernel(joined_binary_tree())
        assert kernel.n == 31 and pendants == [0] * 15 + [2] * 16

    def test_a_kernel_with_cycles_can_keep_min_fill(self):
        # the joined binary tree's kernel walks min-fill's tree (path width 9
        # against 2), so its joins meet centres grown by pendants
        kernel = treewidth.pendant_kernel(joined_binary_tree())[0]
        assert path_order(kernel)[1] == 9 and heuristic_decomposition(kernel).width == 2
        assert isinstance(treewidth.dp_pick(kernel), TreeDecomposition)

    def test_default_family_equals_the_walks_without_the_kernel(self):
        rng = random.Random(102)
        graphs = pendant_graphs(rng)
        assert all(sum(treewidth.pendant_kernel(g)[1]) for g in graphs[:-12])
        for g in graphs:
            for delta in (1, 2, 3):
                default = enum_star_vectors_dp(g, delta, remember=False)
                assert default == treewidth._walk(g, delta, path_order(g)[0])
                assert default == treewidth._walk(g, delta, heuristic_decomposition(g))
                if g.n <= 10:
                    assert default.vectors == enum_star_vectors_brute(g, delta).vectors

    def test_a_lone_edge_end_becomes_its_neighbours_leaf_only(self):
        # v at shift 0, its one neighbour at shift w: v stays uncovered or
        # becomes the neighbour's leaf (a centre of 2); v as a centre whose
        # one leaf is the neighbour would give that neighbour the leaf code
        for delta in (1, 2, 3):
            _, star, w, field = treewidth._layout(path_graph(2), delta)
            out = treewidth._forget(star, field, 0, [w], {0: 1})
            assert out == {0: 1, 2 << w: 1 << star[2]}
            assert all((mask >> w) & field != treewidth.LEAF_OUTSIDE for mask in out)

    def test_a_centre_of_two_still_takes_one_more_leaf(self):
        # P3 at delta 2: the end forgotten first becomes the middle's leaf, and
        # the middle, a centre of 2, must still take the other end
        g = path_graph(3)
        three_star = {(0, 1)}  # no 2-star and one 3-star
        for fam in (
            treewidth._walk(g, 2, path_order(g)[0]),
            treewidth._walk(g, 2, heuristic_decomposition(g)),
            enum_star_vectors_dp(g, 2, remember=False),
        ):
            assert fam.vectors == {(0, 0), (1, 0)} | three_star


SCRIPT_GRAPHS = [("grid 2x3", grid_graph(2, 3), 3), ("binary tree 15", complete_binary_tree(15), 3)]


def script_module():
    """scripts/dp_decompositions.py as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "dp_decompositions.py"
    spec = importlib.util.spec_from_file_location("dp_decompositions", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def load_script(monkeypatch):
    """scripts/dp_decompositions.py as a module, run on SCRIPT_GRAPHS."""
    script = script_module()
    monkeypatch.setattr(script, "graphs", lambda: SCRIPT_GRAPHS)
    return script


class TestDecompositionScript:
    def test_check_exit_status(self, monkeypatch, capsys):
        script = load_script(monkeypatch)
        assert script.main(["--check", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "grid 2x3" in out and "binary tree 15" in out and "differ" not in out
        # each walk's build time is printed apart from its DP time
        header, *rows = out.splitlines()
        for kind in ("min-fill", "path"):
            assert f"{kind} dec ms" in header and f"{kind} DP ms" in header
        # and so is the DP with no decomposition supplied, the solvers' route;
        # no column times a decomposition that no solver walks
        assert header.endswith("default ms") and "picked" not in header
        assert len(rows) == 2 and all(float(t) >= 0 for row in rows for t in row.split()[-5:])
        # the kernel's vertex count and pick precede the times: the grid has
        # no pendant, and the binary tree's 8 leaves leave its 7-vertex kernel
        assert "kernel n" in header and "kernel pick" in header
        assert [row.split()[-7:-5] for row in rows] == [["6", "path"], ["7", "path"]]
        # a path walk that loses the largest star size fails the check
        real_walk = script._walk

        def lossy(g, delta, walk, *kernel):
            return real_walk(g, delta - 1 if isinstance(walk, list) else delta, walk, *kernel)

        monkeypatch.setattr(script, "_walk", lossy)
        assert script.main(["--repeat", "1"]) == 0
        assert script.main(["--check", "--repeat", "1"]) == 1
        assert "families differ on: grid 2x3" in capsys.readouterr().out
        monkeypatch.setattr(script, "_walk", real_walk)

        # so does a default route that loses it, though both walks keep it
        real = script.enum_star_vectors_dp

        def lossy_default(g, delta, **kw):
            return real(g, delta - 1, **kw)

        monkeypatch.setattr(script, "enum_star_vectors_dp", lossy_default)
        assert script.main(["--check", "--repeat", "1"]) == 1
        assert "families differ on: grid 2x3" in capsys.readouterr().out

    def test_repeat_prints_the_median_of_fresh_processes(self, monkeypatch, capsys):
        script = load_script(monkeypatch)
        runs = []

        def fake(g, delta):
            runs.append(g)
            return [len(runs) * 1e-3] * 5  # the k-th process reads k ms in every column

        monkeypatch.setattr(script, "fresh_row_times", fake)
        assert script.main(["--repeat", "3"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        # three processes per row, one row after another; the middle one is printed
        assert runs == [g for _, g, _ in SCRIPT_GRAPHS for _ in range(3)]
        assert [row.split()[-5:] for row in rows] == [["2.00"] * 5, ["5.00"] * 5]
        with pytest.raises(SystemExit):
            script.main(["--repeat", "0"])

    def test_digest_lines(self, monkeypatch, capsys):
        script = load_script(monkeypatch)
        assert script.main(["--digest"]) == 0
        lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        # name, delta, family size and the sha256 of the sorted members; no timing
        for (name, g, delta), (got_name, got_delta, size, sha) in zip(SCRIPT_GRAPHS, lines):
            family = enum_star_vectors_dp(g, delta, remember=False)
            assert (got_name, got_delta, size) == (name, "3", str(len(family.members)))
            members = ",".join(map(str, sorted(family.members))).encode()
            assert sha == hashlib.sha256(members).hexdigest()
        assert len(lines) == 2


class TestVerifyDecomposition:
    # `reference.verify_path_decomposition`, the certificate check of the
    # explicit pw4 decomposition and of `path_order`'s path
    def test_accepts_valid(self):
        assert verify_path_decomposition(path_graph(3), [{0, 1}, {1, 2}])

    def test_rejects_missing_edge_bag(self):
        assert not verify_path_decomposition(path_graph(3), [{0, 1}, {2}])

    def test_rejects_disconnected_trace(self):
        assert not verify_path_decomposition(path_graph(3), [{0, 1}, {1, 2}, {0, 2}])

    def test_rejects_no_bags(self):
        # unless the graph has no vertex: the empty graph's path has no bag
        assert not verify_path_decomposition(path_graph(3), [])
        empty = Graph.from_edges(0, [])
        assert path_decomposition(empty) == [] and verify_path_decomposition(empty, [])

    def test_rejects_a_missing_or_foreign_vertex(self):
        assert not verify_path_decomposition(path_graph(3), [{0, 1}])
        assert not verify_path_decomposition(path_graph(3), [{0, 1}, {1, 2, 3}])

    def test_matches_definition_on_mutations(self):
        rng = random.Random(88)
        verdicts = set()
        for _ in range(600):
            g = random_graph(rng, rng.randint(1, 10), rng.random() * 0.6)
            bags = [set(b) for b in path_decomposition(g)]
            for _ in range(rng.randint(0, 2)):
                t = rng.randrange(len(bags))
                kind = rng.randrange(3)
                if kind == 0 and bags[t]:
                    bags[t].discard(rng.choice(sorted(bags[t])))
                elif kind == 1:
                    bags[t].add(rng.randrange(g.n + 1))
                elif kind == 2:
                    u = rng.randrange(len(bags))
                    bags[t], bags[u] = bags[u], bags[t]
            verdict = verify_path_decomposition(g, bags)
            assert verdict == is_path_decomposition(g, bags)
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestSlots:
    def test_bag_vertices_hold_distinct_slots_below_width_plus_one(self):
        # the slots min-fill's tree walk gives, read off the shifts at field width 1
        rng = random.Random(94)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 14), rng.random() * 0.6)
            td = heuristic_decomposition(g)
            slot = [-1] * g.n
            nodes = list(treewidth._tree_nodes(td, slot, 1))
            assert [(t, p, forgets) for t, p, forgets, _ in nodes] == [
                (t, p, bag[:1]) for t, (bag, p) in enumerate(zip(td.bags, td.parents))
            ]
            assert min(slot) >= 0
            for bag in td.bags:
                held = {slot[v] for v in bag}
                assert len(held) == len(bag) and all(s <= td.width for s in held)


class TestEnumDP:
    def sizes(self, fam):
        return sorted(counts_to_sizes(v) for v in fam.vectors)

    def test_examples(self):
        assert self.sizes(enum_star_vectors_dp(path_graph(4), 3)) == [(), (2,), (2, 2), (3,)]
        assert self.sizes(enum_star_vectors_dp(star_graph(3), 3)) == [(), (2,), (3,), (4,)]
        assert self.sizes(enum_star_vectors_dp(Graph.from_edges(3, []), 2)) == [()]

    def test_empty_graph_family_equals_brute(self):
        # packed at base 2, VectorFamily's least, as the oracle does; it was base 1
        g = Graph.from_edges(0, [])
        assert enum_star_vectors_dp(g, 1) == enum_star_vectors_brute(g, 1)

    def test_matches_brute_force(self, monkeypatch):
        rng = random.Random(84)
        graphs = [
            random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]))
            for _ in range(60)
        ]
        # a perfect matching on 12 vertices reaches count n/2; K_{1,11} fills
        # the top coordinate; the 3x4 grid is the widest planar_tw family
        graphs.append(Graph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)]))
        graphs.append(star_graph(11))
        grid3x4 = [(v, v + 1) for v in range(12) if v % 4 < 3] + [(v, v + 4) for v in range(8)]
        graphs.append(Graph.from_edges(12, grid3x4))
        # high-degree centres, where the digit bounds differ most from n // d:
        # hub trees with a pendant on each hub, and stars with chords among
        # their leaves, also walked along min-fill's trees, which join at the
        # centre and so merge a centre held on both sides
        centred = [with_pendants(hub_tree(rng, n, 2), (0, 1)) for n in (8, 9, 10) for _ in range(2)]
        centred += [
            Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)] + chords)
            for m, chords in ((6, [(1, 2)]), (8, [(1, 2), (3, 4)]), (10, [(1, 2), (2, 3), (5, 9)]))
        ]
        merges = []
        real_merge = treewidth._merge_masks

        def counted(*args):
            merges.append(real_merge(*args))
            return merges[-1]

        monkeypatch.setattr(treewidth, "_merge_masks", counted)
        for g in graphs + centred:
            for delta in (2, 3, max(1, g.max_degree())):
                brute = enum_star_vectors_brute(g, delta).vectors
                assert enum_star_vectors_dp(g, delta).vectors == brute
                # no count of a forest's vector reaches its digit's bound
                bounds = treewidth._layout(g, delta)[0]
                assert all(c < b for vec in brute for c, b in zip(vec, bounds))
                if g in centred:
                    assert treewidth._walk(g, delta, heuristic_decomposition(g)).vectors == brute
        assert any(merged is not None for merged in merges)

    def test_independent_of_decomposition(self):
        # the elimination trees of random vertex orders: their roots, joins,
        # forgets and slots all differ from min-fill's, and so from each other
        rng = random.Random(85)
        graphs = [random_graph(rng, rng.randint(2, 9), 0.4) for _ in range(30)]
        graphs.append(grid_graph(3, 4))
        slot_maps = set()
        for g in graphs:
            delta = max(1, g.max_degree())
            want = enum_star_vectors_brute(g, delta).vectors
            for _ in range(4):
                order = rng.sample(range(g.n), g.n)
                td = elimination_tree(g, order)
                assert treewidth._walk(g, delta, td).vectors == want
                slot = [-1] * g.n
                list(treewidth._tree_nodes(td, slot, 1))
                slot_maps.add((g, tuple(slot)))
        assert len(slot_maps) > len(graphs)

    @pytest.mark.parametrize("delta", [1, 2, 3, 4])
    def test_join_caps_merged_centre(self, monkeypatch, delta):
        # min-fill's tree of the star whose hub 4 comes last: its four leaf
        # bags join at the hub's, and the merged centre can reach five
        # vertices, above delta + 1 unless delta is 4
        g = Graph.from_edges(5, [(leaf, 4) for leaf in range(4)])
        td = heuristic_decomposition(g)
        assert td == TreeDecomposition(((0, 4), (1, 4), (2, 4), (3, 4), (4,)), (4, 4, 4, 4, -1))
        refused = []
        real_merge = treewidth._merge_masks

        def counted(*args):
            merged = real_merge(*args)
            refused.append(merged is None)
            return merged

        monkeypatch.setattr(treewidth, "_merge_masks", counted)
        fam = treewidth._walk(g, delta, td)
        assert fam.vectors == enum_star_vectors_brute(g, delta).vectors
        # the join rejects leaf conflicts itself and merges only masks that
        # cover a vertex on both sides, so every refusal is the cap
        assert refused
        assert any(refused) == (delta < 4)

    def test_an_edge_in_no_bag_fails_the_walks_end_check(self):
        # the edge {1, 2} is in no bag: 1 is forgotten before 2 is held, so
        # the edge is never decided
        td = TreeDecomposition(((0, 1), (1,), (2,)), (1, -1, -1))
        assert not is_elimination_tree(path_graph(3), td)
        with pytest.raises(AssertionError):
            treewidth._walk(path_graph(3), 2, td)

    def test_long_path_decomposition(self):
        # 1199 bags in a path: the walk must not recurse once per node
        fam = enum_star_vectors_dp(path_graph(1200), 1)
        assert fam.vectors == {(c,) for c in range(601)}


class TestBitsetTables:
    def test_linear_decode_matches_a_divmod_decode(self):
        # the root's set bits, read off its binary string, and decoded by the
        # sum linear in code // place value, against a digit-by-digit divmod
        rng = random.Random(103)
        for _ in range(300):
            bounds = [rng.randint(1, 7) for _ in range(rng.randint(1, 6))]
            base = max(bounds) + rng.randint(0, 3)
            box = math.prod(bounds)
            codes = sorted({rng.randrange(box) for _ in range(rng.randint(1, 40))})
            root = sum(1 << c for c in codes)
            assert treewidth._bits(root) == codes
            want = []
            for code in codes:
                digits = []
                for b in bounds:
                    code, digit = divmod(code, b)
                    digits.append(digit)
                want.append(pack(digits, base))
            assert _digit_sums(codes, bounds, [base**j for j in range(len(bounds))]) == want
        assert treewidth._bits(0) == []

    def test_sparse_tables_match_int_tables(self, monkeypatch):
        # every walk once with int tables and once with sparse ones, whose
        # codes are packed at base n + 1; min-fill's trees join and merge
        rng = random.Random(104)
        graphs = [grid_graph(3, 4), hub_tree(rng, 24, 2), random_graph(rng, 10, 0.4)]
        graphs += [with_pendants(cycle_graph(6), range(6)), caterpillar(3, 3)]
        for g in graphs:
            for delta in (2, max(1, g.max_degree())):
                td = heuristic_decomposition(g)
                runs = []
                for widest in (math.inf, 0):
                    monkeypatch.setattr(treewidth, "WIDEST_INT_BOX", widest)
                    runs.append([
                        enum_star_vectors_dp(g, delta, remember=False),
                        treewidth._walk(g, delta, td),
                    ])
                assert runs[0] == runs[1]

    def test_high_degree_pairs_hold_sparse_tables(self):
        # a centre of 40 leaves, and four of 30: their boxes are far wider than
        # any int table should be, so their tables hold the set bits' positions
        for g in (star_graph(40), caterpillar(4, 30)):
            assert math.prod(treewidth._layout(g, g.max_degree())[0]) > treewidth.WIDEST_INT_BOX
            size, forest = solve_tw(g, g)
            assert size == forest.total_vertices == g.n  # each is one spanning star forest


class TestMemo:
    def test_family_is_frozen_and_reused_for_an_equal_graph(self, monkeypatch):
        treewidth._remembered_family.cache_clear()
        calls = counted_picks(monkeypatch)
        first = enum_star_vectors_dp(cycle_graph(6), 2)
        assert isinstance(first.members, frozenset)
        again = enum_star_vectors_dp(Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), 2)
        assert again == first
        assert calls == [cycle_graph(6)]
        # another delta is another key
        enum_star_vectors_dp(cycle_graph(6), 1)
        assert len(calls) == 2

    def test_sets_handed_on_inside_the_walk_never_reach_a_held_family(self):
        # a family handed out earlier keeps its members while later runs,
        # remembered or not and with joins, build and decode their own tables
        treewidth._remembered_family.cache_clear()
        g = grid_graph(3, 4)
        held = enum_star_vectors_dp(g, 3)
        kept = set(held.members)
        rng = random.Random(98)
        for _ in range(20):
            other = random_graph(rng, rng.randint(2, 12), 0.4)
            enum_star_vectors_dp(other, 3)
            enum_star_vectors_dp(other, 3, remember=False)
            treewidth._walk(other, 3, heuristic_decomposition(other))
        solve_eptas(g, cycle_graph(12), EptasConfig(0.5))
        again = treewidth._walk(g, 3, heuristic_decomposition(g))
        assert held.members == kept and again == held
        assert held.vectors == enum_star_vectors_brute(g, 3).vectors
        assert enum_star_vectors_dp(g, 3) == held

    def test_two_runs_on_one_decomposition_with_joins_agree(self):
        g = grid_graph(3, 4)
        td = heuristic_decomposition(g)
        children = [p for p in td.parents if p >= 0]
        assert any(children.count(p) > 1 for p in children)  # the walk joins
        first = treewidth._walk(g, 3, td)
        assert treewidth._walk(g, 3, td) == first
        assert first.vectors == enum_star_vectors_brute(g, 3).vectors

    def test_a_third_graph_evicts_the_oldest(self, monkeypatch):
        treewidth._remembered_family.cache_clear()
        calls = counted_picks(monkeypatch)
        graphs = [path_graph(4), star_graph(3), cycle_graph(4)]
        for g in graphs:
            enum_star_vectors_dp(g, 2)
            assert treewidth._remembered_family.cache_info().currsize <= 2
        assert treewidth._remembered_family.cache_info().currsize == 2
        enum_star_vectors_dp(graphs[2], 2)
        enum_star_vectors_dp(graphs[1], 2)
        assert calls == graphs
        enum_star_vectors_dp(graphs[0], 2)
        assert calls == graphs + [graphs[0]]


class TestSolveTw:
    def test_examples(self):
        size, forest = solve_tw(path_graph(4), star_graph(3))
        assert (size, forest.star_sizes) == (3, (3,))
        size, forest = solve_tw(complete_graph(3), complete_graph(3))
        assert (size, forest.star_sizes) == (3, (3,))
        size, forest = solve_tw(Graph.from_edges(2, [(0, 1)]), Graph.from_edges(2, []))
        assert (size, forest.star_sizes) == (0, ())

    def test_families_of_different_delta_rejected(self):
        fam2 = enum_star_vectors_dp(path_graph(4), 2)
        fam3 = enum_star_vectors_dp(path_graph(4), 3)
        with pytest.raises(PreconditionError, match="different deltas"):
            common_forest(fam2, fam3)

    def test_oracle_equivalence(self):
        rng = random.Random(86)
        for _ in range(40):
            g1 = random_graph(rng, rng.randint(2, 9), 0.4)
            g2 = random_graph(rng, rng.randint(2, 9), 0.4)
            assert solve_tw(g1, g2)[0] == opt_common_vector(g1, g2)[0]
