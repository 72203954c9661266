import random

import pytest

from starforest.errors import PreconditionError
from starforest.graph import Graph
from starforest.oracle import enum_star_vectors_brute, opt_common_vector
from starforest.treewidth import (
    TreeDecomposition,
    dump_decomposition,
    enum_star_vectors_dp,
    heuristic_decomposition,
    solve_tw,
    to_nice,
    verify_decomposition,
)
from starforest.vectors import counts_to_sizes

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
)


class TestHeuristicDecomposition:
    def test_trees_have_width_one(self):
        rng = random.Random(81)
        for _ in range(20):
            t = random_tree(rng, rng.randint(2, 12))
            td = heuristic_decomposition(t)
            assert td.width == 1 and verify_decomposition(t, td)

    def test_clique_forces_full_bag(self):
        assert heuristic_decomposition(complete_graph(4)).width == 3

    def test_c5_width_two(self):
        td = heuristic_decomposition(cycle_graph(5))
        assert td.width == 2
        # no width-1 decomposition exists for a cycle: exhaustive over the
        # possible two-vertex bags is unnecessary, a cycle is not a forest
        assert verify_decomposition(cycle_graph(5), td)

    def test_valid_on_random_graphs(self):
        rng = random.Random(82)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            for strategy in ("min_fill", "min_degree"):
                td = heuristic_decomposition(g, strategy)
                assert verify_decomposition(g, td)

    def test_dump_is_textual(self):
        td = heuristic_decomposition(path_graph(3))
        text = dump_decomposition(td)
        assert "bag 0" in text and text.endswith("\n")


class TestVerifyDecomposition:
    def test_accepts_valid(self):
        td = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),), root=1)
        assert verify_decomposition(path_graph(3), td)

    def test_rejects_missing_edge_bag(self):
        td = TreeDecomposition((frozenset({0, 1}), frozenset({2})), ((0, 1),), root=1)
        assert not verify_decomposition(path_graph(3), td)

    def test_rejects_disconnected_trace(self):
        td = TreeDecomposition(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
            ((0, 1), (1, 2)),
            root=2,
        )
        assert not verify_decomposition(path_graph(3), td)

    def test_rejects_non_tree(self):
        td = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), (), root=0)
        assert not verify_decomposition(path_graph(3), td)


class TestToNice:
    def test_k2_chain(self):
        td = TreeDecomposition((frozenset({0, 1}),), ())
        nice = to_nice(td)
        kinds = [nice.kinds[t][0] for t in nice.topological_order()]
        assert kinds.count("leaf") == 1
        assert kinds.count("introduce") == 2 and kinds.count("forget") == 2
        assert nice.bags[nice.root] == ()

    def test_empty_graph(self):
        nice = to_nice(heuristic_decomposition(Graph.from_edges(0, [])))
        assert nice.bags[nice.root] == ()

    def test_width_preserved_and_wellformed(self):
        rng = random.Random(83)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            td = heuristic_decomposition(g)
            nice = to_nice(td)
            assert nice.width == td.width
            assert len(nice.bags) <= 6 * max(1, td.width + 1) * max(1, g.n)
            for t in nice.topological_order():
                kind, bag, kids = nice.kinds[t], nice.bags[t], nice.children[t]
                if kind[0] == "leaf":
                    assert bag == () and not kids
                elif kind[0] == "introduce":
                    child = nice.bags[kids[0]]
                    assert kind[1] in bag and kind[1] not in child
                    assert set(bag) == set(child) | {kind[1]}
                elif kind[0] == "forget":
                    child = nice.bags[kids[0]]
                    assert kind[1] not in bag and kind[1] in child
                    assert set(child) == set(bag) | {kind[1]}
                else:
                    assert [nice.bags[c] for c in kids] == [bag, bag]


class TestEnumDP:
    def sizes(self, fam):
        return sorted(counts_to_sizes(v) for v in fam.vectors)

    def test_examples(self):
        assert self.sizes(enum_star_vectors_dp(path_graph(4), 3)) == [(), (2,), (2, 2), (3,)]
        assert self.sizes(enum_star_vectors_dp(star_graph(3), 3)) == [(), (2,), (3,), (4,)]
        assert self.sizes(enum_star_vectors_dp(Graph.from_edges(3, []), 2)) == [()]

    def test_invalid_decomposition_rejected(self):
        td = TreeDecomposition((frozenset({0}),), ())
        with pytest.raises(PreconditionError):
            enum_star_vectors_dp(path_graph(3), 2, td)

    def test_matches_brute_force(self):
        rng = random.Random(84)
        graphs = [
            random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]))
            for _ in range(60)
        ]
        # a perfect matching on 12 vertices reaches count n/2; K_{1,11} fills
        # the top coordinate
        graphs.append(Graph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)]))
        graphs.append(star_graph(11))
        for g in graphs:
            for delta in (2, 3, max(1, g.max_degree())):
                dp = enum_star_vectors_dp(g, delta)
                brute = enum_star_vectors_brute(g, delta)
                assert dp.vectors == brute.vectors

    def test_independent_of_decomposition(self):
        rng = random.Random(85)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            delta = max(1, g.max_degree())
            a = enum_star_vectors_dp(g, delta, heuristic_decomposition(g, "min_fill"))
            b = enum_star_vectors_dp(g, delta, heuristic_decomposition(g, "min_degree"))
            assert a.vectors == b.vectors


class TestSolveTw:
    def test_examples(self):
        size, forest = solve_tw(path_graph(4), star_graph(3))
        assert (size, forest.star_sizes) == (3, (3,))
        size, forest = solve_tw(complete_graph(3), complete_graph(3))
        assert (size, forest.star_sizes) == (3, (3,))
        size, forest = solve_tw(Graph.from_edges(2, [(0, 1)]), Graph.from_edges(2, []))
        assert (size, forest.star_sizes) == (0, ())

    def test_oracle_equivalence(self):
        rng = random.Random(86)
        for _ in range(40):
            g1 = random_graph(rng, rng.randint(2, 9), 0.4)
            g2 = random_graph(rng, rng.randint(2, 9), 0.4)
            assert solve_tw(g1, g2)[0] == opt_common_vector(g1, g2)[0]
