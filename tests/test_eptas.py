import random
from fractions import Fraction

import pytest

from starforest import eptas
from starforest.eptas import EptasConfig, prune_levels, solve_eptas
from starforest.errors import PreconditionError
from starforest.graph import Graph, StarForest, bfs_levels
from starforest.oracle import opt_common_brute, opt_common_vector
from starforest.treewidth import enum_star_vectors_dp, solve_tw
from starforest.vectors import best_common, counts_to_sizes

from conftest import (
    complete_graph,
    deep_planar,
    ladder_graph,
    path_graph,
    planar_low_degree,
    star_graph,
    time_limit,
)


class TestConfig:
    def test_k_from_epsilon(self):
        assert EptasConfig(0.5).k == 4
        assert EptasConfig(0.3).k == 7

    def test_validation(self):
        with pytest.raises(PreconditionError):
            EptasConfig(0.0)
        with pytest.raises(PreconditionError):
            EptasConfig(1.0)


class TestPruneLevels:
    def test_path_shift0(self):
        g = path_graph(8)  # level of vertex i is i
        sub, kept = prune_levels(g, 0, 2)
        assert kept == [0, 1, 3, 4, 5, 6, 7]
        assert sub.n == 7

    def test_unoccupied_residue_keeps_graph(self):
        g = path_graph(4)
        sub, kept = prune_levels(g, 1, 2)  # removes levels 5, 11, ... none occupied
        assert kept == [0, 1, 2, 3] and sub.edge_count == g.edge_count

    def test_triangle_untouched(self):
        sub, kept = prune_levels(complete_graph(3), 1, 2)  # levels are 0,1,1
        assert kept == [0, 1, 2]

    def test_only_congruent_levels_removed(self):
        rng = random.Random(91)
        for _ in range(20):
            g = planar_low_degree(rng)
            k = rng.randint(2, 5)
            r = rng.randrange(k)
            levels = bfs_levels(g)
            _, kept = prune_levels(g, r, k)
            removed = set(range(g.n)) - set(kept)
            assert all(levels[v] % (3 * k) == 3 * r + 2 for v in removed)
            assert all(levels[v] % (3 * k) != 3 * r + 2 for v in kept)


class TestSolveEptas:
    def test_k2_never_fully_pruned(self):
        g = Graph.from_edges(2, [(0, 1)])
        size, forest, shifts = solve_eptas(g, g, EptasConfig(0.5))
        assert size == 2

    def test_tiny_epsilon_stops_at_the_first_shift_that_deletes_nothing(self):
        # k = 2e9 shifts; on a 6-vertex path only shifts 0 and 1 delete a level
        g = path_graph(6)
        with time_limit(1):
            size, _, shifts = solve_eptas(g, g, EptasConfig(1e-9))
        assert size == solve_tw(g, g)[0] == 6 and shifts == (2, 2)

    def test_bounds_on_small_instance(self):
        size, _, _ = solve_eptas(path_graph(4), star_graph(3), EptasConfig(0.9))
        opt = 3
        assert 1 <= size <= opt
        # and it must equal some shifted exact solve
        k = EptasConfig(0.9).k
        outs = set()
        for r1 in range(k):
            for r2 in range(k):
                s1, _ = prune_levels(path_graph(4), r1, k)
                s2, _ = prune_levels(star_graph(3), r2, k)
                outs.add(solve_tw(s1, s2)[0])
        assert size in outs

    def test_guarantee_on_planar_low_degree(self):
        rng = random.Random(92)
        for _ in range(15):
            g1 = planar_low_degree(rng)
            g2 = planar_low_degree(rng)
            opt, _ = opt_common_vector(g1, g2)
            for eps in (0.3, 0.5, 0.8):
                size, _, _ = solve_eptas(g1, g2, EptasConfig(eps))
                assert size <= opt
                assert Fraction(size) >= (1 - Fraction(eps).limit_denominator(10)) * opt

    def test_deterministic_with_lexicographic_ties(self):
        rng = random.Random(93)
        for _ in range(10):
            g1 = planar_low_degree(rng)
            g2 = planar_low_degree(rng)
            cfg = EptasConfig(0.5)
            a = solve_eptas(g1, g2, cfg)
            b = solve_eptas(g1, g2, cfg)
            assert a == b
            size, _, (r1, r2) = a
            # no strictly earlier shift pair attains the same size
            for s1 in range(cfg.k):
                for s2 in range(cfg.k):
                    if (s1, s2) >= (r1, r2):
                        break
                    p1, _ = prune_levels(g1, s1, cfg.k)
                    p2, _ = prune_levels(g2, s2, cfg.k)
                    assert solve_tw(p1, p2)[0] < size

    def test_stars_span_at_most_three_levels(self):
        rng = random.Random(94)
        for _ in range(20):
            g1 = planar_low_degree(rng)
            g2 = planar_low_degree(rng)
            size, forest, e1, e2 = opt_common_brute(g1, g2)
            for g, emb in ((g1, e1), (g2, e2)):
                levels = bfs_levels(g)
                for star in emb.stars:
                    span = {levels[v] for v in star}
                    assert max(span) - min(span) <= 2


def every_shift_pair(g1, g2, cfg):
    """solve_eptas without sharing: a DP and an intersection for every shift pair."""
    delta = min(g1.max_degree(), g2.max_degree())
    best = (0, StarForest(()), (0, 0))
    for r1 in range(cfg.k):
        for r2 in range(cfg.k):
            sub1, _ = prune_levels(g1, r1, cfg.k)
            sub2, _ = prune_levels(g2, r2, cfg.k)
            size, vec = best_common(
                enum_star_vectors_dp(sub1, delta), enum_star_vectors_dp(sub2, delta)
            )
            if size > best[0]:
                best = (size, StarForest(counts_to_sizes(vec)), (r1, r2))
    return best


def counted_dp(monkeypatch):
    """Route eptas's DP through a wrapper; returns the list of graphs it was given."""
    calls = []

    def counted(g, delta):
        calls.append(g)
        return enum_star_vectors_dp(g, delta)

    monkeypatch.setattr(eptas, "enum_star_vectors_dp", counted)
    return calls


def bound(g):
    return g.n - len(g.isolated_vertices())


class TestDistinctPrunedGraphs:
    def test_one_dp_per_distinct_pruned_graph(self, monkeypatch):
        calls = counted_dp(monkeypatch)
        # stars have levels 0 and 1 only, so no shift of k = 4 prunes a vertex
        size, forest, shifts = solve_eptas(star_graph(5), star_graph(4), EptasConfig(0.5))
        assert [g.n for g in calls] == [6, 5]
        assert (size, forest.star_sizes, shifts) == (5, (5,), (0, 0))

    def test_equals_every_shift_pair(self):
        rng = random.Random(95)
        for _ in range(20):
            g1 = planar_low_degree(rng, 14)
            g2 = planar_low_degree(rng, 14)
            for eps in (0.3, 0.5):
                cfg = EptasConfig(eps)
                assert solve_eptas(g1, g2, cfg) == every_shift_pair(g1, g2, cfg)

    def test_exact_when_no_shift_prunes(self):
        wheel = Graph.from_edges(
            6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]
        )
        graphs = [star_graph(3), star_graph(6), complete_graph(4), wheel, path_graph(2)]
        cfg = EptasConfig(0.3)
        for g1 in graphs:
            for g2 in graphs:
                for g in (g1, g2):
                    assert all(prune_levels(g, r, cfg.k)[1] == list(range(g.n)) for r in range(cfg.k))
                assert solve_eptas(g1, g2, cfg)[0] == solve_tw(g1, g2)[0]


class TestBestBoundFirst:
    def test_equals_every_shift_pair_when_every_shift_prunes(self):
        rng = random.Random(96)
        for _ in range(8):
            g1, g2 = deep_planar(rng), deep_planar(rng)
            for eps in (0.5, 0.8):
                cfg = EptasConfig(eps)
                for g in (g1, g2):
                    assert all(len(prune_levels(g, r, cfg.k)[1]) < g.n for r in range(cfg.k))
                assert solve_eptas(g1, g2, cfg) == every_shift_pair(g1, g2, cfg)

    def test_whole_graphs_only_when_they_reach_the_bound(self, monkeypatch):
        # at k = 4 shifts 0 and 1 prune a level of each graph and shifts 2 and 3
        # keep every vertex; the whole pair covers all 8 vertices, which no
        # pruned graph can beat, so no pruned graph is solved
        g1, g2 = path_graph(8), ladder_graph(4)
        cfg = EptasConfig(0.5)
        assert [len(prune_levels(g, r, cfg.k)[1]) for g in (g1, g2) for r in range(cfg.k)] == [
            7, 7, 8, 8, 6, 8, 8, 8
        ]
        calls = counted_dp(monkeypatch)
        size, forest, shifts = solve_eptas(g1, g2, cfg)
        assert calls == [g1, g2]
        assert (size, forest.star_sizes, shifts) == (8, (2, 2, 2, 2), (2, 1))
        assert (size, forest, shifts) == every_shift_pair(g1, g2, cfg)

    def test_pruned_graph_below_the_answer_is_never_solved(self, monkeypatch):
        # shift 0 cuts 4 vertices of a 40-path and isolates vertex 39, so its
        # bound 35 is below the 37 that shift pair (1, 1) reaches
        g = path_graph(40)
        cfg = EptasConfig(0.5)
        pruned = [prune_levels(g, r, cfg.k)[0] for r in range(cfg.k)]
        assert [bound(sub) for sub in pruned] == [35, 37, 37, 37]
        want = every_shift_pair(g, g, cfg)
        calls = counted_dp(monkeypatch)
        assert solve_eptas(g, g, cfg) == want
        assert want[0] == 37 and want[2] == (1, 1)
        assert calls == [pruned[1], pruned[1]]

    def test_tie_with_a_lower_bound_pair_goes_to_earlier_shifts(self):
        # shift 0 prunes a level of each tree and g2's shift 1 prunes one leaf;
        # pair (1, 2), whole against whole, has bound 10 and is visited first,
        # but only reaches 9, which the bound-9 pair (1, 1) ties with earlier shifts
        g1 = Graph.from_edges(
            10, [(0, 1), (0, 7), (0, 8), (1, 2), (1, 3), (1, 6), (2, 4), (4, 5), (4, 9)]
        )
        g2 = Graph.from_edges(
            10, [(0, 1), (0, 2), (0, 5), (1, 4), (2, 3), (3, 6), (6, 7), (6, 8), (7, 9)]
        )
        cfg = EptasConfig(0.5)
        assert [bound(prune_levels(g2, r, cfg.k)[0]) for r in range(cfg.k)] == [8, 9, 10, 10]
        size, forest, shifts = solve_eptas(g1, g2, cfg)
        assert (size, forest.star_sizes, shifts) == (9, (4, 3, 2), (1, 1))
        assert (size, forest, shifts) == every_shift_pair(g1, g2, cfg)

    def test_a_graph_two_visited_pairs_need_is_solved_once(self, monkeypatch):
        # g1 is a 7-cycle with the chord (0, 4); at k = 4 shift 0 cuts it down
        # to the star K_{1,3} around vertex 0.  Pairs (0, 1) and (1, 1) both
        # have bound 4 and both need the whole 4-cycle g2
        g1 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 4)])
        g2 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        cfg = EptasConfig(0.5)
        calls = counted_dp(monkeypatch)
        size, forest, shifts = solve_eptas(g1, g2, cfg)
        assert (size, forest.star_sizes, shifts) == (4, (2, 2), (1, 1))
        assert (size, forest, shifts) == every_shift_pair(g1, g2, cfg)
        assert [(g.n, g.edge_count) for g in calls] == [(4, 3), (4, 4), (7, 8)]
