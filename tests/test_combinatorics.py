import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starforest.errors import PreconditionError
from starforest.graph import Graph
from starforest.solve_h import enum_star_partitions

from conftest import cycle_graph, path_graph, random_graph, time_limit
from reference import dominating_matching


def partition_count(n: int) -> int:
    """Independent recurrence p(n,k) = p(n-k,k) + p(n,k-1)."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for total in range(1, n + 1):
        for k in range(1, n + 1):
            table[total][k] = table[total][k - 1]
            if total >= k:
                table[total][k] += table[total - k][k]
    return table[n][n]


def brute_partitions(h: int) -> set[tuple[int, ...]]:
    out = set()

    def rec(prefix, rest):
        if rest == 0:
            out.add(tuple(sorted(prefix, reverse=True)))
            return
        start = prefix[-1] if prefix else 1
        for part in range(start, rest + 1):
            rec(prefix + [part], rest - part)

    rec([], h)
    return out if h > 0 else {()}


def star_sizes(h: int) -> list[tuple[int, ...]]:
    return [f.star_sizes for f in enum_star_partitions(h)]


class TestPartitions:
    """Star partitions are the partitions of h with no part 1."""

    def test_h0(self):
        assert star_sizes(0) == [()]

    def test_counts_match_recurrence_up_to_40(self):
        # p(h) - p(h - 1) partitions of h have no part 1
        for h in range(41):
            want = partition_count(h) - (partition_count(h - 1) if h else 0)
            assert sum(1 for _ in enum_star_partitions(h)) == want

    def test_each_exactly_once_and_sorted(self):
        for h in range(13):
            parts = star_sizes(h)
            assert len(parts) == len(set(parts))
            assert set(parts) == {p for p in brute_partitions(h) if min(p, default=2) >= 2}
            for p in parts:
                assert list(p) == sorted(p, reverse=True)
                assert sum(p) == h


class TestStarPartitions:
    @given(st.integers(0, 24))
    def test_subset_of_partitions_with_parts_at_least_two(self, h):
        stars = set(star_sizes(h))
        assert stars <= brute_partitions(h)
        assert all(min(p, default=2) >= 2 for p in stars)
        assert all(sum(p) == h for p in stars)

    def test_examples(self):
        assert [f.star_sizes for f in enum_star_partitions(5)] == [(5,), (3, 2)]
        assert list(enum_star_partitions(1)) == []
        assert {f.star_sizes for f in enum_star_partitions(4)} == {(4,), (2, 2)}

    def test_lazy_at_large_h(self):
        # h = 300 has about 6e14 star partitions; the first two come at once
        with time_limit(1):
            shapes = enum_star_partitions(300)
            assert next(shapes).star_sizes == (300,)
            assert next(shapes).star_sizes == (298, 2)

    def test_negative_h_raises_on_call(self):
        with pytest.raises(PreconditionError):
            enum_star_partitions(-1)

    def test_matches_filtered_brute_force_up_to_30(self):
        # each exactly once, lexicographically decreasing
        for h in range(31):
            got = [f.star_sizes for f in enum_star_partitions(h)]
            want = sorted((p for p in brute_partitions(h) if all(x >= 2 for x in p)), reverse=True)
            assert got == want


def brute_min_dominating_set(g: Graph) -> list[int]:
    for size in range(g.n + 1):
        for cand in itertools.combinations(range(g.n), size):
            dominated = set(cand)
            for v in cand:
                dominated.update(g.adjacency[v])
            if len(dominated) == g.n:
                return list(cand)
    raise AssertionError


class TestDominatingMatching:
    def test_p3(self):
        m = dominating_matching(path_graph(3), [1])
        assert len(m) == 1 and next(iter(m))[0] == 1

    def test_p4(self):
        m = dominating_matching(path_graph(4), [1, 2])
        assert m == {(1, 0), (2, 3)}

    def test_c6(self):
        m = dominating_matching(cycle_graph(6), [0, 3])
        assert len(m) == 2
        for u, v in m:
            assert u in (0, 3) and v not in (0, 3)

    def test_non_minimum_rejected(self):
        # {0,1} dominates P3 = 0-1-2 only if... it does; but it is not minimum
        with pytest.raises(PreconditionError, match="minimum dominating set"):
            dominating_matching(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), [0, 1])

    def test_size_equals_d_on_constructed_minimum_sets(self):
        rng = random.Random(23)
        done = 0
        while done < 50:
            g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5]))
            if g.isolated_vertices():
                continue
            dom = brute_min_dominating_set(g)
            m = dominating_matching(g, dom)
            assert len(m) == len(dom)
            seen = set()
            for u, v in m:
                assert u in set(dom) and v not in set(dom)
                assert g.has_edge(u, v)
                assert u not in seen and v not in seen
                seen.update((u, v))
            done += 1
