import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starforest.combinatorics import (
    IntVectorSet,
    dominating_matching,
    enum_partitions,
    enum_star_partitions,
    sumset,
    _sumset_naive,
)
from starforest.errors import PreconditionError
from starforest.graph import Graph

from conftest import cycle_graph, path_graph, random_graph


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


class TestPartitions:
    def test_h0(self):
        assert enum_partitions(0) == [()]

    @pytest.mark.parametrize("h,count", [(4, 5), (10, 42)])
    def test_known_counts(self, h, count):
        assert len(enum_partitions(h)) == count

    def test_counts_match_recurrence_up_to_40(self):
        for h in range(41):
            assert len(enum_partitions(h)) == partition_count(h)

    def test_each_exactly_once_and_sorted(self):
        for h in range(13):
            parts = enum_partitions(h)
            assert len(parts) == len(set(parts))
            assert set(parts) == brute_partitions(h)
            for p in parts:
                assert list(p) == sorted(p, reverse=True)
                assert sum(p) == h


class TestStarPartitions:
    @given(st.integers(0, 24))
    def test_subset_of_partitions_with_parts_at_least_two(self, h):
        stars = {f.star_sizes for f in enum_star_partitions(h)}
        assert stars <= set(enum_partitions(h))
        assert all(min(p, default=2) >= 2 for p in stars)
        assert all(sum(p) == h for p in stars)

    def test_examples(self):
        assert [f.star_sizes for f in enum_star_partitions(5)] in (
            [(5,), (3, 2)],
            [(3, 2), (5,)],
        )
        assert enum_star_partitions(1) == []
        assert {f.star_sizes for f in enum_star_partitions(4)} == {(4,), (2, 2)}

    def test_matches_filtered_brute_force_up_to_30(self):
        for h in range(31):
            got = {f.star_sizes for f in enum_star_partitions(h)}
            want = {p for p in brute_partitions(h) if all(x >= 2 for x in p)}
            assert got == want


class TestSumset:
    def test_identity_element(self):
        a = IntVectorSet.of([(0, 0)], 2, 10)
        b = IntVectorSet.of([(3, 1)], 2, 10)
        assert sumset(a, b).vectors() == {(3, 1)}

    def test_hand_sum(self):
        a = IntVectorSet.of([(0, 0), (1, 2)], 2, 10)
        b = IntVectorSet.of([(2, 1)], 2, 10)
        assert sumset(a, b).vectors() == {(2, 1), (3, 3)}

    def test_dimension_mismatch(self):
        a = IntVectorSet.of([(0,)], 1, 3)
        b = IntVectorSet.of([(0, 0)], 2, 3)
        with pytest.raises(PreconditionError):
            sumset(a, b)

    def test_of_validates(self):
        with pytest.raises(PreconditionError):
            IntVectorSet.of([(0, 3)], 2, 3)
        with pytest.raises(PreconditionError):
            IntVectorSet.of([(0, -1)], 2, 3)
        with pytest.raises(PreconditionError):
            IntVectorSet.of([(0, 0, 0)], 2, 3)
        assert IntVectorSet.of([(2, 1), (0, 2)], 2, 3).vectors() == {(2, 1), (0, 2)}

    def test_equals_naive_on_random(self):
        rng = random.Random(17)
        for _ in range(100):
            d = rng.randint(1, 3)
            n = rng.randint(1, 15)
            size_a = rng.randint(1, 20)
            size_b = rng.randint(1, 20)
            amems = {tuple(rng.randint(0, n) for _ in range(d)) for _ in range(size_a)}
            bmems = {tuple(rng.randint(0, n) for _ in range(d)) for _ in range(size_b)}
            # sums of two coordinates in [0, n] stay below 2n+1
            a = IntVectorSet.of(amems, d, 2 * n + 1)
            b = IntVectorSet.of(bmems, d, 2 * n + 1)
            out = sumset(a, b)
            assert out.vectors() == _sumset_naive(amems, bmems)
            assert out.base == 2 * n + 1
            assert all(0 <= c <= 2 * n for vec in out.vectors() for c in vec)

    @given(
        st.integers(1, 3),
        st.integers(1, 8),
        st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=8),
        st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=8),
    )
    @settings(max_examples=60)
    def test_commutative_and_exact(self, d, n, raw_a, raw_b):
        bound = 8
        amems = {v[:d] if d < 2 else v + (0,) * (d - 2) for v in raw_a}
        bmems = {v[:d] if d < 2 else v + (0,) * (d - 2) for v in raw_b}
        a = IntVectorSet.of(amems, d, 2 * bound + 1)
        b = IntVectorSet.of(bmems, d, 2 * bound + 1)
        assert sumset(a, b).members == sumset(b, a).members
        assert sumset(a, b).vectors() == _sumset_naive(amems, bmems)

    def test_exact_with_large_packed_codes(self):
        # (2n+1)^d is about 2.8e11 here; packed codes are Python ints of any size
        d, n = 6, 40
        amems = {tuple(0 for _ in range(d)), tuple(1 for _ in range(d))}
        a = IntVectorSet.of(amems, d, 2 * n + 1)
        assert sumset(a, a).vectors() == _sumset_naive(amems, amems)


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
