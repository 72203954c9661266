import random

import pytest

from starforest.errors import PreconditionError
from starforest.generators import (
    KwayInstance,
    gen_domset,
    gen_kway_pw4,
    gen_kway_td5,
    gen_p3,
    rescale,
)
from starforest.graph import Graph, verify_embedding
from starforest.oracle import opt_common_vector
from starforest.treewidth import solve_tw, verify_decomposition

from conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph
from reference import (
    domination_number,
    embed_from_partition,
    has_p3_factor,
    kway_brute,
    pw4_path_decomposition,
    treedepth_at_most,
)


class TestDomset:
    def test_k3(self):
        li = gen_domset(complete_graph(3), 1)
        assert li.instance.h == 3 and li.instance.g2.n == 3
        assert li.instance.g2.max_degree() == 2

    def test_p4_k1_is_no(self):
        li = gen_domset(path_graph(4), 1)
        assert opt_common_vector(li.instance.g1, li.instance.g2)[0] < li.instance.h

    def test_p4_k2_is_yes(self):
        li = gen_domset(path_graph(4), 2)
        assert opt_common_vector(li.instance.g1, li.instance.g2)[0] >= li.instance.h

    def test_rejects_isolated(self):
        with pytest.raises(PreconditionError, match="isolated"):
            gen_domset(Graph.from_edges(3, [(0, 1)]), 1)


class TestP3:
    def test_p3_host(self):
        li = gen_p3(path_graph(3))
        assert opt_common_vector(li.instance.g1, li.instance.g2)[0] >= 3

    def test_k3(self):
        li = gen_p3(complete_graph(3))
        assert opt_common_vector(li.instance.g1, li.instance.g2)[0] >= 3

    def test_c6_two_paths(self):
        li = gen_p3(cycle_graph(6))
        assert opt_common_vector(li.instance.g1, li.instance.g2)[0] == 6

    def test_rejects_non_multiple(self):
        with pytest.raises(PreconditionError, match="divisible"):
            gen_p3(path_graph(4))


def sources(seed, sizes, p, count=12):
    """Seeded random graphs without isolated vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_graph(rng, rng.choice(sizes), p)
        if not g.isolated_vertices():
            out.append(g)
    return out


class TestKnownAnswers:
    """The exact DP answers the reductions as the searches on the source graph predict."""

    def test_domset_spans_exactly_from_the_domination_number(self):
        for g in sources(31, range(12, 19), 0.2):
            gamma = domination_number(g)
            assert gamma >= 2
            for k in (gamma - 1, gamma):
                inst = gen_domset(g, k).instance
                assert (solve_tw(inst.g1, inst.g2)[0] >= g.n) == (k >= gamma)

    def test_p3_spans_exactly_with_a_p3_factor(self):
        answers = []
        for g in sources(32, (12, 15, 18), 0.1):
            inst = gen_p3(g).instance
            answers.append(has_p3_factor(g))
            assert (solve_tw(inst.g1, inst.g2)[0] == g.n) == answers[-1]
        assert 0 < answers.count(True) < len(answers)  # both answers occur


class TestKwayBrute:
    def test_examples(self):
        part = kway_brute(KwayInstance((1, 1, 2), 2, 2))
        assert part is not None
        assert sorted(sorted(b) for b in part) == [[0], [1, 2]]
        assert kway_brute(KwayInstance((3, 3, 3), 2, 4)) is None
        assert kway_brute(KwayInstance((2, 2, 2, 2), 2, 4)) is not None

    def test_rescale(self):
        kw = rescale(KwayInstance((1, 1, 2), 2, 2))
        assert kw.items == (28, 14, 14) and kw.capacity == 28
        assert all(a % 2 == 0 and a >= 2 * kw.k + 10 for a in kw.items)


class TestTd5:
    def test_counts_and_degrees(self):
        kw = KwayInstance((14, 14), 2, 14)
        li = gen_kway_td5(kw)
        n, k, M, D = 2, kw.k, kw.total, li.params["D"]
        assert D == M + 20
        want = n * (D + k) + M * (k * k + 7 * k)
        assert li.instance.g1.n == want == li.instance.g2.n == li.instance.h
        for i in (1, 2):
            assert li.instance.g1.degree(li.labels1[f"r_{i}"]) == D - 1 + k

    def test_normalization_enforced(self):
        with pytest.raises(PreconditionError, match="normalization"):
            gen_kway_td5(KwayInstance((13, 15), 2, 14))
        with pytest.raises(PreconditionError, match="k\\*C"):
            gen_kway_td5(KwayInstance((14, 14), 2, 13))

    def test_embedding_round_trip(self):
        kw = KwayInstance((14, 14), 2, 14)
        li = gen_kway_td5(kw)
        part = kway_brute(kw)
        forest, e1, e2 = embed_from_partition(li, part)
        assert verify_embedding(li.instance.g1, forest, e1)
        assert verify_embedding(li.instance.g2, forest, e2)
        assert sorted(e1.vertices()) == list(range(li.instance.g1.n))
        assert sorted(e2.vertices()) == list(range(li.instance.g2.n))

    def test_wrong_partition_rejected(self):
        kw = KwayInstance((14, 14), 2, 14)
        li = gen_kway_td5(kw)
        with pytest.raises(PreconditionError, match="sum"):
            embed_from_partition(li, [[0, 1], []])

    def test_treedepth_certificate(self):
        li = gen_kway_td5(KwayInstance((14, 14), 2, 14))
        assert treedepth_at_most(li.instance.g1, 5)


class TestPw4:
    def test_counts_and_degrees(self):
        kw = KwayInstance((3, 3), 2, 3)
        li = gen_kway_pw4(kw)
        n, k, M, a = 2, kw.k, kw.total, 3
        want = n * (2 * a * k * k + 11 * a * k - 3 * k + 8) - (k * k + k) * M
        assert li.instance.g1.n == want == li.instance.g2.n == li.instance.h
        assert li.instance.g1.max_degree() == 3 * k + 7
        assert li.instance.g2.max_degree() == 2 * k + 8

    def test_framing_enforced(self):
        with pytest.raises(PreconditionError, match="k\\*C"):
            gen_kway_pw4(KwayInstance((3, 2), 2, 3))

    def test_embedding_round_trip(self):
        for items, k, C in (((3, 3), 2, 3), ((4, 3, 3, 2), 2, 6), ((4, 4, 4), 3, 4)):
            kw = KwayInstance(items, k, C)
            li = gen_kway_pw4(kw)
            part = kway_brute(kw)
            assert part is not None
            forest, e1, e2 = embed_from_partition(li, part)
            assert verify_embedding(li.instance.g1, forest, e1)
            assert verify_embedding(li.instance.g2, forest, e2)
            assert sorted(e1.vertices()) == list(range(li.instance.g1.n))
            assert sorted(e2.vertices()) == list(range(li.instance.g2.n))

    def test_path_decomposition_certificate(self):
        li = gen_kway_pw4(KwayInstance((4, 3, 3, 2), 2, 6))
        td = pw4_path_decomposition(li)
        assert td.width == 4
        assert verify_decomposition(li.instance.g1, td)
        # path-shaped tree: every node has degree <= 2
        deg = [0] * len(td.bags)
        for a, b in td.tree_edges:
            deg[a] += 1
            deg[b] += 1
        assert max(deg) <= 2


class TestTreedepthCheck:
    def test_paths(self):
        # td(P_n) = ceil(log2(n+1))
        assert treedepth_at_most(path_graph(3), 2)
        assert not treedepth_at_most(path_graph(4), 2)
        assert treedepth_at_most(path_graph(7), 3)
        assert not treedepth_at_most(path_graph(8), 3)

    def test_star_and_singletons(self):
        assert treedepth_at_most(star_graph(5), 2)
        assert not treedepth_at_most(star_graph(5), 1)
        assert treedepth_at_most(Graph.from_edges(3, []), 1)
