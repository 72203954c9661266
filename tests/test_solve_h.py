import math
import random

import pytest

from starforest.errors import PreconditionError, ResourceLimitError
from starforest.graph import Graph, Instance, StarForest, max_matching, verify_embedding
from starforest.oracle import enum_star_vectors_brute, opt_common_vector
from starforest.solve_h import (
    ColorCodingConfig,
    _colorful_embedding,
    embeds_star_forest,
    solve_h,
)
from conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph, time_limit
from reference import vector_total


class TestConfig:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            ColorCodingConfig(trials=0)
        with pytest.raises(PreconditionError):
            ColorCodingConfig(failure_probability=1.5)

    def test_auto_trials(self):
        cfg = ColorCodingConfig(failure_probability=0.01)
        assert cfg.trial_count(4) == math.ceil(math.e**4 * math.log(100))
        assert ColorCodingConfig(trials=7).trial_count(10) == 7

    def test_auto_trials_past_float_range_refused(self):
        # e^709 * ln(100) is past the largest float
        with pytest.raises(ResourceLimitError):
            ColorCodingConfig().trial_count(709)
        assert ColorCodingConfig(trials=3).trial_count(709) == 3

    def test_auto_trials_above_cap_refused(self):
        # e^20 * ln(100) is about 2.2e9 trials
        with pytest.raises(ResourceLimitError, match="set trials explicitly"):
            ColorCodingConfig().trial_count(20)
        assert ColorCodingConfig(trials=3).trial_count(20) == 3


class TestEmbeds:
    def test_star_into_hub(self):
        emb = embeds_star_forest(star_graph(3), StarForest((4,)))
        assert emb is not None and emb.stars[0][0] == 0

    def test_two_edges_in_path(self):
        emb = embeds_star_forest(path_graph(4), StarForest((2, 2)))
        assert emb is not None
        assert verify_embedding(path_graph(4), StarForest((2, 2)), emb)

    def test_degree_bound(self):
        assert embeds_star_forest(complete_graph(3), StarForest((4,))) is None

    def test_exact_matches_brute_families(self):
        rng = random.Random(51)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), 0.4)
            delta = max(1, g.max_degree())
            achievable = {
                tuple(sorted((j + 2 for j, c in enumerate(v) for _ in range(c)), reverse=True))
                for v in enum_star_vectors_brute(g, delta).vectors
            }
            for sizes in list(achievable)[:20]:
                if not sizes:
                    continue
                emb = embeds_star_forest(g, StarForest(sizes))
                assert emb is not None
                assert verify_embedding(g, StarForest(sizes), emb)
            # something just beyond the largest achievable single star must fail
            biggest = max((s[0] for s in achievable if s), default=1)
            if biggest + 1 <= g.n:
                assert embeds_star_forest(g, StarForest((biggest + 1,))) is None


class TestSolveH:
    def test_c4_via_matching(self):
        yes, cert = solve_h(Instance(cycle_graph(4), cycle_graph(4), 4))
        assert yes and cert[0].star_sizes == (2, 2)

    def test_p4_vs_star_h4_is_no(self):
        yes, _ = solve_h(Instance(path_graph(4), star_graph(3), 4))
        assert not yes

    def test_h0_always_yes(self):
        yes, cert = solve_h(Instance(Graph.from_edges(1, []), Graph.from_edges(1, []), 0))
        assert yes and cert[0].star_sizes == ()

    def test_two_large_stars_answer_at_first_partition(self):
        # no matching shortcut (each side's matching is one edge), and (90,) embeds
        big = star_graph(89)
        with time_limit(2):
            yes, cert = solve_h(Instance(big, big, 90))
        assert yes and cert[0].star_sizes == (90,)

    def test_randomized_refuses_h_past_float_range(self):
        big = star_graph(709)
        with time_limit(2), pytest.raises(ResourceLimitError):
            solve_h(Instance(big, big, 710), mode="randomized")

    def test_exact_agrees_with_oracle(self):
        rng = random.Random(52)
        for _ in range(60):
            g1 = random_graph(rng, rng.randint(2, 8), 0.35)
            g2 = random_graph(rng, rng.randint(2, 8), 0.35)
            opt, _ = opt_common_vector(g1, g2)
            for h in (0, max(0, opt - 1), opt, opt + 1, opt + 2):
                yes, cert = solve_h(Instance(g1, g2, h), mode="exact")
                assert yes == (opt >= h)
                if yes:
                    forest, e1, e2 = cert
                    assert forest.total_vertices >= h
                    assert verify_embedding(g1, forest, e1)
                    assert verify_embedding(g2, forest, e2)

    def test_matching_or_exact_equivalence(self):
        # OPT >= h  <=>  ceil(h/2)-matchings on both sides, or an exact-h
        # common forest; checked against oracle families
        rng = random.Random(53)
        for _ in range(40):
            g1 = random_graph(rng, rng.randint(2, 8), 0.4)
            g2 = random_graph(rng, rng.randint(2, 8), 0.4)
            opt, _ = opt_common_vector(g1, g2)
            m1, m2 = len(max_matching(g1)), len(max_matching(g2))
            if g1.edge_count and g2.edge_count:
                delta = min(g1.max_degree(), g2.max_degree())
                common = (
                    enum_star_vectors_brute(g1, delta).vectors
                    & enum_star_vectors_brute(g2, delta).vectors
                )
                totals = {vector_total(v) for v in common}
            else:
                totals = {0}
            for h in range(0, opt + 3):
                need = (h + 1) // 2
                rhs = (m1 >= need and m2 >= need) or h in totals
                assert (opt >= h) == rhs


class TestRandomized:
    def test_yes_side_finds_embedding(self):
        cfg = ColorCodingConfig(rng_seed=7)
        emb = embeds_star_forest(star_graph(3), StarForest((4,)), "randomized", cfg)
        assert emb is not None
        assert verify_embedding(star_graph(3), StarForest((4,)), emb)

    def test_no_side_never_lies(self):
        cfg = ColorCodingConfig(trials=60, rng_seed=8)
        assert embeds_star_forest(complete_graph(3), StarForest((4,)), "randomized", cfg) is None

    def test_colorful_embedding_uses_every_colour(self):
        # P5 coloured 0..4: the stars (3, 2) take all five colours
        g, forest = path_graph(5), StarForest((3, 2))
        emb = _colorful_embedding(g, forest, [0, 1, 2, 3, 4], 5)
        assert emb is not None and verify_embedding(g, forest, emb)
        # colour 4 is missing, so five distinct colours cannot be found
        assert _colorful_embedding(g, forest, [0, 1, 2, 3, 0], 5) is None

    def test_deterministic_for_fixed_seed(self):
        g = path_graph(6)
        cfg = ColorCodingConfig(trials=20, rng_seed=11)
        a = embeds_star_forest(g, StarForest((3, 2)), "randomized", cfg)
        b = embeds_star_forest(g, StarForest((3, 2)), "randomized", cfg)
        assert a == b

    def test_soundness_sample(self):
        rng = random.Random(54)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 8), 0.4)
            sizes = (3, 2) if rng.random() < 0.5 else (2, 2)
            forest = StarForest(sizes)
            truth = embeds_star_forest(g, forest, "exact") is not None
            got = embeds_star_forest(
                g, forest, "randomized", ColorCodingConfig(trials=30, rng_seed=rng.randrange(99))
            )
            if got is not None:
                assert truth  # one-sided: a yes always carries a real witness
                assert verify_embedding(g, forest, got)
