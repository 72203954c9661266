import importlib.util
import json
import math
import random
from pathlib import Path

import pytest

from starforest.errors import PreconditionError, ResourceLimitError
from starforest.graph import (
    Embedding,
    Graph,
    Instance,
    StarForest,
    max_matching,
    verify_embedding,
)
from starforest.oracle import enum_star_vectors_brute, opt_common_vector
from starforest.solve_h import (
    MAX_EXACT_STARS,
    ColorCodingConfig,
    _colorful_embedding,
    embeds_star_forest,
    enum_star_partitions,
    solve_h,
)
from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_graph,
    relabelled,
    star_graph,
    time_limit,
)
from reference import embed_exact_plain, vector_total


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


def wide_graph(rng: random.Random) -> Graph:
    """65-130 vertices, so a vertex bitmask is wider than a machine word: a
    run of isolated vertices, one hub, sparse edges among the rest, labels
    shuffled."""
    n = rng.randint(65, 130)
    order = list(range(n))
    rng.shuffle(order)
    isolated = rng.randint(5, 20)
    hub, rest = order[isolated], order[isolated + 1 :]
    edges = [(hub, w) for w in rng.sample(rest, rng.randint(6, 15))]
    edges += [tuple(rng.sample(rest, 2)) for _ in range(rng.randint(n // 4, n // 2))]
    return Graph.from_edges(n, edges)


class TestExactPruning:
    def test_same_embeddings_as_plain_backtracker(self):
        # every partition of every h <= n, on graphs with isolated vertices too
        rng = random.Random(55)
        for _ in range(3000):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.5, 0.8]))
            for h in range(2, n + 1):
                for forest in enum_star_partitions(h):
                    got = embeds_star_forest(g, forest, "exact")
                    want = embed_exact_plain(g, forest)
                    assert (got and got.stars) == (want and want.stars), (g.edges(), forest)

    def test_plain_first_embedding_has_no_2star_leaf_below_its_centre(self):
        # the lemma behind the lower-end rule, checked on the reference alone:
        # centring such a 2-star at its leaf would give an embedding the plain
        # backtracker visits earlier
        rng = random.Random(56)
        graphs = [
            random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.5, 0.8]))
            for n in (rng.randint(1, 10) for _ in range(1000))
        ]
        # relabelled, low-index vertices become leaves of later centres
        isolated = Graph.from_edges(1, [])
        shapes = [disjoint_union(*[complete_graph(3)] * k, isolated) for k in (4, 5)]
        shapes += [f(n) for n in range(13, 17) for f in (path_graph, cycle_graph)]
        graphs += [relabelled(g, rng) for g in shapes for _ in range(2)]
        found = 0
        for g in graphs:
            for h in range(2, g.n + 1):
                for forest in enum_star_partitions(h):
                    emb = embed_exact_plain(g, forest)
                    if emb is None:
                        continue
                    found += 1
                    low = [s for s in emb.stars if len(s) == 2 and s[1] < s[0]]
                    assert not low, (g.edges(), forest, emb.stars)
        assert found > 5000

    def test_same_embeddings_as_plain_backtracker_past_a_machine_word(self):
        # runs of equal 2-, 3- and 4-stars, whose centres rise from the last
        # one's, and a star only the hub can hold
        rng = random.Random(57)
        found = missed = 0
        for _ in range(30):
            g = wide_graph(rng)
            hub = g.max_degree() + 1
            for sizes in [
                (2, 2, 2, 2), (3, 3, 3), (3, 3, 3, 3), (4, 4), (4, 4, 4), (4, 4, 4, 4),
                (4, 3, 3), (3, 3, 2, 2), (4, 4, 2, 2), (hub, 3, 3), (hub, 2, 2, 2),
            ]:
                forest = StarForest(sizes)
                got = embeds_star_forest(g, forest)
                want = embed_exact_plain(g, forest)
                assert (got and got.stars) == (want and want.stars), (g.edges(), sizes)
                found += got is not None
                missed += got is None
        assert found and missed

    def test_star_above_every_degree_has_no_host(self):
        g = wide_graph(random.Random(58))
        for sizes in [(g.max_degree() + 2,), (g.max_degree() + 2, 2, 2)]:
            assert embeds_star_forest(g, StarForest(sizes)) is None

    def test_second_star_with_a_single_host(self):
        # only the claw's centre has degree >= 2, so it is the one host of both
        # the 4-star and the 3-star after it
        g = disjoint_union(star_graph(3), path_graph(2), Graph.from_edges(2, []))
        for sizes in [(4, 3), (3, 3), (3, 3, 2)]:
            forest = StarForest(sizes)
            assert forest.total_vertices <= g.n
            assert embeds_star_forest(g, forest) is None
            assert embed_exact_plain(g, forest) is None
        fits = StarForest((4, 2))
        assert embeds_star_forest(g, fits).stars == embed_exact_plain(g, fits).stars

    def test_disjoint_triangles_refuse_one_2star_too_many(self):
        # each triangle holds one 2-star; both orientations of every edge made
        # this take seconds
        g = disjoint_union(*[complete_graph(3)] * 8)
        with time_limit(1):
            assert embeds_star_forest(g, StarForest((2,) * 9)) is None

    def test_path_refuses_a_perfect_matching_it_lacks(self):
        # P21 has a matching of 10 edges; the isolated vertex makes n = 22
        g = disjoint_union(path_graph(21), Graph.from_edges(1, []))
        with time_limit(0.5):
            assert embeds_star_forest(g, StarForest((2,) * 11)) is None

    def test_more_stars_than_the_limit_refused(self):
        # one frame per star: 1000 stars raised RecursionError
        with pytest.raises(ResourceLimitError):
            embeds_star_forest(path_graph(2000), StarForest((2,) * 1000))

    def test_as_many_stars_as_the_limit_embed(self):
        g = path_graph(2 * MAX_EXACT_STARS)
        forest = StarForest((2,) * MAX_EXACT_STARS)
        with time_limit(1):
            emb = embeds_star_forest(g, forest)
        assert verify_embedding(g, forest, emb)


def solve_h_answers_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "solve_h_answers.py"
    spec = importlib.util.spec_from_file_location("solve_h_answers", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestAnswersScript:
    def test_certificates_verify_and_opt_plus_one_is_no(self, capsys):
        script = solve_h_answers_script()
        pairs = list(script.pairs(4))
        script.main(4)
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row[0] for row in rows] == list(range(2 * len(pairs)))
        for (g1, g2), (yes_row, no_row) in zip(pairs, zip(rows[::2], rows[1::2])):
            _, h, yes, sizes, e1, e2 = yes_row
            assert yes and sum(sizes) >= h
            forest = StarForest(tuple(sizes))
            for g, stars in ((g1, e1), (g2, e2)):
                assert verify_embedding(g, forest, Embedding(tuple(map(tuple, stars))))
            assert no_row == [no_row[0], h + 1, False, None, None, None]


class TestSolveH:
    def test_c4_via_matching(self):
        yes, cert = solve_h(Instance(cycle_graph(4), cycle_graph(4), 4))
        assert yes and cert[0].star_sizes == (2, 2)

    def test_p4_vs_star_h4_is_no(self):
        yes, _ = solve_h(Instance(path_graph(4), star_graph(3), 4))
        assert not yes

    def test_sweep_embeds_through_the_module_attribute(self, monkeypatch):
        # perfbench/tracing.py wraps solve_h.embeds_star_forest where solve_h
        # looks it up, so a sweep that reached the embedding another way would
        # leave every solve_h.embeds_star_forest metric at 0
        calls = []

        def counting(g, forest, *args):
            calls.append(forest.star_sizes)
            return embeds_star_forest(g, forest, *args)

        module = importlib.import_module("starforest.solve_h")
        monkeypatch.setattr(module, "embeds_star_forest", counting)
        yes, _ = solve_h(Instance(path_graph(4), star_graph(3), 4))  # no matching shortcut
        assert not yes and calls == [(4,), (2, 2), (2, 2)]

    def test_h0_always_yes(self):
        yes, cert = solve_h(Instance(Graph.from_edges(1, []), Graph.from_edges(1, []), 0))
        assert yes and cert[0].star_sizes == ()

    def test_two_large_stars_answer_at_first_partition(self):
        # no matching shortcut (each side's matching is one edge), and (90,) embeds
        big = star_graph(89)
        with time_limit(2):
            yes, cert = solve_h(Instance(big, big, 90))
        assert yes and cert[0].star_sizes == (90,)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: solve_h(Instance(cycle_graph(4), cycle_graph(4), 4), mode=m),  # matching
            lambda m: solve_h(Instance(path_graph(2), path_graph(2), 0), mode=m),  # h = 0
            lambda m: solve_h(Instance(path_graph(3), path_graph(3), 5), mode=m),  # h > n
            lambda m: solve_h(Instance(path_graph(4), star_graph(3), 4), mode=m),  # sweep
            lambda m: embeds_star_forest(path_graph(3), StarForest(()), m),  # empty forest
            lambda m: embeds_star_forest(path_graph(3), StarForest((4,)), m),  # forest > g
            lambda m: embeds_star_forest(path_graph(3), StarForest((3,)), m),  # embeds
        ],
        ids=["matching", "h0", "trivially-no", "sweep", "empty-forest", "forest-too-big", "embed"],
    )
    def test_unknown_mode_refused_on_every_path(self, call):
        with pytest.raises(PreconditionError, match="unknown embedding mode"):
            call("bogus")
        call("exact")

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
