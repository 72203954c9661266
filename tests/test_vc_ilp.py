import random
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import pytest

from starforest import bip
from starforest.errors import PreconditionError, ResourceLimitError
from starforest.graph import Graph, min_vertex_cover
from starforest.oracle import opt_common_vector
from starforest.treewidth import solve_tw
from starforest.vc_ilp import (
    GuessPair,
    build_vc_model,
    enumerate_guesses,
    enumerate_side_guesses,
    pair_bound,
    solve_vc,
    twin_classes,
)

from conftest import (
    complete_graph,
    cover_path_graph,
    path_graph,
    random_graph,
    star_graph,
    time_limit,
)


class TestTwinClasses:
    def test_star_single_class(self):
        tc = twin_classes(star_graph(3), [0])
        assert tc.classes == {frozenset({0}): (1, 2, 3)}

    def test_p4(self):
        tc = twin_classes(path_graph(4), [1, 2])
        assert tc.classes == {frozenset({1}): (0,), frozenset({2}): (3,)}

    def test_c4(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        tc = twin_classes(g, [0, 2])
        assert tc.classes == {frozenset({0, 2}): (1, 3)}

    def test_rejects_non_cover(self):
        with pytest.raises(PreconditionError, match="uncovered"):
            twin_classes(path_graph(4), [0, 1])


class TestEnumeration:
    def test_k2_contains_single_star_guess(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        tc = twin_classes(k2, [0])
        pairs = list(enumerate_guesses(k2, k2, tc, tc))
        hits = [
            gp
            for gp in pairs
            if gp.side1.p == 1 and gp.side1.q == 0 and gp.side2.p == 1 and gp.pi == (0,)
        ]
        assert hits

    def test_k12_centre_guess(self):
        g = star_graph(2)
        tc = twin_classes(g, [0])
        pairs = list(enumerate_guesses(g, g, tc, tc))
        assert any(
            gp.side1.type1_centres == (0,) and gp.side2.type1_centres == (0,)
            for gp in pairs
        )

    def test_edgeless_only_empty_guess(self):
        g = Graph.from_edges(3, [])
        tc = twin_classes(g, [])
        pairs = list(enumerate_guesses(g, g, tc, tc))
        assert len(pairs) == 1
        assert pairs[0].side1.stars == 0 and pairs[0].side2.stars == 0

    def test_each_guess_emitted_once(self):
        g1 = star_graph(3)
        g2 = path_graph(4)
        seen = set()
        tc1, tc2 = twin_classes(g1, [0]), twin_classes(g2, [1, 2])
        for gp in enumerate_guesses(g1, g2, tc1, tc2):
            key = (
                gp.side1.type1_centres,
                gp.side1.type2_stars,
                gp.side1.beta,
                gp.side2.type1_centres,
                gp.side2.type2_stars,
                gp.side2.beta,
                gp.pi,
            )
            assert key not in seen
            seen.add(key)

    def test_type2_leaves_inside_class_key(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (0, 4), (1, 4)])
        tc = twin_classes(g, [0, 1, 2])
        for side in enumerate_side_guesses(g, tc):
            for key, leaves in side.type2_stars:
                assert leaves and leaves <= key
            # beta counts leftover cover vertices: neither centres nor type-II leaves
            leftover = set(tc.cover) - set(side.type1_centres)
            for _, leaves in side.type2_stars:
                leftover -= leaves
            for c, b in zip(side.type1_centres, side.beta):
                assert 1 <= b <= 1 + sum(g.has_edge(w, c) for w in leftover)
            assert sum(b - 1 for b in side.beta) <= len(leftover)

    def test_type2_stars_have_two_leaves(self):
        g = _path_cover_graph([(0, 1, 2), (1,), (0, 2), (0, 1)])
        tc = twin_classes(g, [0, 1, 2])
        sides = list(enumerate_side_guesses(g, tc))
        assert any(side.q for side in sides)
        for side in sides:
            for _, leaves in side.type2_stars:
                assert len(leaves) >= 2

    def test_each_beta_guessed_once(self):
        # centre 1 takes one leftover cover vertex as 0 or as 2: one guess
        g = _path_cover_graph([(0, 1, 2), (1,), (0, 2), (0, 1)])
        tc = twin_classes(g, [0, 1, 2])
        keys = [
            (side.type1_centres, side.type2_stars, side.beta)
            for side in enumerate_side_guesses(g, tc)
        ]
        assert len(keys) == len(set(keys))
        assert keys.count(((1,), (), (2,))) == 1


class TestModelStructure:
    def test_displayed_program_shape(self):
        # one type-I star centred at the hub of K1,3, on both sides
        k13 = star_graph(3)
        tc = twin_classes(k13, [0])
        cap = {frozenset({0}): 3}
        pair = next(
            gp
            for gp in enumerate_guesses(k13, k13, tc, tc)
            if gp.side1.p == 1 and gp.side1.q == 0 and gp.side2.p == 1 and gp.side2.q == 0
        )
        model = build_vc_model(pair, tc, tc)
        names = {v for v, _, _ in model.variables}
        assert names == {"alpha_0", "gamma_0", "x_0_c0", "y_0_c0"}
        bounds = {v: (lo, hi) for v, lo, hi in model.variables}
        assert bounds["alpha_0"] == (2, 4) and bounds["x_0_c0"] == (0, 3)
        rows = {
            (tuple(sorted(c.coeffs.items())), c.relation, c.rhs) for c in model.constraints
        }
        assert rows == {
            ((("x_0_c0", 1),), bip.LE, 3),
            ((("y_0_c0", 1),), bip.LE, 3),
            ((("alpha_0", 1), ("x_0_c0", -1)), bip.EQ, 1),
            ((("gamma_0", 1), ("y_0_c0", -1)), bip.EQ, 1),
            ((("alpha_0", 1), ("gamma_0", -1)), bip.EQ, 0),
        }
        assert model.objective == {"alpha_0": 1}
        sol = bip.solve(model)
        assert sol.objective_value == 4  # the whole star on both sides

    def test_unreachable_star_infeasible(self):
        # a centre with an independent neighbour reaches size 2 from beta=1
        g = Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
        tc = twin_classes(g, [0])
        pairs = [
            gp
            for gp in enumerate_guesses(g, g, tc, tc)
            if gp.side1.p == 1 and gp.side1.beta == (1,)
        ]
        assert pairs
        for gp in pairs:
            assert bip.solve(build_vc_model(gp, tc, tc)).status == "optimal"
        # a cover vertex with no independent neighbour: beta=1 leaves it alone
        g2 = Graph.from_edges(2, [(0, 1)])
        tc2 = twin_classes(g2, [0, 1])  # both vertices covered, no classes
        lonely = [s for s in enumerate_side_guesses(g2, tc2) if s.p == 1 and s.beta == (1,)]
        assert lonely
        for side in lonely:
            assert not _realised_sizes(side, tc2)
        for gp in enumerate_guesses(g2, g2, tc2, tc2):
            assert gp.side1 not in lonely and gp.side2 not in lonely


def _realised_sizes(side, tc) -> set[tuple[int, ...]]:
    """Every tuple of star sizes a side guess can realise, by brute force.

    Each independent vertex that anchors no type-II star joins at most one
    type-I star whose centre it neighbours.  A type-I star is its beta cover
    vertices plus those leaves, two vertices at least; a type-II star is its
    centre plus its cover leaves.
    """
    anchors = Counter(key for key, _ in side.type2_stars)
    spreads = [
        combinations_with_replacement(
            [None] + [i for i, c in enumerate(side.type1_centres) if c in key],
            len(members) - anchors[key],
        )
        for key, members in tc.classes.items()
    ]
    type2 = tuple(1 + len(leaves) for _, leaves in side.type2_stars)
    out = set()
    for picks in product(*spreads):
        sizes = list(side.beta)
        for pick in picks:
            for i in pick:
                if i is not None:
                    sizes[i] += 1
        if all(size >= 2 for size in sizes):
            out.add(tuple(sizes) + type2)
    return out


class TestPairBound:
    def test_bound_is_sound(self):
        """Brute force over every side-guess pair and matching, not the ranges.

        Every realisable star size lies in its range, so a pair whose matched
        sizes can agree has a bound at least its best total, and a pair with
        no bound has no agreeing sizes.  The pairs yielded are exactly those
        with a bound, by decreasing bound, and each one's program finds the
        brute-force best.
        """
        rng = random.Random(83)
        done = optimal = infeasible = 0
        while done < 12:
            g1 = random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.3]))
            g2 = random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.3]))
            cover1, cover2 = min_vertex_cover(g1, 3), min_vertex_cover(g2, 3)
            if cover1 is None or cover2 is None:
                continue
            done += 1
            tc1, tc2 = twin_classes(g1, cover1), twin_classes(g2, cover2)
            sides1 = {s: _realised_sizes(s, tc1) for s in enumerate_side_guesses(g1, tc1)}
            sides2 = {s: _realised_sizes(s, tc2) for s in enumerate_side_guesses(g2, tc2)}
            for sides in (sides1, sides2):
                for side, realised in sides.items():
                    for sizes in realised:
                        assert all(lo <= x <= hi for x, (lo, hi) in zip(sizes, side.ranges))
            best: dict[GuessPair, int] = {}
            for (s1, realised1), (s2, realised2) in product(sides1.items(), sides2.items()):
                if s1.stars != s2.stars:
                    continue
                for pi in permutations(range(s1.stars)):
                    pair = GuessPair(s1, s2, pi)
                    totals = [
                        sum(t1)
                        for t1 in realised1
                        if tuple(t1[pi.index(j)] for j in range(s2.stars)) in realised2
                    ]
                    bound = pair_bound(pair)
                    if bound is None:
                        assert not totals
                        infeasible += 1
                    else:
                        assert max(totals, default=0) <= bound
                        best[pair] = max(totals, default=-1)
            yielded = list(enumerate_guesses(g1, g2, tc1, tc2))
            assert len(yielded) == len(set(yielded)) and set(yielded) == set(best)
            bounds = [pair_bound(pair) for pair in yielded]
            assert bounds == sorted(bounds, reverse=True)
            for pair in yielded:
                sol = bip.solve(build_vc_model(pair, tc1, tc2))
                if sol.status == "optimal":
                    type2 = sum(1 + len(leaves) for _, leaves in pair.side1.type2_stars)
                    assert sol.objective_value + type2 == best[pair]
                    optimal += 1
                else:
                    assert best[pair] == -1
        assert optimal and infeasible


def _path_cover_graph(neighbourhoods) -> Graph:
    """Cover path 0-1-2 plus one independent vertex per neighbourhood."""
    edges = [(0, 1), (1, 2)]
    for v, nbhd in enumerate(neighbourhoods, start=3):
        edges += [(c, v) for c in nbhd]
    return Graph.from_edges(3 + len(neighbourhoods), edges)


class TestSolveVc:
    def test_examples(self):
        k3 = complete_graph(3)
        assert solve_vc(k3, k3, 2) == 3
        assert solve_vc(path_graph(4), star_graph(3), 2) == 3
        empty = Graph.from_edges(3, [])
        assert solve_vc(empty, empty, 0) == 0

    def test_cover_bound_error_reports_size(self):
        k4 = complete_graph(4)
        with pytest.raises(PreconditionError, match="no vertex cover of at most k=1"):
            solve_vc(k4, k4, 1)

    def test_cover_bound_error_is_fast(self):
        # an exact cover size would take an exponential search here
        g = random_graph(random.Random(5), 30, 0.3)
        with time_limit(2), pytest.raises(PreconditionError, match="at most k=3"):
            solve_vc(g, g, 3)

    @pytest.mark.parametrize("k", [4, 10])
    def test_bound_above_max_cover_is_refused_at_once(self, k):
        # covers of 6: with k >= 6 the guess search runs for more than 20 s here
        rng = random.Random(3)
        g1, g2 = cover_path_graph(rng, 6, 6), cover_path_graph(rng, 6, 7)
        with time_limit(1), pytest.raises(ResourceLimitError, match="exceeds the limit 3"):
            solve_vc(g1, g2, k)

    def test_cover_independent_edges(self):
        g = Graph.from_edges(6, [(0, 3), (1, 4), (2, 5)])
        assert len(min_vertex_cover(g, 6)) == 3
        assert solve_vc(g, g, 3) == 6

    def test_oracle_equivalence(self):
        rng = random.Random(61)
        done = 0
        while done < 30:
            g1 = random_graph(rng, rng.randint(2, 9), rng.choice([0.2, 0.3]))
            g2 = random_graph(rng, rng.randint(2, 9), rng.choice([0.2, 0.3]))
            if min_vertex_cover(g1, 3) is None or min_vertex_cover(g2, 3) is None:
                continue
            done += 1
            assert solve_vc(g1, g2, 3) == opt_common_vector(g1, g2)[0]

    @pytest.mark.parametrize(
        "nbhds1, nbhds2",
        [
            # answer 8, the whole graph: found among the first guesses
            (
                [(0, 1, 2), (0, 2), (0, 1, 2), (0,), (0, 1)],
                [(0, 1, 2), (2,), (0,), (0,), (1,)],
            ),
            # answer 7 < n: every remaining guess must be ruled out by its bound
            (
                [(1,), (2,), (0, 1), (1,), (1,)],
                [(1, 2), (0,), (0,), (1,), (1,)],
            ),
        ],
    )
    def test_cover3_pairs_prune_guesses(self, monkeypatch, nbhds1, nbhds2):
        g1, g2 = _path_cover_graph(nbhds1), _path_cover_graph(nbhds2)
        assert len(min_vertex_cover(g1, 8)) == len(min_vertex_cover(g2, 8)) == 3
        calls = []
        real_solve = bip.solve

        def counted(*args):
            calls.append(1)
            return real_solve(*args)

        monkeypatch.setattr(bip, "solve", counted)
        assert solve_vc(g1, g2, 3) == solve_tw(g1, g2)[0]
        assert len(calls) <= 100  # thousands without the bound
