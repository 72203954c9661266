import random
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import pytest

from starforest import bip, vc_ilp
from starforest.errors import PreconditionError, ResourceLimitError
from starforest.graph import Graph, min_vertex_cover
from starforest.oracle import opt_common_vector
from starforest.treewidth import solve_tw
from starforest.vc_ilp import (
    GuessPair,
    build_vc_model,
    enumerate_guesses,
    enumerate_skeletons,
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
            gp.side1.centres == (0,) and gp.side2.centres == (0,)
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
                gp.side1.centres,
                gp.side1.type2_stars,
                gp.side1.leftover,
                gp.side2.centres,
                gp.side2.type2_stars,
                gp.side2.leftover,
                gp.pi,
            )
            assert key not in seen
            seen.add(key)

    def test_type2_leaves_inside_class_key(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (0, 4), (1, 4)])
        tc = twin_classes(g, [0, 1, 2])
        for side in enumerate_skeletons(g, tc):
            for key, leaves in side.type2_stars:
                assert leaves and leaves <= key
            # one leftover class per cover vertex that is neither a centre nor
            # a type-II leaf and neighbours a centre, keyed by those centres
            leftover = set(tc.cover) - set(side.centres)
            for _, leaves in side.type2_stars:
                leftover -= leaves
            keys = [frozenset(c for c in side.centres if g.has_edge(w, c)) for w in leftover]
            assert Counter(side.leftover) == Counter(key for key in keys if key)

    def test_type2_stars_have_two_leaves(self):
        g = _path_cover_graph([(0, 1, 2), (1,), (0, 2), (0, 1)])
        tc = twin_classes(g, [0, 1, 2])
        sides = list(enumerate_skeletons(g, tc))
        assert any(side.q for side in sides)
        for side in sides:
            for _, leaves in side.type2_stars:
                assert len(leaves) >= 2


def _cover3_pairs(seed: int, count: int):
    """Seeded cover_path_graph pairs whose minimum covers have 3 vertices each."""
    rng = random.Random(seed)
    while count:
        g1 = cover_path_graph(rng, 3, rng.randint(3, 5))
        g2 = cover_path_graph(rng, 3, rng.randint(3, 5))
        cover1, cover2 = min_vertex_cover(g1, 3), min_vertex_cover(g2, 3)
        if len(cover1) == len(cover2) == 3:
            count -= 1
            yield g1, g2, twin_classes(g1, cover1), twin_classes(g2, cover2)


class TestLazySearch:
    def test_same_pairs_as_eager_reference(self):
        for g1, g2, tc1, tc2 in _cover3_pairs(29, 6):
            eager = [
                GuessPair(s1, s2, pi)
                for s1 in enumerate_skeletons(g1, tc1)
                for s2 in enumerate_skeletons(g2, tc2)
                if s1.stars == s2.stars
                for pi in permutations(range(s1.stars))
            ]
            eager = [pair for pair in eager if pair_bound(pair) is not None]
            lazy = list(enumerate_guesses(g1, g2, tc1, tc2))
            assert len(eager) == len(set(eager))
            assert Counter(lazy) == Counter(eager)
            bounds = [pair_bound(pair) for pair in lazy]
            assert bounds == sorted(bounds, reverse=True)

    def test_first_pair_builds_fewer_side_guesses(self, monkeypatch):
        # a skeleton's ranges are built when a pair of it is first expanded
        g1, g2, tc1, tc2 = next(_cover3_pairs(31, 1))
        made = []
        real = vc_ilp.enumerate_skeletons

        def recorded(*args):
            for sk in real(*args):
                made.append(sk)
                yield sk

        monkeypatch.setattr(vc_ilp, "enumerate_skeletons", recorded)
        next(enumerate_guesses(g1, g2, tc1, tc2))
        expanded = [sk for sk in made if "ranges" in vars(sk)]
        assert 0 < 4 * len(expanded) < len(made)


class TestModelStructure:
    def test_displayed_program_shape(self):
        # one type-I star centred at the hub of K1,3, on both sides
        k13 = star_graph(3)
        tc = twin_classes(k13, [0])
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
        assert _rows(model) == {
            ((("x_0_c0", 1),), bip.LE, 3),
            ((("y_0_c0", 1),), bip.LE, 3),
            ((("alpha_0", 1), ("x_0_c0", -1)), bip.EQ, 1),
            ((("gamma_0", 1), ("y_0_c0", -1)), bip.EQ, 1),
            ((("alpha_0", 1), ("gamma_0", -1)), bip.EQ, 0),
        }
        assert model.objective == {"alpha_0": 1}
        sol = bip.solve(model)
        assert sol.objective_value == 4  # the whole star on both sides

    def test_leftover_vertex_class_rows(self):
        # cover path 0-1-2 with one private leaf each; centres 0 and 2 leave
        # cover vertex 1 over, a capacity-1 class keyed by both centres
        g = _path_cover_graph([(0,), (1,), (2,)])
        tc = twin_classes(g, [0, 1, 2])
        pair = next(
            gp
            for gp in enumerate_guesses(g, g, tc, tc)
            if gp.side1.centres == gp.side2.centres == (0, 2)
            and not gp.side1.type2_stars
            and not gp.side2.type2_stars
            and gp.pi == (0, 1)
        )
        assert pair.side1.leftover == (frozenset({0, 2}),)
        assert pair.side1.ranges == ((2, 3), (2, 3)) and pair_bound(pair) == 5
        model = build_vc_model(pair, tc, tc)
        # classes {0}, {1}, {2} are c0, c1, c2; the leftover vertex is c3
        rows = set()
        for size, leaf in (("alpha", "x"), ("gamma", "y")):
            rows |= {
                (((f"{leaf}_0_c0", 1),), bip.LE, 1),
                (((f"{leaf}_1_c2", 1),), bip.LE, 1),
                (((f"{leaf}_0_c3", 1), (f"{leaf}_1_c3", 1)), bip.LE, 1),
                (((f"{size}_0", 1), (f"{leaf}_0_c0", -1), (f"{leaf}_0_c3", -1)), bip.EQ, 1),
                (((f"{size}_1", 1), (f"{leaf}_1_c2", -1), (f"{leaf}_1_c3", -1)), bip.EQ, 1),
            }
        rows |= {
            ((("alpha_0", 1), ("gamma_0", -1)), bip.EQ, 0),
            ((("alpha_1", 1), ("gamma_1", -1)), bip.EQ, 0),
        }
        assert _rows(model) == rows
        bounds = {v: (lo, hi) for v, lo, hi in model.variables}
        assert bounds["x_0_c3"] == bounds["x_1_c3"] == (0, 1)
        # one centre takes vertex 1: stars of 3 and 2, and vertex 4 stays out
        assert bip.solve(model).objective_value == 5

    def test_unreachable_star_infeasible(self):
        # a centre with an independent neighbour reaches size 2
        g = Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
        tc = twin_classes(g, [0])
        pairs = [gp for gp in enumerate_guesses(g, g, tc, tc) if gp.side1.p == 1]
        assert pairs
        for gp in pairs:
            assert bip.solve(build_vc_model(gp, tc, tc)).status == "optimal"
        # both ends of K2 in the cover: a centre reaches size 2 only through
        # the other end as a leftover vertex, so two centres never do
        g2 = Graph.from_edges(2, [(0, 1)])
        tc2 = twin_classes(g2, [0, 1])  # no classes
        lonely = [s for s in enumerate_skeletons(g2, tc2) if s.p == 2]
        assert lonely
        for side in lonely:
            assert not _realised_sizes(side, g2, tc2)
        single = [gp for gp in enumerate_guesses(g2, g2, tc2, tc2) if gp.side1.p == 1]
        assert single
        for gp in single:
            assert bip.solve(build_vc_model(gp, tc2, tc2)).objective_value == 2
        for gp in enumerate_guesses(g2, g2, tc2, tc2):
            assert gp.side1 not in lonely and gp.side2 not in lonely


def _rows(model) -> set[tuple]:
    return {(tuple(sorted(c.coeffs.items())), c.relation, c.rhs) for c in model.constraints}


def _realised_sizes(side, g, tc) -> set[tuple[int, ...]]:
    """Every tuple of star sizes a skeleton can realise, by brute force.

    Each independent vertex that anchors no type-II star, and each cover
    vertex that is neither a centre nor a type-II leaf, joins at most one
    type-I star whose centre it neighbours.  A type-I star is its centre
    plus those leaves, two vertices at least; a type-II star is its centre
    plus its cover leaves.
    """
    anchors = Counter(key for key, _ in side.type2_stars)
    spreads = [
        combinations_with_replacement(
            [None] + [i for i, c in enumerate(side.centres) if c in key],
            len(members) - anchors[key],
        )
        for key, members in tc.classes.items()
    ]
    taken = set(side.centres).union(*(leaves for _, leaves in side.type2_stars))
    spreads += [
        [(None,)] + [(i,) for i, c in enumerate(side.centres) if g.has_edge(w, c)]
        for w in tc.cover
        if w not in taken
    ]
    type2 = tuple(1 + len(leaves) for _, leaves in side.type2_stars)
    out = set()
    for picks in product(*spreads):
        sizes = [1] * side.p
        for pick in picks:
            for i in pick:
                if i is not None:
                    sizes[i] += 1
        if all(size >= 2 for size in sizes):
            out.add(tuple(sizes) + type2)
    return out


class TestPairBound:
    def test_bound_is_sound(self):
        """Brute force over every skeleton pair and matching, not the ranges.

        Every realisable star size lies in its range, so a pair whose matched
        sizes can agree has a bound at least its best total, and a pair with
        no bound has no agreeing sizes.  The pairs yielded are exactly those
        with a bound, by decreasing bound, and each one's program finds the
        brute-force best.
        """
        optimal = infeasible = 0
        for g1, g2, tc1, tc2 in _bound_cases():
            sides1 = {s: _realised_sizes(s, g1, tc1) for s in enumerate_skeletons(g1, tc1)}
            sides2 = {s: _realised_sizes(s, g2, tc2) for s in enumerate_skeletons(g2, tc2)}
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

    def test_skeleton_bound_is_tight(self):
        """A skeleton's bound caps every total it realises, and is reached.

        It is reached when no class and no leftover cover vertex neighbours
        two centres and every centre can take a leaf: then every such vertex
        can join its one centre.  Beside the random pairs, two graphs with
        covers of 4 let a skeleton hold a type-II star and a leftover cover
        vertex at once.
        """
        rng = random.Random(37)
        graphs = [cover_path_graph(rng, 4, 4), cover_path_graph(rng, 4, 5)]
        for g1, g2, _, _ in _bound_cases():
            graphs += [g1, g2]
        reached = 0
        for g in graphs:
            tc = twin_classes(g, min_vertex_cover(g, 4))
            for sk in enumerate_skeletons(g, tc):
                # a type-I star's hi: its centre, every independent vertex of
                # its classes that anchors no type-II star, and every leftover
                # cover vertex it neighbours
                anchors = Counter(key for key, _ in sk.type2_stars)
                taken = set(sk.centres).union(*(leaves for _, leaves in sk.type2_stars))
                rest = [w for w in tc.cover if w not in taken]
                his = []
                for c in sk.centres:
                    room = sum(
                        len(members) - anchors[key]
                        for key, members in tc.classes.items()
                        if c in key
                    )
                    his.append(1 + room + sum(g.has_edge(w, c) for w in rest))
                type2 = [1 + len(leaves) for _, leaves in sk.type2_stars]
                assert [hi for _, hi in sk.ranges] == his + type2
                near = [w for w in rest if any(g.has_edge(w, c) for c in sk.centres)]
                assert sk.bound == sum(his) - sum(
                    sum(g.has_edge(w, c) for c in sk.centres) - 1 for w in near
                ) + sum(type2)
                totals = [sum(sizes) for sizes in _realised_sizes(sk, g, tc)]
                assert max(totals, default=0) <= sk.bound
                shared = any(
                    len(set(key) & set(sk.centres)) > 1
                    for key in list(tc.classes) + list(sk.leftover)
                )
                if not shared and all(hi >= 2 for hi in his):
                    assert max(totals) == sk.bound
                    reached += bool(sk.leftover)
        assert reached
        # a type-II star beside a leftover cover vertex that can join a centre
        g = graphs[0]
        assert any(
            sk.type2_stars and sk.leftover
            for sk in enumerate_skeletons(g, twin_classes(g, min_vertex_cover(g, 4)))
        )


def _bound_cases():
    """Twelve seeded random pairs whose covers both have at most 3 vertices."""
    rng = random.Random(83)
    done = 0
    while done < 12:
        g1 = random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.3]))
        g2 = random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.3]))
        cover1, cover2 = min_vertex_cover(g1, 3), min_vertex_cover(g2, 3)
        if cover1 is None or cover2 is None:
            continue
        done += 1
        yield g1, g2, twin_classes(g1, cover1), twin_classes(g2, cover2)


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

    def test_cover3_pairs_beyond_oracle(self):
        # covers 0-1-2: with centres 0 and 2, cover vertex 1 is a leftover
        # vertex either centre may take; up to 15 vertices, past the oracle
        rng = random.Random(41)
        done = 0
        while done < 16:
            g1 = cover_path_graph(rng, 3, rng.randint(6, 12))
            g2 = cover_path_graph(rng, 3, rng.randint(2, 12))
            if not min_vertex_cover(g1, 3) == min_vertex_cover(g2, 3) == [0, 1, 2]:
                continue
            done += 1
            for g in (g1, g2):
                sks = enumerate_skeletons(g, twin_classes(g, [0, 1, 2]))
                assert any(frozenset({0, 2}) in sk.leftover for sk in sks)
            assert solve_vc(g1, g2, 3) == solve_tw(g1, g2)[0]

    def test_leftover_vertex_joins_a_centre(self):
        # stars of 5 and 4 on both sides: on the first graph, centres 0 and 2
        # take their private leaves and one of them takes cover vertex 1;
        # without it the best common forest has 8 vertices
        g1 = _path_cover_graph([(0,), (0,), (0,), (2,), (2,), (2,), (1,)])
        g2 = Graph.from_edges(9, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (5, 7), (5, 8)])
        assert min_vertex_cover(g1, 3) == [0, 1, 2]
        assert solve_vc(g1, g2, 3) == solve_vc(g2, g1, 3) == opt_common_vector(g1, g2)[0] == 9
