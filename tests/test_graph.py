import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starforest.errors import ParseError, PreconditionError
from starforest.graph import (
    Graph,
    StarForest,
    Embedding,
    bfs_levels,
    embedding_violation,
    max_matching,
    min_vertex_cover,
    parse_graph,
    parse_instance,
    serialize_graph,
    serialize_instance,
    verify_embedding,
)

from conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph
from reference import is_vertex_cover, min_edge_cover


def brute_max_matching_size(g: Graph) -> int:
    """Exact reference: the lowest free vertex stays unmatched or takes a free neighbour."""

    @functools.cache
    def best(free: int) -> int:
        if not free:
            return 0
        v = (free & -free).bit_length() - 1
        rest = free & ~(1 << v)
        return max(
            [best(rest)] + [1 + best(rest & ~(1 << w)) for w in g.adjacency[v] if rest >> w & 1]
        )

    return best((1 << g.n) - 1)


class TestParsing:
    def test_path(self):
        g = parse_graph("4 3\n0 1\n1 2\n2 3")
        assert g.n == 4 and g.edge_count == 3
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_isolated(self):
        g = parse_graph("1 0")
        assert g.n == 1 and g.edge_count == 0

    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2")
        assert g.edge_count == 3

    def test_duplicate_edges_collapse(self):
        g = parse_graph("3 3\n0 1\n0 1\n1 0")
        assert g.edge_count == 1

    @pytest.mark.parametrize(
        "text,line",
        [
            ("nope", 1),
            ("3 1\n0 5", 2),
            ("3 1\n1 1", 2),
            ("2 2\n0 1", 3),
            ("3 1\n0 1\n1 2\n", 3),  # an edge line beyond the header's m
            ("3 1\n0 1\n\n1 2\n\n", 4),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text,line",
        [
            ("2\n3 1\n0 1\n1 2\n---\n2 1\n0 1\n", 4),
            ("2\n2 1\n0 1\n---\n3 1\n0 1\n1 2\n", 7),
        ],
        ids=["first", "second"],
    )
    def test_instance_edge_beyond_header_count(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line

    def test_trailing_blank_lines_accepted(self):
        assert parse_graph("2 1\n0 1\n\n  \n").edge_count == 1
        assert parse_instance("1\n1 0\n---\n1 0\n\n").g2.n == 1

    def test_instance_round_trip(self):
        inst = parse_instance("3\n2 1\n0 1\n---\n3 2\n0 1\n1 2\n")
        assert inst.h == 3 and inst.g1.n == 2 and inst.g2.n == 3
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    @given(st.integers(0, 7), st.integers(0, 2**21 - 1))
    @settings(max_examples=80)
    def test_serialize_parse_identity(self, n, mask):
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        assert parse_graph(serialize_graph(g)) == g


class TestMatching:
    def test_small_cases(self):
        assert len(max_matching(complete_graph(3))) == 1
        assert len(max_matching(cycle_graph(4))) == 2

    def test_petersen(self):
        pet = Graph.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7), (3, 8),
             (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
        )
        assert len(max_matching(pet)) == 5

    def test_output_is_matching(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 9), 0.4)
            m = max_matching(g)
            seen = set()
            for u, v in m:
                assert g.has_edge(u, v)
                assert u not in seen and v not in seen
                seen.update((u, v))

    def test_matches_brute_force(self):
        rng = random.Random(2)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
            assert len(max_matching(g)) == brute_max_matching_size(g)


class TestEdgeCover:
    def test_single_edge(self):
        cover, forest, emb = min_edge_cover(Graph.from_edges(2, [(0, 1)]))
        assert len(cover) == 1 and forest.star_sizes == (2,)

    def test_p4(self):
        cover, forest, emb = min_edge_cover(path_graph(4))
        assert len(cover) == 2 and forest.star_sizes == (2, 2)
        assert verify_embedding(path_graph(4), forest, emb)

    def test_star(self):
        g = star_graph(3)
        cover, forest, emb = min_edge_cover(g)
        assert len(cover) == 3 and forest.star_sizes == (4,)
        assert verify_embedding(g, forest, emb)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(PreconditionError, match="2"):
            min_edge_cover(Graph.from_edges(3, [(0, 1)]))

    def test_gallai_identity_random(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), 0.5)
            if g.isolated_vertices():
                continue
            cover, forest, emb = min_edge_cover(g)
            assert len(cover) + len(max_matching(g)) == g.n
            assert forest.total_vertices == g.n
            assert verify_embedding(g, forest, emb)
            # the cover is a disjoint union of stars touching every vertex
            assert sorted(emb.vertices()) == list(range(g.n))


class TestVertexCover:
    def test_triangle(self):
        cover = min_vertex_cover(complete_graph(3), 2)
        assert cover is not None and len(cover) == 2

    def test_p4_needs_two(self):
        assert min_vertex_cover(path_graph(4), 1) is None
        assert len(min_vertex_cover(path_graph(4), 2)) == 2

    def test_star_centre(self):
        assert min_vertex_cover(star_graph(5), 1) == [0]

    def test_returns_minimum(self):
        rng = random.Random(4)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), 0.4)
            found = min_vertex_cover(g, g.n)
            assert found is not None and is_vertex_cover(g, found)
            # no smaller cover exists
            smaller = len(found) - 1
            if smaller >= 0:
                ok = any(
                    is_vertex_cover(g, c)
                    for c in itertools.combinations(range(g.n), smaller)
                )
                assert not ok


def induced_by_edge_walk(g, keep):
    """Reference: renumber every edge with both ends kept and rebuild from the edge list."""
    kept = sorted(set(keep))
    pos = {v: i for i, v in enumerate(kept)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return Graph.from_edges(len(kept), edges), kept


class TestInduced:
    def test_matches_edge_walk_reference(self):
        rng = random.Random(41)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 12), rng.choice([0.2, 0.4, 0.7]))
            keeps = [
                [],
                list(range(g.n)),
                rng.sample(range(g.n), rng.randint(0, g.n)),
                # unsorted, with repeats
                [rng.randrange(g.n) for _ in range(g.n + 3)] if g.n else [],
            ]
            for keep in keeps:
                assert g.induced(keep) == induced_by_edge_walk(g, keep)

    def test_out_of_range_rejected(self):
        for keep in ([0, 5], [-1, 2]):
            with pytest.raises(PreconditionError):
                cycle_graph(5).induced(keep)


class TestBfsLevels:
    def test_examples(self):
        assert bfs_levels(path_graph(4)) == [0, 1, 2, 3]
        assert bfs_levels(complete_graph(3)) == [0, 1, 1]
        assert bfs_levels(Graph.from_edges(4, [(0, 1), (2, 3)])) == [0, 1, 0, 1]

    @given(st.integers(1, 8), st.integers(0, 2**28 - 1))
    @settings(max_examples=60)
    def test_adjacent_levels_differ_by_at_most_one(self, n, mask):
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        levels = bfs_levels(g)
        for u, v in g.edges():
            assert abs(levels[u] - levels[v]) <= 1


class TestVerifyEmbedding:
    def test_accepts_valid(self):
        emb = Embedding(((1, 0, 2),))
        assert verify_embedding(path_graph(4), StarForest((3,)), emb)

    def test_rejects_non_edge(self):
        emb = Embedding(((0, 1, 2),))
        reason = embedding_violation(path_graph(4), StarForest((3,)), emb)
        assert reason is not None and "not an edge" in reason

    def test_rejects_overlap(self):
        emb = Embedding(((0, 1), (1, 2)))
        reason = embedding_violation(complete_graph(3), StarForest((2, 2)), emb)
        assert reason is not None and "injectivity" in reason

    def test_rejects_shape_mismatch(self):
        emb = Embedding(((0, 1),))
        assert not verify_embedding(path_graph(4), StarForest((3,)), emb)


class TestEmbeddingStorage:
    def test_stars_round_trip(self):
        stars = ((3, 1), (0, 2, 5), (7, 4, 6, 8, 9))
        emb = Embedding(stars)
        assert emb.stars == stars and emb.vertices() == [3, 1, 0, 2, 5, 7, 4, 6, 8, 9]
        assert Embedding(()).stars == ()

    def test_small_vertices_are_kept_as_bytes(self):
        assert isinstance(Embedding(((255, 0),))._code, bytes)

    def test_large_vertices_and_stars_keep_their_tuples(self):
        for stars in (((256, 1),), ((0,) + tuple(range(1, 256)),)):
            emb = Embedding(stars)
            assert isinstance(emb._code, tuple) and emb.stars == stars

    def test_equal_stars_give_equal_embeddings(self):
        a, b = Embedding(((0, 1), (2, 3))), Embedding([[0, 1], [2, 3]])
        assert a == b and hash(a) == hash(b) and a != Embedding(((1, 0), (2, 3)))
        assert repr(a) == "Embedding(stars=((0, 1), (2, 3)))"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Embedding(((0, 1),))._code = b""
