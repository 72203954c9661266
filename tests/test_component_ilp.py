import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from starforest.component_ilp import (
    DEFAULT_PAIR_BUDGET,
    build_cc_model,
    canonical_form,
    component_family,
    realisation_table,
    solve_cc,
)
from starforest.errors import PreconditionError, ResourceLimitError
from starforest.graph import Graph, StarForest, max_matching
from starforest.oracle import enum_star_vectors_brute, opt_common_vector
from starforest.solve_h import embeds_star_forest
from starforest.treewidth import solve_tw
from starforest.vectors import (
    WIDEST_INT_BOX,
    SparseBits,
    VectorFamily,
    _bits,
    best_common,
    counts_to_sizes,
)

from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_graph,
    star_graph,
    time_limit,
)
from reference import vector_total


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    e2 = set(g2.edges())
    for perm in itertools.permutations(range(g1.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in e2 for u, v in g1.edges()):
            return True
    return False


def random_union(rng: random.Random) -> Graph:
    """Random components of 1-5 vertices until about 4-10 vertices in all."""
    parts = []
    total = 0
    while total < rng.randint(4, 10):
        s = rng.randint(1, 5)
        parts.append(random_graph(rng, s, 0.6))
        total += s
    return disjoint_union(*parts)


Q3 = Graph.from_edges(8, [(a, a | 1 << b) for a in range(8) for b in range(3) if not a >> b & 1])
K44 = Graph.from_edges(8, [(a, b) for a in range(4) for b in range(4, 8)])


def fold_base(*graphs: Graph) -> int:
    """The base solve_cc packs at: above any count of a packing in the larger graph."""
    return max(2, max(g.n for g in graphs) // 2 + 1)


def as_family(bits, delta: int, base: int) -> VectorFamily:
    """The vectors whose codes are set in a route's bitset, as a VectorFamily."""
    return VectorFamily(delta, base, frozenset(_bits(bits)))


def folded_families(g1: Graph, g2: Graph, k: int):
    """Both graphs' families, folded from their components' families as solve_cc does."""
    base = fold_base(g1, g2)
    tables = realisation_table([(g, g.components()) for g in (g1, g2)], k, base)
    fam1, fam2 = build_cc_model(tables, k, base, DEFAULT_PAIR_BUDGET)
    return as_family(fam1, k - 1, base), as_family(fam2, k - 1, base)


def signatures_by_edge_subsets(g: Graph, k: int) -> set[tuple[int, ...]]:
    """Independent oracle: try every edge subset, keep the star-forest ones."""
    edges = list(g.edges())
    out = set()
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            deg = {}
            for u, v in subset:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            # a star forest: every edge has an endpoint of degree 1 and
            # components have diameter <= 2, i.e. no edge joins two deg>=2 ends
            if any(deg[u] > 1 and deg[v] > 1 for u, v in subset):
                continue
            sig = [0] * (k - 1)
            counted = set()
            ok = True
            for u, v in subset:
                centre = u if deg[u] > 1 else v if deg[v] > 1 else min(u, v)
                if centre in counted:
                    continue
                counted.add(centre)
                leaves = deg[centre]
                if leaves > k - 1:
                    ok = False
                    break
                sig[leaves - 1] += 1
            if ok:
                out.add(tuple(sig))
    return out


class TestCanonicalForm:
    def test_matches_brute_isomorphism(self):
        rng = random.Random(71)
        graphs = [random_graph(rng, rng.randint(1, 6), rng.choice([0.3, 0.6])) for _ in range(25)]
        for a in graphs:
            for b in graphs:
                assert (canonical_form(a) == canonical_form(b)) == brute_isomorphic(a, b)

    def test_large_equal_degree_classes(self):
        # 7 vertices in one or two degree classes: relabelled copies must
        # meet, and same-degree-sequence near misses must not
        rng = random.Random(74)
        k34 = Graph.from_edges(7, [(a, b) for a in range(3) for b in range(3, 7)])
        # a 2-switch keeps every degree but closes the triangle 0-1-5
        switched = Graph.from_edges(
            7, [e for e in k34.edges() if e not in {(0, 3), (1, 4)}] + [(0, 1), (3, 4)]
        )
        graphs = [cycle_graph(7), disjoint_union(cycle_graph(3), cycle_graph(4)), k34, switched]
        for g in list(graphs):
            perm = list(range(7))
            rng.shuffle(perm)
            graphs.append(Graph.from_edges(7, [(perm[u], perm[v]) for u, v in g.edges()]))
        keys = [canonical_form(g) for g in graphs]
        for a, key_a in zip(graphs, keys):
            for b, key_b in zip(graphs, keys):
                assert (key_a == key_b) == brute_isomorphic(a, b)


class TestCatalog:
    """The inputs solve_cc refuses before it enumerates any family."""

    def test_oversized_component(self):
        with pytest.raises(PreconditionError, match="4 vertices"):
            solve_cc(path_graph(4), path_graph(3), 3)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            solve_cc(path_graph(3), path_graph(3), 9)


class TestRealisations:
    @pytest.mark.parametrize(
        "graph,k,expected",
        [
            (Graph.from_edges(2, [(0, 1)]), 2, {(0,), (1,)}),
            (path_graph(3), 3, {(0, 0), (1, 0), (0, 1)}),
            (complete_graph(3), 3, {(0, 0), (1, 0), (0, 1)}),
        ],
    )
    def test_small_shapes(self, graph, k, expected):
        family = realisation_table([(graph, graph.components())], k, graph.n + 1)[0][0]
        assert as_family(family, k - 1, graph.n + 1).vectors == expected

    def test_matches_edge_subset_oracle(self):
        rng = random.Random(72)
        for _ in range(20):
            n = rng.randint(1, 5)
            g = random_graph(rng, n, 0.6)
            comp0 = g.components()[0]
            sub, _ = g.induced(comp0)
            k = max(2, sub.n)
            family = realisation_table([(g, [comp0])], k, fold_base(g))[0][0]
            assert as_family(family, k - 1, fold_base(g)).vectors == signatures_by_edge_subsets(
                sub, k
            )

    def test_downward_closure(self):
        c5 = cycle_graph(5)
        family = realisation_table([(c5, c5.components())], 5, fold_base(c5))[0][0]
        sigs = as_family(family, 4, fold_base(c5)).vectors
        assert (0,) * 4 in sigs
        for sig in sigs:
            for j in range(4):
                if sig[j] == 0:
                    continue
                dropped = list(sig)
                dropped[j] -= 1
                assert tuple(dropped) in sigs
                if j > 0:
                    shrunk = list(sig)
                    shrunk[j] -= 1
                    shrunk[j - 1] += 1
                    assert tuple(shrunk) in sigs


class TestComponentFamily:
    """component_family's set bits against the oracle's members, re-packed at the same base."""

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.7])
    def test_matches_oracle(self, p):
        rng = random.Random(int(p * 10) + 76)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8), p)
            comp = list(range(g.n))
            for delta in range(1, 8):
                brute = enum_star_vectors_brute(g, delta)
                for base in (fold_base(g), g.n + 1):
                    got = _bits(component_family(g, comp, delta, base))
                    assert sorted(got) == sorted(brute.rebase(base).members)

    def test_scattered_labels_in_larger_host(self):
        # {2, 5, 9, 11} is a paw (a triangle with a pendant) among other
        # components of a 12-vertex host; the family is the induced graph's
        comp = [2, 5, 9, 11]
        host = Graph.from_edges(
            12, [(2, 5), (5, 9), (2, 9), (9, 11), (0, 1), (1, 3), (4, 6), (7, 8), (8, 10)]
        )
        assert [c for c in host.components() if 2 in c] == [comp]
        sub, _ = host.induced(comp)
        for delta in range(1, 4):
            want = enum_star_vectors_brute(sub, delta).rebase(fold_base(host))
            got = _bits(component_family(host, comp, delta, fold_base(host)))
            assert sorted(got) == sorted(want.members)

    @pytest.mark.parametrize("name", ["K8", "K44", "Q3", "C8"])
    def test_dense_eight_vertex_components(self, name):
        # low deltas skip the most leaf submasks, so check every delta
        g = {"K8": complete_graph(8), "K44": K44, "Q3": Q3, "C8": cycle_graph(8)}[name]
        for delta in range(1, 8):
            want = enum_star_vectors_brute(g, delta).rebase(fold_base(g))
            with time_limit(0.3):
                got = _bits(component_family(g, list(range(8)), delta, fold_base(g)))
            assert sorted(got) == sorted(want.members), delta

    def test_delta_one_is_every_matching_size(self):
        # stars of size 2 are matching edges: the family is {0, ..., nu}
        rng = random.Random(23)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.8]))
            comp = max(g.components(), key=len)
            nu = len(max_matching(g.induced(comp)[0]))
            family = component_family(g, comp, 1, fold_base(g))
            assert _bits(family) == list(range(nu + 1))

    def test_refusals(self):
        with pytest.raises(PreconditionError):
            component_family(path_graph(3), [0, 1, 2], 0, 3)
        with pytest.raises(PreconditionError):
            component_family(path_graph(4), [0, 1, 2, 3], 2, 2)
        with pytest.raises(ResourceLimitError):
            component_family(path_graph(9), list(range(9)), 2, 5)


class TestSolve:
    def test_examples(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        assert solve_cc(disjoint_union(k2, k2, k2), disjoint_union(k2, k2), 2) == 4
        assert (
            solve_cc(
                disjoint_union(complete_graph(3), k2),
                disjoint_union(path_graph(3), path_graph(3)),
                3,
            )
            == 5
        )
        edgeless = Graph.from_edges(3, [])
        assert solve_cc(edgeless, edgeless, 3) == 0
        # k = 1 admits only single-vertex components, where no star fits
        assert solve_cc(edgeless, edgeless, 1) == 0
        with pytest.raises(PreconditionError):
            solve_cc(edgeless, path_graph(2), 1)

    def test_td_deg_examples(self):
        # k read off the input, as bounded treedepth plus degree guarantees
        k2 = Graph.from_edges(2, [(0, 1)])
        assert solve_cc(star_graph(2), star_graph(2), 3) == 3
        assert solve_cc(disjoint_union(k2, k2), disjoint_union(k2, k2), 2) == 4
        with pytest.raises(ResourceLimitError):
            solve_cc(path_graph(9), path_graph(9), 9)

    def test_common_vector_lies_in_both_families(self):
        # the vector best_common picks is in both folded families, so both
        # graphs host the same star counts, and each graph embeds it
        g1 = disjoint_union(complete_graph(3), Graph.from_edges(2, [(0, 1)]))
        g2 = disjoint_union(path_graph(3), path_graph(3))
        fam1, fam2 = folded_families(g1, g2, 3)
        size, vec = best_common(fam1, fam2)
        assert vec in fam1.vectors and vec in fam2.vectors
        assert size == vector_total(vec) == solve_cc(g1, g2, 3) == 5
        forest = StarForest(counts_to_sizes(vec))
        assert embeds_star_forest(g1, forest) is not None
        assert embeds_star_forest(g2, forest) is not None

    def test_folded_families_equal_whole_graph_families(self):
        rng = random.Random(75)
        checked = 0
        while checked < 30:
            g1, g2 = random_union(rng), random_union(rng)
            if g1.n > 12 or g2.n > 12:
                continue
            k = max(2, max(len(c) for g in (g1, g2) for c in g.components()))
            fam1, fam2 = folded_families(g1, g2, k)
            assert fam1.vectors == enum_star_vectors_brute(g1, k - 1).vectors
            assert fam2.vectors == enum_star_vectors_brute(g2, k - 1).vectors
            checked += 1

    def test_many_copies(self):
        # 5 copies of three shapes per side: the folded families hold 2066
        # and 2856 vectors, reached in 15 sumsets per side
        bull = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])
        paw = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        g1 = disjoint_union(*[bull, cycle_graph(5), paw] * 5)
        g2 = disjoint_union(*[star_graph(4), path_graph(4), complete_graph(3)] * 5)
        assert (g1.n, g2.n) == (70, 60)
        with time_limit(5):
            assert solve_cc(g1, g2, 5) == solve_tw(g1, g2)[0] == 55

    @pytest.mark.parametrize(
        "parts1, parts2",
        [
            ("C8 C8 C8", "Q3 Q3 Q3"),
            ("K44 K44", "C6 C8"),
            ("C6 Q3 K44", "C8 C8"),
            ("Q3 Q3", "K44 K44"),
        ],
    )
    def test_regular_components(self, parts1, parts2):
        # regular components of 6-8 vertices: every vertex has one degree,
        # where a canonical labeling would try up to 8! orders per component
        shapes = {"C6": cycle_graph(6), "C8": cycle_graph(8), "Q3": Q3, "K44": K44}
        g1 = disjoint_union(*[shapes[name] for name in parts1.split()])
        g2 = disjoint_union(*[shapes[name] for name in parts2.split()])
        with time_limit(0.3):
            answer = solve_cc(g1, g2, 8)
        assert answer == solve_tw(g1, g2)[0]

    def test_pair_budget(self):
        # P3's family has 3 vectors; each side folds {0} + P3, 3 pairs each
        assert solve_cc(path_graph(3), path_graph(3), 3, pair_budget=6) == 3
        with pytest.raises(ResourceLimitError, match="pair budget"):
            solve_cc(path_graph(3), path_graph(3), 3, pair_budget=5)

    def test_pair_budget_counts_every_fold_step(self):
        # each step pairs the union of the components before it with the next
        # component, |A| * |B| pairs, with both counts from the oracle
        bull = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])
        sides = [
            [path_graph(3), cycle_graph(5), star_graph(3), bull],
            [complete_graph(4), path_graph(5), path_graph(2), cycle_graph(4)],
        ]
        total = 0
        for parts in sides:
            for i, part in enumerate(parts):
                before = len(enum_star_vectors_brute(disjoint_union(*parts[:i]), 4).members)
                total += before * len(enum_star_vectors_brute(part, 4).members)
        g1, g2 = (disjoint_union(*parts) for parts in sides)
        assert solve_cc(g1, g2, 5, pair_budget=total) == solve_tw(g1, g2)[0]
        with pytest.raises(ResourceLimitError, match="pair budget"):
            solve_cc(g1, g2, 5, pair_budget=total - 1)

    @pytest.mark.parametrize("parts1, parts2", [("K44 Q3", "C8 C8"), ("K8 C8", "Q3 K44")])
    def test_sparse_families_past_the_widest_int_box(self, parts1, parts2):
        # 16 vertices give base 9, and 9**7 codes are more than WIDEST_INT_BOX:
        # every family and fold is a SparseBits
        shapes = {"C8": cycle_graph(8), "Q3": Q3, "K44": K44, "K8": complete_graph(8)}
        g1 = disjoint_union(*[shapes[name] for name in parts1.split()])
        g2 = disjoint_union(*[shapes[name] for name in parts2.split()])
        base = fold_base(g1, g2)
        assert base**7 > WIDEST_INT_BOX
        tables = realisation_table([(g, g.components()) for g in (g1, g2)], 8, base)
        assert all(family.__class__ is SparseBits for table in tables for family in table)
        folded = build_cc_model(tables, 8, base, DEFAULT_PAIR_BUDGET)
        assert all(family.__class__ is SparseBits for family in folded)
        with time_limit(2):
            assert solve_cc(g1, g2, 8) == solve_tw(g1, g2)[0]

    def test_oracle_equivalence_small_components(self):
        rng = random.Random(73)
        for _ in range(30):
            g1, g2 = random_union(rng), random_union(rng)
            if g1.n > 12 or g2.n > 12:
                continue
            assert solve_cc(g1, g2, 5) == opt_common_vector(g1, g2)[0]


class TestImport:
    def test_cc_route_leaves_the_treewidth_dp_out(self):
        # the fold's bitsets live in vectors, so `--algo cc` loads no DP
        probe = "import sys, starforest.component_ilp; print('starforest.treewidth' in sys.modules)"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
