import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starforest.errors import PreconditionError
from starforest.treewidth import enum_star_vectors_dp
from starforest.vectors import VectorFamily, best_common, sumset

from conftest import random_graph
from reference import sumset_naive, vector_total


class TestSumset:
    def test_identity_element(self):
        a = VectorFamily.of([(0, 0)], 2, 10)
        b = VectorFamily.of([(3, 1)], 2, 10)
        assert sumset(a, b).vectors == {(3, 1)}

    def test_hand_sum(self):
        a = VectorFamily.of([(0, 0), (1, 2)], 2, 10)
        b = VectorFamily.of([(2, 1)], 2, 10)
        assert sumset(a, b).vectors == {(2, 1), (3, 3)}

    def test_dimension_mismatch(self):
        a = VectorFamily.of([(0,)], 1, 3)
        b = VectorFamily.of([(0, 0)], 2, 3)
        with pytest.raises(PreconditionError):
            sumset(a, b)

    def test_of_validates(self):
        with pytest.raises(PreconditionError):
            VectorFamily.of([(0, 3)], 2, 3)
        with pytest.raises(PreconditionError):
            VectorFamily.of([(0, -1)], 2, 3)
        with pytest.raises(PreconditionError):
            VectorFamily.of([(0, 0, 0)], 2, 3)
        assert VectorFamily.of([(2, 1), (0, 2)], 2, 3).vectors == {(2, 1), (0, 2)}

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
            a = VectorFamily.of(amems, d, 2 * n + 1)
            b = VectorFamily.of(bmems, d, 2 * n + 1)
            out = sumset(a, b)
            assert out.vectors == sumset_naive(amems, bmems)
            assert out.base == 2 * n + 1
            assert all(0 <= c <= 2 * n for vec in out.vectors for c in vec)

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
        a = VectorFamily.of(amems, d, 2 * bound + 1)
        b = VectorFamily.of(bmems, d, 2 * bound + 1)
        assert sumset(a, b).members == sumset(b, a).members
        assert sumset(a, b).vectors == sumset_naive(amems, bmems)

    def test_exact_with_large_packed_codes(self):
        # (2n+1)^d is about 2.8e11 here; packed codes are Python ints of any size
        d, n = 6, 40
        amems = {tuple(0 for _ in range(d)), tuple(1 for _ in range(d))}
        a = VectorFamily.of(amems, d, 2 * n + 1)
        assert sumset(a, a).vectors == sumset_naive(amems, amems)


class TestFamily:
    def test_delta_zero(self):
        assert VectorFamily.of([()], 0, 2).vectors == {()}

    def test_best_common_rejects_different_deltas(self):
        with pytest.raises(PreconditionError):
            best_common(VectorFamily.of([(0,)], 1, 3), VectorFamily.of([(0, 0)], 2, 3))

    def test_best_common_across_bases(self):
        # DP families are packed base n+1, so graphs of different sizes give
        # families of different bases; the answer must not depend on that
        rng = random.Random(31)
        mixed = 0
        for _ in range(50):
            g1 = random_graph(rng, rng.randint(2, 10), 0.4)
            g2 = random_graph(rng, rng.randint(2, 10), 0.4)
            d = rng.randint(1, 3)
            fam1, fam2 = enum_star_vectors_dp(g1, d), enum_star_vectors_dp(g2, d)
            mixed += fam1.base != fam2.base
            want = max((vector_total(v), v) for v in fam1.vectors & fam2.vectors)
            assert best_common(fam1, fam2) == best_common(fam2, fam1) == want
        assert mixed > 25

    def test_best_common_matches_the_tuple_reference(self):
        # totals are read off the packed digits and only the top ties are
        # decoded; coordinates up to base - 1 let a total pass the base, as
        # in solve_cc's families.  The shared vectors are cut at a total that
        # two of them reach, so the top of the intersection is a tie.
        rng = random.Random(33)
        tied = 0
        for _ in range(400):
            delta = rng.randint(0, 6)
            base1, base2 = rng.randint(2, 9), rng.choice([2, 3, 5, 9, 17, 100])
            drawn = [
                tuple(rng.randrange(min(base1, base2)) for _ in range(delta)) for _ in range(40)
            ]
            totals = [vector_total(v) for v in drawn]
            cap = rng.choice([t for t in totals if totals.count(t) > 1] or totals)
            shared = [v for v in drawn if vector_total(v) <= cap] + [(0,) * delta]
            extra = [tuple(rng.randrange(base1) for _ in range(delta)) for _ in range(10)]
            fam1 = VectorFamily.of(shared + extra, delta, base1)
            fam2 = VectorFamily.of(shared, delta, base2)
            want = max((vector_total(v), v) for v in fam1.vectors & fam2.vectors)
            tied += sum(1 for v in set(shared) if vector_total(v) == want[0]) > 1
            assert best_common(fam1, fam2) == best_common(fam2, fam1) == want
            for base in (base1, base2):
                if base > max((c for v in fam1.vectors for c in v), default=0):
                    assert fam1.rebase(base) == VectorFamily.of(fam1.vectors, delta, base)
        assert tied > 150

    def test_rebase_keeps_the_vectors(self):
        fam = VectorFamily.of([(0, 0), (2, 1), (0, 3)], 2, 4)
        assert fam.rebase(4) is fam
        for base in (7, 100):
            moved = fam.rebase(base)
            assert moved == VectorFamily.of(fam.vectors, 2, base)
            assert moved.rebase(4) == fam
        with pytest.raises(PreconditionError):
            fam.rebase(3)  # the coordinate 3 does not fit
