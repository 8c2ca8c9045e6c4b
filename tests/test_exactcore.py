"""Exact kernels: surd arithmetic, determinants, permanents."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovnum.errors import MixedRadicandError, TooLargeError
from markovnum.exactcore import (
    IntMatrix,
    QuadraticSurd,
    count_perfect_matchings,
    det_exact,
    permanent,
    permanent_bruteforce,
)
from markovnum.wugsnake import WugSnake, matching_count_det


def laplace_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        prod = sign
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += prod
    return total


class TestQuadraticSurd:
    def test_compare_against_rational(self):
        root5 = QuadraticSurd.sqrt(5)
        two = QuadraticSurd.from_rational(2)
        assert root5.compare(two) > 0

    def test_conjugate_product_is_one(self):
        phi = QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)
        psi = QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)
        assert phi * psi == QuadraticSurd.from_rational(1)

    def test_golden_tail_fixed_point(self):
        # x = 1/(1+x) has the positive root (-1 + sqrt(5))/2
        x = QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)
        lhs = (QuadraticSurd.from_rational(1) + x).invert()
        assert lhs == x

    def test_normalizes_square_radicands(self):
        s = QuadraticSurd(Fraction(0), Fraction(1), 8)
        assert s.d == 2 and s.b == 2

    def test_rational_collapse(self):
        assert QuadraticSurd(Fraction(3), Fraction(1), 4).a == Fraction(5)

    def test_mixed_radicand_rejected(self):
        with pytest.raises(MixedRadicandError):
            QuadraticSurd.sqrt(2) + QuadraticSurd.sqrt(3)

    def test_compare_matches_rational_order(self):
        rng = random.Random(100)
        for _ in range(1000):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            lhs = QuadraticSurd.from_rational(a)
            rhs = QuadraticSurd.from_rational(b)
            assert lhs.compare(rhs) == (a > b) - (a < b)

    def test_exact_sign_near_ties(self):
        # consecutive convergents of sqrt(2) straddle it
        above = QuadraticSurd(Fraction(577, 408), Fraction(-1), 2)
        assert above.sign() > 0
        below = QuadraticSurd(Fraction(1393, 985), Fraction(-1), 2)
        assert below.sign() < 0


class TestDeterminant:
    def test_identity(self):
        assert det_exact(IntMatrix.identity(8)) == 1

    def test_matches_laplace_oracle(self):
        rng = random.Random(4)
        for _ in range(50):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            assert det_exact(IntMatrix(rows)) == laplace_det(rows)

    def test_multiplicative(self):
        rng = random.Random(5)
        for _ in range(50):
            a = IntMatrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            b = IntMatrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            assert det_exact(a * b) == det_exact(a) * det_exact(b)

    def test_unimodular_inverse(self):
        m = IntMatrix([[3, 5], [7, 12]])
        assert m * m.inverse_unimodular() == IntMatrix.identity(2)


class TestPermanent:
    def test_complete_bipartite_two(self):
        assert permanent(IntMatrix([[1, 1], [1, 1]])) == 2

    def test_complete_bipartite_four(self):
        assert permanent(IntMatrix([[1] * 4] * 4)) == 24

    def test_matches_bruteforce(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            m = IntMatrix(rows)
            assert permanent(m) == permanent_bruteforce(m)

    def test_size_limit(self):
        for n in (23, 31):
            with pytest.raises(TooLargeError):
                permanent(IntMatrix([[1] * n] * n))


class TestMatchingCount:
    def test_row_budget(self):
        identity = [[(i, 1)] for i in range(256)]
        assert count_perfect_matchings(identity, 256) == 1
        with pytest.raises(TooLargeError):
            count_perfect_matchings(identity + [[(256, 1)]], 257)

    def test_unequal_sides(self):
        assert count_perfect_matchings([[(0, 1), (1, 1)]], 2) == 0
        assert count_perfect_matchings([[(0, 1)], [(0, 1)]], 1) == 0
        assert count_perfect_matchings([], 0) == 1


class TestMatrix:
    def test_pow_and_apply(self):
        fib = IntMatrix([[0, 1], [1, 1]])
        assert (fib ** 10)[0, 1] == 55
        assert fib.apply((3, 5)) == (5, 8)

    def test_immutability(self):
        m = IntMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.n = 3


SPARSE = st.sampled_from((0, 0, 0, 0, 1, 2, 7))
SIGNED = st.integers(-9, 9)
ENTRIES = {
    "sparse": SPARSE,
    "dense": st.integers(1, 9),
    "negative": SIGNED,
    "singular": SIGNED,
    "zero-pivot": SPARSE,
    "hessenberg": SIGNED,
}


@st.composite
def square_matrices(draw, max_n=7):
    """Square integer matrices shaped to reach the kernels' sparsity paths.

    "zero-pivot" matrices have a zero diagonal and sparse entries, so
    elimination must swap in rows whose scaling it deferred; "hessenberg"
    ones have the wug-snake pattern (one nonzero below the diagonal).
    """
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(tuple(ENTRIES)))
    rows = [[draw(ENTRIES[kind]) for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n > 1:
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n - 1)]
        rows[-1] = [sum(c * rows[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
    elif kind == "zero-pivot":
        for k in range(n):
            rows[k][k] = 0
    elif kind == "hessenberg":
        for i in range(n):
            for j in range(i - 1):
                rows[i][j] = 0
            if i:
                rows[i][i - 1] = draw(st.sampled_from((-1, 1)))
    return rows


@st.composite
def wug_snakes(draw, max_n=16):
    n = draw(st.integers(1, max_n))
    weight = st.sampled_from((0, 0, 0, 1, 1, 2, 5, -1))
    return WugSnake(n, {(i, j): draw(weight) for i in range(1, n + 1) for j in range(i, n + 1)})


class TestKernelProperties:
    # a pivot row whose scaling was deferred at step 0 is swapped in at step 1
    @example([[2, 1, 1, 0], [4, 2, 3, 0], [0, 5, 7, 0], [0, 0, 0, 1]])
    # swapped rows stand at different scaling levels, which must travel with them
    @example(
        [
            [2, 0, 2, 0, -1, 5],
            [3, 0, 0, 1, 5, 5],
            [0, 5, 0, 0, 5, 3],
            [0, 5, 0, 1, 2, 2],
            [0, -1, 0, 5, 0, 3],
            [1, -1, 1, 5, 0, 1],
        ]
    )
    @given(square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_det_matches_sympy(self, rows):
        assert det_exact(IntMatrix(rows)) == sympy.Matrix(rows).det()

    @given(square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_permanent_matches_sympy(self, rows):
        assert permanent(IntMatrix(rows)) == sympy.Matrix(rows).per()

    @given(square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matching_count_is_the_permanent(self, rows):
        adjacency = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
        assert count_perfect_matchings(adjacency, len(rows)) == sympy.Matrix(rows).per()

    @given(wug_snakes())
    @settings(max_examples=30, deadline=None)
    def test_permanent_counts_wug_snake_matchings(self, w):
        assert permanent(w.biadjacency()) == matching_count_det(w)
