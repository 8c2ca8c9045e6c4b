"""Embeddings, tangents, cube traces, and snake operators."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovnum.contfrac import CompanionSpec, companion
from markovnum.errors import (
    ArityMismatchError,
    NotUnitStepError,
    TooLargeError,
    ZeroVectorError,
)
from markovnum.exactcore import IntMatrix
from markovnum.lattice import (
    MAX_CUBE_DIMENSION,
    MAX_CUBE_SUM,
    MODEL531_GENERATORS,
    SlowSequence,
    _exit_axis,
    cube_count,
    cubes_for_vector,
    embed2,
    embed3,
    model531_count,
    model531_word_count,
    representative,
    snake_operator,
    tangent,
    tangent_fraction,
    word_display,
    wug_sum,
)
from markovnum.wugsnake import (
    Body,
    EMPTY_BODY,
    Head,
    body_for_matrix,
    snake_for,
    matching_sequence,
)


class TestSnakeOperator:
    def test_fibonacci_body(self):
        body = Body(((1, 1),))
        assert snake_operator(body, 2) == IntMatrix([[0, 1], [1, 1]])

    def test_empty_body_is_identity(self):
        assert snake_operator(EMPTY_BODY, 3) == IntMatrix.identity(3)

    def test_matches_companion_products(self):
        rng = random.Random(61)
        for _ in range(30):
            k = rng.randint(1, 3)
            specs = [
                CompanionSpec(tuple(rng.randint(0, 2) for _ in range(k)))
                for _ in range(rng.randint(1, 4))
            ]
            product = IntMatrix.identity(k)
            for s in specs:
                product = product * companion(s)
            body = body_for_matrix(product, specs)
            assert snake_operator(body, k) == product


class TestWugSum:
    def test_keeps_first_head(self):
        w1 = (Head((1, 2)), Body(((1, 1),)))
        w2 = (Head((0, 1)), Body(((2, 1),)))
        head, body = wug_sum(w1, w2)
        assert head == Head((1, 2))
        assert body.columns == ((1, 1), (2, 1))

    def test_operator_composes_second_after_first(self):
        b1 = Body(((1, 1),))
        b2 = Body(((2, 1),))
        _, total = wug_sum((Head((0, 1)), b1), (Head((0, 1)), b2))
        assert snake_operator(total, 2) == snake_operator(b2, 2) * snake_operator(
            b1, 2
        )

    def test_product_anchor(self):
        # realize N1 N2 with N1 = [[7,5],[11,8]], N2 = [[3,2],[4,3]]; the
        # upper-right entry 29 appears in the final window of the sum.
        # The operator of a sum composes the second body after the first,
        # so the first summand carries N2 and the second carries N1.
        n1 = IntMatrix([[7, 5], [11, 8]])
        n2 = IntMatrix([[3, 2], [4, 3]])
        assert (n1 * n2)[0, 1] == 29
        n2_specs = [
            CompanionSpec((1, 1)),
            CompanionSpec((3, -1)),
            CompanionSpec((1, 1)),
        ]
        body_n2 = body_for_matrix(n2, n2_specs)
        body_n1 = body_for_matrix(
            n1, [CompanionSpec((1, 1))] * 2 + n2_specs
        )
        head, body = wug_sum((Head((0, 1)), body_n2), (Head((0, 1)), body_n1))
        assert snake_operator(body, 2) == n1 * n2
        assert matching_sequence(snake_for(head, body))[-2:] == [29, 46]


class TestEmbeddings:
    def test_tangent_anchors_2d(self):
        assert tangent_fraction(embed2((0,))) == Fraction(0, 1)
        assert tangent_fraction(embed2((1,))) == Fraction(1, 1)
        assert tangent_fraction(embed2((0, 1, 1))) == Fraction(2, 3)

    def test_tangent_anchors_3d(self):
        assert tangent(embed3((0,))) == (0, 0, 1)
        assert tangent(embed3((1,))) == (0, 1, 1)
        assert tangent(embed3((2,))) == (1, 1, 1)

    def test_mediant_law(self):
        rng = random.Random(62)
        for _ in range(100):
            u = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5)))
            v = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5)))
            du = embed2(u).displacement()
            dv = embed2(v).displacement()
            if any(x % 2 for x in du) or any(x % 2 for x in dv):
                continue
            hu = tuple(x // 2 for x in du)
            hv = tuple(x // 2 for x in dv)
            if gcd(*hu) != 1 or gcd(*hv) != 1:
                continue
            dm = embed2(u + v).displacement()
            assert dm == tuple(a + b for a, b in zip(du, dv))

    def test_zero_displacement(self):
        with pytest.raises(ZeroVectorError):
            tangent(embed2(()))


class TestCubeTraces:
    def test_straight_segment(self):
        seq = cubes_for_vector((4, 0))
        assert representative(seq) == (0, 0, 0)
        assert cube_count((4, 0)) == 4

    def test_diagonal_staircase(self):
        seq = cubes_for_vector((2, 1))
        assert cube_count((2, 1)) == 2
        assert len(seq.points) == 2

    def test_word_anchor(self):
        seq = cubes_for_vector((7, 5, 3))
        assert cube_count((7, 5, 3)) == 13
        assert seq.axes() == [1, 2, 1, 3, 2, 1, 1, 2, 3, 1, 2, 3]
        assert word_display(representative(seq)) == "A2^5 A1 A3^4 A2 A1"

    def test_single_cell(self):
        seq = cubes_for_vector((1, 0, 0))
        assert seq.points == ((0,),)
        assert cube_count((1, 0, 0)) == 1

    def test_word_length_is_cells_minus_one(self):
        # restrict to pairwise coprime coordinates so the segment never
        # crosses two grid planes at once
        rng = random.Random(63)
        checked = 0
        while checked < 40:
            v = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 3)))
            pairs = [(a, b) for i, a in enumerate(v) for b in v[i + 1:]]
            if any(gcd(a, b) != 1 for a, b in pairs):
                continue
            assert len(representative(cubes_for_vector(v))) == cube_count(v) - 1
            checked += 1

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cubes_for_vector((0, 0, 0))
        with pytest.raises(ZeroVectorError):
            cube_count((0, 0))

    def test_slow_sequence_validates_steps(self):
        with pytest.raises(ValueError):
            SlowSequence(((0, 0), (1, 1)))

    def test_non_generic_vectors_raise_not_unit_step(self):
        for v in ((6, 4, 3), (3, 3)):
            with pytest.raises(NotUnitStepError):
                cubes_for_vector(v)
        with pytest.raises(NotUnitStepError):
            SlowSequence(((0, 0), (1, 1)))
        # planes meeting at the last interior crossing make no step
        assert cubes_for_vector((2, 2)).points == ((0, 0), (0, 1))

    def test_sum_budget(self):
        assert cube_count((MAX_CUBE_SUM,)) == MAX_CUBE_SUM
        for trace in (cubes_for_vector, cube_count):
            for v in ((10_000_000, 9_999_999, 9_999_997), (MAX_CUBE_SUM, 0, 1)):
                with pytest.raises(TooLargeError):
                    trace(v)

    def test_dimension_budget(self):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)[: MAX_CUBE_DIMENSION + 1]
        # pairwise coprime entries cross their planes one at a time
        assert cube_count(primes[:-1]) == sum(primes) - primes[-1] - (MAX_CUBE_DIMENSION - 1)
        for trace in (cubes_for_vector, cube_count):
            with pytest.raises(TooLargeError):
                trace(primes)

    def test_negative_coordinates(self):
        with pytest.raises(ValueError):
            cubes_for_vector((3, -1))
        with pytest.raises(ValueError):
            cube_count((3, -1))

    @given(st.lists(st.integers(0, 80), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    @example([6, 4, 3])
    @example([3, 3])
    @example([2, 2])
    @example([0, 5, 0])
    @example([0, 0])
    def test_matches_fraction_parameters(self, v):
        def outcome(f):
            try:
                return f(v)
            except Exception as exc:
                return type(exc)

        assert outcome(lambda v: cubes_for_vector(v).points) == outcome(_fraction_trace)
        assert outcome(cube_count) == outcome(_fraction_count)


def _fraction_cuts(v) -> tuple:
    v = tuple(x for x in v if x)
    if not v:
        raise ZeroVectorError("the zero vector traces no cubes")
    return v, sorted({Fraction(i, x) for x in v for i in range(x + 1)})


def _fraction_count(v) -> int:
    """Reference cube count over Fraction crossing parameters."""
    return len(_fraction_cuts(v)[1]) - 1


def _fraction_trace(v) -> tuple:
    """Reference trace: crossing parameters sorted as Fractions, each
    cube's corner read at the midpoint of its parameter interval."""
    v, cuts = _fraction_cuts(v)
    corners = [
        tuple(((lo + hi) / 2 * x).__floor__() for x in v) for lo, hi in zip(cuts, cuts[1:])
    ]
    if len(corners) == 1:
        return SlowSequence(tuple(corners)).points
    last = list(corners[-2])
    last[_exit_axis(corners[-1], v) - 1] += 1
    return SlowSequence(tuple(corners[:-1] + [tuple(last)])).points


class TestModel531:
    def test_anchor(self):
        assert model531_count((7, 5, 3)) == 36313494507

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 30)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_word_count_matches_letter_by_letter_product(self, runs):
        word = [letter for letter, length in runs for _ in range(length)]
        m = ((1, 0), (0, 1))
        for letter in word:
            g = MODEL531_GENERATORS[letter].rows
            m = tuple(
                tuple(m[i][0] * g[0][j] + m[i][1] * g[1][j] for j in range(2))
                for i in range(2)
            )
        assert model531_word_count(word) == m[0][1]

    def test_letters_beyond_the_generators(self):
        for word in ((0, 3), (-1,)):
            with pytest.raises(ArityMismatchError):
                model531_word_count(word)
        with pytest.raises(ArityMismatchError):
            model531_count((2, 3, 5, 7))

    def test_single_generators(self):
        assert MODEL531_GENERATORS[0][0, 1] == 1
        assert MODEL531_GENERATORS[1][0, 1] == 2
        assert model531_count((2, 0, 0)) == 1
