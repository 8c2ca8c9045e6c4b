"""Wug-snake weight systems and their matching counts."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovnum.contfrac import CompanionSpec, companion
from markovnum.errors import DecompositionMismatchError, TooLargeError
from markovnum.exactcore import IntMatrix, permanent
from markovnum.wugsnake import (
    Body,
    Head,
    WugSnake,
    attach_body,
    body_for_matrix,
    matching_count_bruteforce,
    matching_count_det,
    matching_sequence,
    simple_head,
    snake_for,
    wug_determinant,
)

EIGHT_POSITIONS = [
    (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (3, 5), (4, 4),
    (5, 5), (5, 6), (5, 7), (6, 6), (7, 7), (7, 8), (8, 8),
]


def eight_snake():
    return WugSnake(8, {p: 1 for p in EIGHT_POSITIONS})


def random_snake(rng, max_n=8, max_w=3):
    n = rng.randint(1, max_n)
    weights = {
        (i, j): rng.randint(0, max_w)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    }
    return WugSnake(n, weights)


def plain_matching_count(w):
    """Perfect matchings of the biadjacency graph, one branch per edge."""
    rows = w.biadjacency().rows

    def walk(i, used):
        if i == w.n:
            return 1
        return sum(
            x * walk(i + 1, used | 1 << j)
            for j, x in enumerate(rows[i])
            if x and not used & 1 << j
        )

    return walk(0, 0)


class TestCounts:
    def test_single_edge(self):
        w = WugSnake(1, {(1, 1): 7})
        assert matching_count_bruteforce(w) == 7
        assert matching_count_det(w) == 7

    def test_eight_by_eight_anchor(self):
        w = eight_snake()
        assert matching_count_det(w) == 29
        assert matching_count_bruteforce(w) == 29
        assert permanent(w.biadjacency()) == 29

    def test_two_by_two(self):
        w = WugSnake(2, {(1, 1): 1, (1, 2): 1, (2, 2): 1})
        assert matching_count_det(w) == 2

    def test_three_way_agreement(self):
        rng = random.Random(21)
        for _ in range(100):
            w = random_snake(rng)
            det = matching_count_det(w)
            assert matching_count_bruteforce(w) == det
            assert permanent(w.biadjacency()) == det

    def test_bruteforce_limit(self):
        with pytest.raises(TooLargeError):
            matching_count_bruteforce(WugSnake(257, {(1, 1): 1}))

    # w(1,1) = 0 leaves row 1 to a later column; a zero first row has no matching
    @example(WugSnake(3, {(1, 2): 1, (2, 3): 2, (3, 3): 1}))
    @example(WugSnake(3, {(2, 3): 3, (3, 3): 1}))
    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.dictionaries(
                st.tuples(st.integers(1, n), st.integers(1, n))
                .map(sorted).map(tuple),
                st.integers(0, 4),
            ).map(lambda weights: WugSnake(n, weights))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bruteforce_matches_plain_enumeration(self, w):
        assert matching_count_bruteforce(w) == plain_matching_count(w)

    def test_json_roundtrip(self):
        w = eight_snake()
        assert WugSnake.from_json(w.to_json()) == w

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"weights": []}',
            '{"n": 2}',
            '{"n": "2", "weights": []}',
            '{"n": 2, "weights": {}}',
            '{"n": 2, "weights": [[1, 1]]}',
            '{"n": 2, "weights": [[1, "2", 1]]}',
            '{"n": 2, "weights": [7]}',
            "not json",
        ],
    )
    def test_json_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            WugSnake.from_json(text)


class TestSequences:
    def test_simple_head_values(self):
        assert matching_sequence(simple_head((0, 1))) == [1, 0, 1]
        assert matching_sequence(simple_head((0, 0, 1))) == [1, 0, 0, 1]
        assert matching_sequence(simple_head((2, 5, 13))) == [1, 2, 5, 13]

    def test_body_extension_anchor(self):
        body = Body(tuple([(1, 1)] * 4 + [(2, 1)] * 2 + [(1, 1)] * 2 + [(2, 1)]))
        seq = matching_sequence(attach_body(simple_head((0, 1)), body))
        assert seq == [1, 0, 1, 1, 2, 3, 5, 13, 31, 44, 75, 194]

    def test_sequence_ends_at_determinant(self):
        rng = random.Random(22)
        for _ in range(100):
            w = random_snake(rng)
            assert matching_sequence(w)[-1] == matching_count_det(w)

    def test_prefix_consistency(self):
        rng = random.Random(23)
        for _ in range(50):
            w = random_snake(rng)
            seq = matching_sequence(w)
            for k in range(1, w.n + 1):
                assert matching_sequence(w.prefix(k)) == seq[:k]


class TestBodies:
    def test_body_for_matrix_checks_product(self):
        fib = companion(CompanionSpec((1, 1)))
        body = body_for_matrix(fib * fib, [CompanionSpec((1, 1))] * 2)
        assert body.columns == ((1, 1), (1, 1))
        with pytest.raises(DecompositionMismatchError):
            body_for_matrix(fib, [CompanionSpec((1, 1))] * 2)

    def test_window_evolution(self):
        fib2 = companion(CompanionSpec((1, 1))) ** 2
        body = body_for_matrix(fib2, [CompanionSpec((1, 1))] * 2)
        seq = matching_sequence(snake_for(Head((0, 1)), body))
        assert tuple(seq[-2:]) == fib2.apply((0, 1)) == (1, 2)

    def test_trivial_column(self):
        seq = matching_sequence(attach_body(simple_head((1,)), Body(((4,),))))
        assert seq[-1] == 4


class TestWugDeterminant:
    def anchor_matrix(self):
        return (
            companion(CompanionSpec((1, 1, 1)))
            * companion(CompanionSpec((1, 0, 1))) ** 5
        )

    def anchor_body(self):
        return body_for_matrix(
            self.anchor_matrix(),
            [CompanionSpec((1, 1, 1))] + [CompanionSpec((1, 0, 1))] * 5,
        )

    def test_three_dimensional_anchor(self):
        assert wug_determinant(Head((0, 0, 1)), self.anchor_body()) == 11

    def test_two_dimensional_upper_right(self):
        rng = random.Random(24)
        for _ in range(20):
            coeffs = [rng.randint(1, 3) for _ in range(rng.randint(2, 6))]
            m = IntMatrix.identity(2)
            for a in coeffs:
                m = m * companion(CompanionSpec((a, 1)))
            body = body_for_matrix(m, [CompanionSpec((a, 1)) for a in coeffs])
            assert abs(wug_determinant(Head((0, 1)), body)) == abs(m[0, 1])

    def test_decomposition_independence(self):
        # two genuinely different routes to [[2,3],[3,5]]
        target = IntMatrix([[2, 3], [3, 5]])
        route_a = [CompanionSpec((1, 1))] * 4
        route_b = [
            CompanionSpec((2, -1)),
            CompanionSpec((2, 1)),
            CompanionSpec((1, 1)),
        ]
        body_a = body_for_matrix(target, route_a)
        body_b = body_for_matrix(target, route_b)
        for head in [(0, 1), (1, 2), (-1, 3)]:
            assert wug_determinant(Head(head), body_a) == wug_determinant(
                Head(head), body_b
            )
