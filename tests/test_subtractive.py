"""Cyclic subtractive algorithms: steps, traces, reconstruction."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovnum.errors import InvalidTraceError, StuckError
from markovnum.subtractive import (
    MCFTrace,
    STRATEGIES,
    _coefficients,
    reconstruct,
    run_mcf,
    subtract_step,
)


class TestStep:
    def test_max_b_anchor(self):
        nxt, (alpha, beta), k = subtract_step((7, 5, 3), "max-b")
        assert k == 0
        assert (alpha, beta) == (1, 0)
        assert nxt == (5, 3, 2)

    def test_min_remainder_anchor(self):
        nxt, (alpha, beta), k = subtract_step((7, 5, 3), "min-remainder")
        assert (alpha, beta) == (0, 2)
        assert nxt == (5, 3, 1)

    def test_all_ones(self):
        nxt, _, _ = subtract_step((1, 1, 1), "max-b")
        assert nxt == (1, 1, 0)

    def test_rotation_recorded(self):
        _, _, k = subtract_step((3, 7, 5), "max-b")
        assert k == 1
        _, _, k = subtract_step((3, 5, 7), "max-b")
        assert k == 2

    def test_stuck(self):
        with pytest.raises(StuckError):
            subtract_step((4, 0, 0), "max-b")


def _min_remainder_full_scan(a, b, c):
    """Reference min-remainder choice: scan every alpha in 0 .. a // b."""
    best = None
    for alpha in range(0, (a // b if b else 0) + 1):
        rem = a - alpha * b
        beta = rem // c if c else 0
        if (alpha, beta) != (0, 0) and (best is None or rem - beta * c < best[0]):
            best = (rem - beta * c, alpha, beta)
    if best is None:
        raise StuckError("no admissible coefficients")
    return best[1], best[2]


class TestMinRemainder:
    @given(st.integers(0, 5000), st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=400, deadline=None)
    @example(7, 5, 3)
    @example(12, 4, 6)
    @example(9, 3, 0)
    @example(5, 0, 7)
    @example(0, 0, 0)
    def test_bounded_scan_matches_full_scan(self, a, b, c):
        def outcome(f):
            try:
                return f(a, b, c)
            except StuckError:
                return StuckError

        assert outcome(lambda a, b, c: _coefficients(a, b, c, "min-remainder")) == outcome(
            _min_remainder_full_scan
        )

    @pytest.mark.parametrize("triple", [(10**15, 7, 5), (10**15, 7, 0)])
    def test_huge_quotient_returns(self, triple):
        trace = run_mcf(triple, "min-remainder")
        assert trace.terminal == gcd(gcd(triple[0], triple[1]), triple[2])
        assert reconstruct(trace).apply(trace.final) == triple


class TestRuns:
    def test_terminal_is_gcd(self):
        rng = random.Random(51)
        for strategy in STRATEGIES:
            for _ in range(100):
                t = tuple(rng.randint(1, 120) for _ in range(3))
                trace = run_mcf(t, strategy)
                assert trace.terminal == gcd(gcd(t[0], t[1]), t[2])

    def test_sum_strictly_decreases(self):
        rng = random.Random(52)
        for strategy in STRATEGIES:
            for _ in range(25):
                state = tuple(rng.randint(1, 60) for _ in range(3))
                while sum(1 for x in state if x) > 1:
                    nxt, _, _ = subtract_step(state, strategy)
                    assert sum(nxt) < sum(state)
                    state = nxt

    def test_no_zero_coefficient_pair(self):
        rng = random.Random(53)
        for strategy in STRATEGIES:
            for _ in range(50):
                t = tuple(rng.randint(1, 80) for _ in range(3))
                for (alpha, beta), _ in run_mcf(t, strategy).steps:
                    assert (alpha, beta) != (0, 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            run_mcf((0, 0, 0), "max-b")
        with pytest.raises(ValueError):
            run_mcf((1, -2, 3), "max-b")
        with pytest.raises(ValueError):
            run_mcf((1, 2, 3), "zigzag")


class TestEuclid:
    def test_pair_input_gives_continued_fraction(self):
        trace = run_mcf((121, 36, 0), "max-b")
        cf = trace.euclid_cf()
        value = Fraction(cf[-1])
        for a in reversed(cf[:-1]):
            value = a + 1 / value
        assert value == Fraction(121, 36)

    def test_canonical_quotients(self):
        assert run_mcf((121, 36, 0), "max-b").euclid_cf() == [3, 2, 1, 3, 3]


class TestReconstruction:
    def test_roundtrip(self):
        rng = random.Random(54)
        for strategy in STRATEGIES:
            for _ in range(100):
                t = tuple(rng.randint(1, 200) for _ in range(3))
                trace = run_mcf(t, strategy)
                assert reconstruct(trace).apply(trace.final) == t

    def test_empty_trace_is_identity(self):
        trace = run_mcf((5, 0, 0), "max-b")
        assert trace.steps == ()
        assert reconstruct(trace).apply(trace.final) == (5, 0, 0)

    def test_malformed_trace(self):
        with pytest.raises(InvalidTraceError):
            reconstruct(
                MCFTrace((1, 1, 1), "max-b", (((-1, 0), 0),), (1, 1, 0))
            )
