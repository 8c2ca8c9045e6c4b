"""Cyclic subtractive algorithms on integer triples and their traces.

Each step first rotates the triple so a maximal entry comes first
(recording the rotation count), then replaces (a, b, c) with
(b, c, a - alpha*b - beta*c) for strategy-chosen nonnegative alpha,
beta.  A full run ends at a single nonzero value, the gcd; the trace of
rotations and coefficients reconstructs the start exactly.
"""

from __future__ import annotations

from math import gcd

from .errors import InvalidTraceError, StuckError
from .exactcore import IntMatrix, Record

STRATEGIES = ("max-b", "max-c", "b-then-c", "min-remainder")

ROTATE = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # left cyclic shift
ROTATE_INV = IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def _normalize(t) -> tuple:
    """Rotations k in {0,1,2} bringing a maximal entry to the front."""
    a, b, c = t
    best = max(t)
    for k, first in enumerate((a, b, c)):
        if first == best:
            rotated = tuple(t[(k + i) % 3] for i in range(3))
            return k, rotated
    raise AssertionError("unreachable")


def _min_remainder_alphas(a: int, b: int, c: int) -> tuple:
    """Range of alpha that min-remainder scans; it finds the same first
    minimal leftover as a scan of the whole range 0 .. a // b.

    For c > 0 the leftover (a - alpha*b) mod c depends only on alpha mod
    P, P = c / gcd(b, c), so 0 .. min(a // b, P) holds every residue
    class at its smallest admissible alpha (P stands in for 0 when
    alpha = beta = 0 is excluded).  For c = 0 the leftover a - alpha*b
    falls strictly with alpha, so only alpha = a // b can win.  The scan
    is therefore at most min(a // b, P) + 1 steps; it is still long when
    both a // b and P are huge, for example a ~ 10^15 with b = 1 and c
    near a / 2.
    """
    top = a // b if b else 0
    if c == 0:
        return top, top + 1
    return 0, min(top, c // gcd(b, c)) + 1


def _coefficients(a: int, b: int, c: int, strategy: str) -> tuple:
    if b == 0 and c == 0:
        raise StuckError("both subtrahends are zero")
    if strategy == "max-b":
        if b:
            return a // b, 0
        return 0, a // c
    if strategy == "max-c":
        if c:
            return 0, a // c
        return a // b, 0
    if strategy == "b-then-c":
        alpha = a // b if b else 0
        rem = a - alpha * b
        beta = rem // c if c else 0
        return alpha, beta
    if strategy == "min-remainder":
        best = None
        for alpha in range(*_min_remainder_alphas(a, b, c)):
            rem = a - alpha * b
            beta = rem // c if c else 0
            leftover = rem - beta * c
            if (alpha, beta) == (0, 0):
                continue
            if best is None or leftover < best[0]:
                best = (leftover, alpha, beta)
        if best is None:
            raise StuckError("no admissible coefficients")
        return best[1], best[2]
    raise ValueError(f"unknown strategy {strategy!r}")


def subtract_step(t, strategy: str):
    """One normalized step: returns ((b, c, remainder), (alpha, beta), k)."""
    k, (a, b, c) = _normalize(tuple(int(x) for x in t))
    alpha, beta = _coefficients(a, b, c, strategy)
    return (b, c, a - alpha * b - beta * c), (alpha, beta), k


class MCFTrace(Record):
    """Record of a full run: start, per-step data, and the final triple."""

    __slots__ = ("start", "strategy", "steps", "final")

    def __init__(self, start: tuple, strategy: str, steps: tuple, final: tuple):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "steps", steps)  # ((alpha, beta), rotations) per step
        object.__setattr__(self, "final", final)

    @property
    def terminal(self) -> int:
        return max(self.final)

    def euclid_cf(self) -> list:
        """Quotients of the steps taken with a zero coordinate present.

        When the run degenerates to two nonzero entries these are the
        continued-fraction quotients of their ratio.
        """
        out = []
        zero_phase = False
        state = self.start
        for (alpha, beta), k in self.steps:
            _, (a, b, c) = _normalize(state)
            if 0 in (b, c) or zero_phase:
                zero_phase = True
                out.append(alpha if b else beta)
            state = (b, c, a - alpha * b - beta * c)
        return out


def run_mcf(t, strategy: str) -> MCFTrace:
    """Iterate subtract_step until at most one coordinate is nonzero.

    A min-remainder step scans at most min(a // b, c / gcd(b, c)) + 1
    choices of alpha (see _min_remainder_alphas).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    start = tuple(int(x) for x in t)
    if any(x < 0 for x in start) or all(x == 0 for x in start):
        raise ValueError("triple must be nonnegative and nonzero")
    state = start
    steps = []
    while sum(1 for x in state if x) > 1:
        state, (alpha, beta), k = subtract_step(state, strategy)
        steps.append(((alpha, beta), k))
    return MCFTrace(start, strategy, tuple(steps), state)


def _step_matrix_inv(alpha: int, beta: int) -> IntMatrix:
    return IntMatrix([[alpha, beta, 1], [1, 0, 0], [0, 1, 0]])


def reconstruct(trace: MCFTrace) -> IntMatrix:
    """Matrix carrying the final triple back to the start.

    The forward run computes v_{i+1} = L(alpha_i, beta_i) R^{k_i} v_i,
    so the inverse product (R^{-k_i} L_i^{-1}, composed in step order)
    applied to the final triple reproduces the start.
    """
    out = IntMatrix.identity(3)
    for (alpha, beta), k in trace.steps:
        if alpha < 0 or beta < 0 or k not in (0, 1, 2):
            raise InvalidTraceError("malformed step record")
        out = out * (ROTATE_INV ** k) * _step_matrix_inv(alpha, beta)
    return out
