"""Independent reference arithmetic for the benchmark's correctness checks.

Nothing here imports markovnum: every check that uses these helpers
recomputes its answer by a path that shares no code with the library
call being timed.  Matrices are 2x2 tuples of rows.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt


class Mismatch(Exception):
    """A library result disagrees with the benchmark's oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def mul2(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def product(mats):
    out = ((1, 0), (0, 1))
    for m in mats:
        out = mul2(out, m)
    return out


def companion2(a):
    return ((0, 1), (1, a))


def det_fraction(rows) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return int(det)


def matching_counts(n: int, weights: dict) -> list:
    """mu_1..mu_n of a weight system by the column recurrence.

    mu_k = sum over i <= k of w(i, k) * mu_{i-1}, with mu_0 = 1: a
    matching either covers column k by its subdiagonal edge or by a
    weighted edge from row i, which forces rows i..k-1 onto the
    subdiagonal.
    """
    by_col = [[] for _ in range(n + 1)]
    for (i, j), w in weights.items():
        by_col[j].append((i, w))
    mu = [1]
    for k in range(1, n + 1):
        mu.append(sum(w * mu[i - 1] for i, w in by_col[k]))
    return mu[1:]


def christoffel_word(p: int, q: int) -> str:
    if (p, q) == (0, 1):
        return "A"
    return "".join("A" if (p * i) // q == (p * (i - 1)) // q else "B" for i in range(1, q + 1))


MARKOV_LETTERS = {"A": ((1, 1), (1, 2)), "B": ((3, 2), (4, 3))}


def markov_at(p: int, q: int) -> int:
    """Markov number at p/q from the Christoffel-word matrix product."""
    if (p, q) == (0, 1):
        return 1
    if (p, q) == (1, 1):
        return 2
    return product(MARKOV_LETTERS[c] for c in christoffel_word(p, q))[0][1]


def is_markov_triple(t) -> bool:
    x, y, z = t
    return min(t) > 0 and x * x + y * y + z * z == 3 * x * y * z


def mediant_family(g0, g1, depth: int) -> list:
    """(coordinate, |upper-right|) over the mediant tree, forward order.

    Each node's element is the product of its left and right parents'
    elements, built incrementally; the result is sorted by (depth,
    coordinate) like the library's breadth-first listing.
    """
    nodes = [(0, Fraction(0), g0), (0, Fraction(1), g1)]
    frontier = [(nodes[0], nodes[1])]
    for level in range(1, depth + 1):
        nxt = []
        for lo, hi in frontier:
            c = Fraction(lo[1].numerator + hi[1].numerator, lo[1].denominator + hi[1].denominator)
            mid = (level, c, mul2(lo[2], hi[2]))
            nodes.append(mid)
            nxt += [(lo, mid), (mid, hi)]
        frontier = nxt
    nodes.sort(key=lambda t: (t[0], t[1]))
    return [(c, abs(g[0][1])) for _, c, g in nodes]


def inverse_unimodular2(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("not unimodular")
    return ((d * det, -b * det), (-c * det, a * det))


def aa_bb_pair(a: int, b: int):
    m1a, m1b = companion2(a), companion2(b)
    conj = mul2(mul2(m1a, m1b), inverse_unimodular2(m1a))
    return mul2(m1a, m1a), mul2(conj, conj)


def trace_discriminant(period) -> int:
    """(tr M)^2 - 4 det M for M the companion product over the period.

    M = [[p1, p], [q1, q]] from the continuant recurrences, so the value
    is (p - q1)^2 + 4 p1 q; the perron-spectrum generator calls this in
    its inner loop, hence no matrix objects.
    """
    p, p1, q, q1 = 1, 0, 0, 1
    for a in period:
        p, p1, q, q1 = a * p + p1, p, a * q + q1, q
    return (p - q1) ** 2 + 4 * p1 * q


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def cf_value(coeffs) -> Fraction:
    """[a1; a2 : ... : an] by backward evaluation."""
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a + 1 / value
    return value


def perron_decimal(period, digits: int = 60) -> Decimal:
    """max_i (a_i + [0; a_{i+1}, ...] + [0; a_{i-1}, ...]) in decimal."""
    n = len(period)
    with localcontext() as ctx:
        ctx.prec = digits

        def tail(seq):
            # purely periodic [0; seq repeated]: x = [seq; x] gives a quadratic
            p, p1, q, q1 = 1, 0, 0, 1
            for a in seq:
                p, p1 = a * p + p1, p
                q, q1 = a * q + q1, q
            disc = Decimal((q1 - p) ** 2 + 4 * q * p1)
            x = (Decimal(p - q1) + disc.sqrt()) / (2 * q)
            return 1 / x

        best = None
        for i in range(n):
            fwd = [period[(i + 1 + k) % n] for k in range(n)]
            bwd = [period[(i - 1 - k) % n] for k in range(n)]
            value = period[i] + tail(fwd) + tail(bwd)
            best = value if best is None or value > best else best
        return +best


def coprime(*xs) -> bool:
    return all(gcd(a, b) == 1 for i, a in enumerate(xs) for b in xs[i + 1:])
