"""Continued fractions, companion matrices, continuants, and reduced
2x2 matrices.

A generalized continued fraction is stored as a list of (a_i, b_i)
pairs; regular continued fractions have all b_i = 1.  The value of
[a_1; a_2 : ... : a_n] is obtained from a product of companion-style
2x2 matrices, and independently as a ratio of continuant determinants.

The n-dimensional companion matrix M_{a_1,...,a_n} advances the window
(x_{k-n+1}, ..., x_k) of the recurrence x_{k+1} = sum_i a_i x_{k-i+1}.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    ArityMismatchError,
    DimensionMismatchError,
    NotReducedError,
    ZeroDenominatorError,
)
from .exactcore import IntMatrix, Record, det_exact, matrix_product


class ContinuedFraction(Record):
    """Terms (a_i, b_i); regular continued fractions have b_i = 1."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        terms = tuple((int(a), int(b)) for a, b in terms)
        if not terms:
            raise ValueError("continued fraction needs at least one term")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def regular(cls, coeffs) -> "ContinuedFraction":
        return cls(tuple((int(a), 1) for a in coeffs))

    @classmethod
    def parse(cls, text: str) -> "ContinuedFraction":
        """Parse the text form "[a1; a2 : a3 : ...]" (regular terms)."""
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed continued fraction: {text!r}")
        body = body[1:-1]
        if ";" in body:
            head, _, rest = body.partition(";")
            parts = [head] + [p for p in rest.split(":") if p.strip()]
        else:
            parts = [body]
        return cls.regular(int(p.strip()) for p in parts)

    def format(self) -> str:
        if any(b != 1 for _, b in self.terms):
            raise ValueError("text form only defined for regular terms")
        coeffs = [a for a, _ in self.terms]
        if len(coeffs) == 1:
            return f"[{coeffs[0]}]"
        return f"[{coeffs[0]}; " + " : ".join(str(a) for a in coeffs[1:]) + "]"


class CompanionSpec(Record):
    """Recurrence coefficients (a_1, ..., a_n)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        coeffs = tuple(int(a) for a in coeffs)
        if not coeffs:
            raise ValueError("companion spec needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def arity(self) -> int:
        return len(self.coeffs)


class PLLS(Record):
    """Period of companion coefficients of a reduced matrix (reversed)."""

    __slots__ = ("period",)

    def __init__(self, period: tuple):
        period = tuple(int(a) for a in period)
        if not period or any(a < 1 for a in period):
            raise ValueError("period must be nonempty with positive entries")
        object.__setattr__(self, "period", period)

    def __len__(self):
        return len(self.period)

    def __iter__(self):
        return iter(self.period)


def companion(spec: CompanionSpec) -> IntMatrix:
    """The n x n matrix appending x_{k+1} = sum_i a_i x_{k-i+1}.

    Shifted-identity rows on top; bottom row is (a_n, ..., a_1).
    """
    n = spec.arity
    rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
    rows.append(list(reversed(spec.coeffs)))
    return IntMatrix(rows)


def companion2(a: int, b: int = 1) -> IntMatrix:
    """The 2x2 companion [[0,1],[b,a]] for x_{k+1} = a x_k + b x_{k-1}."""
    return IntMatrix([[0, 1], [b, a]])


def cf_eval_pq(cf: ContinuedFraction) -> tuple:
    """(p, q) with p/q = value of the continued fraction.

    Computed from the matrix product over the terms, seeded with the
    structural term (0, 1) and applied to the vector (0, 1).
    """
    seed = IntMatrix([[0, 1], [1, 0]])
    terms = (IntMatrix([[0, b], [1, a]]) for a, b in cf.terms)
    return matrix_product(seed, terms).apply((0, 1))


def cf_eval(cf: ContinuedFraction) -> Fraction:
    """Exact rational value of the continued fraction."""
    p, q = cf_eval_pq(cf)
    if q == 0:
        raise ZeroDenominatorError("continued fraction has zero denominator")
    return Fraction(p, q)


def continuant_display(terms) -> IntMatrix:
    """Tridiagonal continuant matrix for terms (a_1,b_1),...,(a_n,b_n).

    Size (n+1): top row (0, b_1, 0, ...), diagonal a_i below it,
    superdiagonal b_{i+1}, subdiagonal -1.
    """
    terms = list(terms)
    n = len(terms)
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    rows[0][1] = terms[0][1]
    for i in range(1, n + 1):
        rows[i][i] = terms[i - 1][0]
        rows[i][i - 1] = -1
        if i < n:
            rows[i][i + 1] = terms[i][1]
    return IntMatrix(rows)


def continuant_pq(cf: ContinuedFraction) -> tuple:
    """(p, q) as determinants of continuant matrices."""
    p = det_exact(continuant_display([(0, 1)] + list(cf.terms)))
    q = det_exact(continuant_display(cf.terms))
    return (p, q)


def is_reduced_2(m: IntMatrix) -> bool:
    """Sufficient positivity criterion d > c >= a > 0 for 2x2 matrices."""
    if m.n != 2:
        raise DimensionMismatchError("criterion defined for 2x2 matrices")
    a, c, d = m[0, 0], m[1, 0], m[1, 1]
    return d > c >= a > 0


def _euclid_cf(p: int, q: int) -> list:
    """Quotients of the Euclidean algorithm for p/q (q > 0)."""
    out = []
    while q:
        out.append(p // q)
        p, q = q, p % q
    return out


def reduced_decomposition(m: IntMatrix) -> tuple:
    """Forward coefficients (a_1,...,a_n) with m = prod of [[0,1],[1,a_i]].

    The parity of n matches det(m): even for +1, odd for -1.  Raises
    NotReducedError when no such positive decomposition exists; the
    result is always verified by multiplying back.
    """
    if m.n != 2:
        raise DimensionMismatchError("decomposition defined for 2x2 matrices")
    b, d = m[0, 1], m[1, 1]
    det = det_exact(m)
    if det not in (1, -1) or b <= 0 or d <= 0:
        raise NotReducedError("matrix admits no companion decomposition")
    seq = _euclid_cf(d, b)
    want_even = det == 1
    if (len(seq) % 2 == 0) != want_even:
        if seq[-1] >= 2:
            seq = seq[:-1] + [seq[-1] - 1, 1]
        elif len(seq) >= 2 and seq[-1] == 1:
            seq = seq[:-2] + [seq[-2] + 1]
        else:
            raise NotReducedError("no decomposition with the required parity")
    if any(a < 1 for a in seq):
        raise NotReducedError("decomposition requires positive coefficients")
    if matrix_product(IntMatrix.identity(2), map(companion2, seq)) != m:
        raise NotReducedError("reconstruction does not reproduce the matrix")
    return tuple(seq)


def plls_decompose(m: IntMatrix) -> PLLS:
    """Reversed decomposition coefficients of a reduced 2x2 matrix."""
    return PLLS(tuple(reversed(reduced_decomposition(m))))


class RecurrenceSystem(Record):
    """Ordered companion specs; the rightmost spec is applied first."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple):
        steps = tuple(steps)
        if not steps:
            raise ValueError("recurrence system needs at least one spec")
        k = steps[0].arity
        if any(s.arity != k for s in steps):
            raise ArityMismatchError("all specs must share one arity")
        object.__setattr__(self, "steps", steps)

    @property
    def arity(self) -> int:
        return self.steps[0].arity

    def windows(self, window) -> list:
        """All windows visited, starting from the given one."""
        window = tuple(int(x) for x in window)
        if len(window) != self.arity:
            raise ArityMismatchError("window length must equal the arity")
        out = [window]
        for spec in reversed(self.steps):
            new = sum(
                a * window[-i] for i, a in enumerate(spec.coeffs, start=1)
            )
            window = window[1:] + (new,)
            out.append(window)
        return out

    def apply(self, window) -> tuple:
        return self.windows(window)[-1]

    def matrix(self) -> IntMatrix:
        """The product of the companion matrices (rightmost applied first)."""
        return matrix_product(
            IntMatrix.identity(self.arity), map(companion, self.steps)
        )


def recurrence_system(ms) -> RecurrenceSystem:
    return RecurrenceSystem(tuple(ms))
