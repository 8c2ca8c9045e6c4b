"""Exact arithmetic kernels: integer matrices, determinants, permanents,
perfect-matching counts and quadratic surds.

Everything here is exact.  Integers are plain Python ints (arbitrary
precision), rationals are ``fractions.Fraction``, and quadratic
irrationals are :class:`QuadraticSurd` values ``a + b*sqrt(d)`` with a
square-free radicand.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .errors import DimensionMismatchError, MixedRadicandError, TooLargeError

_PERMANENT_LIMIT = 22
_MATCHING_ROW_LIMIT = 256


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (f, r) with d = f*f*r and r square-free."""
    if d < 0:
        raise ValueError("negative radicand")
    f, r, k = 1, d, 2
    while k * k <= r:
        while r % (k * k) == 0:
            r //= k * k
            f *= k
        k += 1
    return f, r


class Record:
    """Base of the immutable value types.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``.  Records compare and hash
    by their fields, and only with records of the same class; the repr
    reads ``Name(field=value, ...)``; assignment raises AttributeError;
    pickling and copying rebuild the record through its constructor.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class QuadraticSurd(Record):
    """Exact value a + b*sqrt(d) with rational a, b and square-free d >= 0.

    Canonical form: b == 0 implies d == 0, and d is square-free.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        a = Fraction(a)
        b = Fraction(b)
        f, r = _squarefree_split(d)
        b *= f
        if b == 0 or r in (0, 1):
            a, b, r = a + (b if r == 1 else 0), Fraction(0), 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", r)

    @classmethod
    def from_rational(cls, x) -> "QuadraticSurd":
        return cls(Fraction(x), Fraction(0), 0)

    @classmethod
    def sqrt(cls, n: int) -> "QuadraticSurd":
        return cls(Fraction(0), Fraction(1), n)

    def is_rational(self) -> bool:
        return self.b == 0

    def _check_compatible(self, other: "QuadraticSurd") -> int:
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise MixedRadicandError(f"radicands {self.d} and {other.d} differ")
        return self.d if self.b != 0 else other.d

    def __add__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        d = self._check_compatible(other)
        return QuadraticSurd(self.a + other.a, self.b + other.b, d)

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd(-self.a, -self.b, self.d)

    def __sub__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        return self + (-other)

    def __mul__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        d = self._check_compatible(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return QuadraticSurd(a, b, d)

    def scale(self, r) -> "QuadraticSurd":
        r = Fraction(r)
        return QuadraticSurd(self.a * r, self.b * r, self.d)

    def invert(self) -> "QuadraticSurd":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("cannot invert zero surd")
            # a^2 = b^2 d with d square-free and b != 0 forces d = 1,
            # which canonical form excludes, so norm == 0 means value 0
            # is impossible here; keep the guard for safety.
            raise ZeroDivisionError("degenerate surd")
        return QuadraticSurd(self.a / norm, -self.b / norm, self.d)

    def sign(self) -> int:
        """Exact sign, decided with rational arithmetic only."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return (self.b > 0) - (self.b < 0)
        # compare a and -b*sqrt(d): square both sides, minding signs
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        if self.a > 0:  # b < 0: positive iff a^2 > b^2 d
            return 1 if lhs > rhs else -1 if lhs < rhs else 0
        return 1 if lhs < rhs else -1 if lhs > rhs else 0

    def compare(self, other: "QuadraticSurd") -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def square(self) -> "QuadraticSurd":
        return self * self

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a} + {self.b}*sqrt({self.d})"


class IntMatrix:
    """Immutable dense square matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionMismatchError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.rows))})"

    def __reduce__(self):
        return IntMatrix, (self.rows,)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise DimensionMismatchError("matrix sizes differ")
        n = self.n
        ot = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.rows
            )
        )

    def apply(self, vec) -> tuple:
        if len(vec) != self.n:
            raise DimensionMismatchError("vector length differs from matrix size")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def __pow__(self, k: int) -> "IntMatrix":
        if k < 0:
            raise ValueError("negative powers not supported")
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def det(self) -> int:
        return det_exact(self)

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse for matrices with determinant +-1 (adjugate method)."""
        n = self.n
        d = self.det()
        if d not in (1, -1):
            raise ValueError("matrix is not unimodular")
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = [
                    [self.rows[r][c] for c in range(n) if c != j]
                    for r in range(n)
                    if r != i
                ]
                m = _bareiss([r[:] for r in minor]) if minor else 1
                row.append((-1) ** (i + j) * m)
            cof.append(row)
        adj = tuple(zip(*cof))
        return IntMatrix(tuple(tuple(x * d for x in row) for row in adj))


def matrix_product(start: IntMatrix, factors) -> IntMatrix:
    """start * f_1 * f_2 * ..., multiplied left to right, one product
    per factor."""
    for factor in factors:
        start = start * factor
    return start


def _bareiss(m: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination; mutates its argument.

    Step k turns a row i below the pivot into
    ``(row_i * p_k - m[i][k] * pivot_row) / p_{k-1}``.  When m[i][k] is
    zero that is only the scaling ``p_k / p_{k-1}``, and a run of such
    steps telescopes to ``p_k / p_{L-1}``.  So a row is left untouched
    until it is next needed (as a pivot row, with a nonzero multiplier,
    or as the final entry), and ``level[i]`` records the number of
    elimination steps its stored entries reflect.  Zero tests read the
    stored entries directly: pivots are nonzero, so scaling never
    changes which entries vanish.  Every division is exact because the
    result is a minor of the input.
    """
    n = len(m)
    # below four rows the expansion is cheaper than any bookkeeping
    if n == 1:
        return m[0][0]
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    sign = 1
    pivots = [1]  # pivots[k] is p_{k-1}, the divisor of step k
    level = [0] * n
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    level[k], level[i] = level[i], level[k]
                    sign = -sign
                    break
            else:
                return 0
        row = m[k]
        prev = pivots[k]
        if level[k] != k:
            stale = pivots[level[k]]
            row[k:] = [x * prev // stale for x in row[k:]]
        p = row[k]
        tail = row[k + 1 :]
        for i in range(k + 1, n):
            other = m[i]
            a = other[k]
            if a:
                # catch-up scaling and elimination fused into one division;
                # a row touched for the first time divides by 1, so skip it
                d = pivots[level[i]]
                pairs = zip(other[k + 1 :], tail)
                if d == 1:
                    other[k + 1 :] = [x * p - a * y for x, y in pairs]
                else:
                    other[k + 1 :] = [(x * p - a * y) // d for x, y in pairs]
                level[i] = k + 1
        pivots.append(p)
    last = m[n - 1][n - 1]
    if level[n - 1] != n - 1:
        last = last * pivots[n - 1] // pivots[level[n - 1]]
    return sign * last


def det_exact(matrix: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    return _bareiss([list(row) for row in matrix.rows])


def permanent(matrix: IntMatrix) -> int:
    """Exact permanent via Ryser's inclusion-exclusion formula,

        per(A) = sum over column sets S of (-1)^(n-|S|) prod_i sum_{j in S} a_ij,

    enumerated depth-first.  Columns are decided one at a time, those
    reaching lowest in the matrix first (the last column first for a
    wug-snake biadjacency).  Row sums are kept incrementally, and a row's
    sum joins the running product as soon as all of its nonzero columns
    are decided; a subtree whose product is zero contributes nothing and
    is skipped.

    Limited to n <= 22 (a few seconds on a dense matrix; each further
    size roughly doubles the time); raises TooLargeError beyond that.
    """
    n = matrix.n
    if n > _PERMANENT_LIMIT:
        raise TooLargeError(f"permanent limited to n <= {_PERMANENT_LIMIT}")
    rows = matrix.rows
    lowest = [max((i for i in range(n) if rows[i][j]), default=-1) for j in range(n)]
    order = sorted(range(n), key=lambda j: (lowest[j], j), reverse=True)
    entries = [[(i, rows[i][j]) for i in range(n) if rows[i][j]] for j in order]
    finished = [[] for _ in range(n)]  # rows whose sums are final at each depth
    for i in range(n):
        depths = [t for t, j in enumerate(order) if rows[i][j]]
        if not depths:
            return 0  # a zero row makes every term of the formula vanish
        finished[depths[-1]].append(i)
    sums = [0] * n
    last = n - 1

    def walk(t: int, prod: int) -> int:
        # prod carries the sign (-1)^(n-|S|) of the columns taken so far
        done = finished[t]
        out = prod
        for i in done:
            out *= sums[i]
        total = 0
        if out:
            total = out if t == last else walk(t + 1, out)
        col = entries[t]
        for i, a in col:
            sums[i] += a
        out = -prod
        for i in done:
            out *= sums[i]
        if out:
            total += out if t == last else walk(t + 1, out)
        for i, a in col:
            sums[i] -= a
        return total

    return walk(0, -1 if n % 2 else 1)


def count_perfect_matchings(adjacency, columns: int) -> int:
    """Perfect matchings of a bipartite graph, counted row by row.

    ``adjacency`` yields, row by row, the list of ``(column,
    multiplicity)`` edges of that row, columns numbered from 0 below
    ``columns``; a multiplicity counts parallel edges.  Each level maps
    a set of used columns to the number of partial matchings of the
    rows so far that use exactly those columns, so partial matchings
    leaving the same columns free are counted once (the transfer-matrix
    method).  A column below the lowest one any later row reaches must
    already be used: a state leaving it free is dropped, and the rest
    are stored relative to that floor.  On a banded graph each level
    then holds few states.

    Limited to 256 rows; raises TooLargeError beyond that, having read
    at most one row more.
    """
    adjacency = list(islice(adjacency, _MATCHING_ROW_LIMIT + 1))
    n = len(adjacency)
    if n > _MATCHING_ROW_LIMIT:
        raise TooLargeError(f"matching count limited to {_MATCHING_ROW_LIMIT} rows")
    # floor[i]: the base of the states before row i; every column below it
    # is used.  After the last row that is every column.
    floor = [columns] * (n + 1)
    for i in range(n - 1, 0, -1):
        floor[i] = min([floor[i + 1]] + [j for j, _ in adjacency[i]])
    floor[0] = 0
    level = {0: 1}
    for i, row in enumerate(adjacency):
        base, shift = floor[i], floor[i + 1] - floor[i]
        forced = (1 << shift) - 1
        nxt = {}
        for used, count in level.items():
            for j, mult in row:
                bit = 1 << (j - base)
                if used & bit:
                    continue
                state = used | bit
                if state & forced == forced:
                    state >>= shift
                    nxt[state] = nxt.get(state, 0) + count * mult
        if not nxt:
            return 0
        level = nxt
    return level.get(0, 0)


def permanent_bruteforce(matrix: IntMatrix) -> int:
    """Permanent by summing over all permutations.  Oracle for small n."""
    from itertools import permutations

    n = matrix.n
    if n > 8:
        raise TooLargeError("brute-force permanent limited to n <= 8")
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= matrix.rows[i][perm[i]]
            if prod == 0:
                break
        total += prod
    return total
