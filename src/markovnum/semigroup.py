"""Matrix semigroups indexed by mediant trees, homogeneous determinant
forms, algebraic and geometric Markov numbers, and exact periodic-tail
minima.

Words store generator indices with the most recently applied generator
first, so the corresponding matrix product reads left to right.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .errors import (
    DimensionMismatchError,
    EmptyPeriodError,
    NotReducedError,
)
from .classicmarkov import _mediant_tree, mediant
from .exactcore import IntMatrix, QuadraticSurd, Record, det_exact, matrix_product
from .contfrac import PLLS, companion2, plls_decompose


class FareyNode2(Record):
    """A 2-generator node: fraction coordinate, word, matrix, depth."""

    __slots__ = ("coordinate", "word", "element", "depth")

    def __init__(self, coordinate: Fraction, word: tuple, element: IntMatrix, depth: int):
        object.__setattr__(self, "coordinate", coordinate)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "depth", depth)


def farey_set_2(a: IntMatrix, b: IntMatrix, depth: int, order: str = "reversed"):
    """All mediant-tree nodes to the given depth for generators a, b.

    The element at a mediant r + s is F(s)F(r) by default ("reversed");
    pass order="forward" for F(r)F(s).  Nodes come back sorted by
    (depth, coordinate).
    """
    if a.n != b.n:
        raise DimensionMismatchError("generators must share a dimension")
    if order not in ("reversed", "forward"):
        raise ValueError("order must be 'reversed' or 'forward'")
    gens = (a, b)
    identity = IntMatrix.identity(a.n)

    def combine(x, y, _):
        # (coordinate, word) of the mediant of x and y, x on the left
        word = y[1] + x[1] if order == "reversed" else x[1] + y[1]
        return (mediant(x[0], y[0]), word)

    def node(triple, level):
        coordinate, word = triple[1]
        element = matrix_product(identity, (gens[i] for i in word))
        return FareyNode2(coordinate, word, element, level + 1)

    left, right = (Fraction(0, 1), (0,)), (Fraction(1, 1), (1,))
    nodes = [FareyNode2(*left, a, 0), FareyNode2(*right, b, 0)]
    if depth:
        # the builder's root is the first mediant, one level down
        root = (left, combine(left, right, None), right)
        nodes += _mediant_tree(root, combine, depth - 1, node)
    return sorted(nodes, key=lambda n: (n.depth, n.coordinate))


class FareyNode3(Record):
    """A 3-generator node: projective coordinate, word, matrix, scheme."""

    __slots__ = ("coordinate", "word", "element", "scheme", "depth")

    def __init__(
        self, coordinate: tuple, word: tuple, element: IntMatrix, scheme: str, depth: int
    ):
        object.__setattr__(self, "coordinate", coordinate)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "depth", depth)


def _letter_counts(word, n_gens: int = 3) -> tuple:
    counts = [word.count(i) for i in range(n_gens)]
    g = gcd(*counts) or 1
    return tuple(c // g for c in counts)


def farey_set_3(a, b, c, scheme: str, depth: int, order: str = "reversed"):
    """Triangle-subdivision enumeration for three generators.

    scheme is one of "pairwise" (4 child triangles on pair sums),
    "simultaneous" (3 triangles sharing the triple sum), or
    "barycentric" (6 triangles on pair sums plus the triple sum).
    Vertex sums combine words reversed by default (the matrix of u + v
    is F(v)F(u)); order="forward" flips that.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    scheme = scheme.lower()
    if scheme not in ("pairwise", "simultaneous", "barycentric"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if order not in ("reversed", "forward"):
        raise ValueError("order must be 'reversed' or 'forward'")
    gens = (a, b, c)

    def vertex_sum(*words):
        return sum(words if order == "forward" else reversed(words), ())

    def subdivide(tri):
        u, v, w = tri
        if scheme == "pairwise":
            uv, uw, vw = vertex_sum(u, v), vertex_sum(u, w), vertex_sum(v, w)
            return [(u, uv, uw), (v, uv, vw), (w, uw, vw), (uv, uw, vw)]
        if scheme == "simultaneous":
            s = vertex_sum(u, v, w)
            return [(u, v, s), (u, w, s), (v, w, s)]
        uv, uw, vw = vertex_sum(u, v), vertex_sum(u, w), vertex_sum(v, w)
        s = vertex_sum(u, v, w)
        return [
            (u, uv, s),
            (uv, v, s),
            (v, vw, s),
            (vw, w, s),
            (w, uw, s),
            (uw, u, s),
        ]

    triangles = [((0,), (1,), (2,))]
    seen = {(0,): 0, (1,): 0, (2,): 0}
    for level in range(1, depth + 1):
        next_triangles = []
        for tri in triangles:
            for child in subdivide(tri):
                next_triangles.append(child)
                for word in child:
                    seen.setdefault(word, level)
        triangles = next_triangles
    identity = IntMatrix.identity(a.n)
    nodes = [
        FareyNode3(
            _letter_counts(word),
            word,
            matrix_product(identity, (gens[i] for i in word)),
            scheme,
            lvl,
        )
        for word, lvl in seen.items()
    ]
    return sorted(nodes, key=lambda n: (n.depth, n.word))


# --- Homogeneous determinant forms ---------------------------------------


class MDForm(Record):
    """Degree-n form in n variables, as exponent-vector -> coefficient."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)  # sorted ((exponents, coefficient), ...)

    def coefficient(self, exponents) -> int:
        return dict(self.coeffs).get(tuple(exponents), 0)

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def negated(self) -> "MDForm":
        return MDForm(self.n, tuple((e, -c) for e, c in self.coeffs))


def _poly_mul(p: dict, q: dict, n: int) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def md_form(a: IntMatrix) -> MDForm:
    """Symbolic expansion of v -> det(v, Av, ..., A^{n-1}v)."""
    n = a.n
    powers = [IntMatrix.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * a)
    # column j, row i: linear polynomial sum_k (A^j)_{i,k} x_k
    def unit(k):
        return tuple(1 if t == k else 0 for t in range(n))

    entries = [
        [
            {unit(k): powers[j][i, k] for k in range(n) if powers[j][i, k]}
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = {}
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = {tuple([0] * n): sign}
        for i in range(n):
            prod = _poly_mul(prod, entries[i][perm[i]], n)
            if not prod:
                break
        for e, c in prod.items():
            total[e] = total.get(e, 0) + c
    coeffs = tuple(sorted((e, c) for e, c in total.items() if c))
    return MDForm(n, coeffs)


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def md_form_eval(a: IntMatrix, v) -> int:
    """Exact value det(v, Av, ..., A^{n-1}v)."""
    v = tuple(int(x) for x in v)
    if len(v) != a.n:
        raise DimensionMismatchError("vector length must match the matrix")
    cols = [v]
    for _ in range(a.n - 1):
        cols.append(a.apply(cols[-1]))
    return det_exact(IntMatrix(list(zip(*cols))))


def algebraic_markov(a: IntMatrix) -> int:
    """|f_A(0, ..., 0, 1)|; the upper-right entry for 2x2 matrices."""
    e_last = tuple(0 if i < a.n - 1 else 1 for i in range(a.n))
    return abs(md_form_eval(a, e_last))


def geometric_markov_search(a: IntMatrix, radius: int) -> int:
    """min |f_A(p)| over nonzero integer p with sup-norm <= radius.

    An upper bound on the true infimum (a box search, not a proof).
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if a.n == 2:
        # closed form c x^2 + (d - a) x y - b y^2 keeps the scan cheap
        ca, cb = a[1, 0], a[1, 1] - a[0, 0]
        cc = -a[0, 1]
        best = None
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if x == 0 and y == 0:
                    continue
                val = abs(ca * x * x + cb * x * y + cc * y * y)
                if best is None or val < best:
                    best = val
                    if best == 0:
                        return 0
        return best
    best = None
    for p in itertools.product(range(-radius, radius + 1), repeat=a.n):
        if all(x == 0 for x in p):
            continue
        val = abs(md_form_eval(a, p))
        if best is None or val < best:
            best = val
            if best == 0:
                break
    return best


# --- Exact periodic-tail minima -------------------------------------------


def _periodic_tail(period) -> QuadraticSurd:
    """Exact value of [0; period repeated forever] as a quadratic surd."""
    p, p1, q, q1 = 1, 0, 0, 1
    for a in period:
        p, p1 = a * p + p1, p
        q, q1 = a * q + q1, q
    # x = [period; x] solves q x^2 + (q1 - p) x - p1 = 0; take the root > 1
    disc = (q1 - p) ** 2 + 4 * q * p1
    x = QuadraticSurd(Fraction(p - q1, 2 * q), Fraction(1, 2 * q), disc)
    return x.invert()


def perron_minimum(plls: PLLS) -> QuadraticSurd:
    """Exact sqrt(discriminant)/m as a maximum of periodic tail sums."""
    period = tuple(plls)
    if not period:
        raise EmptyPeriodError("period must be nonempty")
    n = len(period)
    best = None
    for i in range(n):
        fwd = tuple(period[(i + 1 + k) % n] for k in range(n))
        bwd = tuple(period[(i - 1 - k) % n] for k in range(n))
        value = (
            QuadraticSurd.from_rational(period[i])
            + _periodic_tail(fwd)
            + _periodic_tail(bwd)
        )
        if best is None or best < value:
            best = value
    return best


def is_markov_reduced(m: IntMatrix) -> bool:
    """True iff the periodic-tail maximum is attained at the window start.

    Checks (perron_minimum(PLLS(m)) * b)^2 == (a - d)^2 + 4 b c exactly.
    """
    if m.n != 2:
        raise DimensionMismatchError("defined for 2x2 matrices")
    try:
        plls = plls_decompose(m)
    except NotReducedError:
        return False
    value = perron_minimum(plls).scale(algebraic_markov(m)).square()
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    delta = (a - d) ** 2 + 4 * b * c
    return value.is_rational() and value.a == delta


# --- Named families --------------------------------------------------------


def _m1a(x: int) -> IntMatrix:
    return IntMatrix([[0, 1], [1, x]])


def aa_bb_generators(a: int, b: int) -> tuple:
    """The generator pair (M1, M2) of the two-parameter family."""
    m1 = _m1a(a) * _m1a(a)
    conj = _m1a(a) * _m1a(b) * _m1a(a).inverse_unimodular()
    return (m1, conj * conj)


def aa_bb_family(a: int, b: int, depth: int) -> list:
    """(coordinate, Markov number) pairs in breadth-first mediant order."""
    if not 1 <= a < b:
        raise ValueError("parameters must satisfy 1 <= a < b")
    m1, m2 = aa_bb_generators(a, b)
    nodes = farey_set_2(m1, m2, depth, order="forward")
    return [(n.coordinate, algebraic_markov(n.element)) for n in nodes]


def markov_from_plls(seq) -> int:
    """Markov number encoded by a period given in PLLS (reversed) order.

    Equals the upper-right entry of the companion product over the
    reversed sequence; since each factor [[0,1],[1,a]] is symmetric,
    that is the lower-left entry of the product over the sequence as
    given.
    """
    factors = (companion2(int(x)) for x in seq)
    return matrix_product(IntMatrix.identity(2), factors)[1, 0]
