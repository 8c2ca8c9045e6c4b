"""Classical pipeline: Markov triples and their tree, the Farey tree of
mediants, Christoffel words, domino snake geometry, shift-operator
matching counts, Cohn matrices, the Fricke trace identity, and the
quadratic form attached to a Markov triple.

One mediant engine drives the trees and the descents: a breadth-first
builder and a Stern-Brocot walk, each given a root triple and a rule.
The Markov tree is the Vieta jump 3xy - z from (1, 5, 2), the Farey
tree the mediant, the Cohn tree the matrix product and the Cohn word
the concatenation.  The builder is budgeted by MAX_TREE_DEPTH: a tree
doubles its nodes with each level and its entries grow with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    NoResidueError,
    NotCoprimeError,
    NotUnimodularError,
    TooLargeError,
)
from .exactcore import IntMatrix, Record, count_perfect_matchings, det_exact, matrix_product

MAX_TREE_DEPTH = 16
"""Deepest level below its root that the mediant tree builder reaches."""

# Root generators of the mediant recursion on words and matrices.
MARKOV_ROOT = (1, 5, 2)
WORD_A = "A"
WORD_B = "B"
LETTER_MATRIX = {
    "A": IntMatrix([[1, 1], [1, 2]]),
    "B": IntMatrix([[3, 2], [4, 3]]),
}


# --- The mediant engine --------------------------------------------------


def _mediant_tree(root, rule, depth: int, node) -> list:
    """The mediant engine: node(triple, depth) for every triple of the
    tree to the given depth, breadth first.

    The triple (l, m, r) has the children (l, rule(l, m, r), m) and
    (m, rule(m, r, l), r), so the root sits at 1/2 of the Farey tree
    and a family of trees is a root and a rule.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_TREE_DEPTH:
        raise TooLargeError(f"tree depth {depth} exceeds the limit {MAX_TREE_DEPTH}")
    level = [root]
    out = [node(root, 0)]
    for d in range(1, depth + 1):
        level = [
            child
            for l, m, r in level
            for child in ((l, rule(l, m, r), m), (m, rule(m, r, l), r))
        ]
        out.extend(node(t, d) for t in level)
    return out


def _mediant_descent(root, rule, p: int, q: int):
    """The middle entry at p/q of the tree that _mediant_tree(root, rule,
    ...) builds, found by the Stern-Brocot walk; the ends 0/1 and 1/1
    give root[0] and root[2]."""
    t = _check_unit_fraction(p, q)
    l, m, r = root
    lo, mid, hi = Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)
    if t == lo:
        return l
    if t == hi:
        return r
    while t != mid:
        if t < mid:
            hi = mid
            l, m, r = l, rule(l, m, r), m
        else:
            lo = mid
            l, m, r = m, rule(m, r, l), r
        mid = mediant(lo, hi)
    return m


def _vieta_jump(x, y, z):
    return 3 * x * y - z


def _product(x, y, _):
    return x * y


class TripleNode(Record):
    """A Markov triple (left, middle, right) at a tree depth."""

    __slots__ = ("triple", "depth")

    def __init__(self, triple: tuple, depth: int):
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "depth", depth)


def markov_tree(depth: int) -> list:
    """All tree nodes to the given depth, breadth first, rooted at (1,5,2)."""
    return _mediant_tree(MARKOV_ROOT, _vieta_jump, depth, TripleNode)


def markov_numbers(depth: int) -> list:
    """Distinct Markov numbers among all entries to the given depth, sorted."""
    seen = set()
    for node in markov_tree(depth):
        seen.update(node.triple)
    return sorted(seen)


def is_markov_triple(triple) -> bool:
    x, y, z = triple
    return x > 0 and y > 0 and z > 0 and x * x + y * y + z * z == 3 * x * y * z


def mediant(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(a.numerator + b.numerator, a.denominator + b.denominator)


def _check_unit_fraction(p: int, q: int) -> Fraction:
    if q <= 0 or not (0 <= p <= q) or gcd(p, q) != 1:
        raise NotCoprimeError(f"{p}/{q} is not a reduced fraction in [0, 1]")
    return Fraction(p, q)


class FareyNode(Record):
    """A Farey-tree node: fractions (left, middle, right)."""

    __slots__ = ("fractions", "depth")

    def __init__(self, fractions: tuple, depth: int):
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "depth", depth)


def farey_tree(depth: int) -> list:
    """Mediant-tree nodes to the given depth, rooted at (0/1, 1/2, 1/1)."""
    root = (Fraction(0, 1), Fraction(1, 2), Fraction(1, 1))
    return _mediant_tree(root, lambda x, y, _: mediant(x, y), depth, FareyNode)


def frobenius_index(p: int, q: int) -> int:
    """The Markov number sitting at position p/q of the mediant tree."""
    return _mediant_descent(MARKOV_ROOT, _vieta_jump, p, q)


def christoffel(p: int, q: int) -> str:
    """Lower Christoffel word of slope p/q over the alphabet {A, B}."""
    _check_unit_fraction(p, q)
    if (p, q) == (0, 1):
        return WORD_A
    return "".join(
        WORD_A if (p * i) // q - (p * (i - 1)) // q == 0 else WORD_B
        for i in range(1, q + 1)
    )


def cohn_word(p: int, q: int) -> str:
    """Word built by the mediant recursion W(r + s) = W(r) W(s)."""
    root = (WORD_A, WORD_A + WORD_B, WORD_B)
    return _mediant_descent(root, lambda x, y, _: x + y, p, q)


def mu_domino(p: int, q: int) -> int:
    """Matching count of the domino graph from the word matrix product."""
    letters = (LETTER_MATRIX[letter] for letter in christoffel(p, q))
    return matrix_product(IntMatrix.identity(2), letters)[0, 1]


# --- Cohn matrices -------------------------------------------------------


def cohn_root_matrices(a: int) -> tuple:
    """The parameterized root matrices (left, middle, right)."""
    left = IntMatrix([[a, 1], [3 * a - a * a - 1, 3 - a]])
    right = IntMatrix(
        [[2 * a + 1, 2], [-2 * a * a + 4 * a + 2, 5 - 2 * a]]
    )
    middle = IntMatrix(
        [[5 * a + 2, 5], [-5 * a * a + 11 * a + 5, 13 - 5 * a]]
    )
    return (left, middle, right)


class CohnNode(Record):
    """A triple (L, L*R, R) of matrices at a mediant-tree position."""

    __slots__ = ("matrices", "depth")

    def __init__(self, matrices: tuple, depth: int):
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "depth", depth)


def cohn_tree(depth: int, a: int = 1) -> list:
    """Matrix-triple nodes to the given depth for the parameter a."""
    return _mediant_tree(cohn_root_matrices(a), _product, depth, CohnNode)


def cohn_matrix(p: int, q: int, a: int = 1) -> IntMatrix:
    """The matrix at position p/q of the matrix mediant tree."""
    return _mediant_descent(cohn_root_matrices(a), _product, p, q)


def fricke_check(a: IntMatrix, b: IntMatrix) -> bool:
    """Verify the trace identity for a pair of unimodular 2x2 matrices."""
    if a.n != 2 or b.n != 2:
        raise NotUnimodularError("expected 2x2 matrices")
    if det_exact(a) != 1 or det_exact(b) != 1:
        raise NotUnimodularError("determinants must equal 1")
    ab = a * b
    commutator = ab * a.inverse_unimodular() * b.inverse_unimodular()
    lhs = a.trace() ** 2 + b.trace() ** 2 + ab.trace() ** 2
    rhs = a.trace() * b.trace() * ab.trace() + commutator.trace() + 2
    return lhs == rhs


# --- Domino snake geometry and shift-operator count ----------------------


def _domino_ops(p: int, q: int) -> list:
    """Straight/turn instructions for the snake polyomino of p/q."""
    m = cohn_matrix(p, q, a=1)
    b, d = m[0, 1], m[1, 1]
    num, den = b, d - b
    seq = []
    while den:
        seq.append(num // den)
        num, den = den, num % den
    ops = []
    for a in reversed(seq):
        ops.append("S")
        ops.extend("T" * (a - 1))
    return ops[2:]


def domino_geometry(p: int, q: int) -> list:
    """Square cells of the snake polyomino, in attachment order.

    For p/q = 0/1 the graph degenerates to a single edge; the empty
    list encodes it.
    """
    _check_unit_fraction(p, q)
    if (p, q) == (0, 1):
        return []
    cells = [(0, 0)]
    direction = (1, 0)
    pending_turn = False
    for op in _domino_ops(p, q):
        if pending_turn:
            direction = (direction[1], direction[0])
        x, y = cells[-1]
        cells.append((x + direction[0], y + direction[1]))
        # a turn instruction bends the strip between this tile and the next
        pending_turn = op == "T"
    return cells


def domino_mu_shift(p: int, q: int) -> int:
    """Matching count of the snake polyomino via boundary-state shifts."""
    _check_unit_fraction(p, q)
    if (p, q) == (0, 1):
        return 1
    n, prev = 2, 1
    for op in _domino_ops(p, q):
        if op == "S":
            n, prev = n + prev, n
        else:
            n = n + prev
    return n


def domino_mu_bruteforce(p: int, q: int) -> int:
    """Perfect matchings of the snake polyomino's grid graph, enumerated.

    The grid graph is bipartite: its rows are the vertices with x + y
    even, its columns the odd ones, each numbered in order of first
    appearance along the snake, so the shared row-by-row counter
    (``exactcore.count_perfect_matchings``; at most 256 rows) sees a
    banded graph.
    """
    cells = domino_geometry(p, q)
    if not cells:
        return 1
    index = [{}, {}]  # vertex -> number, for even and odd x + y
    neighbors = {}
    for x, y in cells:
        corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
        for u in corners:
            side = index[sum(u) % 2]
            side.setdefault(u, len(side))
        for u, v in zip(corners, corners[1:] + corners[:1]):
            if sum(u) % 2:
                u, v = v, u
            neighbors.setdefault(u, set()).add(v)
    rows, columns = index
    adjacency = [[(columns[v], 1) for v in neighbors[u]] for u in rows]
    return count_perfect_matchings(adjacency, len(columns))


# --- Markov's quadratic form ---------------------------------------------


def markov_form(triple) -> tuple:
    """Coefficients (A, B, C) of the form attached to a Markov triple.

    The triple is sorted ascending to (m2, m1, m); u is the least
    positive residue solving m2*u = +-m1 (mod m), v = (u*u + 1)/m, and
    the form is m x^2 + (3m - 2u) xy + (v - 3u) y^2 with discriminant
    9 m^2 - 4.
    """
    m2, m1, m = sorted(int(x) for x in triple)
    if not is_markov_triple((m2, m1, m)):
        raise ValueError("not a Markov triple")
    if m == 1:
        u, v = 1, 2
    else:
        try:
            inv = pow(m2, -1, m)
        except ValueError:
            raise NoResidueError("congruence has no solution") from None
        candidates = [(inv * m1) % m, (-inv * m1) % m]
        u = min(c if c else m for c in candidates)
        if (u * u + 1) % m:
            raise NoResidueError("residue does not satisfy u^2 + 1 = v m")
        v = (u * u + 1) // m
    return (m, 3 * m - 2 * u, v - 3 * u)
