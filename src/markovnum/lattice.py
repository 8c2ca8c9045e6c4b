"""Geometric layer: snake operators, wug-snake addition, planar and
spatial embeddings with their tangent directions, slowly increasing
cube sequences along a segment, and the representative words they
encode.

A cube word is multiplied run by run: each run of equal letters is one
matrix power, so a word of L letters in R runs costs about R log L
products instead of L.  Tracing is budgeted by the sum of the vector's
nonzero entries, which bounds the number of cubes the segment crosses,
and by their number, since choosing the exit axis lists 2^(n-1) facet
vertices per axis: beyond MAX_CUBE_SUM or MAX_CUBE_DIMENSION it raises
TooLargeError before any work.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import ArityMismatchError, NotUnitStepError, TooLargeError, ZeroVectorError
from .exactcore import IntMatrix, Record, matrix_product
from .wugsnake import Body

MAX_CUBE_SUM = 300_000
"""Largest sum of nonzero entries that cubes_for_vector and cube_count trace."""

MAX_CUBE_DIMENSION = 12
"""Most nonzero entries that cubes_for_vector and cube_count trace."""

# Cell-step templates of the standard 2- and 3-generator embeddings.
EMBED2_STEPS = (
    ((1, 0), (1, 0)),
    ((1, 0), (0, 1), (1, 0), (0, 1)),
)
EMBED3_STEPS = (
    ((0, 0, 1), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)),
)

MODEL531_GENERATORS = (
    IntMatrix([[1, 1], [1, 2]]),
    IntMatrix([[3, 2], [4, 3]]),
    IntMatrix([[14, 5], [25, 9]]),
)


def _apply_column(window: tuple, col: tuple) -> tuple:
    if len(col) > len(window):
        raise ArityMismatchError("column deeper than the window")
    new = sum(a * window[-t] for t, a in enumerate(col, start=1))
    return window[1:] + (new,)


def snake_operator(body: Body, k: int) -> IntMatrix:
    """The k x k matrix mapping a head window to the window after the body."""
    cols = []
    for i in range(k):
        window = tuple(1 if t == i else 0 for t in range(k))
        for col in body.columns:
            window = _apply_column(window, col)
        cols.append(window)
    return IntMatrix(list(zip(*cols)))


def wug_sum(w1, w2):
    """Concatenate two (head, body) snakes: the head of the first stays."""
    head1, body1 = w1
    _, body2 = w2
    return (head1, body1 + body2)


class Embedding(Record):
    """Ordered unit cells of an embedded snake; first cell is the head."""

    __slots__ = ("dimension", "cells")

    def __init__(self, dimension: int, cells: tuple):
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "cells", cells)

    @property
    def head_cell(self) -> tuple:
        return self.cells[0]

    @property
    def last_cell(self) -> tuple:
        return self.cells[-1]

    def displacement(self) -> tuple:
        return tuple(b - a for a, b in zip(self.head_cell, self.last_cell))


def _embed(word, templates, dimension: int) -> Embedding:
    cells = [tuple([0] * dimension)]
    for letter in word:
        for step in templates[letter]:
            cells.append(tuple(a + d for a, d in zip(cells[-1], step)))
    return Embedding(dimension, tuple(cells))


def embed2(word) -> Embedding:
    """Planar embedding of a word over the two standard generators."""
    return _embed(word, EMBED2_STEPS, 2)


def embed3(word) -> Embedding:
    """Spatial embedding of a word over the three standard generators."""
    return _embed(word, EMBED3_STEPS, 3)


def tangent(e: Embedding) -> tuple:
    """Primitive direction from the head cell to the last cell."""
    v = e.displacement()
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ZeroVectorError("embedding has no displacement")
    return tuple(x // g for x in v)


def tangent_fraction(e: Embedding) -> Fraction:
    """2D tangent printed as y/x."""
    x, y = tangent(e)
    return Fraction(y, x)


# --- Slowly increasing sequences and cube traces ---------------------------


class SlowSequence(Record):
    """Lattice points with unit basis-vector steps between neighbors."""

    __slots__ = ("points",)

    def __init__(self, points: tuple):
        points = tuple(tuple(int(x) for x in p) for p in points)
        if not points:
            raise ValueError("sequence needs at least one point")
        for a, b in zip(points, points[1:]):
            diff = tuple(y - x for x, y in zip(a, b))
            if sorted(diff) != [0] * (len(diff) - 1) + [1]:
                raise NotUnitStepError("steps must be standard basis vectors")
        object.__setattr__(self, "points", points)

    @classmethod
    def _trusted(cls, points: tuple) -> "SlowSequence":
        """A sequence of integer points whose steps are known to be unit
        steps, built without the per-step check."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "points", points)
        return seq

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def axes(self) -> list:
        """1-based axis index of each step."""
        out = []
        for a, b in zip(self.points, self.points[1:]):
            out.append(next(i for i in range(len(a)) if b[i] - a[i]) + 1)
        return out


def shift_orders(s: SlowSequence) -> list:
    """c(j) = (#(j) - #(j-1)) mod n with #(0) = 1."""
    n = s.dimension
    axes = s.axes()
    out = []
    prev = 1
    for axis in axes:
        out.append((axis - prev) % n)
        prev = axis
    return out


def representative(s: SlowSequence) -> tuple:
    """Generator word (0-based indices) read off the shift orders, reversed."""
    return tuple(c for c in reversed(shift_orders(s)))


def word_display(word) -> str:
    """Compact form like "A2^5 A1 A3^4 A2 A1" (1-based subscripts)."""
    parts = []
    for letter, group in itertools.groupby(word):
        count = len(list(group))
        base = f"A{letter + 1}"
        parts.append(base if count == 1 else f"{base}^{count}")
    return " ".join(parts)


def _facet_vertices(corner: tuple, axis: int, value: int, n: int) -> list:
    """Sorted vertices of the cube facet with coordinate `axis` fixed."""
    free = [i for i in range(n) if i != axis]
    vertices = []
    for bits in itertools.product((0, 1), repeat=n - 1):
        vertex = list(corner)
        vertex[axis] = value
        for b, i in zip(bits, free):
            vertex[i] = corner[i] + b
        vertices.append(tuple(vertex))
    return sorted(vertices)


def _exit_axis(corner: tuple, v: tuple) -> int:
    n = len(v)
    best_axis, best_list = None, None
    for axis in range(n):
        vertices = _facet_vertices(corner, axis, v[axis], n)
        if best_list is None or vertices < best_list:
            best_axis, best_list = axis, vertices
    return best_axis + 1


def _crossings(v) -> tuple:
    """Nonzero entries of v, den = lcm of them, and the sorted distinct
    numerators over den of every grid-plane crossing parameter i/x in
    [0, 1] of the segment from 0 to v.  The budget check comes first."""
    v = tuple(int(x) for x in v)
    if any(x < 0 for x in v):
        raise ValueError("coordinates must be nonnegative")
    v = tuple(x for x in v if x)
    if not v:
        raise ZeroVectorError("the zero vector traces no cubes")
    if sum(v) > MAX_CUBE_SUM:
        raise TooLargeError(f"entries summing to {sum(v)} exceed the limit {MAX_CUBE_SUM}")
    if len(v) > MAX_CUBE_DIMENSION:
        raise TooLargeError(f"{len(v)} nonzero entries exceed the limit {MAX_CUBE_DIMENSION}")
    den = lcm(*v)
    cuts = sorted({i * (den // x) for x in v for i in range(x + 1)})
    return v, den, cuts


def cubes_for_vector(v) -> SlowSequence:
    """The slowly increasing sequence traced by the segment from 0 to v.

    Zero coordinates are dropped before tracing.  The points are the
    entry corners of the crossed cubes, except that the last point
    steps out of the penultimate cube along the exit axis of the final
    one (chosen by the lexicographically smallest facet at v).

    Raises NotUnitStepError when grid planes meet at an interior
    crossing other than the last one: the segment then steps along
    several axes at once.  The last crossing is exempt because the last
    point steps out of the penultimate cube instead.
    """
    v, den, cuts = _crossings(v)
    if len(cuts) > 3:
        # coincident crossings: plane crossings counted with multiplicity
        # less the distinct interior ones; all must sit at cuts[-2]
        coincident = sum(v) - len(v) - (len(cuts) - 2)
        at_last = sum(1 for x in v if cuts[-2] % (den // x) == 0)
        if coincident != at_last - 1:
            raise NotUnitStepError(
                "grid planes meet inside the segment, so its steps are not unit steps"
            )
    # the corner of the cube crossed between parameters lo/den and hi/den
    # is floor(x * (lo + hi) / (2 den)) in each coordinate x
    corners = [
        tuple((lo + hi) * x // (2 * den) for x in v) for lo, hi in zip(cuts, cuts[1:])
    ]
    exit_axis = _exit_axis(corners[-1], v)
    if len(corners) == 1:
        points = [corners[0]]
    else:
        last = list(corners[-2])
        last[exit_axis - 1] += 1
        points = corners[:-1] + [tuple(last)]
    return SlowSequence._trusted(tuple(points))


def cube_count(v) -> int:
    """Number of cubes the open segment from 0 to v passes through.

    Equals ``len(cubes_for_vector(v).points)`` wherever that is defined;
    both raise TooLargeError when the entries sum past MAX_CUBE_SUM.
    """
    return len(_crossings(v)[2]) - 1


def model531_word_count(word) -> int:
    """First window entry of the generator product over `word`, applied
    to the head (0, 1); `word` indexes MODEL531_GENERATORS.

    Each run of equal letters (the groups of word_display) is raised to
    its length as one matrix power, and the runs are multiplied left to
    right.  A letter naming no generator raises ArityMismatchError.
    """
    runs = []
    for letter, group in itertools.groupby(word):
        if not 0 <= letter < len(MODEL531_GENERATORS):
            raise ArityMismatchError(
                f"letter A{letter + 1} is beyond the {len(MODEL531_GENERATORS)} generators"
            )
        runs.append(MODEL531_GENERATORS[letter] ** sum(1 for _ in group))
    return matrix_product(IntMatrix.identity(2), runs)[0, 1]


def model531_count(v) -> int:
    """Matching count of the snake encoded by the cube word of v."""
    return model531_word_count(representative(cubes_for_vector(v)))
