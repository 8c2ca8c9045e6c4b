"""Wug-snake graphs: weight systems on the super upper triangle,
matching counts by three independent methods, heads and bodies, and the
wug-snake determinant.

A wug-snake of size n carries integer weights w_{i,j} for
1 <= i <= j <= n.  Its continuant matrix replaces the subdiagonal with
-1; its biadjacency matrix puts +1 there instead.  The number of
perfect matchings of the associated bipartite graph (weighted edges
counting as parallel edges) equals both the permanent of the
biadjacency and the determinant of the continuant.

The three counts here share no code: matching_count_bruteforce walks
the explicit bipartite graph row by row, merging partial matchings that
leave the same columns free (row i meets only columns >= i - 1, so a
level holds at most one used column past the forced ones and the walk
is O(n * nnz), up to 256 rows); matching_count_det eliminates the
continuant; matching_sequence runs the column recurrence.
"""

from __future__ import annotations

import json

from .errors import ArityMismatchError, DecompositionMismatchError
from .exactcore import IntMatrix, Record, count_perfect_matchings, det_exact, matrix_product
from .contfrac import companion


class WugSnake:
    """Immutable weight system; absent entries are zero."""

    __slots__ = ("n", "weights")

    def __init__(self, n: int, weights):
        n = int(n)
        if n < 1:
            raise ValueError("size must be at least 1")
        clean = {}
        for (i, j), w in dict(weights).items():
            if not (1 <= i <= j <= n):
                raise ValueError(f"weight position ({i},{j}) outside the triangle")
            w = int(w)
            if w:
                clean[(i, j)] = w
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", dict(clean))

    def __setattr__(self, *a):
        raise AttributeError("WugSnake is immutable")

    def weight(self, i: int, j: int) -> int:
        return self.weights.get((i, j), 0)

    def __eq__(self, other):
        return (
            isinstance(other, WugSnake)
            and self.n == other.n
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"WugSnake(n={self.n}, weights={sorted(self.weights.items())})"

    def prefix(self, k: int) -> "WugSnake":
        """The filtration cut of the first k columns."""
        if not (1 <= k <= self.n):
            raise ValueError("cut outside the filtration")
        return WugSnake(k, {ij: w for ij, w in self.weights.items() if ij[1] <= k})

    def continuant_matrix(self) -> IntMatrix:
        rows = [[0] * self.n for _ in range(self.n)]
        for (i, j), w in self.weights.items():
            rows[i - 1][j - 1] = w
        for i in range(1, self.n):
            rows[i][i - 1] = -1
        return IntMatrix(rows)

    def biadjacency(self) -> IntMatrix:
        rows = [[0] * self.n for _ in range(self.n)]
        for (i, j), w in self.weights.items():
            rows[i - 1][j - 1] = w
        for i in range(1, self.n):
            rows[i][i - 1] = 1
        return IntMatrix(rows)

    def to_json(self) -> str:
        weights = [[i, j, w] for (i, j), w in sorted(self.weights.items())]
        return json.dumps({"n": self.n, "weights": weights})

    @classmethod
    def from_json(cls, text: str) -> "WugSnake":
        """Parse ``{"n": n, "weights": [[i, j, w], ...]}``.

        Raises ValueError for invalid JSON, a non-object, a missing or
        non-integer ``n``, or a weight that is not an integer triple.
        """
        data = json.loads(text)
        if not isinstance(data, dict) or "n" not in data or "weights" not in data:
            raise ValueError('wug-snake JSON must be an object with "n" and "weights"')
        n, triples = data["n"], data["weights"]
        if not _is_int(n):
            raise ValueError(f"size must be an integer, got {n!r}")
        if not isinstance(triples, list):
            raise ValueError('"weights" must be a list of [i, j, w] triples')
        weights = {}
        for triple in triples:
            if not (
                isinstance(triple, list) and len(triple) == 3 and all(map(_is_int, triple))
            ):
                raise ValueError(f"weight {triple!r} is not an integer triple [i, j, w]")
            i, j, x = triple
            weights[(i, j)] = x
        return cls(n, weights)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def matching_count_det(w: WugSnake) -> int:
    """Matching count as the determinant of the continuant matrix."""
    return det_exact(w.continuant_matrix())


def matching_sequence(w: WugSnake) -> list:
    """mu(K_1), ..., mu(K_n) via mu_k = sum_i w_{i,k} mu_{i-1}, mu_0 = 1.

    Each column sums over its nonzero weights only: O(n + nnz).
    """
    columns = [[] for _ in range(w.n + 1)]
    for (i, k), x in w.weights.items():
        columns[k].append((i, x))
    mu = [1]
    for column in columns[1:]:
        mu.append(sum(x * mu[i - 1] for i, x in column))
    return mu[1:]


def matching_count_bruteforce(w: WugSnake) -> int:
    """Weighted perfect-matching count by direct enumeration.

    Enumerates matchings of the bipartite graph with vertex classes
    (u_i), (v_j), edges u_i - v_j of multiplicity w_{i,j} for i <= j and
    u_{j+1} - v_j of multiplicity 1, row by row with equal partial
    matchings merged (``exactcore.count_perfect_matchings``; at most 256
    rows).  Weights must be nonnegative.
    """
    if any(x < 0 for x in w.weights.values()):
        raise ValueError("matching counts require nonnegative weights")
    weighted = {}
    for (i, j), x in w.weights.items():
        weighted.setdefault(i - 1, []).append((j - 1, x))
    # rows are made as the counter reads them, so none past its budget
    adjacency = (([(i - 1, 1)] if i else []) + weighted.get(i, []) for i in range(w.n))
    return count_perfect_matchings(adjacency, w.n)


class Head(Record):
    """A prescribed tail (the last k matching-sequence values)."""

    __slots__ = ("target",)

    def __init__(self, target: tuple):
        target = tuple(int(x) for x in target)
        if not target:
            raise ValueError("head needs at least one value")
        object.__setattr__(self, "target", target)

    @property
    def k(self) -> int:
        return len(self.target)


class Body(Record):
    """Recurrence columns, listed in the order they are attached."""

    __slots__ = ("columns",)

    def __init__(self, columns: tuple):
        columns = tuple(tuple(int(a) for a in col) for col in columns)
        if any(not col for col in columns):
            raise ValueError("columns must be nonempty")
        object.__setattr__(self, "columns", columns)

    def __len__(self):
        return len(self.columns)

    def __add__(self, other: "Body") -> "Body":
        return Body(self.columns + other.columns)


EMPTY_BODY = Body(())


def simple_head(xs) -> WugSnake:
    """Wug-snake of size s+1 whose matching sequence is (1, x_1, ..., x_s)."""
    xs = tuple(int(x) for x in xs)
    weights = {(1, 1): 1}
    for j, x in enumerate(xs, start=2):
        weights[(1, j)] = x
    return WugSnake(len(xs) + 1, weights)


def attach_body(w: WugSnake, body: Body, copies: int = 1) -> WugSnake:
    """Extend a wug-snake by the body's columns, repeated."""
    weights = dict(w.weights)
    n = w.n
    for _ in range(copies):
        for col in body.columns:
            n += 1
            if len(col) > n - 1:
                raise ArityMismatchError(
                    "column deeper than the graph at attachment time"
                )
            for t, a in enumerate(col, start=1):
                if a:
                    weights[(n - t + 1, n)] = a
    return WugSnake(n, weights)


def snake_for(head: Head, body: Body, copies: int = 1) -> WugSnake:
    """The wug-snake realizing the head and the repeated body."""
    return attach_body(simple_head(head.target), body, copies)


def body_for_matrix(a: IntMatrix, decomposition) -> Body:
    """Body whose columns replay the companion decomposition of a.

    The decomposition lists CompanionSpec values with the rightmost
    applied first; their matrix product must equal a.
    """
    specs = list(decomposition)
    if matrix_product(IntMatrix.identity(a.n), map(companion, specs)) != a:
        raise DecompositionMismatchError(
            "companion product does not equal the matrix"
        )
    return Body(tuple(spec.coeffs for spec in reversed(specs)))


def wug_determinant(head: Head, body: Body) -> int:
    """det of the h windows cut from head, head+body, head+body^2, ...

    Window i is the last h matching-sequence values of the head followed
    by i copies of the body; the windows form the columns, in order.
    """
    h = head.k
    cols = []
    for i in range(h):
        seq = matching_sequence(snake_for(head, body, copies=i))
        cols.append(seq[-h:])
    return det_exact(IntMatrix(list(zip(*cols))))
