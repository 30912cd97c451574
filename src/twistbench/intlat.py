"""Exact integer-lattice linear algebra.

Smith normal form with the inverse transforms that the unimodular extension
reads, unimodular extensions of generating sets, and divisibility and
basis-extension tests.  All arithmetic uses Python integers, so nothing
ever overflows; exactness is what the topology side of the workbench is
built on.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, NotGenerating


def identity_lists(n: int) -> list:
    """The n x n identity as a fresh list of row lists."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """Immutable integer matrix, row-major: ``entries`` is the flattened
    tuple of rows * cols ints."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        if not all(map(isinstance, entries, repeat(int))):
            raise ValueError("entries must be integers")
        return tuple.__new__(cls, (rows, cols, entries))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Rows of ints as a matrix; ``cols`` gives the width of no rows.
        Entries are not coerced: the constructor rejects non-ints."""
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        return IntMatrix(len(rows), width, tuple(chain.from_iterable(rows)))

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def diagonal(self) -> tuple:
        return tuple(self[i, i] for i in range(min(self.rows, self.cols)))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            top = m[k]
            p, tail = top[k], top[k + 1 :]
            for i in range(k + 1, n):
                row = m[i]
                q = row[k]
                # With q = 0 the update scales the row by p / prev, so a
                # zero multiplier under an unchanged pivot leaves it as is.
                if q or p != prev:
                    row[k + 1 :] = [(x * p - q * y) // prev for x, y in zip(row[k + 1 :], tail)]
            prev = p
        return sign * m[n - 1][n - 1]


class SnfDecomposition(NamedTuple):
    """input == left_inv @ diag @ right_inv, with left_inv and right_inv
    unimodular."""

    diag: IntMatrix
    left_inv: IntMatrix
    right_inv: IntMatrix

    def diagonal(self) -> tuple:
        return self.diag.diagonal()


class _Reducer:
    """Mutable state for one Smith reduction: the matrix and the inverse
    transforms, kept so that input == left_inv @ a @ right_inv."""

    def __init__(self, a: IntMatrix):
        self.m = a.rows
        self.n = a.cols
        self.a = a.to_lists()
        self.left_inv = identity_lists(self.m)
        self.right_inv = identity_lists(self.n)

    # Row operations act as A <- E A, so left_inv <- left_inv E^{-1}.
    def swap_rows(self, i, j):
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        for row in self.left_inv:
            row[i], row[j] = row[j], row[i]

    def add_row(self, i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        ai, aj = self.a[i], self.a[j]
        for k in range(self.n):
            ai[k] += q * aj[k]
        for row in self.left_inv:
            row[j] -= q * row[i]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]
        for row in self.left_inv:
            row[i] = -row[i]

    # Column operations act as A <- A E, so right_inv <- E^{-1} right_inv.
    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        self.right_inv[i], self.right_inv[j] = self.right_inv[j], self.right_inv[i]

    def add_col(self, j, i, q):
        # col_j += q * col_i
        if q == 0:
            return
        for row in self.a:
            row[j] += q * row[i]
        ri, rj = self.right_inv[i], self.right_inv[j]
        for k in range(self.n):
            ri[k] -= q * rj[k]

    def _find_pivot(self, t):
        """Smallest nonzero |entry| in the trailing submatrix."""
        best = None
        where = None
        for i in range(t, self.m):
            row = self.a[i]
            for j in range(t, self.n):
                v = row[j]
                if v != 0:
                    v = abs(v)
                    if best is None or v < best:
                        best, where = v, (i, j)
                        if best == 1:
                            return where
        return where

    def run(self):
        t = 0
        bound = min(self.m, self.n)
        while t < bound:
            where = self._find_pivot(t)
            if where is None:
                break
            self.swap_rows(t, where[0])
            self.swap_cols(t, where[1])
            while True:
                # Clear column t, moving a smaller remainder up if one appears.
                dirty = False
                for i in range(t + 1, self.m):
                    if self.a[i][t] != 0:
                        q = self.a[i][t] // self.a[t][t]
                        self.add_row(i, t, -q)
                        if self.a[i][t] != 0:
                            self.swap_rows(i, t)
                            dirty = True
                if dirty:
                    continue
                for j in range(t + 1, self.n):
                    if self.a[t][j] != 0:
                        q = self.a[t][j] // self.a[t][t]
                        self.add_col(j, t, -q)
                        if self.a[t][j] != 0:
                            self.swap_cols(j, t)
                            dirty = True
                if dirty:
                    continue
                # Pivot must divide the rest of the trailing block.
                offender = None
                piv = self.a[t][t]
                for i in range(t + 1, self.m):
                    row = self.a[i]
                    for j in range(t + 1, self.n):
                        if row[j] % piv != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                self.add_row(t, offender, 1)
            t += 1
        for i in range(bound):
            if self.a[i][i] < 0:
                self.negate_row(i)


def snf(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with the inverse transforms:
    ``a == left_inv @ diag @ right_inv``.

    The diagonal is nonnegative and satisfies d_i | d_{i+1} (trailing
    zeros allowed; zero is divisible by everything).  The diagonal is
    uniquely determined by ``a``; the transforms are not.
    """
    red = _Reducer(a)
    red.run()
    return SnfDecomposition(
        diag=IntMatrix.from_rows(red.a, cols=a.cols),
        left_inv=IntMatrix.from_rows(red.left_inv, cols=a.rows),
        right_inv=IntMatrix.from_rows(red.right_inv, cols=a.cols),
    )


def unimodular_extension(a: IntMatrix) -> IntMatrix:
    """Extend a full-lattice generating matrix to a unimodular square one.

    For ``a`` of shape r x m (r <= m) whose columns generate Z^r, returns
    an m x m unimodular matrix whose top r rows equal ``a``.  Raises
    NotGenerating otherwise.
    """
    r, m = a.rows, a.cols
    if r > m:
        raise DimensionMismatch("need rows <= cols")
    dec = snf(a)
    diag = dec.diagonal()
    if len(diag) < r or any(d != 1 for d in diag[:r]):
        raise NotGenerating("columns do not generate the full lattice")
    # a = left_inv [I 0] right_inv, so [[left_inv, 0], [0, I]] @ right_inv
    # has a as its top rows.  The block-diagonal factor touches only the
    # top r rows: they are left_inv @ right_inv[:r], and the rest of
    # right_inv passes through.
    linv = dec.left_inv.to_lists()
    rinv = dec.right_inv.to_lists()
    top = [[sum(c * rk[j] for c, rk in zip(row, rinv)) for j in range(m)] for row in linv]
    return IntMatrix.from_rows(top + rinv[r:], cols=m)


def divisibility(v: Iterable[int]) -> int:
    """gcd of the entries; 0 for the zero vector."""
    g = 0
    for x in v:
        g = math.gcd(g, int(x))
    return g


def extends_to_basis(vs: Sequence[Sequence[int]]) -> bool:
    """True iff the given vectors extend to a basis of Z^d.

    ``vs`` is a nonempty list of at most d vectors, all of the same
    length d.  Equivalent to the Smith diagonal of the column matrix
    being all ones.
    """
    if not vs:
        raise DimensionMismatch("empty list of vectors")
    d = len(vs[0])
    if any(len(v) != d for v in vs):
        raise DimensionMismatch("vectors of unequal length")
    if len(vs) > d:
        raise DimensionMismatch("more vectors than the ambient rank")
    cols = IntMatrix.from_rows([[int(v[i]) for v in vs] for i in range(d)], cols=len(vs))
    # len(vs) <= d, so the diagonal has exactly len(vs) entries.
    return all(x == 1 for x in snf(cols).diagonal())
