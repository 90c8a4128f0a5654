"""Exact dense linear algebra over GF(p) for odd primes p.

A matrix is a numpy int64 array of residues in [0, p), so it takes
8 * rows * cols bytes: a 2,810-dimensional square piece takes about 63 MB.
All eliminations use first-nonzero pivoting so that ranks, kernel bases and
particular solutions are reproducible bit for bit.

Elimination stays in int64 with lazy residues: row updates are not reduced
mod p, and the array is reduced once at the end, under a bound on how far
entries can grow that ``FpMatrix._eliminate`` checks against 2**63 first.

Products are the one place floating point appears.  ``_mod_p_product``
multiplies in float64 so that numpy hands the work to BLAS (dgemm), which
int64 ``@`` never does.  This is exact because it first checks that the
largest possible dot product, inner * (p-1)**2, is at most 2**53: float64
holds every integer up to 2**53, so every partial sum is an exact integer
in whatever order BLAS adds.  The result is reduced mod p and returned as
int64 residues, identical to ``(a @ b) % p`` in int64.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_PRIMES = (3, 5, 7)


class ShapeMismatchError(ValueError):
    """Raised when two matrices have incompatible shapes."""

    def __init__(self, op, shape_a, shape_b):
        self.op = op
        self.shape_a = shape_a
        self.shape_b = shape_b
        super().__init__(f"{op}: incompatible shapes {shape_a} and {shape_b}")


def check_prime(p):
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported modulus {p}; expected one of {SUPPORTED_PRIMES}")


def inv_mod(a, p):
    return pow(a % p, p - 2, p)


class FpMatrix:
    """A rows x cols matrix over GF(p), stored as a dense int64 array."""

    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p, data):
        check_prime(p)
        self.p = p
        self.rows, self.cols = data.shape
        self.data = data

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zeros(p, rows, cols):
        return FpMatrix(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p, n):
        return FpMatrix(p, np.eye(n, dtype=np.int64))

    @staticmethod
    def from_coords(p, rows, cols, entries):
        """A rows x cols matrix from ((row, col), value) pairs.

        Values given at the same position are summed, and the sums are
        reduced into [0, p) once, so negative values are allowed.
        """
        entries = list(entries)
        if not entries:
            return FpMatrix.zeros(p, rows, cols)
        coords, values = zip(*entries)
        i, j = np.array(coords, dtype=np.int64).reshape(-1, 2).T
        return FpMatrix.from_arrays(p, rows, cols, i, j, values)

    @staticmethod
    def from_arrays(p, rows, cols, i, j, values):
        """``from_coords`` with the rows, columns and values as three arrays."""
        data = np.zeros((rows, cols), dtype=np.int64)
        np.add.at(data, (i, j), np.asarray(values, dtype=np.int64))
        return FpMatrix(p, data % p)

    # ------------------------------------------------------------------
    # basic access

    @property
    def shape(self):
        return (self.rows, self.cols)

    def get(self, i, j):
        return int(self.data[i, j])

    def submatrix(self, rows, cols):
        """The rows and columns at the given indices, in the order given."""
        return FpMatrix(self.p, self.data[np.ix_(rows, cols)])

    def is_zero(self):
        return not self.data.any()

    def nonzero_items(self):
        """((row, col), value) for every nonzero entry, in row-major order."""
        i, j = np.nonzero(self.data)
        return list(zip(zip(i.tolist(), j.tolist()), self.data[i, j].tolist()))

    def __eq__(self, other):
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols})"

    # ------------------------------------------------------------------
    # arithmetic

    def __matmul__(self, other):
        return matmul(self, other)

    def apply(self, vec):
        """Matrix times column vector (a list of residues)."""
        if len(vec) != self.cols:
            raise ShapeMismatchError("apply", self.shape, (len(vec), 1))
        col = np.array(vec, dtype=np.int64).reshape(self.cols, 1) % self.p
        return _mod_p_product(self.data, col, self.p)[:, 0].tolist()

    # ------------------------------------------------------------------
    # elimination

    def _eliminate(self, reduce_above, aug=None):
        """Row-reduce a copy of self, optionally with an augmented column.

        Columns are scanned left to right; the pivot of a column is the first
        row at or below the current one with a nonzero entry.  Each pivot row
        is scaled to 1 and its column cleared below it, and above it too when
        ``reduce_above`` is set, which gives the unique reduced row echelon
        form.  Returns (reduced array, pivot columns); an augmented column is
        the last column of the array.

        Residues are reduced lazily: only the scanned column and the pivot
        row are reduced when a column is reached, the row updates are not,
        and the whole array is reduced once at the end.  A pivot moves an
        entry by at most (p-1)**2, so every entry stays within
        (p-1) + (p-1)**2 * min(rows, cols) of zero; that bound is checked
        against int64 before anything is copied.
        """
        p = self.p
        bound = (p - 1) + (p - 1) ** 2 * min(self.rows, self.cols)
        if bound >= 2**63:
            raise ValueError(
                f"eliminate: {self.rows}x{self.cols} at p = {p} breaks the int64 bound "
                f"(p-1) + (p-1)**2 * min(rows, cols) < 2**63"
            )
        if aug is None:
            a = self.data.copy()
        else:
            a = np.hstack([self.data, np.array(aug, dtype=np.int64).reshape(self.rows, 1) % p])
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            if r == self.rows:
                break
            col = a[r:, c]
            np.remainder(col, p, out=col)
            nz = np.flatnonzero(col)
            if not nz.size:
                continue
            if nz[0]:
                a[[r, r + nz[0]]] = a[[r + nz[0], r]]
            # left of column c the pivot row is zero, so only c: changes
            row = a[r, c:]
            np.remainder(row, p, out=row)
            inv = inv_mod(int(row[0]), p)
            if inv != 1:
                row *= inv
                np.remainder(row, p, out=row)
            # the old row r, swapped to r + nz[0], is zero in column c
            clear = nz[1:] + r
            if reduce_above and r:
                above = a[:r, c]
                np.remainder(above, p, out=above)
                clear = np.concatenate((np.flatnonzero(above), clear))
            if clear.size:
                a[clear, c:] -= a[clear, c, None] * row
            pivots.append(c)
        np.remainder(a, p, out=a)
        return a, pivots

    def pivot_columns(self):
        """The pivot columns: each column not in the span of those before it."""
        return self._eliminate(reduce_above=False)[1]

    def rank(self):
        """Rank over GF(p)."""
        return len(self.pivot_columns())

    def kernel_basis(self):
        """Matrix whose columns span ker(self), in free-column order."""
        a, pivots = self._eliminate(reduce_above=True)
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        out = np.zeros((self.cols, len(free)), dtype=np.int64)
        out[free, range(len(free))] = 1
        out[pivots, :] = (-a[: len(pivots), free]) % self.p
        return FpMatrix(self.p, out)

    def image_basis(self):
        """Columns of self at its pivot columns; they span the column space."""
        return self.submatrix(range(self.rows), self.pivot_columns())

    def solve(self, b):
        """A particular solution x of self @ x = b, or None if inconsistent.

        Free variables are set to 0, which makes the solution the
        lexicographically-first one for the pivot ordering.
        """
        if len(b) != self.rows:
            raise ShapeMismatchError("solve", self.shape, (len(b), 1))
        a, pivots = self._eliminate(reduce_above=True, aug=b)
        if a[len(pivots):, -1].any():
            return None
        x = np.zeros(self.cols, dtype=np.int64)
        x[pivots] = a[: len(pivots), -1]
        return x.tolist()


def _mod_p_product(a, b, p):
    """a @ b mod p for int64 arrays of residues in [0, p), as int64.

    Raises ValueError, before converting anything, when a dot product could
    exceed 2**53, the largest integer range float64 holds exactly.
    """
    inner = a.shape[1]
    if inner * (p - 1) ** 2 > 2**53:
        raise ValueError(
            f"matmul: {inner} inner columns at p = {p} break the exact bound "
            f"inner * (p-1)**2 <= 2**53"
        )
    prod = a.astype(np.float64) @ b.astype(np.float64)
    # in place: a second float64 result array would raise peak memory
    np.fmod(prod, p, out=prod)
    return prod.astype(np.int64)


def matmul(a, b):
    if a.p != b.p:
        raise ValueError("modulus mismatch")
    if a.cols != b.rows:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    return FpMatrix(a.p, _mod_p_product(a.data, b.data, a.p))


def hstack(mats):
    """Concatenate matrices with equal row counts side by side."""
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    for m in mats[1:]:
        if m.rows != rows:
            raise ShapeMismatchError("hstack", (rows, None), m.shape)
    return FpMatrix(mats[0].p, np.hstack([m.data for m in mats]))
