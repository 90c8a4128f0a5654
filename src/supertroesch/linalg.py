"""Exact dense linear algebra over GF(p) for odd primes p.

A matrix is a numpy int8 array of residues in [0, p), one byte per cell,
since p <= 7 needs three bits: a 2,810-dimensional square piece takes
7.9 MB, not the 63 MB of int64.  Every constructor reduces its input mod p
before it narrows, so nothing wraps.  Arithmetic on stored residues widens
first: sums and products of int8 residues pass 127 well below the sizes
met here.
All eliminations use first-nonzero pivoting so that ranks, kernel bases and
particular solutions are reproducible bit for bit.

One kernel, ``FpMatrix.eliminate``, does every elimination.  It takes a
list of arrays, stacks them in order of width, each at its own height, and
steps batches of them through their columns in lockstep, so the fixed cost
of a numpy call is paid once per column of a batch; a single matrix is a
list of one.  It has one mode: ``solve`` eliminates ``[A | b]`` whole, and
b is outside the column space of A exactly when the last column takes a
pivot.  Each array ends at its batch's last column, so a step scans
and updates only the arrays that reach its column, in their own columns.
Residues are lazy: row updates are not reduced mod p.  Each batch is held
in the narrowest of int16, int32 and int64 that holds the checked bound on
how far entries can grow, and the reduced arrays come back as int8
residues.

Every matrix filled entry by entry goes through
``FpMatrix.batch_from_arrays``, many matrices in one pass (``from_arrays``
is its call for one): the entries are sorted by position once, the repeats
summed in int64 with ``np.add.reduceat``, and only those sums are written,
reduced mod p.

Products are the one place floating point appears.  ``_mod_p_product``
multiplies in floating point so that numpy hands the work to BLAS (sgemm or
dgemm), which integer ``@`` never does.  This is exact because it first
bounds the largest possible dot product, inner * (p-1)**2, and multiplies
in the narrowest float type that holds every integer up to that bound:
float32 up to 2**24, float64 up to 2**53, and nothing beyond.  Every partial
sum is then an exact integer in whatever order BLAS adds.  The result is
cast to the narrowest integer dtype that holds the bound and reduced mod p:
below 2**15 as int16, by lookup in the same table of int16 residues that
elimination reads, above it by remainder in int32 or int64.  It is
returned as int8 residues, identical to ``(a @ b) % p`` computed in int64.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

SUPPORTED_PRIMES = (3, 5, 7)

# inverses mod p, indexed by residue (0 has none and maps to 0)
_INVERSES = {p: np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int16) for p in SUPPORTED_PRIMES}

# x mod p for every int16 x, indexed by the bits of x read as uint16: see
# _residues16.
_RESIDUES16 = {}

# the index of the pivot among the live rows of a column when they all lie
# in one array
_FIRST = np.zeros(1, dtype=np.intp)

# the working dtypes of elimination, narrowest first, with their maxima
_WORK_DTYPES = ((np.int16, 2**15 - 1), (np.int32, 2**31 - 1), (np.int64, 2**63 - 1))

# the dtypes of products, narrowest first: a float dtype, a bound up to
# which it holds every integer exactly, and an integer dtype that holds the
# bound too; an int16 product is reduced by lookup in _residues16
_PRODUCT_DTYPES = ((np.float32, 2**15 - 1, np.int16), (np.float32, 2**24, np.int32), (np.float64, 2**53, np.int64))

# Cells of one batch in ``FpMatrix.eliminate``: 4 MB as int16, so that all
# (degree, parity) blocks of d (6,431 rows, 289 columns) in the
# verify_theorem_B(7, 2, k^{1|0}) complex are one batch.
BATCH_CELLS = 1 << 21


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


class FpMatrix:
    """A rows x cols matrix over GF(p), stored as a dense int8 array of
    residues in [0, p): one byte per cell.

    An int8 array is taken as it is, as residues.  Any other input, an
    int64 array or nested lists say, is reduced mod p first and then
    narrowed, so unreduced or negative entries never wrap:
    ``FpMatrix(7, [[200, -1]])`` holds ``[[4, 6]]``.
    """

    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p, data):
        check_prime(p)
        data = np.asarray(data)
        if data.dtype != np.int8:
            data = np.remainder(data, p).astype(np.int8)
        self.p = p
        self.rows, self.cols = data.shape
        self.data = data

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zeros(p, rows, cols):
        return FpMatrix(p, np.zeros((rows, cols), dtype=np.int8))

    @staticmethod
    def identity(p, n):
        return FpMatrix(p, np.eye(n, dtype=np.int8))

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
        """``from_coords`` with the rows, columns and values as three arrays:
        ``batch_from_arrays`` for one matrix."""
        i = np.asarray(i).ravel()
        (m,) = FpMatrix.batch_from_arrays(p, [(rows, cols)], np.zeros(i.size, dtype=np.int64), i, j, values)
        return m

    @staticmethod
    def batch_from_arrays(p, shapes, k, i, j, values):
        """One matrix of each of the given shapes, from the matrix, row,
        column and value of every entry as four arrays.

        The matrices are laid out one after another in one flat array.  Its
        entries are sorted by position, the values at each position are
        summed in int64 with one ``np.add.reduceat``, and only those sums
        are reduced and written, in one pass for all the matrices.  Each
        matrix is a view of its part.
        """
        k, i, j, values = (np.asarray(x, dtype=np.int64).ravel() for x in (k, i, j, values))
        if not k.size == i.size == j.size == values.size:
            raise ValueError(f"batch_from_arrays: {k.size} matrices, {i.size} rows, {j.size} columns and {values.size} values")
        rows, cols = np.array(shapes, dtype=np.int64).reshape(-1, 2).T
        start = np.zeros(len(shapes) + 1, dtype=np.int64)
        np.cumsum(rows * cols, out=start[1:])
        flat = np.zeros(start[-1], dtype=np.int8)
        if values.size:
            if k.min() < 0 or k.max() >= len(shapes):
                raise IndexError(f"batch_from_arrays: an entry names no matrix of the {len(shapes)} given")
            width = cols[k]
            if min(i.min(), j.min()) < 0 or (i >= rows[k]).any() or (j >= width).any():
                raise IndexError("batch_from_arrays: an entry lies outside its matrix")
            _sum_into(flat, start[k] + i * width + j, values, p)
        return [FpMatrix(p, flat[start[n] : start[n + 1]].reshape(shape)) for n, shape in enumerate(shapes)]

    # ------------------------------------------------------------------
    # basic access

    @property
    def shape(self):
        return (self.rows, self.cols)

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
        # _mod_p_product widens both operands to floats before it multiplies
        return _mod_p_product(self.data, col, self.p)[:, 0].tolist()

    # ------------------------------------------------------------------
    # elimination

    @staticmethod
    def eliminate(p, arrays, reduce_above, out=None):
        """Row-reduce a list of arrays of residues in [0, p), all in lockstep,
        and return the pivot columns of each.

        Columns are scanned left to right; in each array the pivot of a
        column is the first row at or below that array's current row with a
        nonzero entry.  Each pivot row is scaled to 1 and its column cleared
        below it, and above it too when ``reduce_above`` is set, which gives
        the unique reduced row echelon form.  When ``out`` is a list, the
        reduced arrays are appended to it in the order of ``arrays``, as int8
        residues.

        The arrays are sorted by shape and stacked, each at its own height,
        into batches of at most ``BATCH_CELLS`` cells (an array larger than
        that is a batch alone), eliminated one batch at a time.  Only the
        columns are padded, to the widest array of the batch, and on the
        left: each array ends at the batch's last column.  A step over one
        column makes the same numpy calls for the arrays that reach it,
        which sit at the end of the batch, so their fixed cost is paid once
        per column of the batch, not once per column of every array, and
        each row update covers only its own array's columns.  The padding
        is never read or written.

        Residues are reduced lazily: only the scanned column and the pivot
        rows are reduced when a column is reached, the row updates are not.
        A pivot moves an entry by at most (p-1)**2, so every entry stays
        within (p-1) + (p-1)**2 * min(rows, cols) of zero.  A batch is held in
        the narrowest of int16, int32 and int64 that holds this bound for
        every array in it.  int64 always does: an array has fewer than 2**63
        cells, so min(rows, cols) < 2**32.
        """
        check_prime(p)
        shapes = [x.shape for x in arrays]
        pivots = [None] * len(arrays)
        reduced = [None] * len(arrays)
        for members, cols in _batches(shapes):
            sizes = [shapes[b] for b in members]
            worst = (p - 1) + (p - 1) ** 2 * max(min(size) for size in sizes)
            dtype = next(t for t, top in _WORK_DTYPES if worst <= top)
            tops = list(accumulate((r for r, c in sizes), initial=0))
            a = np.zeros((tops[-1], cols), dtype=dtype)
            for b, t, (r, c) in zip(members, tops, sizes):
                a[t : t + r, cols - c :] = arrays[b]
            found = _lockstep(p, a, sizes, cols, reduce_above)
            for b, t, (r, c), piv in zip(members, tops, sizes, found):
                pivots[b] = piv
                if out is not None:
                    reduced[b] = (a[t : t + r, cols - c :] % p).astype(np.int8)
        if out is not None:
            out.extend(reduced)
        return pivots

    def pivot_columns(self):
        """The pivot columns: each column not in the span of those before it."""
        return FpMatrix.eliminate(self.p, [self.data], reduce_above=False)[0]

    def rank(self):
        """Rank over GF(p)."""
        return len(self.pivot_columns())

    def kernel_basis(self):
        """Matrix whose columns span ker(self), in free-column order."""
        reduced = []
        (pivots,) = FpMatrix.eliminate(self.p, [self.data], reduce_above=True, out=reduced)
        a = reduced[0]
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        out = np.zeros((self.cols, len(free)), dtype=np.int8)
        out[free, range(len(free))] = 1
        # negate in int64: the residues are int8
        out[pivots, :] = -a[: len(pivots), free].astype(np.int64) % self.p
        return FpMatrix(self.p, out)

    def image_basis(self):
        """Columns of self at its pivot columns; they span the column space."""
        return self.submatrix(range(self.rows), self.pivot_columns())

    def solve(self, b):
        """A particular solution x of self @ x = b, or None if inconsistent.

        Free variables are set to 0, which makes the solution the
        lexicographically-first one for the pivot ordering.  ``[A | b]`` is
        eliminated whole: its last column takes a pivot exactly when b lies
        outside the column space of A.
        """
        if len(b) != self.rows:
            raise ShapeMismatchError("solve", self.shape, (len(b), 1))
        ab = np.empty((self.rows, self.cols + 1), dtype=np.int8)
        ab[:, :-1] = self.data
        ab[:, -1] = np.asarray(b, dtype=np.int64) % self.p
        reduced = []
        (pivots,) = FpMatrix.eliminate(self.p, [ab], reduce_above=True, out=reduced)
        if pivots and pivots[-1] == self.cols:
            return None
        a = reduced[0]
        x = np.zeros(self.cols, dtype=np.int64)
        x[pivots] = a[: len(pivots), -1]
        return x.tolist()


def _sum_into(flat, at, values, p):
    """Write at each distinct place of ``at`` in ``flat`` the sum mod p of
    the values there: one stable sort, one ``np.add.reduceat``."""
    order = np.argsort(at, kind="stable")
    at = at[order]
    first = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1])))
    flat[at[first]] = np.add.reduceat(values[order], first) % p


def _batches(shapes):
    """(indices, columns) of each batch: the arrays sorted by column count,
    then row count, and cut where stacking them at their own heights, all
    as wide as the widest, would pass ``BATCH_CELLS`` cells."""
    batch, rows, cols = [], 0, 0
    for b in sorted(range(len(shapes)), key=lambda b: shapes[b][::-1]):
        r, c = shapes[b]
        if batch and (rows + r) * c > BATCH_CELLS:
            yield batch, cols
            batch, rows = [], 0
        batch.append(b)
        rows, cols = rows + r, c
    if batch:
        yield batch, cols


def _lockstep(p, a, shapes, cols, reduce_above):
    """Eliminate the arrays stacked in the rows of a, each at its own height
    and in order of width, in place and in lockstep; returns the pivot
    columns of each in its own numbering.  An array c wide fills the last c
    of the cols columns of its rows."""
    count = len(shapes)
    heights = [r for r, c in shapes]
    widths = [c for r, c in shapes]
    top = np.array(list(accumulate(heights, initial=0)))  # array k holds rows top[k] to top[k+1]
    every = np.arange(count)
    owner = np.repeat(every, heights)  # the array of each row
    # p on pivot rows and 0 on the others, so that a residue above it is a
    # nonzero entry of a row that can still take a pivot
    lock = np.zeros(len(a), dtype=a.dtype)
    slot = np.zeros(count, dtype=np.intp)  # which of a step's pivot rows is array k's
    has = np.zeros(count, dtype=bool)
    inverse = _INVERSES[p]
    if a.dtype == np.int16 and len(a) >= 256:
        table = _residues16(p)

        def residues(x):
            return table.take(x.view(np.uint16))
    else:

        def residues(x):
            return x % p

    pivots = [[] for _ in range(count)]
    left = sum(r for r, c in shapes if c)  # rows that can still take a pivot
    # the arrays from index active on reach column c: they start at row
    # base, and sub, sub_lock and sub_owner are their rows
    active, base = count, top[-1]
    sub = sub_lock = sub_owner = None
    nxt = top[:-1] - base  # the current row of each array, from base
    for c in range(cols - max((c for r, c in shapes if r), default=0), cols):
        if not left:
            break
        if active and cols - widths[active - 1] <= c:
            while active and cols - widths[active - 1] <= c:
                active -= 1
            nxt += base - top[active]
            base = top[active]
            sub, sub_lock, sub_owner = a[base:], lock[base:], owner[base:]
        col = residues(sub[:, c])
        at = (col > sub_lock).nonzero()[0]
        if not at.size:
            continue
        own = sub_owner[at]
        if own[0] == own[-1]:
            # one array has live rows: its first one is the pivot
            first, rest = _FIRST, at[1:]
        else:
            # the live rows are sorted, so each array's first one starts a run
            starts = np.empty(at.size, dtype=bool)
            starts[0] = True
            np.not_equal(own[1:], own[:-1], out=starts[1:])
            first, rest = starts.nonzero()[0], at[~starts]
        got = own[first]
        src, dst = at[first], nxt[got]
        # swap the pivot row into the current row; left of column c both
        # rows are zero mod p, so only c: moves
        row = residues(sub[src, c:])
        sub[src, c:] = sub[dst, c:]
        row *= inverse[row[:, :1]]
        row = residues(row)
        sub[dst, c:] = row
        # clear column c with the reduced entries from before the swap, in
        # the arrays that have a pivot here: the pivot's own entry is
        # dropped, and the old current row, now at src, was zero there.
        # Below the current rows these are the live rows but the pivots.
        if not reduce_above:
            rows = rest
        else:
            if got.size < count - active:
                has[got] = True
                col *= has[sub_owner]
                has[got] = False
            col[src] = 0
            rows = col.nonzero()[0]
        slot[got] = every[: got.size]
        sub[rows, c:] -= col[rows][:, None] * row[slot[sub_owner[rows]]]
        sub_lock[dst] = p
        nxt[got] = dst + 1
        for b in got.tolist():
            pivots[b].append(c - cols + widths[b])
        left -= got.size
    return pivots


def _residues16(p):
    """The table of x mod p for every int16 x, indexed by the bits of x read
    as uint16, filled on first use of each p.

    On an int16 batch of 256 rows or more, a lookup reduces a column about
    twice as fast as numpy's int16 remainder; on fewer rows the remainder
    is cheaper.  An int16 product is cast and reduced by lookup in about
    half the time of the int32 cast and remainder (300 x 200 and 2,000 x 300
    products at p = 3, timeit).
    """
    table = _RESIDUES16.get(p)
    if table is None:
        table = _RESIDUES16[p] = np.arange(2**16, dtype=np.uint16).view(np.int16) % p
    return table


def _product_dtypes(bound):
    """The narrowest float dtype that holds every integer up to bound, with
    the narrowest integer dtype that holds bound, or None when none does."""
    for dtype, top, int_dtype in _PRODUCT_DTYPES:
        if bound <= top:
            return dtype, int_dtype
    return None


def _mod_p_product(a, b, p):
    """a @ b mod p for integer arrays of residues in [0, p), as int8
    residues, one byte per cell of the result.

    Both operands are widened to the float dtype of ``_product_dtypes`` for
    the bound inner * (p-1)**2 on a dot product, so the int8 storage never
    takes part in the arithmetic.  The exact product is cast to the
    matching integer dtype and reduced mod p: an int16 product by lookup in
    ``_residues16``, a wider one by integer remainder, which is an order of
    magnitude faster than ``np.fmod`` on floats.

    Raises ValueError, before converting anything, when a dot product could
    exceed 2**53, the largest integer range float64 holds exactly.
    """
    inner = a.shape[1]
    dtypes = _product_dtypes(inner * (p - 1) ** 2)
    if dtypes is None:
        raise ValueError(
            f"matmul: {inner} inner columns at p = {p} break the exact bound "
            f"inner * (p-1)**2 <= 2**53"
        )
    dtype, int_dtype = dtypes
    prod = (a.astype(dtype) @ b.astype(dtype)).astype(int_dtype)
    if int_dtype is np.int16:
        return _residues16(p).take(prod.view(np.uint16)).astype(np.int8)
    # in place: a second integer result array would raise peak memory
    np.remainder(prod, p, out=prod)
    return prod.astype(np.int8)


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
