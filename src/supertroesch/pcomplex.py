"""Graded modules over k[d]/(d^N): p-complexes, slice cohomology, normality
via cyclic decompositions, contraction to ordinary complexes, and tensor
products with the Kunneth comparison.

An ordinary cochain complex is the order-2 case: ``ChainComplex`` is a
``PComplex`` with N = 2 and step one, so it shares the storage, the evenness
check and the cached parity-block ranks, and its H^i is the slice H_[1].
Whether given cocycles span H_[1] is decided in one place,
``cocycles_span``.

Every power of d is one recursion, d^m = d times d^(m-1), and d^0 is the
identity, whose pivot columns are every column.  The first rank asked of a
power d^m eliminates all (degree, parity) blocks of d^m in one call to the
batched kernel ``FpMatrix.eliminate``.  d^m is formed and kept only on the
pivot columns of d^(m-1), as d times d^(m-1) there: those columns span the
image of d^(m-1), so the pivots are those of the whole d^m, and d^1 is d
itself.  d^m on its own pivot columns (``image_of_power``) is a basis of
its image; it feeds the next power, the check d^N = 0 once the ranks are
known, and every span check against the image of d^(N-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import FpMatrix, hstack, matmul
from .superspace import EVEN, ODD, ZERO_SPACE, SuperSpace, tensor


class PDifferentialError(ValueError):
    """The stored maps do not define a p-differential."""


@dataclass
class PComplex:
    """Non-negatively graded superspaces with an even differential of step
    alpha and d^N = 0, where the nilpotency order N is the modulus p."""

    p: int
    alpha: int
    terms: dict
    diffs: dict
    _rank_cache: dict = field(default_factory=dict, repr=False)  # m -> {(degree, parity): pivots}
    # (degree, m) -> d^m on the pivot columns of d^(m-1); d^1 is d itself
    _power_cache: dict = field(default_factory=dict, repr=False)
    # (degree, N-1) -> d^(N-1); lower powers are only steps of its chain
    _iter_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        self.terms = {i: t for i, t in self.terms.items() if t.dim > 0}
        self.diffs = {i: m for i, m in self.diffs.items() if not m.is_zero()}
        self._power_cache.update(((i, 1), m) for i, m in self.diffs.items())
        for i, m in self.diffs.items():
            src = self.term(i)
            tgt = self.term(i + self.alpha)
            if m.shape != (tgt.dim, src.dim):
                raise ValueError(f"differential at {i} has shape {m.shape}, expected {(tgt.dim, src.dim)}")
            even_rows, odd_rows = tgt.indices_of_parity(EVEN), tgt.indices_of_parity(ODD)
            even_cols, odd_cols = src.indices_of_parity(EVEN), src.indices_of_parity(ODD)
            # a purely even or purely odd side has no off-parity block
            for rows, cols in ((odd_rows, even_cols), (even_rows, odd_cols)):
                if rows and cols and m.data[np.ix_(rows, cols)].any():
                    raise ValueError(f"differential at {i} is not even")

    @property
    def order(self):
        """The nilpotency order N of d."""
        return self.p

    def term(self, i):
        return self.terms.get(i, ZERO_SPACE)

    def dim(self, i, parity=None):
        t = self.term(i)
        if parity is None:
            return t.dim
        return len(t.indices_of_parity(parity))

    def degrees(self):
        return sorted(self.terms)

    def max_degree(self):
        return max(self.terms, default=0)

    def diff(self, i):
        m = self.diffs.get(i)
        if m is None:
            return FpMatrix.zeros(self.p, self.dim(i + self.alpha), self.dim(i))
        return m

    def iterated_diff(self, i, m):
        """Matrix of d^m restricted to the degree-i term, as d times
        d^(m-1)(i); only d^(N-1) is kept."""
        if m == 0:
            return FpMatrix.identity(self.p, self.dim(i))
        if m == 1:
            return self.diff(i)
        key = (i, m)
        got = self._iter_cache.get(key)
        if got is None:
            got = matmul(self.diff(i + (m - 1) * self.alpha), self.iterated_diff(i, m - 1))
            if m == self.order - 1:
                self._iter_cache[key] = got
        return got

    def validate_p_differential(self):
        """Raise PDifferentialError naming the first degree where d^N != 0.

        d is applied to columns spanning the image of d^(N-1)(i):
        ``image_of_power(i, N-1)`` once the ranks of d^(N-1) are cached,
        the whole ``iterated_diff(i, N-1)`` before, so the same degrees
        fail either way.
        """
        top = self.order - 1
        for i in self.degrees():
            span = self.image_of_power(i, top) if top in self._rank_cache else self.iterated_diff(i, top)
            d = self.diffs.get(i + top * self.alpha)
            if d is not None and span.cols and not matmul(d, span).is_zero():
                raise PDifferentialError(f"d^{self.order} is nonzero starting at degree {i}")

    # -- parity-aware ranks -------------------------------------------

    def rank_of_power(self, i, m, parity):
        """rank of d^m restricted to the parity part of the degree-i term."""
        if m >= self.order:
            return 0
        return len(self._pivot_columns(i, m, parity))

    def _pivot_columns(self, i, m, parity):
        """Basis indices of the degree-i term whose images under d^m are a
        basis of the image of its parity part: every index of that parity
        for d^0, the identity."""
        if m == 0:
            return self.term(i).indices_of_parity(parity)
        got = self._rank_cache.get(m)
        if got is None:
            got = self._rank_cache[m] = self._eliminate_power(m)
        return got.get((i, parity), [])

    def image_of_power(self, i, m):
        """d^m(i) on the columns of both parities' pivots, in basis order:
        its columns are a basis of the image of d^m(i), for 1 <= m < N."""
        cols = self._image_columns(i, m)
        if not cols:
            return FpMatrix.zeros(self.p, self.dim(i + m * self.alpha), 0)
        on, power = self._image_columns(i, m - 1), self._power_cache[(i, m)]
        if len(cols) == len(on):
            return power
        return FpMatrix(self.p, power.data[:, np.searchsorted(on, cols)])

    def _image_columns(self, i, m):
        """The pivot columns of d^m(i) of both parities, in basis order."""
        if m == 0:
            return range(self.dim(i))
        return sorted(self._pivot_columns(i, m, EVEN) + self._pivot_columns(i, m, ODD))

    def _eliminate_power(self, m):
        """Pivot columns of every (degree, parity) block of d^m, from one
        call to the elimination kernel.

        d^m(i) is formed only on the pivot columns of d^(m-1)(i), as d
        times ``image_of_power(i, m - 1)``, kept, and only those columns
        are eliminated; d^1 = d is kept from the start.  A block with no
        rows or no columns, or of a zero d, has no pivots.
        """
        pivots, keys, columns, blocks = {}, [], [], []
        for i in self.degrees():
            on = self._image_columns(i, m - 1)
            d = self.diffs.get(i + (m - 1) * self.alpha)
            if on and d is not None and (i, m) not in self._power_cache:
                self._power_cache[(i, m)] = matmul(d, self.image_of_power(i, m - 1))
            power = self._power_cache.get((i, m))
            for parity in (EVEN, ODD):
                rows = self.term(i + m * self.alpha).indices_of_parity(parity)
                cols = self._pivot_columns(i, m - 1, parity)
                if not (rows and cols):
                    continue
                if power is None:
                    pivots[(i, parity)] = []
                    continue
                keys.append((i, parity))
                columns.append(cols)
                if len(rows) == power.rows and len(cols) == power.cols:
                    # one parity covers the piece: the stored int8 array is
                    # the block, and the kernel copies it into its batch
                    blocks.append(power.data)
                    continue
                blocks.append(power.data[np.ix_(rows, np.searchsorted(on, cols))])
        for key, cols, piv in zip(keys, columns, FpMatrix.eliminate(self.p, blocks)):
            pivots[key] = [cols[k] for k in piv]
        return pivots


class ChainComplex(PComplex):
    """Ordinary cochain complex: the order-2 case, with a step-one differential."""

    order = 2

    def __init__(self, p, terms, diffs):
        super().__init__(p, 1, terms, diffs)

    def cohomology_dims(self, i):
        """(even, odd) dimension of H^i."""
        return _slice_dims(self, 1, i)


@dataclass
class CohomologyTable:
    """Per-slice, per-degree (even, odd) dimensions of the cohomology."""

    p: int
    alpha: int
    rows: dict  # s -> {degree: (even, odd)}

    def is_zero(self):
        return all(not any(e or o for e, o in row.values()) for row in self.rows.values())


def _slice_dims(cx, s, i):
    """(even, odd) dimension of H_[s] in degree i: ker d^s modulo im d^(N-s)."""
    dims = tuple(
        cx.dim(i, parity)
        - cx.rank_of_power(i, s, parity)
        - cx.rank_of_power(i - (cx.order - s) * cx.alpha, cx.order - s, parity)
        for parity in (EVEN, ODD)
    )
    if min(dims) < 0:
        raise PDifferentialError(f"negative cohomology dimension at degree {i}")
    return dims


def cohomology(cx, s):
    """H_[s] of a p-complex: kernel of d^s modulo image of d^{p-s}."""
    if not (1 <= s < cx.order):
        raise ValueError(f"slice index s={s} out of range 1..{cx.order - 1}")
    return {i: _slice_dims(cx, s, i) for i in cx.degrees()}


def cohomology_table(cx):
    return CohomologyTable(cx.p, cx.alpha, {s: cohomology(cx, s) for s in range(1, cx.order)})


@dataclass
class CyclicDecomposition:
    """Multiset of cyclic summands (shift, length, parity) -> multiplicity."""

    p: int
    alpha: int
    blocks: dict

    def is_normal(self):
        return all(length in (1, self.p) for (_, length, _) in self.blocks)


def decompose_cyclic(cx):
    """Block multiplicities from ranks of iterated differentials.

    N(i, j) = r_{j-1}(i) - r_j(i) - r_j(i - alpha) + r_{j+1}(i - alpha),
    the graded Jordan-type count for a nilpotent operator of order p.
    """
    # ranks first, so that validation applies d only to the pivot columns
    # of d^(N-1)
    cx.rank_of_power(0, cx.order - 1, EVEN)
    cx.validate_p_differential()
    blocks = {}
    for i in cx.degrees():
        for parity in (EVEN, ODD):
            for j in range(1, cx.order + 1):
                n = (
                    cx.rank_of_power(i, j - 1, parity)
                    - cx.rank_of_power(i, j, parity)
                    - cx.rank_of_power(i - cx.alpha, j, parity)
                    + cx.rank_of_power(i - cx.alpha, j + 1, parity)
                )
                if n < 0:
                    raise PDifferentialError(f"negative block count at ({i},{j})")
                if n:
                    blocks[(i, j, parity)] = n
    return CyclicDecomposition(cx.p, cx.alpha, blocks)


# ---------------------------------------------------------------------------
# contraction


def contract(cx, s, t):
    """The contracted ordinary complex alternating d^s and d^{p-s}."""
    if not (1 <= s < cx.order):
        raise ValueError(f"contraction slice s={s} out of range")
    if not (0 <= t < (cx.order - s) * cx.alpha):
        raise ValueError(f"contraction offset t={t} out of range")
    maxdeg = cx.max_degree()
    terms = {}
    diffs = {}
    ell = 0
    while True:
        src_deg = contraction_degree(cx.order, cx.alpha, s, t, ell)
        if src_deg > maxdeg:
            break
        terms[ell] = cx.term(src_deg)
        diffs[ell] = cx.iterated_diff(src_deg, s if ell % 2 == 0 else cx.order - s)
        ell += 1
    return ChainComplex(cx.p, terms, diffs)


def contraction_degree(order, alpha, s, t, ell):
    """Degree, in a p-complex of nilpotency order N = order and step alpha,
    of the degree-ell term of its (s, t) contraction."""
    i, odd = divmod(ell, 2)
    return t + (order * i + (s if odd else 0)) * alpha


# ---------------------------------------------------------------------------
# tensor products and spanning cocycles


def tensor_pcomplex(c1, c2):
    """Tensor product complex with the Leibniz differential (d is even: no
    sign), and the offset of the (i, j) block of basis products in degree
    i + j, its basis in c1-major order.  A product space is built from its
    factors' grading columns; its names, a(*)b@i,j, are written only when
    read."""
    if c1.p != c2.p:
        raise ValueError("modulus mismatch")
    if c1.alpha != c2.alpha:
        raise ValueError(f"alpha mismatch: {c1.alpha} vs {c2.alpha}")
    p, alpha = c1.p, c1.alpha
    columns = {}  # degree -> (zdegs, parities, the (i, j) blocks in order)
    offsets = {}
    for i in c1.degrees():
        for j in c2.degrees():
            zdegs, parities, blocks = columns.setdefault(i + j, ([], [], []))
            offsets[(i, j)] = len(zdegs)
            product = tensor(c1.term(i), c2.term(j))
            zdegs += product.zdegs()
            parities += product.parities()
            blocks.append((i, j))

    def names(blocks):
        return lambda: [
            f"{a}(*){b}@{i},{j}" for i, j in blocks for a in c1.term(i).names() for b in c2.term(j).names()
        ]

    spaces = {z: SuperSpace.from_columns(zd, par, names(blocks)) for z, (zd, par, blocks) in columns.items()}
    diffs = {}
    for (i, j), off in offsets.items():
        z, d1, d2 = i + j, c1.dim(i), c2.dim(j)
        # d(a (*) b) = da (*) b + a (*) db, with the int8 residues widened
        # before the Kronecker products
        leibniz = (
            ((i + alpha, j), np.kron(c1.diff(i).data.astype(np.int64), np.eye(d2, dtype=np.int64))),
            ((i, j + alpha), np.kron(np.eye(d1, dtype=np.int64), c2.diff(j).data.astype(np.int64))),
        )
        for target, block in leibniz:
            if target in offsets:
                mat = diffs.setdefault(z, np.zeros((spaces[z + alpha].dim, spaces[z].dim), dtype=np.int8))
                toff = offsets[target]
                mat[toff : toff + block.shape[0], off : off + d1 * d2] = block
    return PComplex(p, alpha, spaces, {z: FpMatrix(p, m) for z, m in diffs.items()}), offsets


def cocycles_span(cx, deg, vmat):
    """(is_cocycle, spans) for the columns of vmat in degree deg: whether d
    kills them, and whether they span ker d together with the image of
    d^(N-1), so that their classes span H_[1] when they are cocycles."""
    is_cocycle = matmul(cx.diff(deg), vmat).is_zero()
    ker_rank = cx.dim(deg) - sum(cx.rank_of_power(deg, 1, parity) for parity in (EVEN, ODD))
    img = cx.image_of_power(deg - (cx.order - 1) * cx.alpha, cx.order - 1)
    return is_cocycle, hstack([img, vmat]).rank() == ker_rank


def _class_representatives(cx, deg):
    """Cocycles, as the columns of an array, whose classes form a basis of
    H_[1] in this degree."""
    ker = cx.diff(deg).kernel_basis()
    img = cx.image_of_power(deg - (cx.order - 1) * cx.alpha, cx.order - 1)
    # the pivot columns are the kernel columns not in the span of the image
    # and the kernel columns before them
    pivots = hstack([img, ker]).pivot_columns()
    return ker.data[:, [c - img.cols for c in pivots if c >= img.cols]]


def kunneth_check(c1, c2):
    """Dimension count and cocycle-product spanning for a tensor of normal complexes."""
    t, offsets = tensor_pcomplex(c1, c2)
    h1 = cohomology(c1, 1)
    h2 = cohomology(c2, 1)
    ht = cohomology(t, 1)
    degrees = set(ht) | {i + j for i in h1 for j in h2}
    for n in degrees:
        for parity in (EVEN, ODD):
            expect = 0
            for i, (e1, o1) in h1.items():
                e2, o2 = h2.get(n - i, (0, 0))
                if parity == EVEN:
                    expect += e1 * e2 + o1 * o2
                else:
                    expect += e1 * o2 + o1 * e2
            got = ht.get(n, (0, 0))[parity]
            if got != expect:
                return False, f"dimension mismatch at degree {n} parity {parity}: {got} != {expect}"
    # products of class representatives must span
    reps1 = {i: _class_representatives(c1, i) for i, v in h1.items() if sum(v)}
    reps2 = {j: _class_representatives(c2, j) for j, v in h2.items() if sum(v)}
    for n in sorted(ht):
        if ht[n] == (0, 0):
            continue
        cols = [np.zeros((t.dim(n), 0), dtype=np.int8)]
        for i, r1 in reps1.items():
            r2 = reps2.get(n - i)
            if r2 is None:
                continue
            # column a * k2 + b of the Kronecker product, for the k2 columns
            # of r2, is the product of cocycles a and b, laid out c1-major
            # like the basis
            block = np.zeros((t.dim(n), r1.shape[1] * r2.shape[1]), dtype=np.int8)
            off = offsets[(i, n - i)]
            # the representatives are int8 residues: widen before multiplying
            block[off : off + r1.shape[0] * r2.shape[0]] = np.kron(r1.astype(np.int64), r2) % t.p
            cols.append(block)
        if not all(cocycles_span(t, n, FpMatrix(t.p, np.hstack(cols)))):
            return False, f"cocycle products do not span H^{n}"
    return True, "ok"
