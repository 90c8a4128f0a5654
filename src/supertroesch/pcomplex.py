"""Graded modules over k[d]/(d^p): p-complexes, slice cohomology, normality
via cyclic decompositions, contraction to ordinary complexes, and tensor
products with the Kunneth comparison."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import FpMatrix, hstack, matmul
from .superspace import EVEN, ODD, ZERO_SPACE, BasisElement, SuperSpace


class PDifferentialError(ValueError):
    """The stored maps do not define a p-differential."""


@dataclass
class PComplex:
    """Non-negatively graded superspaces with an even differential of step alpha."""

    p: int
    alpha: int
    terms: dict
    diffs: dict
    _rank_cache: dict = field(default_factory=dict, repr=False)
    _iter_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        self.terms = {i: t for i, t in self.terms.items() if t.dim > 0}
        self.diffs = {i: m for i, m in self.diffs.items() if not m.is_zero()}
        for i, m in self.diffs.items():
            src = self.term(i)
            tgt = self.term(i + self.alpha)
            if m.shape != (tgt.dim, src.dim):
                raise ValueError(f"differential at {i} has shape {m.shape}, expected {(tgt.dim, src.dim)}")
            odd_rows = np.array(tgt.parities()) == ODD
            odd_cols = np.array(src.parities()) == ODD
            if m.data[np.ix_(odd_rows, ~odd_cols)].any() or m.data[np.ix_(~odd_rows, odd_cols)].any():
                raise ValueError(f"differential at {i} is not even")

    def term(self, i):
        return self.terms.get(i, ZERO_SPACE)

    def dim(self, i, parity=None):
        t = self.term(i)
        if parity is None:
            return t.dim
        return sum(1 for b in t.basis if b.parity == parity)

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
        """Matrix of d^m restricted to the degree-i term."""
        if m == 0:
            return FpMatrix.identity(self.p, self.dim(i))
        if m == 1:
            return self.diff(i)
        key = (i, m)
        got = self._iter_cache.get(key)
        if got is None:
            got = matmul(self.iterated_diff(i + self.alpha, m - 1), self.diff(i))
            self._iter_cache[key] = got
        return got

    def validate_p_differential(self):
        for i in self.degrees():
            if not self.iterated_diff(i, self.p).is_zero():
                raise PDifferentialError(f"d^{self.p} is nonzero starting at degree {i}")

    # -- parity-aware ranks -------------------------------------------

    def rank_of_power(self, i, m, parity):
        """rank of d^m restricted to the parity part of the degree-i term."""
        if m == 0:
            return self.dim(i, parity)
        if m >= self.p:
            return 0
        return len(self._pivot_columns(i, m, parity))

    def _pivot_columns(self, i, m, parity):
        """Basis indices of the degree-i term whose images under d^m are a
        basis of the image of its parity part.

        The image of d^m is d applied to the image of d^(m-1), so for m >= 2
        only the columns at the pivots of d^(m-1) are eliminated.
        """
        key = (i, m, parity)
        got = self._rank_cache.get(key)
        if got is None:
            if m == 1:
                cols = self.term(i).indices_of_parity(parity)
            else:
                cols = self._pivot_columns(i, m - 1, parity)
            rows = self.term(i + m * self.alpha).indices_of_parity(parity)
            pivots = self.iterated_diff(i, m).submatrix(rows, cols).pivot_columns()
            got = [cols[k] for k in pivots]
            self._rank_cache[key] = got
        return got


@dataclass
class CohomologyTable:
    """Per-slice, per-degree (even, odd) dimensions of the cohomology."""

    p: int
    alpha: int
    rows: dict  # s -> {degree: (even, odd)}

    def row(self, s):
        return self.rows[s]

    def is_zero(self, s=None):
        slices = [s] if s is not None else list(self.rows)
        return all(not any(e or o for e, o in self.rows[t].values()) for t in slices)

    def rows_equal(self):
        vals = list(self.rows.values())
        return all(v == vals[0] for v in vals[1:])

    def to_jsonable(self):
        return {
            "schema": 1,
            "p": self.p,
            "alpha": self.alpha,
            "tables": {
                str(s): [
                    {"degree": i, "even": eo[0], "odd": eo[1]}
                    for i, eo in sorted(self.rows[s].items())
                    if eo != (0, 0)
                ]
                for s in sorted(self.rows)
            },
        }


def cohomology(cx, s):
    """H_[s] of a p-complex: kernel of d^s modulo image of d^{p-s}."""
    if not (1 <= s < cx.p):
        raise ValueError(f"slice index s={s} out of range 1..{cx.p - 1}")
    degrees = set(cx.degrees())
    row = {}
    for i in sorted(degrees):
        ev_od = []
        for parity in (EVEN, ODD):
            k = cx.dim(i, parity) - cx.rank_of_power(i, s, parity)
            im = cx.rank_of_power(i - (cx.p - s) * cx.alpha, cx.p - s, parity)
            ev_od.append(k - im)
        if ev_od[0] < 0 or ev_od[1] < 0:
            raise PDifferentialError(f"negative cohomology dimension at degree {i}")
        row[i] = (ev_od[0], ev_od[1])
    return row


def cohomology_table(cx, slices=None):
    slices = list(range(1, cx.p)) if slices is None else list(slices)
    return CohomologyTable(cx.p, cx.alpha, {s: cohomology(cx, s) for s in slices})


@dataclass
class CyclicDecomposition:
    """Multiset of cyclic summands (shift, length, parity) -> multiplicity."""

    p: int
    alpha: int
    blocks: dict

    def multiplicity(self, shift, length, parity):
        return self.blocks.get((shift, length, parity), 0)

    def reconstructed_dims(self):
        dims = {}
        for (shift, length, parity), mult in self.blocks.items():
            for t in range(length):
                key = (shift + t * self.alpha, parity)
                dims[key] = dims.get(key, 0) + mult
        return dims

    def is_normal(self):
        return all(length in (1, self.p) for (_, length, _) in self.blocks)

    def to_jsonable(self):
        return {
            "schema": 1,
            "p": self.p,
            "alpha": self.alpha,
            "blocks": [
                {"shift": s, "length": ln, "parity": par, "multiplicity": m}
                for (s, ln, par), m in sorted(self.blocks.items())
            ],
        }


def decompose_cyclic(cx, validate=True):
    """Block multiplicities from ranks of iterated differentials.

    N(i, j) = r_{j-1}(i) - r_j(i) - r_j(i - alpha) + r_{j+1}(i - alpha),
    the graded Jordan-type count for a nilpotent operator of order p.
    """
    if validate:
        cx.validate_p_differential()
    blocks = {}
    for i in cx.degrees():
        for parity in (EVEN, ODD):
            for j in range(1, cx.p + 1):
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


def is_normal(cx):
    return decompose_cyclic(cx).is_normal()


# ---------------------------------------------------------------------------
# ordinary complexes and contraction


@dataclass
class ChainComplex:
    """Ordinary cochain complex: differential of step one, d^2 = 0."""

    p: int
    terms: dict
    diffs: dict

    def term(self, i):
        return self.terms.get(i, ZERO_SPACE)

    def dim(self, i, parity=None):
        t = self.term(i)
        if parity is None:
            return t.dim
        return sum(1 for b in t.basis if b.parity == parity)

    def degrees(self):
        return sorted(self.terms)

    def diff(self, i):
        m = self.diffs.get(i)
        if m is None:
            return FpMatrix.zeros(self.p, self.dim(i + 1), self.dim(i))
        return m

    def validate(self):
        for i in self.degrees():
            comp = matmul(self.diff(i + 1), self.diff(i))
            if not comp.is_zero():
                raise PDifferentialError(f"d^2 is nonzero at degree {i}")

    def cohomology_dims(self, i):
        """(even, odd) dimension of H^i."""
        out = []
        for parity in (EVEN, ODD):
            src = self.term(i)
            d_out = self.diff(i)
            d_in = self.diff(i - 1)
            sidx = src.indices_of_parity(parity)
            block_out = d_out.submatrix(self.term(i + 1).indices_of_parity(parity), sidx)
            block_in = d_in.submatrix(sidx, self.term(i - 1).indices_of_parity(parity))
            k = len(sidx) - block_out.rank()
            out.append(k - block_in.rank())
        return tuple(out)


def contract(cx, s, t):
    """The contracted ordinary complex alternating d^s and d^{p-s}."""
    if not (1 <= s < cx.p):
        raise ValueError(f"contraction slice s={s} out of range")
    if not (0 <= t < (cx.p - s) * cx.alpha):
        raise ValueError(f"contraction offset t={t} out of range")
    maxdeg = cx.max_degree()
    terms = {}
    diffs = {}
    ell = 0
    while True:
        src_deg = contraction_degree(cx, s, t, ell)
        if src_deg > maxdeg:
            break
        sp = cx.term(src_deg)
        if sp.dim:
            terms[ell] = sp
        step = s if ell % 2 == 0 else cx.p - s
        mat = cx.iterated_diff(src_deg, step)
        if not mat.is_zero():
            diffs[ell] = mat
        ell += 1
    return ChainComplex(cx.p, terms, diffs)


def contraction_degree(cx, s, t, ell):
    """Degree in the p-complex of the contraction's degree-ell term."""
    i, odd = divmod(ell, 2)
    return t + (cx.p * i + (s if odd else 0)) * cx.alpha


def contraction_prediction(cx, s, t, ell):
    """Expected H^ell of the contraction from the slice cohomology of cx."""
    deg = contraction_degree(cx, s, t, ell)
    slice_ = s if ell % 2 == 0 else cx.p - s
    row = cohomology(cx, slice_)
    return row.get(deg, (0, 0))


# ---------------------------------------------------------------------------
# tensor products


def _tensor_with_offsets(c1, c2):
    if c1.p != c2.p:
        raise ValueError("modulus mismatch")
    if c1.alpha != c2.alpha:
        raise ValueError(f"alpha mismatch: {c1.alpha} vs {c2.alpha}")
    p = c1.p
    raw = {}
    offsets = {}
    for i in c1.degrees():
        for j in c2.degrees():
            z = i + j
            elems = raw.setdefault(z, [])
            offsets[(i, j)] = len(elems)
            for a in c1.term(i).basis:
                for b in c2.term(j).basis:
                    elems.append(
                        BasisElement(
                            f"{a.name}(*){b.name}@{i},{j}",
                            a.zdeg + b.zdeg,
                            (a.parity + b.parity) % 2,
                        )
                    )
    spaces = {z: SuperSpace(tuple(elems)) for z, elems in raw.items() if elems}
    diffs = {}
    alpha = c1.alpha
    for z, sp in spaces.items():
        tgt = spaces.get(z + alpha)
        if tgt is None:
            continue
        entries = []
        for i in c1.degrees():
            j = z - i
            if (i, j) not in offsets or not c1.term(i).dim or not c2.term(j).dim:
                continue
            off = offsets[(i, j)]
            d2 = c2.term(j).dim
            if (i + alpha, j) in offsets:
                toff = offsets[(i + alpha, j)]
                for (r, c), v in c1.diff(i).nonzero_items():
                    entries += [((toff + r * d2 + b, off + c * d2 + b), v) for b in range(d2)]
            if (i, j + alpha) in offsets:
                toff = offsets[(i, j + alpha)]
                d2t = c2.term(j + alpha).dim
                for (r, c), v in c2.diff(j).nonzero_items():
                    entries += [((toff + a * d2t + r, off + a * d2 + c), v) for a in range(c1.term(i).dim)]
        mat = FpMatrix.from_coords(p, tgt.dim, sp.dim, entries)
        if not mat.is_zero():
            diffs[z] = mat
    return PComplex(p, alpha, spaces, diffs), offsets


def tensor_pcomplex(c1, c2):
    """Tensor product complex with the Leibniz differential (d is even: no sign)."""
    return _tensor_with_offsets(c1, c2)[0]


def _class_representatives(cx, deg):
    """Cocycle vectors whose classes form a basis of H_[1] in this degree."""
    ker = cx.diff(deg).kernel_basis()
    src = deg - (cx.p - 1) * cx.alpha
    img = cx.iterated_diff(src, cx.p - 1).image_basis()
    # first-nonzero pivoting picks each kernel column not in the span of the
    # image and the kernel columns before it
    pivots = hstack([img, ker]).pivot_columns()
    return [ker.data[:, c - img.cols].tolist() for c in pivots if c >= img.cols]


def kunneth_check(c1, c2):
    """Dimension count and cocycle-product spanning for a tensor of normal complexes."""
    t, offsets = _tensor_with_offsets(c1, c2)
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
        prods = []
        for i, r1 in reps1.items():
            r2 = reps2.get(n - i)
            if not r2 or (i, n - i) not in offsets:
                continue
            off = offsets[(i, n - i)]
            d2 = c2.dim(n - i)
            for v1 in r1:
                for v2 in r2:
                    vec = [0] * t.dim(n)
                    for a, x in enumerate(v1):
                        if not x:
                            continue
                        for b, y in enumerate(v2):
                            if y:
                                vec[off + a * d2 + b] = (x * y) % t.p
                    prods.append(vec)
        ok = _spans_cohomology(t, n, prods)
        if not ok:
            return False, f"cocycle products do not span H^{n}"
    return True, "ok"


def _spans_cohomology(cx, deg, vectors):
    src = deg - (cx.p - 1) * cx.alpha
    img = cx.iterated_diff(src, cx.p - 1).image_basis()
    ker_rank = cx.dim(deg) - cx.diff(deg).rank()
    if not vectors:
        return img.rank() == ker_rank
    vmat = FpMatrix.from_coords(
        cx.p, cx.dim(deg), len(vectors), [((i, k), x) for k, v in enumerate(vectors) for i, x in enumerate(v) if x]
    )
    if not matmul(cx.diff(deg), vmat).is_zero():
        return False
    return hstack([img, vmat]).rank() == ker_rank


def build_from_blocks(p, alpha, blocks):
    """A p-complex that is a direct sum of cyclic blocks (shift, length, parity)."""
    elems = {}
    arrows = []
    for k, (shift, length, parity) in enumerate(blocks):
        prev = None
        for t in range(length):
            deg = shift + t * alpha
            lst = elems.setdefault(deg, [])
            pos = len(lst)
            lst.append(BasisElement(f"b{k}_{t}", deg, parity))
            if prev is not None:
                arrows.append((deg - alpha, prev, deg, pos))
            prev = pos
    spaces = {d: SuperSpace(tuple(lst)) for d, lst in elems.items()}
    by_src = {}
    for (sdeg, scol, tdeg, trow) in arrows:
        by_src.setdefault(sdeg, []).append(((trow, scol), 1))
    diffs = {
        sdeg: FpMatrix.from_coords(p, spaces[sdeg + alpha].dim, spaces[sdeg].dim, entries)
        for sdeg, entries in by_src.items()
    }
    return PComplex(p, alpha, spaces, diffs)
