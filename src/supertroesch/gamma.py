"""The morphism calculus of divided powers of Hom spaces.

An element of the degree-n divided power of Hom(V, W) is stored as a GF(p)
combination of monomials in matrix units.  These elements form the Schur
superalgebra in its divided-power basis, and composition and the action on
symmetric powers follow its closed product rule (Green, LNM 830, 2.3;
Brundan-Kujawa 2003 for the signs): a sum over tables of exponents, each
with a product of multinomials and the Koszul sign of one representative
arrangement.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError
from .linalg import FpMatrix
from .powers import PowerKind, add_mod_p, koszul_sign_of_arrangement, multiply_out, multiset_coeff, nonzero_entries, power_exponents
from .superspace import EVEN, ODD, hom_space, k_super, tensor

hom_space = lru_cache(maxsize=128)(hom_space)


class GammaElement:
    """A combination of divided-power monomials in the matrix units of Hom(V, W).

    terms maps an exponent tuple ((unit index, exponent), ...) to a nonzero
    residue mod p.  Unit index i*dim(V)+j encodes the map sending the j-th
    basis vector of V to the i-th basis vector of W.  Once made, its terms
    change only through add_term, which drops the target-profile index that
    compose builds the first time the element is its right factor.
    """

    __slots__ = ("source", "target", "n", "p", "terms", "_profile_index")

    def __init__(self, source, target, n, p, terms=None):
        self.source = source
        self.target = target
        self.n = n
        self.p = p
        self.terms = terms if terms is not None else {}
        self._profile_index = None

    # -- bookkeeping --------------------------------------------------

    @property
    def hom(self):
        return hom_space(self.source, self.target)

    def unit_pair(self, idx):
        return divmod(idx, self.source.dim)

    def add_term(self, exps, coeff):
        add_mod_p(self.terms, exps, coeff, self.p)
        self._profile_index = None

    def is_zero(self):
        return not self.terms

    def copy(self):
        return GammaElement(self.source, self.target, self.n, self.p, dict(self.terms))

    def scaled(self, c):
        c %= self.p
        out = GammaElement(self.source, self.target, self.n, self.p)
        for k, v in self.terms.items():
            out.add_term(k, v * c)
        return out

    def __add__(self, other):
        if (self.source, self.target, self.n, self.p) != (other.source, other.target, other.n, other.p):
            raise ValueError("cannot add elements of different morphism spaces")
        out = self.copy()
        for k, v in other.terms.items():
            add_mod_p(out.terms, k, v, self.p)
        return out

    def __sub__(self, other):
        return self + other.scaled(self.p - 1)

    def __eq__(self, other):
        return (
            isinstance(other, GammaElement)
            and (self.source, self.target, self.n, self.p) == (other.source, other.target, other.n, other.p)
            and self.terms == other.terms
        )

    def split_by_source_degree(self):
        """Components keyed by total source z-degree, each with its terms in
        this element's order.

        Unit index idx maps source basis vector idx mod dim(V), so a
        monomial's source z-degree is read off the source z-degrees alone.
        """
        sz = self.source.zdegs()
        dim = self.source.dim
        parts = {}
        for exps, c in self.terms.items():
            s = 0
            for idx, e in exps:
                s += e * sz[idx % dim]
            terms = parts.get(s)
            if terms is None:
                terms = parts[s] = {}
            terms[exps] = c
        return {s: GammaElement(self.source, self.target, self.n, self.p, terms) for s, terms in parts.items()}

    def __repr__(self):
        return f"GammaElement(n={self.n}, {len(self.terms)} monomials)"


def zero_element(source, target, n, p):
    return GammaElement(source, target, n, p)


def gamma_monomial(source, target, n, p, unit_exps, coeff=1):
    """Build c * product of gamma_{e}(unit) from ((i, j), e) pairs."""
    counts = {}
    for (i, j), e in unit_exps:
        idx = i * source.dim + j
        counts[idx] = counts.get(idx, 0) + e
    exps = tuple(sorted(counts.items()))
    out = GammaElement(source, target, n, p)
    par = out.hom.parities()
    for idx, e in exps:
        if par[idx] == ODD and e > 1:
            return out  # dies by admissibility
    if sum(e for _, e in exps) != n:
        raise ValueError("total exponent does not match degree")
    out.add_term(exps, coeff)
    return out


def _even_power_terms(n, items, p, budget=None):
    """gamma_n of a combination of even units: {exps: coeff}.

    items lists (unit index, scalar) in ascending index order.  An exponent
    row e of the degree-n symmetric power on one even generator per nonzero
    scalar gives the monomial prod gamma_{e_i}(u_i) with the coefficient
    prod c_i^(e_i) mod p; the rows are read in ascending lexicographic order.
    With a budget, more than that many terms raise before any is made.
    """
    items = [(idx, c % p) for idx, c in items if c % p]
    if budget is not None and multiset_coeff(len(items), n) > budget:
        raise BudgetExceededError("divided power expansion", budget + 1, budget)
    rows = power_exponents(PowerKind.SYM, n, k_super(len(items), 0))[::-1]
    pairs = np.empty((len(items), n + 1), dtype=object)  # pairs[g, e] = (index of item g, e)
    coeffs = np.ones(len(rows), dtype=np.int64)
    for g, (idx, c) in enumerate(items):
        for e in range(n + 1):
            pairs[g, e] = (idx, e)
        coeffs = coeffs * np.array([pow(c, e, p) for e in range(n + 1)])[rows[:, g]] % p
    return dict(zip(map(tuple, nonzero_entries(rows, pairs)), coeffs.tolist()))


def identity_element(space, n, p, budget=None):
    """gamma_n of the identity map of the space."""
    d = space.dim
    return GammaElement(space, space, n, p, _even_power_terms(n, [(i * d + i, 1) for i in range(d)], p, budget))


def element_from_map(f, n, p, budget=None):
    """gamma_n(f) for an even linear map f, expanded over its matrix units."""
    if f.parity != EVEN:
        raise ValueError("divided powers of odd maps are not defined here")
    items = [(i * f.source.dim + j, v) for (i, j), v in sorted(f.matrix.nonzero_items())]
    return GammaElement(f.source, f.target, n, p, _even_power_terms(n, items, p, budget))


def element_product(a, b, budget=None):
    """Divided-power product of two elements of the same Hom space."""
    if (a.source, a.target, a.p) != (b.source, b.target, b.p):
        raise ValueError("product requires the same Hom space")
    terms = multiply_out(PowerKind.DIV, a.hom, [a.terms, b.terms], a.p, budget, "gamma product")
    return GammaElement(a.source, a.target, a.n + b.n, a.p, terms)


def phi_d(f, d, n, p, budget=None):
    """The convolution component gamma_d(f) * gamma_{n-d}(1) for an even map f."""
    if f.parity != EVEN:
        raise ValueError("convolution components require an even map")
    if d < 0:
        raise ValueError("d must be >= 0")
    if d > n:
        return zero_element(f.source, f.target, n, p)
    left = element_from_map(f, d, p, budget)
    right = identity_element(f.source, n - d, p, budget)
    return element_product(left, right, budget)


def differential_element(p, r, n, rho_maps, budget=None):
    """The degree-n component of the p-differential: sum of (rho_{r-1-s})_{p^s}."""
    parts = [phi_d(rho_maps[r - 1 - s], p ** s, n, p, budget).terms for s in range(r)]
    terms = parts[0]
    for part in parts[1:]:
        for exps, c in part.items():
            add_mod_p(terms, exps, c, p)
    return GammaElement(rho_maps[0].source, rho_maps[0].target, n, p, terms)


def group_by_target_profile(f):
    """Index the monomials of f by the multiset of their unit target indices.

    A monomial is kept as (rows, coeff, odd): for each target index v of the
    profile, in ascending order, its row ((u, B[v, u]), ...) in ascending u,
    with equal rows stored once; odd tells whether it has an odd unit.
    """
    dim_u = f.source.dim
    par = f.hom.parities()
    out = {}
    shared = {}
    for f_exps, cf in f.terms.items():
        by_v = {}
        for idx, e in f_exps:
            v, u = divmod(idx, dim_u)
            by_v.setdefault(v, []).append((u, e))
        profile = tuple((v, sum(e for _, e in row)) for v, row in sorted(by_v.items()))
        rows = tuple(shared.setdefault(row, row) for row in (tuple(by_v[v]) for v, _ in profile))
        out.setdefault(profile, []).append((rows, cf, any(par[idx] for idx, _ in f_exps)))
    return out


def compose(g, f):
    """Composition in the divided-power Hom calculus: g after f.

    For monomials g = gamma(A) and f = gamma(B), A indexed by (w, v) and B by
    (v, u), g o f sums over the tables T[w, v, u] with sum_u T = A[w, v] and
    sum_w T = B[v, u], enumerated per middle index v.  A table gives gamma(C),
    C[w, u] = sum_v T[w, v, u], times prod C[w, u]! / prod T[w, v, u]! and the
    Koszul sign of one arrangement: C's units sorted, v ascending inside each
    unit's block.  A C with an odd unit of exponent >= 2 is skipped, as its
    arrangements cancel.  The targets of f must match the sources of g as
    multisets for a monomial pair to meet, so f is indexed by that profile
    with its rows split per v, once, and keeps the index until its terms
    change.  The tables for one v depend only on the column of A and the row
    of B, and _tables caches them by that pair.
    """
    return GammaElement(f.source, g.target, g.n, g.p, next(compose_each([g], f)))


def compose_each(gs, f):
    """The terms of g o f as a dict, in compose's order, for each g of the
    iterable gs in turn.  The gs share one Hom space, so f's index and the
    parities are looked up once; each g is taken, and its dict made, only
    when asked for."""
    gs = iter(gs)
    g0 = next(gs, None)
    if g0 is None:
        return
    if g0.n != f.n:
        raise ValueError(f"degree mismatch: {g0.n} vs {f.n}")
    if g0.source != f.target:
        raise ValueError("middle spaces do not match")
    p = f.p
    dim_u = f.source.dim
    dim_v = f.target.dim
    g_par = g0.hom.parities()
    f_par = f.hom.parities()
    out_par = hom_space(f.source, g0.target).parities()
    fact = _factorials(f.n)
    by_profile = f._profile_index
    if by_profile is None:
        by_profile = f._profile_index = group_by_target_profile(f)
    for g in itertools.chain([g0], gs):
        out = {}
        for g_exps, cg in g.terms.items():
            g_by_v = {}  # v -> [(w, A[w, v])]
            for idx, e in g_exps:
                w, v = divmod(idx, dim_v)
                g_by_v.setdefault(v, []).append((w, e))
            profile = tuple((v, sum(e for _, e in col)) for v, col in sorted(g_by_v.items()))
            cols = [tuple(g_by_v[v]) for v, _ in profile]
            g_odd = any(g_par[idx] for idx, _ in g_exps)
            for rows, cf, f_odd in by_profile.get(profile, ()):
                # with no odd unit on either side every unit of C is even and
                # every sign is +1
                signed = g_odd or f_odd
                for choice in itertools.product(*map(_tables, cols, rows)):
                    cells = sorted((w * dim_u + u, v, t) for (v, _), table in zip(profile, choice) for w, u, t in table)
                    exps = {}
                    for c, _, t in cells:
                        exps[c] = exps.get(c, 0) + t
                    if signed and any(e > 1 and out_par[c] == ODD for c, e in exps.items()):
                        continue
                    coeff = cg * cf
                    if len(exps) < len(cells):
                        # two cells share a unit; otherwise the ratio is 1
                        coeff *= math.prod([fact[e] for e in exps.values()]) // math.prod([fact[cell[2]] for cell in cells])
                    if coeff % p:
                        if signed:
                            # odd units have exponent 1, so a cell with t > 1
                            # holds only even factors and each cell counts once
                            t_seq = [c // dim_u * dim_v + v for c, v, _ in cells]
                            s_seq = [v * dim_u + c % dim_u for c, v, _ in cells]
                            coeff *= (-1) ** _koszul_exponent(t_seq, g_par, s_seq, f_par)
                        add_mod_p(out, tuple(exps.items()), coeff, p)
        yield out


@lru_cache(maxsize=None)
def _factorials(n):
    """0!, 1!, ..., n!"""
    return tuple(map(math.factorial, range(n + 1)))


@lru_cache(maxsize=8192)
def _tables(col, row):
    """The tables t[w, u] >= 0 with row sums a_w and column sums b_u.

    col is a tuple of (w, a_w) and row a tuple of (u, b_u), with equal
    totals.  A table is ((w, u, t[w, u]), ...) over its nonzero cells; the
    tables come back as a tuple, so the cached value cannot be changed.
    """
    if not col:
        return ((),)
    (w, a), rest = col[0], col[1:]
    out = []
    for parts in _bounded_compositions(a, [b for _, b in row]):
        head = tuple((w, u, x) for (u, _), x in zip(row, parts) if x)
        out += [head + t for t in _tables(rest, tuple((u, b - x) for (u, b), x in zip(row, parts)))]
    return tuple(out)


def _bounded_compositions(a, caps):
    """All tuples x with 0 <= x[j] <= caps[j] that sum to a."""
    if not caps:
        return [()] if a == 0 else []
    return [(x,) + t for x in range(min(a, caps[0]) + 1) for t in _bounded_compositions(a - x, caps[1:])]


def _koszul_exponent(t_seq, t_par, s_seq, s_par):
    """(-1)-exponent of composing the tensors t_seq and s_seq factorwise.

    Each sequence counts as one arrangement of its monomial, and every odd
    factor of t_seq passes the odd factors of s_seq to its left.  Even
    factors add nothing, so they may be listed once whatever their exponent.
    """
    e = koszul_sign_of_arrangement(t_seq, t_par) + koszul_sign_of_arrangement(s_seq, s_par)
    odd_t = 0
    for a in range(len(s_seq) - 1, -1, -1):
        if s_par[s_seq[a]] == ODD:
            e += odd_t
        odd_t += t_par[t_seq[a]]
    return e


def _seq_to_exps(seq):
    counts = {}
    for i in seq:
        counts[i] = counts.get(i, 0) + 1
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# functorial actions


def apply_sym_block(el, src_pos, tgt_pos, rows):
    """Matrix of the induced symmetric-power map on a selected graded piece.

    src_pos and tgt_pos map exponent tuples to column and row indices;
    images landing outside tgt_pos are dropped (they must be zero when the
    element is degree homogeneous across the chosen pieces).

    gamma(A) sends x^b to one monomial or to zero.  It is zero unless
    sum_w A[w, v] = b_v for every v; then the image is x^c, with
    c_w = sum_v A[w, v], times prod_v b_v! / prod A[w, v]! and the sign of
    one assignment of A's factors to x^b: w ascending inside each v block.
    The image dies when an odd generator of W reaches exponent two;
    otherwise sorting it adds the Koszul sign of its odd generators.
    """
    dim_v = el.source.dim
    src_par = el.source.parities()
    tgt_par = el.target.parities()
    g_par = el.hom.parities()
    fact = _factorials(el.n)
    entries = []
    for g_exps, cg in el.terms.items():
        t_seq = [idx for idx, e in sorted(g_exps, key=lambda ie: (ie[0] % dim_v, ie[0])) for _ in range(e)]
        rep = [idx % dim_v for idx in t_seq]
        b_exps = _seq_to_exps(rep)
        if b_exps not in src_pos:
            continue
        img = [idx // dim_v for idx in t_seq]
        c_exps = _seq_to_exps(img)
        row = tgt_pos.get(c_exps)
        if row is None or any(e > 1 and tgt_par[w] == ODD for w, e in c_exps):
            continue
        coeff = cg * (math.prod([fact[b] for _, b in b_exps]) // math.prod([fact[e] for _, e in g_exps]))
        sign = koszul_sign_of_arrangement(img, tgt_par) + _koszul_exponent(t_seq, g_par, rep, src_par)
        entries.append(((row, src_pos[b_exps]), coeff * (-1) ** sign))
    return FpMatrix.from_coords(el.p, rows, len(src_pos), entries)


def apply_frobenius(el, r):
    """Induced map on r-th Frobenius twists; kills all but gamma_{p^r}(even unit).

    Returns the matrix from twist(V) to twist(W) in the twisted bases.
    """
    p = el.p
    if el.n != p ** r:
        raise ValueError(f"degree {el.n} is not p^r = {p ** r}")
    par = el.hom.parities()
    entries = []
    for exps, c in el.terms.items():
        if len(exps) == 1 and exps[0][1] == p ** r and par[exps[0][0]] == EVEN:
            entries.append((el.unit_pair(exps[0][0]), c))
    return FpMatrix.from_coords(p, el.target.dim, el.source.dim, entries)


def tensor_with_identity(el, u, budget=None):
    """Extend each matrix unit by the identity of u: the parameterized morphism.

    A unit (i, j) becomes the sum over k of the units (i*du + k, j*du + k),
    and each monomial is multiplied out; budget errors name this function.
    """
    p = el.p
    par = el.hom.parities()
    du = u.dim
    out = GammaElement(tensor(el.source, u), tensor(el.target, u), el.n, p)
    new_dim = out.source.dim
    for exps, c in el.terms.items():
        factors = []  # one {exps: coeff} per gamma factor
        for idx, e in exps:
            i, j = el.unit_pair(idx)
            images = [((i * du + k) * new_dim + (j * du + k), 1) for k in range(du)]
            if par[idx] == EVEN:
                factors.append(_even_power_terms(e, images, p, budget))
            else:
                # odd units occur with exponent one; gamma_1 is linear
                factors.append({((new_idx, 1),): 1 for new_idx, _ in images})
        for e2, c2 in multiply_out(PowerKind.DIV, out.hom, factors, p, budget, "tensor_with_identity").items():
            out.add_term(e2, c * c2)
    return out


def relabel_element(el, new_source, new_target):
    """Transport along index-preserving relabelings of source and target bases.

    Valid when the relabeling preserves the parity of every occupied unit up
    to a global flip on both sides, so all sorting and Koszul bookkeeping is
    unchanged.
    """
    if new_source.dim != el.source.dim or new_target.dim != el.target.dim:
        raise ValueError("relabel dimension mismatch")
    out = GammaElement(new_source, new_target, el.n, el.p, dict(el.terms))
    old_par = el.hom.parities()
    new_par = out.hom.parities()
    for exps in el.terms:
        for idx, e in exps:
            if old_par[idx] != new_par[idx]:
                raise ValueError("relabeling changes a unit parity")
            if e > 1 and new_par[idx] == ODD:
                raise ValueError("relabeling breaks admissibility")
    return out


# ---------------------------------------------------------------------------
# bigraded pieces


def monomials_with_bigrade(source, target, n, p, tgt_sum, src_sum, budget=None):
    """All admissible monomials of the Hom power with the given degree sums,
    in descending lexicographic order of their exponent rows.

    The z-degrees are shifted to start at 0, so a unit adds (t, s) >= 0 to
    the sums and the targets T, S bound every partial sum.  reach[j][r] is
    a bitmask over the (t, s) sums, bit t*(S+1)+s set when the units from j
    on can take exactly degree r with those sums; it is built right to left
    by shifted ORs, each masked so that s cannot carry into the next t row.
    tails(j, r, t, s) then lists the monomials of the units from j on: the
    next nonzero unit in index order, its exponent from high to low, and
    only children that reach.  Reach only grows as the suffix lengthens, so
    the first unit whose suffix cannot reach ends the search.  Each state is
    expanded once and its list shared by every prefix that reaches it, and
    the recursion is at most n + 1 deep.  Every tail of a reachable state
    extends to a distinct monomial, so a state's list passes the budget
    exactly when the piece does.
    """
    hom = hom_space(source, target)
    dim = hom.dim
    dim_v = source.dim
    tz = target.zdegs()
    sz = source.zdegs()
    par = hom.parities()
    t_min = min(tz, default=0)
    s_min = min(sz, default=0)
    unit_t = [tz[i // dim_v] - t_min for i in range(dim)]
    unit_s = [sz[i % dim_v] - s_min for i in range(dim)]
    T = tgt_sum - n * t_min
    S = src_sum - n * s_min
    if T < 0 or S < 0:
        return []
    W = S + 1
    row_span = (1 << W) - 1
    masks = {}

    def keep(dt, ds):
        # the (t, s) with t + dt <= T and s + ds <= S
        m = masks.get((dt, ds))
        if m is None:
            m = masks[dt, ds] = ((1 << (S - ds + 1)) - 1) * ((1 << W * (T - dt + 1)) - 1) // row_span
        return m

    reach = [None] * dim + [[1] + [0] * n]
    for j in range(dim - 1, -1, -1):
        nxt = reach[j + 1]
        cur = list(nxt)
        for e in range(1, (1 if par[j] == ODD else n) + 1):
            dt, ds = e * unit_t[j], e * unit_s[j]
            if dt > T or ds > S:
                break
            mask = keep(dt, ds)
            shift = dt * W + ds
            for r in range(e, n + 1):
                x = nxt[r - e] & mask
                if x:
                    cur[r] |= x << shift
        reach[j] = cur
    if not reach[0][n] >> (T * W + S) & 1:
        return []
    done = [()]
    memo = {}

    def tails(j, r, t, s):
        if r == 0:
            return done
        key = (j, r, t, s)
        out = memo.get(key)
        if out is not None:
            return out
        out = []
        at = t * W + s
        for k in range(j, dim):
            if not reach[k][r] >> at & 1:
                break
            ut, us = unit_t[k], unit_s[k]
            for e in range(1 if par[k] == ODD else r, 0, -1):
                t2, s2 = t - e * ut, s - e * us
                if t2 >= 0 and s2 >= 0 and reach[k + 1][r - e] >> (t2 * W + s2) & 1:
                    head = ((k, e),)
                    out += [head + tail for tail in tails(k + 1, r - e, t2, s2)]
                    if budget is not None and len(out) > budget:
                        raise BudgetExceededError("bigraded piece", budget + 1, budget)
        memo[key] = out
        return out

    out = tails(0, n, T, S)
    if budget is not None and len(out) > budget:
        # n = 0: the empty monomial is the one state not checked above
        raise BudgetExceededError("bigraded piece", budget + 1, budget)
    return out
