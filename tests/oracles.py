"""Reference routines that only the tests use, kept out of the library.

Each one computes something the library also computes, by a slower and
independent route: the tensor route through signed tensors and the
symmetric-group action for the power functors and the divided-power Hom
calculus, the coproduct route for convolution components, intersections of
images and kernels for cyclic decompositions, and dict-of-rows elimination
for the dense linear algebra.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from supertroesch.errors import BudgetExceededError
from supertroesch.gamma import GammaElement, _even_multiset_expansion, apply_sym_block, compose, hom_space
from supertroesch.linalg import FpMatrix, ShapeMismatchError, hstack, matmul
from supertroesch.pcomplex import CyclicDecomposition, PComplex, PDifferentialError, cohomology, contraction_degree
from supertroesch.powers import (
    PowerKind,
    PowerMonomial,
    add_mod_p,
    binom_mod,
    koszul_sign_of_arrangement,
    monomial_from_counts,
    multiply_out,
    power_basis,
    sort_with_sign,
)
from supertroesch.resolutions import d_element
from supertroesch.superspace import EVEN, ODD, BasisElement, LinearMapSS, SuperSpace, k_super, tensor
from supertroesch.troesch import build_B

# ---------------------------------------------------------------------------
# dense linear algebra


def matpow(m, k):
    if m.rows != m.cols:
        raise ShapeMismatchError("matpow", m.shape, m.shape)
    if k < 0:
        raise ValueError("negative power")
    out = FpMatrix.identity(m.p, m.rows)
    for _ in range(k):
        out = matmul(out, m)
    return out


def invert(m):
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ShapeMismatchError("invert", m.shape, m.shape)
    n = m.rows
    out = FpMatrix.zeros(m.p, n, n)
    for k in range(n):
        x = m.solve([1 if i == k else 0 for i in range(n)])
        if x is None:
            return None
        out.data[:, k] = x
    # solve() returns a particular solution; for square systems it is the
    # inverse column exactly when m has full rank
    if matmul(m, out) != FpMatrix.identity(m.p, n):
        return None
    return out


def rref_oracle(m, reduce_above, augment=None):
    """Reference elimination on a list of dict rows, independent of the
    library's numpy routine, with the same first-nonzero pivoting.  Returns
    (reduced rows, pivot columns, reduced augmented column or None)."""
    p = m.p
    rows = [dict() for _ in range(m.rows)]
    for (i, j), v in m.nonzero_items():
        rows[i][j] = v
    aug = list(augment) if augment is not None else None
    pivots = []
    r = 0
    for c in range(m.cols):
        piv = None
        for i in range(r, m.rows):
            if rows[i].get(c, 0):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if aug is not None:
            aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(rows[r][c], p - 2, p)
        if inv != 1:
            rows[r] = {k: (v * inv) % p for k, v in rows[r].items()}
            if aug is not None:
                aug[r] = (aug[r] * inv) % p
        span = range(0, m.rows) if reduce_above else range(r + 1, m.rows)
        for i in span:
            if i == r:
                continue
            f = rows[i].get(c, 0)
            if not f:
                continue
            ri, rr = rows[i], rows[r]
            for k, v in rr.items():
                nv = (ri.get(k, 0) - f * v) % p
                if nv:
                    ri[k] = nv
                else:
                    ri.pop(k, None)
            if aug is not None:
                aug[i] = (aug[i] - f * aug[r]) % p
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return rows, pivots, aug


def eager_rref(m, reduce_above):
    """First-nonzero row reduction of an int64 copy of m, with every row
    update reduced mod p at once, so no entry ever leaves [0, p).  Returns
    (reduced array, pivot columns): the reference for elimination that
    reduces lazily, near its growth bound, where the dict rows of
    ``rref_oracle`` are too slow."""
    p = m.p
    a = m.data.astype(np.int64) % p
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        if r == m.rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        rows = np.flatnonzero(a[:, c]) if reduce_above else r + 1 + np.flatnonzero(a[r + 1 :, c])
        rows = rows[rows != r]
        # left of column c the pivot row is zero
        a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[r, c:])) % p
        pivots.append(c)
    return a, pivots


def oracle_kernel_basis(m):
    rows, pivots, _ = rref_oracle(m, reduce_above=True)
    free = [c for c in range(m.cols) if c not in pivots]
    out = FpMatrix.zeros(m.p, m.cols, len(free))
    for k, c in enumerate(free):
        out.data[c, k] = 1
        for r, pc in enumerate(pivots):
            out.data[pc, k] = -rows[r].get(c, 0) % m.p
    return out


def oracle_image_basis(m):
    _, pivots, _ = rref_oracle(m, reduce_above=False)
    out = FpMatrix.zeros(m.p, m.rows, len(pivots))
    for k, c in enumerate(pivots):
        for i in range(m.rows):
            out.data[i, k] = m.data[i, c]
    return out


def oracle_solve(m, b):
    _, pivots, aug = rref_oracle(m, reduce_above=True, augment=[v % m.p for v in b])
    if any(aug[len(pivots):]):
        return None
    x = [0] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r]
    return x


# ---------------------------------------------------------------------------
# power functors: signed tensors and the symmetric group action

# the dual pairs SYM with DIV and EXT with ALT
DUALS = {
    PowerKind.SYM: PowerKind.DIV,
    PowerKind.DIV: PowerKind.SYM,
    PowerKind.EXT: PowerKind.ALT,
    PowerKind.ALT: PowerKind.EXT,
}


def power_basis_oracle(kind, n, space):
    """All admissible degree-n monomials, in descending lexicographic exponent
    order, by recursion over the generators."""
    out = []
    dim = space.dim
    bounded = kind.bounded_parity

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(PowerMonomial(kind, space, tuple(acc)))
            return
        if idx == dim:
            return
        cap = 1 if space.basis[idx].parity == bounded else remaining
        for e in range(min(cap, remaining), -1, -1):
            if e:
                acc.append((idx, e))
                rec(idx + 1, remaining - e, acc)
                acc.pop()
            else:
                rec(idx + 1, remaining, acc)

    rec(0, n, [])
    return out


def monomials_of(data):
    """zdeg -> the PowerMonomials of a built complex's piece, in basis order,
    made from the keys of its ``index``."""
    return {z: [PowerMonomial(PowerKind.SYM, data.space, exps) for exps in pos] for z, pos in data.index.items()}


def degree(m):
    return sum(e for _, e in m.exps)


def factor_sequence(m):
    """Basis indices of a monomial with multiplicity, ascending."""
    return [i for i, e in m.exps for _ in range(e)]


def is_admissible(m):
    bounded = m.kind.bounded_parity
    return all(e == 1 for i, e in m.exps if m.space.basis[i].parity == bounded)


def monomial_from_sequence(kind, space, seq):
    counts = {}
    for i in seq:
        counts[i] = counts.get(i, 0) + 1
    return monomial_from_counts(kind, space, counts)


class SignedTensor:
    """A GF(p) combination of pure tensors over a fixed space, fixed length."""

    __slots__ = ("space", "n", "p", "terms")

    def __init__(self, space, n, p, terms=None):
        self.space = space
        self.n = n
        self.p = p
        self.terms = terms if terms is not None else {}

    def add_term(self, key, coeff):
        add_mod_p(self.terms, key, coeff, self.p)

    def scaled(self, c):
        c %= self.p
        out = SignedTensor(self.space, self.n, self.p)
        for k, v in self.terms.items():
            out.add_term(k, v * c)
        return out

    def __add__(self, other):
        out = SignedTensor(self.space, self.n, self.p, dict(self.terms))
        for k, v in other.terms.items():
            out.add_term(k, v)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SignedTensor)
            and self.space == other.space
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"SignedTensor({len(self.terms)} terms, n={self.n})"


def inversion_count(indices):
    s = 0
    n = len(indices)
    for a in range(n):
        for b in range(a + 1, n):
            if indices[a] > indices[b]:
                s += 1
    return s


def act_sigma(t, sigma):
    """Right action of sigma: position i of the result carries factor sigma(i)."""
    n = t.n
    if len(sigma) != n:
        raise ValueError("permutation length mismatch")
    par = t.space.parities()
    out = SignedTensor(t.space, n, t.p)
    for key, coeff in t.terms.items():
        new = tuple(key[sigma[i]] for i in range(n))
        s = 0
        for a in range(n):
            for b in range(a + 1, n):
                if sigma[a] > sigma[b]:
                    s += par[new[a]] * par[new[b]]
        out.add_term(new, coeff * (-1) ** s)
    return out


def _distinct_arrangements(seq):
    """All distinct arrangements of a multiset, lexicographic order."""
    out = []
    counts = {}
    for x in seq:
        counts[x] = counts.get(x, 0) + 1
    keys = sorted(counts)
    n = len(seq)
    acc = []

    def rec():
        if len(acc) == n:
            out.append(tuple(acc))
            return
        for k in keys:
            if counts[k]:
                counts[k] -= 1
                acc.append(k)
                rec()
                acc.pop()
                counts[k] += 1

    rec()
    return out


def arrangement_sign(kind, arrangement, parities):
    """Sign of one arrangement inside the orbit expansion of a DIV or ALT monomial."""
    s = koszul_sign_of_arrangement(arrangement, parities)
    if kind is PowerKind.ALT:
        s += inversion_count(arrangement)
    return (-1) ** s


def lift_from_power(m, p):
    """Canonical tensor representative (SYM, EXT) or full orbit sum (DIV, ALT)."""
    if not is_admissible(m):
        raise ValueError(f"inadmissible monomial {m!r}")
    seq = tuple(factor_sequence(m))
    t = SignedTensor(m.space, len(seq), p)
    if m.kind.is_quotient:
        t.add_term(seq, 1)
        return t
    par = m.space.parities()
    for arr in _distinct_arrangements(seq):
        t.add_term(arr, arrangement_sign(m.kind, arr, par))
    return t


def project_to_power(kind, t):
    """Express a tensor in the monomial basis of the kind.

    For SYM and EXT this is the quotient map applied termwise.  For DIV and
    ALT the input must lie in the corresponding invariant subspace; the
    coefficient of each monomial is then read off its sorted representative.
    """
    par = t.space.parities()
    out = {}
    for key, coeff in t.terms.items():
        if kind.is_quotient:
            srt, sign = sort_with_sign(kind, key, par)
            if srt is None:
                continue
            add_mod_p(out, monomial_from_sequence(kind, t.space, srt), sign * coeff, t.p)
        elif all(key[a] <= key[a + 1] for a in range(len(key) - 1)):
            # each sorted key is its own monomial, met once
            add_mod_p(out, monomial_from_sequence(kind, t.space, key), coeff, t.p)
    return out


def project_checked(kind, t):
    """project_to_power plus verification that lifting back reproduces t."""
    combo = project_to_power(kind, t)
    if not kind.is_quotient:
        back = SignedTensor(t.space, t.n, t.p)
        for m, c in combo.items():
            back = back + lift_from_power(m, t.p).scaled(c)
        if back != t:
            raise ValueError("tensor is not in the invariant subspace of the kind")
    return combo


def shuffle_product_via_reps(m1, m2, p, reverse_reps=False):
    """DIV/ALT product as an explicit sum over coset representatives.

    Representatives are enumerated as the interleavings of positions; with
    reverse_reps a second, different enumeration of the same cosets is used.
    The result must not depend on that choice.
    """
    kind = m1.kind
    if kind.is_quotient:
        raise ValueError("shuffle product is for DIV/ALT")
    a = degree(m1)
    n = a + degree(m2)
    t1 = lift_from_power(m1, p)
    t2 = lift_from_power(m2, p)
    base = SignedTensor(m1.space, n, p)
    for k1, c1 in t1.terms.items():
        for k2, c2 in t2.terms.items():
            base.add_term(k1 + k2, c1 * c2)
    positions = list(itertools.combinations(range(n), a))
    if reverse_reps:
        positions = positions[::-1]
    total = SignedTensor(m1.space, n, p)
    for pos in positions:
        pos_set = set(pos)
        rest = [i for i in range(n) if i not in pos_set]
        # sigma sends result position i to source position sigma[i]
        sigma = [0] * n
        for src, dst in enumerate(pos):
            sigma[dst] = src
        for src, dst in enumerate(rest):
            sigma[dst] = a + src
        acted = act_sigma(base, tuple(sigma))
        if kind is PowerKind.ALT:
            acted = acted.scaled((-1) ** inversion_count(sigma))
        total = total + acted
    return project_to_power(kind, total)


def coproduct_component(m, a, b, p):
    """Component Delta_{a,b} of the coproduct: list of ((left, right), coeff).

    Quotient kinds split each exponent with a binomial coefficient; invariant
    kinds split with coefficient one.  The sign counts right-going copies of
    earlier generators crossing left-going copies of later ones.
    """
    if a + b != degree(m):
        raise ValueError("split does not match degree")
    kind = m.kind
    par = m.space.parities()
    gens = list(m.exps)
    out = {}

    def rec(idx, rem_left, left_counts, right_gone, coeff, sign_exp):
        if idx == len(gens):
            if rem_left:
                return
            left = monomial_from_counts(kind, m.space, left_counts)
            right_counts = {i: e - left_counts.get(i, 0) for i, e in gens}
            right = monomial_from_counts(kind, m.space, right_counts)
            add_mod_p(out, (left, right), coeff * (-1) ** sign_exp, p)
            return
        i, e = gens[idx]
        for x in range(min(e, rem_left), -1, -1):
            c = coeff
            if kind.is_quotient:
                c = (c * binom_mod(e, x, p)) % p
            if c == 0:
                continue
            y = e - x
            s = sign_exp
            for j, yj in right_gone:
                cross = par[j] * par[i]
                if kind.is_signed:
                    cross += 1
                s += yj * x * cross
            if x:
                left_counts[i] = x
            right_gone.append((i, y))
            rec(idx + 1, rem_left - x, left_counts, right_gone, c, s)
            right_gone.pop()
            if x:
                del left_counts[i]

    rec(0, a, {}, [], 1, 0)
    return sorted(out.items(), key=lambda kv: (kv[0][0].exps, kv[0][1].exps))


def yoneda_hom_dim(kind, n, space):
    """(even, odd) dimension of the natural maps from the kind's n-th power
    into the parameterized symmetric power on the given space.

    Computed as the dimension of the dual power functor evaluated on the
    space.
    """
    ev = od = 0
    for m in power_basis(DUALS[kind], n, space):
        if m.parity == EVEN:
            ev += 1
        else:
            od += 1
    return (ev, od)


# ---------------------------------------------------------------------------
# the divided-power Hom calculus by the tensor route


def element_parity(el):
    """The parity of a parity-homogeneous element (EVEN when it is zero)."""
    par = el.hom.parities()
    pars = {sum(e * par[i] for i, e in exps) % 2 for exps in el.terms}
    if len(pars) > 1:
        raise ValueError("element is not parity homogeneous")
    return pars.pop() if pars else EVEN


def monomial_bigrade(el, exps):
    """(sum of target z-degrees, sum of source z-degrees) of a monomial."""
    tz = el.target.zdegs()
    sz = el.source.zdegs()
    t = s = 0
    for idx, e in exps:
        i, j = el.unit_pair(idx)
        t += e * tz[i]
        s += e * sz[j]
    return (t, s)


def element_bigrades(el):
    return sorted({monomial_bigrade(el, k) for k in el.terms})


def split_by_source_degree_oracle(el):
    """Components keyed by total source z-degree, each term added in turn to
    a fresh element of its degree."""
    out = {}
    for exps, c in el.terms.items():
        _, s = monomial_bigrade(el, exps)
        out.setdefault(s, GammaElement(el.source, el.target, el.n, el.p)).add_term(exps, c)
    return out


def monomials_with_bigrade_oracle(source, target, n, p, tgt_sum, src_sum, budget=None):
    """All admissible monomials of the Hom power with the given degree sums,
    by a recursion over every unit in turn (exponent from high to low, 0
    last), pruned only by the suffix bounds of the z-degrees.  It recurses
    once per unit, so it needs a Hom space with fewer units than the
    recursion limit."""
    hom = hom_space(source, target)
    dim = hom.dim
    tz = target.zdegs()
    sz = source.zdegs()
    par = hom.parities()
    dim_v = source.dim
    unit_t = [tz[i // dim_v] for i in range(dim)]
    unit_s = [sz[i % dim_v] for i in range(dim)]
    # suffix bounds for pruning
    INF = float("inf")
    min_t = [INF] * (dim + 1)
    max_t = [-INF] * (dim + 1)
    min_s = [INF] * (dim + 1)
    max_s = [-INF] * (dim + 1)
    for i in range(dim - 1, -1, -1):
        min_t[i] = min(min_t[i + 1], unit_t[i])
        max_t[i] = max(max_t[i + 1], unit_t[i])
        min_s[i] = min(min_s[i + 1], unit_s[i])
        max_s[i] = max(max_s[i + 1], unit_s[i])
    out = []

    def rec(idx, rem, t_need, s_need, acc):
        if rem == 0:
            if t_need == 0 and s_need == 0:
                out.append(tuple(acc))
                if budget is not None and len(out) > budget:
                    raise BudgetExceededError("bigraded piece", len(out), budget)
            return
        if idx == dim:
            return
        if min_t[idx] != INF:
            if not (rem * min_t[idx] <= t_need <= rem * max_t[idx]):
                return
            if not (rem * min_s[idx] <= s_need <= rem * max_s[idx]):
                return
        cap = 1 if par[idx] == ODD else rem
        for e in range(min(cap, rem), -1, -1):
            if e:
                acc.append((idx, e))
                rec(idx + 1, rem - e, t_need - e * unit_t[idx], s_need - e * unit_s[idx], acc)
                acc.pop()
            else:
                rec(idx + 1, rem, t_need, s_need, acc)

    rec(0, n, tgt_sum, src_sum, [])
    return out


def compose_power(el, k):
    """k-fold composition of an endomorphism-type element with itself."""
    if k < 1:
        raise ValueError("power must be >= 1")
    out = el
    for _ in range(k - 1):
        out = compose(el, out)
    return out


@lru_cache(maxsize=8)
def d_power_element(p, r, k, barred=False):
    """The whole formal d^k, every source degree at once; the library forms
    it one source degree at a time (resolutions.d_component)."""
    return compose_power(d_element(p, r, barred), k)


def expand_to_invariant_tensor(el, check=False):
    t = SignedTensor(el.hom, el.n, el.p)
    for exps, c in el.terms.items():
        m = PowerMonomial(PowerKind.DIV, el.hom, exps)
        t = t + lift_from_power(m, el.p).scaled(c)
    if check:
        n = el.n
        for k in range(n - 1):
            sigma = list(range(n))
            sigma[k], sigma[k + 1] = sigma[k + 1], sigma[k]
            if act_sigma(t, tuple(sigma)) != t:
                raise ValueError("expansion is not invariant")
    return t


def recognize_invariant_tensor(t, source, target, n):
    el = GammaElement(source, target, n, t.p)
    for m, c in project_checked(PowerKind.DIV, t).items():
        el.add_term(m.exps, c)
    return el


def compose_slow(g, f):
    """Composition through full double expansion to invariant tensors."""
    p = g.p
    n = g.n
    tg = expand_to_invariant_tensor(g)
    tf = expand_to_invariant_tensor(f)
    dim_u = f.source.dim
    dim_v = f.target.dim
    g_par = g.hom.parities()
    f_par = f.hom.parities()
    out_t = SignedTensor(hom_space(f.source, g.target), n, p)
    for tkey, tc in tg.terms.items():
        for skey, sc in tf.terms.items():
            comp = []
            ok = True
            for a in range(n):
                ci, cj = divmod(tkey[a], dim_v)
                ai, aj = divmod(skey[a], dim_u)
                if cj != ai:
                    ok = False
                    break
                comp.append(ci * dim_u + aj)
            if not ok:
                continue
            kz = 0
            for a in range(n):
                for b in range(a + 1, n):
                    kz += g_par[tkey[b]] * f_par[skey[a]]
            out_t.add_term(tuple(comp), tc * sc * (-1) ** kz)
    return recognize_invariant_tensor(out_t, f.source, g.target, n)


def apply_sym_matrix(el):
    """Matrix of the induced map on symmetric powers, in power-basis order."""
    src_index = {m.exps: k for k, m in enumerate(power_basis(PowerKind.SYM, el.n, el.source))}
    tgt_index = {m.exps: k for k, m in enumerate(power_basis(PowerKind.SYM, el.n, el.target))}
    return apply_sym_block(el, src_index, tgt_index, len(tgt_index))


def apply_sym(el):
    """The induced map on symmetric powers as a graded linear map."""
    mat = apply_sym_matrix(el)
    src = _sym_power_space(el.source, el.n)
    tgt = _sym_power_space(el.target, el.n)
    parity = element_parity(el)
    zshifts = {t - s for (t, s) in element_bigrades(el)}
    if len(zshifts) > 1:
        raise ValueError("element is not z-homogeneous")
    zshift = zshifts.pop() if zshifts else 0
    return LinearMapSS(src, tgt, mat, parity, zshift)


@lru_cache(maxsize=8)
def _sym_power_space(space, n):
    elems = []
    for m in power_basis(PowerKind.SYM, n, space):
        elems.append(BasisElement(m.label(), m.zdeg, m.parity))
    return SuperSpace(tuple(elems))


def apply_sym_slow(el):
    """The symmetric-power action of el by the tensor route, in power-basis order.

    el is expanded to its invariant tensor of maps; each key acts factorwise
    on the sorted factor sequence of a source monomial x, with the Koszul
    exponent sum_{a<b} |g_b| |x_a| of moving the maps past the vectors, and
    the image tensor is projected to the symmetric power.
    """
    n = el.n
    dim_v = el.source.dim
    g_par = el.hom.parities()
    x_par = el.source.parities()
    src_basis = power_basis(PowerKind.SYM, n, el.source)
    tgt_index = {m.exps: k for k, m in enumerate(power_basis(PowerKind.SYM, n, el.target))}
    maps = expand_to_invariant_tensor(el).terms
    entries = []
    for col, mono in enumerate(src_basis):
        x = factor_sequence(mono)
        image = SignedTensor(el.target, n, el.p)
        for key, c in maps.items():
            if any(g % dim_v != xa for g, xa in zip(key, x)):
                continue
            kz = sum(g_par[key[b]] * x_par[x[a]] for a in range(n) for b in range(a + 1, n))
            image.add_term(tuple(g // dim_v for g in key), c * (-1) ** kz)
        for m, c in project_to_power(PowerKind.SYM, image).items():
            entries.append(((tgt_index[m.exps], col), c))
    return FpMatrix.from_coords(el.p, len(tgt_index), len(src_basis), entries)


def tensor_identity_left(el, w, budget=None):
    """Extend each matrix unit by the identity of w on the left.

    A unit f becomes the sum over k of the units w_k (x) f, each with the
    sign (-1)^{parity(f) * parity(w_k)} from f passing the left tensor
    factor; each monomial is then multiplied out.
    """
    p = el.p
    hom = el.hom
    dsrc = el.source.dim
    dtgt = el.target.dim
    w_par = w.parities()
    out = GammaElement(tensor(w, el.source), tensor(w, el.target), el.n, p)
    new_dim = out.source.dim
    for exps, c in el.terms.items():
        factors = []  # one {exps: coeff} per gamma factor
        for idx, e in exps:
            i, j = el.unit_pair(idx)
            unit_parity = hom.basis[idx].parity
            images = [
                ((k * dtgt + i) * new_dim + (k * dsrc + j), (-1) ** (unit_parity * w_par[k]) % p)
                for k in range(w.dim)
            ]
            if unit_parity == EVEN:
                factors.append(_even_multiset_expansion(e, images, p, budget))
            else:
                # odd units occur with exponent one; gamma_1 is linear
                factors.append({((new_idx, 1),): coeff for new_idx, coeff in images})
        for e2, c2 in multiply_out(PowerKind.DIV, out.hom, factors, p, budget, "tensor_identity_left").items():
            out.add_term(e2, c * c2)
    return out


# ---------------------------------------------------------------------------
# convolution components and the complexes B_n(r)


def convolution_apply_oracle(images, d, mono, p):
    """Coproduct-route evaluation of a convolution component, for cross-checks.

    Splits the monomial, applies the full algebra action of the map to the
    degree-d part, and multiplies back.
    """
    n = degree(mono)
    if d > n:
        return {}
    out = {}
    for (left, right), c0 in coproduct_component(mono, n - d, d, p):
        # S^d(f) on the right factor: every factor mapped
        if any(g not in images for g, _ in right.exps):
            continue
        factors = [{left.exps: c0}]
        for g, e in right.exps:
            g2, scal = images[g]
            factors.append({((g2, e),): pow(scal, e, p)})
        for exps, c in multiply_out(PowerKind.SYM, mono.space, factors, p).items():
            add_mod_p(out, exps, c, p)
    return out


def build_D_complex(n, p):
    """Tensor power of k[x]/(x^p) with the sum-of-raises differential: the
    one-dimensional purely odd oracle on nilpotent truncated generators."""
    terms = {}
    index = {}
    for b in itertools.product(range(p), repeat=n):
        z = sum(b)
        lst = terms.setdefault(z, [])
        index[b] = (z, len(lst))
        lst.append(b)
    spaces = {
        z: SuperSpace(tuple(BasisElement("x" + "".join(map(str, b)), z, EVEN) for b in lst))
        for z, lst in terms.items()
    }
    diffs = {}
    for z, lst in sorted(terms.items()):
        tgt = terms.get(z + 1)
        if tgt is None:
            continue
        entries = [
            ((index[b[:i] + (b[i] + 1,) + b[i + 1:]][1], col), 1)
            for col, b in enumerate(lst)
            for i in range(n)
            if b[i] < p - 1
        ]
        diffs[z] = FpMatrix.from_coords(p, len(tgt), len(lst), entries)
    return PComplex(p, 1, spaces, diffs), index


def d_oracle_maps(n, p):
    """The comparison maps between the auxiliary complex and B_n(1)(k^{0|1}).

    Returns (D complex, C data, varphi, psi, s) where varphi and psi are
    {degree: FpMatrix} and s is the signed symmetrizer on D.
    """
    if not (1 <= n < p):
        raise ValueError("the averaging map needs 1 <= n < p")
    dcx, dindex = build_D_complex(n, p)
    cdata = build_B(n, 1, k_super(0, 1), p)
    inv_nfact = pow(math.factorial(n) % p, p - 2, p)
    perms = list(itertools.permutations(range(n)))
    cmonos = monomials_of(cdata)
    varphi = {}
    psi = {}
    s_maps = {}
    for z in dcx.degrees():
        dlist = sorted((b for b in dindex if sum(b) == z), key=lambda b: dindex[b][1])
        dn = len(dlist)
        cn = cdata.complex.dim(z)
        cpos = cdata.index.get(z, {})
        vp = []
        for col, b in enumerate(dlist):
            # product w_{b_1} ... w_{b_n} in the exterior part
            if len(set(b)) < n:
                continue
            row = cpos.get(tuple(sorted((i, 1) for i in b)))
            if row is not None:
                vp.append(((row, col), (-1) ** inversion_count(b)))
        ps = []
        for ccol, m in enumerate(cmonos.get(z, [])):
            key = tuple(factor_sequence(m))
            if key in dindex:
                ps.append(((dindex[key][1], ccol), 1))
        sym = [
            ((dindex[tuple(b[i] for i in sigma)][1], col), (-1) ** inversion_count(sigma) * inv_nfact)
            for col, b in enumerate(dlist)
            for sigma in perms
        ]
        varphi[z] = FpMatrix.from_coords(p, cn, dn, vp)
        psi[z] = FpMatrix.from_coords(p, dn, cn, ps)
        s_maps[z] = FpMatrix.from_coords(p, dn, dn, sym)
    return dcx, cdata, varphi, psi, s_maps


# ---------------------------------------------------------------------------
# cyclic decompositions


def _column_parity(mat, space):
    """Parity of the support of each column (columns must be parity pure)."""
    out = []
    for j in range(mat.cols):
        par = None
        for i in range(mat.rows):
            if mat.data[i, j]:
                q = space.basis[i].parity
                if par is None:
                    par = q
                elif par != q:
                    raise ValueError("column mixes parities")
        out.append(par)
    return out


def decompose_cyclic_oracle(cx):
    """Independent block count via intersections im(d^{j-1}) meet ker(d).

    Counts blocks of length >= j by the dimension of that intersection in the
    block's top degree; used to cross-check decompose_cyclic.
    """
    blocks = {}
    for d_top in cx.degrees():
        ker = cx.diff(d_top).kernel_basis()
        ker_par = _column_parity(ker, cx.term(d_top))
        for parity in (EVEN, ODD):
            ker_cols = [j for j, q in enumerate(ker_par) if q == parity or q is None]
            kmat = ker.submatrix(range(ker.rows), ker_cols)
            for j in range(1, cx.p + 1):
                src = d_top - (j - 1) * cx.alpha
                if j == 1:
                    inter = kmat.rank()
                else:
                    if cx.dim(src) == 0:
                        inter = 0
                    else:
                        img = cx.iterated_diff(src, j - 1).image_basis()
                        img_par = _column_parity(img, cx.term(d_top))
                        icols = [c for c, q in enumerate(img_par) if q == parity or q is None]
                        imat = img.submatrix(range(img.rows), icols)
                        if imat.cols == 0 or kmat.cols == 0:
                            inter = 0
                        else:
                            inter = imat.rank() + kmat.rank() - hstack([imat, kmat]).rank()
                key = (j, parity)
                blocks.setdefault(d_top, {})[key] = inter
    out = {}
    for d_top, table in blocks.items():
        for parity in (EVEN, ODD):
            for j in range(1, cx.p + 1):
                n = table[(j, parity)] - table.get((j + 1, parity), 0)
                if n:
                    shift = d_top - (j - 1) * cx.alpha
                    out[(shift, j, parity)] = out.get((shift, j, parity), 0) + n
    return CyclicDecomposition(cx.p, cx.alpha, out)


def reconstructed_dims(dec):
    """{(degree, parity): dimension} of the direct sum of dec's cyclic blocks."""
    dims = {}
    for (shift, length, parity), mult in dec.blocks.items():
        for t in range(length):
            key = (shift + t * dec.alpha, parity)
            dims[key] = dims.get(key, 0) + mult
    return dims


def rows_equal(table):
    """Whether every slice of a CohomologyTable has the same row, as for a normal complex."""
    vals = list(table.rows.values())
    return all(v == vals[0] for v in vals[1:])


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


def validate_p_differential_oracle(cx):
    """d^N = 0 from the whole product d(i + (N-1) alpha) ... d(i) in every
    degree, with the library's message at the first degree where it fails."""
    for i in cx.degrees():
        power = FpMatrix.identity(cx.p, cx.dim(i))
        for k in range(cx.order):
            power = matmul(cx.diff(i + k * cx.alpha), power)
        if not power.is_zero():
            raise PDifferentialError(f"d^{cx.order} is nonzero starting at degree {i}")


def contraction_prediction(cx, s, t, ell):
    """Expected H^ell of the contraction from the slice cohomology of cx."""
    deg = contraction_degree(cx, s, t, ell)
    slice_ = s if ell % 2 == 0 else cx.p - s
    row = cohomology(cx, slice_)
    return row.get(deg, (0, 0))


def class_representatives_oracle(cx, deg):
    """Cocycle vectors whose classes form a basis of H_[1] in this degree,
    found against a basis of the image of d^(p-1), as lists."""
    ker = cx.diff(deg).kernel_basis()
    src = deg - (cx.p - 1) * cx.alpha
    img = cx.iterated_diff(src, cx.p - 1).image_basis()
    pivots = hstack([img, ker]).pivot_columns()
    return [ker.data[:, c - img.cols].tolist() for c in pivots if c >= img.cols]


def spans_cohomology_oracle(cx, deg, vectors):
    """Whether the vectors are d-cocycles whose classes span H_[1] in this
    degree, from a basis of the image of d^(p-1) and the full rank of d."""
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
