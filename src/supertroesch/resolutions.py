"""Splicing the contracted complexes into injective resolutions of the even
and odd twist functors, the explicit splice map for r = 1 and its linear
solver for general r, Ext dimension tables with their named basis classes,
and Yoneda products computed by formal chain-map lifting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError
from .gamma import (
    GammaElement,
    apply_frobenius,
    apply_sym_block,
    compose,
    compose_each,
    differential_element,
    element_from_map,
    element_product,
    gamma_monomial,
    monomials_with_bigrade,
    relabel_element,
    tensor_with_identity,
    zero_element,
)
from .linalg import FpMatrix
from .pcomplex import ChainComplex, contraction_degree
from .powers import add_mod_p
from .superspace import (
    ODD,
    SuperSpace,
    build_Sh,
    check_sh_budget,
    parity_shift,
    rho,
)
from .troesch import DEFAULT_BUDGET, build_B, build_B_bar

# ---------------------------------------------------------------------------
# the splice map for r = 1, and the general linear solver


@lru_cache(maxsize=8)
def _sh_pair(p, r):
    sh = build_Sh(p, r)
    return sh, parity_shift(sh)


def phi_j_element(p, j):
    """The weighted lowering map used to build the r = 1 splice morphism."""
    sh, shbar = _sh_pair(p, 1)
    out = zero_element(sh, shbar, 1, p)
    for i in range(0, p - j):
        c = (-1) ** j * math.comb(i + j, i) % p
        if c:
            out = out + gamma_monomial(sh, shbar, 1, p, [((i, i + j), 1)], c)
    return out


# cap on monomial counts when materializing formal elements internally
ELEMENT_TERM_CAP = 1_000_000


def _d_estimate(p, r):
    """An upper bound on the term count of the formal differential of degree
    p^r, from p and r alone: for each s < r it counts one term per pair of a
    degree-p^s and a degree-(q - p^s) monomial in q = p^r units, with no
    term merged or cancelled (18 against the 12 built terms at (3, 1))."""
    q = p ** r
    return sum(
        math.comb(q + p ** s - 1, p ** s) * math.comb(2 * q - p ** s - 1, q - p ** s)
        for s in range(r)
    )


def _check_d_estimate(p, r):
    """Raise BudgetExceededError when the upper bound on the term count of
    the formal differential of degree p^r passes ELEMENT_TERM_CAP."""
    est = _d_estimate(p, r)
    if est > ELEMENT_TERM_CAP:
        raise BudgetExceededError("formal differential expansion", est, ELEMENT_TERM_CAP)


def d_element(p, r, barred=False):
    """The formal differential of polynomial degree p^r, over Sh or its shift.

    Built once per (p, r, barred), however barred is passed."""
    return _d_element(p, r, bool(barred))


@lru_cache(maxsize=16)
def _d_element(p, r, barred):
    if barred:
        # d-bar has d's terms over Pi Sh: every unit of Hom(Pi Sh, Pi Sh) has
        # the parity of the same unit of Hom(Sh, Sh)
        shbar = _sh_pair(p, r)[1]
        return relabel_element(_d_element(p, r, False), shbar, shbar)
    _check_d_estimate(p, r)
    return differential_element(p, r, p ** r, [rho(p, r, s) for s in range(r)], ELEMENT_TERM_CAP)


@lru_cache(maxsize=16)
def _d_by_source_degree(p, r, barred):
    return d_element(p, r, barred).split_by_source_degree()


@lru_cache(maxsize=256)
def d_component(p, r, z, k, barred):
    """The component of d^k out of source z-degree z, never forming d^k whole.

    It is d_{z+(k-1)h} o ... o d_{z+h} o d_z with h = p^(r-1), each factor
    the component of d out of that z-degree; a missing component of d gives
    the zero element.  compose pairs monomials by target profile, which fixes
    the z-sum, so composing with a component gives exactly the terms that
    composing with the whole power gives at that source degree.  The cache
    hands out one object per component, so compose indexes each once.
    A lifting step's right-hand side applies d^(p-1) factor by factor
    (SplicedResolution.compose_block); d^(p-1) is formed here only to be a
    right factor, as in the images of a step's unknowns.
    """
    if k > 1:
        h = p ** (r - 1)
        return compose(d_component(p, r, z + (k - 1) * h, 1, barred), d_component(p, r, z, k - 1, barred))
    comp = _d_by_source_degree(p, r, barred).get(z)
    if comp is None:
        d_el = d_element(p, r, barred)
        comp = zero_element(d_el.source, d_el.target, d_el.n, p)
    return comp


@lru_cache(maxsize=4)
def epsilon_prime_full(p):
    """The r = 1 splice morphism as a single element: the ordered product of
    the weighted lowering maps phi_0 ... phi_{p-1}."""
    el = phi_j_element(p, 0)
    for j in range(1, p):
        el = element_product(el, phi_j_element(p, j))
    return el


def epsilon_prime_1(p):
    """Components of the r = 1 splice morphism, one per contraction degree
    p-1 .. 2p-2 (keyed by that degree)."""
    full = epsilon_prime_full(p)
    by_src = full.split_by_source_degree()
    out = {}
    for local in range(p - 1, 2 * p - 1):
        z = contraction_degree(p, 1, 1, 0, local)
        comp = by_src.get(z)
        if comp is None:
            comp = zero_element(full.source, full.target, p, p)
        out[local] = comp
    return out


def epsilon_prime_components_by_zdeg(p, r=1, budget=DEFAULT_BUDGET):
    """All z-degree components of the splice morphism (solver for r > 1)."""
    if r == 1:
        return epsilon_prime_full(p).split_by_source_degree()
    return solve_epsilon(r, p, budget)


def _solve_elements(p, n, unknowns, images, rhs, stage):
    """Solve for unknown elements of degree-n divided Hom powers.

    unknowns lists (key, source, target, piece): an element from source to
    target spanned by the monomials of piece.  images(key, monomials) yields
    the image of the unknown at key as (part, columns) pairs, each call
    monomials() iterating afresh over its piece's one-monomial elements:
    columns gives each monomial's image in that part as {exps: coeff}, in
    rows keyed (part, exps).  rhs is {row key: coeff}.  Columns follow the
    unknowns, then the piece order, so the pivots and the particular
    solution (free variables 0) depend on neither the row keys nor the row
    order.  Returns {key: element} for the nonzero unknowns.
    """
    rows = {}
    at_row, at_col, values = [], [], []
    col = 0
    for key, source, target, piece in unknowns:

        def monomials():
            return (GammaElement(source, target, n, p, {exps: 1}) for exps in piece)

        for part, columns in images(key, monomials):
            for j, terms in enumerate(columns, col):
                for exps, c in terms.items():
                    at_row.append(rows.setdefault((part, exps), len(rows)))
                    at_col.append(j)
                    values.append(c)
        col += len(piece)
    for row in rhs:
        rows.setdefault(row, len(rows))
    b = [0] * len(rows)
    for row, c in rhs.items():
        b[rows[row]] = c
    x = FpMatrix.from_arrays(p, len(rows), col, at_row, at_col, values).solve(b)
    if x is None:
        raise AssertionError(f"{stage}: the linear system is inconsistent")
    out = {}
    col = 0
    for key, source, target, piece in unknowns:
        terms = {exps: c for exps, c in zip(piece, x[col: col + len(piece)]) if c}
        col += len(piece)
        if terms:
            out[key] = GammaElement(source, target, n, p, terms)
    return out


def solve_epsilon(r, p, budget=DEFAULT_BUDGET):
    """Solve the splice morphism degree by degree from the chain equation.

    Starts from the closed-form bottom component and solves
    eps_{l+h} o d = dbar o eps_l in each bigraded piece, h = p^{r-1}.
    Returns {source z-degree: element}.  The base case for r = 1 reproduces
    the closed-form product up to a valid alternative choice.
    """
    sh, shbar = _sh_pair(p, r)
    q = p ** r
    h = p ** (r - 1)
    choose2 = q * (q - 1) // 2
    top = q * (q - 1)
    # the bottom component: the units (0, j) with sign (-1)^{0 + 1 + ... + (q-1)}
    units = [((0, j), 1) for j in range(q)]
    comps = {choose2: gamma_monomial(sh, shbar, q, p, units, (-1) ** choose2 % p)}
    # every piece is enumerated, and checked against the budget, before the
    # differentials are built or anything is composed
    steps = range(choose2 + h, top + 1, h)
    pieces = [monomials_with_bigrade(sh, shbar, q, p, nxt - choose2, nxt, budget) for nxt in steps]
    d_el = d_element(p, r)
    dbar_el = d_element(p, r, barred=True)
    for nxt, piece in zip(steps, pieces):
        ell = nxt - h
        sol = _solve_elements(
            p,
            q,
            [(nxt, sh, shbar, piece)],
            lambda _, monomials: [(None, compose_each(monomials(), d_el))],
            {(None, exps): c for exps, c in compose(dbar_el, comps[ell]).terms.items()},
            f"splice solve at degree {nxt}",
        )
        comps[nxt] = sol.get(nxt, zero_element(sh, shbar, q, p))
    # top consistency: dbar o eps_top must vanish
    last = compose(dbar_el, comps[top])
    if not last.is_zero():
        raise AssertionError("splice morphism does not close at the top degree")
    return comps


def check_epsilon_chain(p, r=1, comps=None):
    """dbar o eps = eps o d as formal elements (the p-complex morphism law)."""
    comps = epsilon_prime_components_by_zdeg(p, r) if comps is None else comps
    d_el = d_element(p, r)
    dbar_el = d_element(p, r, barred=True)
    h = p ** (r - 1)
    degrees = sorted(comps)
    for ell in degrees:
        lhs = compose(dbar_el, comps[ell])
        nxt = comps.get(ell + h)
        rhs = compose(nxt, d_el) if nxt is not None else None
        if rhs is None:
            if not lhs.is_zero():
                return False
        elif lhs != rhs:
            return False
    return True


def check_pascal(p):
    """rho_bar o phi_j - phi_j o rho = phi_{j-1} for 0 <= j < p."""
    sh, shbar = _sh_pair(p, 1)
    rho_el = element_from_map(rho(p, 1, 0), 1, p)
    rhobar_el = relabel_element(rho_el, shbar, shbar)
    for j in range(p):
        phi = phi_j_element(p, j)
        lhs = compose(rhobar_el, phi) - compose(phi, rho_el)
        rhs = phi_j_element(p, j - 1) if j >= 1 else zero_element(sh, shbar, 1, p)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# formal spliced resolutions


@dataclass(frozen=True, order=True)
class FormalTerm:
    shift: int
    kind: str  # "T" or "Tbar"
    local: int


class SplicedResolution:
    """Formal description of the injective resolution built by splicing.

    flavor "J" resolves the even twist functor; "Jbar" the odd one.  Terms at
    shift q*p^r have the base kind for even q and the conjugate kind for odd
    q; blocks are the contraction differentials plus the splice maps.
    """

    def __init__(self, p, r, flavor="J", budget=DEFAULT_BUDGET):
        if flavor not in ("J", "Jbar"):
            raise ValueError(f"unknown flavor {flavor!r}")
        if r < 1:
            raise ValueError("r must be >= 1")
        self.p = p
        self.r = r
        self.flavor = flavor
        self.budget = budget
        self.q = p ** r
        self.top_local = 2 * self.q - 2
        self._eps = None
        self._blocks = {}  # degree -> its blocks, built once

    # term bookkeeping ------------------------------------------------

    def kind_for_q(self, qidx):
        base, conj = ("T", "Tbar") if self.flavor == "J" else ("Tbar", "T")
        return base if qidx % 2 == 0 else conj

    def terms(self, m, max_shift_index=None):
        """The terms of degree m in shift order: the copies qidx below
        max_shift_index whose local degree m - qidx*q lies in 0..top_local,
        at most two."""
        first = max(0, -((self.top_local - m) // self.q))  # ceil((m - top_local) / q)
        stop = m // self.q + 1
        if max_shift_index is not None:
            stop = min(stop, max_shift_index)
        return [FormalTerm(k * self.q, self.kind_for_q(k), m - k * self.q) for k in range(first, stop)]

    # block elements ---------------------------------------------------

    def eps_components(self):
        if self._eps is None:
            self._eps = epsilon_prime_components_by_zdeg(self.p, self.r, self.budget)
        return self._eps

    def _step_power(self, kind, local):
        """(z, k, barred): the contraction differential out of a local degree
        is the component of d^k out of z-degree z, k = p - 1 for odd local.
        Refuses an odd step whose power would pass ELEMENT_TERM_CAP."""
        p, r = self.p, self.r
        barred = kind == "Tbar"
        k = 1
        if local % 2:
            # the (p-1)-fold formal composite squares the monomial count of
            # the one-step element
            size = len(d_element(p, r, barred).terms) ** 2
            if size > ELEMENT_TERM_CAP:
                raise BudgetExceededError("formal differential power", size, ELEMENT_TERM_CAP)
            k = p - 1
        return contraction_degree(p, p ** (r - 1), 1, 0, local), k, barred

    def partial_element(self, kind, local):
        """The contraction differential out of a local degree, as an element:
        the component of d, or of d^(p-1) for odd local, out of that local
        degree's z-degree."""
        return d_component(self.p, self.r, *self._step_power(kind, local))

    def eps_element(self, kind, local):
        """The splice block out of a local degree, with its alternating sign."""
        p, r = self.p, self.r
        comp = self.eps_components().get(contraction_degree(p, p ** (r - 1), 1, 0, local))
        sh, shbar = _sh_pair(p, r)
        if comp is None:
            comp = zero_element(sh, shbar, self.q, p)
        if kind == "Tbar":
            comp = relabel_element(comp, shbar, sh)
        sign = (-1) ** local
        return comp.scaled(sign % p)

    def arrows(self, m, max_shift_index=None):
        """The (source term, target term) pairs of the differential from
        degree m to m + 1: for each source term, its contraction step, then
        its seam into the next copy."""
        tgt_terms = set(self.terms(m + 1, max_shift_index))
        for t in self.terms(m, max_shift_index):
            other = "Tbar" if t.kind == "T" else "T"
            step = FormalTerm(t.shift, t.kind, t.local + 1)
            seam = FormalTerm(t.shift + self.q, other, t.local - self.q + 1)
            for nxt in (step, seam):
                if nxt in tgt_terms:
                    yield t, nxt

    def compose_block(self, s, t, el):
        """compose(block s -> t, el), never forming a power of d.

        A contraction step applies its k factors of d right to left, each the
        component of d out of the z-degree it meets; composition is
        associative, so this is the block formed whole and then composed."""
        if s.kind != t.kind:
            return compose(self.eps_element(s.kind, s.local), el)
        z, k, barred = self._step_power(s.kind, s.local)
        h = self.p ** (self.r - 1)
        for j in range(k):
            el = compose(d_component(self.p, self.r, z + j * h, 1, barred), el)
        return el

    def check_blocks(self, m):
        """Raise what forming blocks(m) raises, forming none of them: an odd
        step past the cap, or a splice past the budget, in arrow order."""
        for s, t in self.arrows(m):
            if s.kind == t.kind:
                self._step_power(s.kind, s.local)
            else:
                self.eps_components()

    def blocks(self, m):
        """Blocks of the differential from degree m to m + 1, as elements:
        the contraction differential on a step, the splice map on a seam.
        Each degree's blocks are built once, so a block is one object and
        keeps its compose index across calls."""
        out = self._blocks.get(m)
        if out is None:
            out = self._blocks[m] = {}
            for s, t in self.arrows(m):
                element = self.partial_element if s.kind == t.kind else self.eps_element
                out[(s, t)] = element(s.kind, s.local)
        return out


def check_delta_squared_formal(p, r=1, flavor="J", max_degree=None, budget=DEFAULT_BUDGET):
    """delta^2 = 0 as formal elements, block by block.

    Public API: nothing in the package calls it; it checks the spliced
    resolution's formal differential without evaluating it at a space."""
    res = SplicedResolution(p, r, flavor, budget)
    q = p ** r
    max_degree = 4 * q if max_degree is None else max_degree
    for m in range(max_degree):
        b1 = res.blocks(m)
        b2 = res.blocks(m + 1)
        pair_sums = {}
        for (src, mid), el1 in b1.items():
            for (mid2, tgt), el2 in b2.items():
                if mid2 != mid:
                    continue
                comp = compose(el2, el1)
                key = (src, tgt)
                pair_sums[key] = comp if key not in pair_sums else pair_sums[key] + comp
        for key, el in pair_sums.items():
            if not el.is_zero():
                return False, f"delta^2 nonzero from {key[0]} to {key[1]} at degree {m}"
    return True, "ok"


# ---------------------------------------------------------------------------
# evaluated complexes


def build_J(r, u, n_splices, p=3, budget=DEFAULT_BUDGET, flavor="J", closed=False):
    """Evaluate the spliced resolution at a test space, truncated to the
    given number of splice copies, as a ChainComplex.

    With closed=False the head of the following copy is kept, so exactness
    holds through degree 2 * n_splices * p^r - 1; with closed=True the
    truncation stops exactly after n_splices copies (the two-story splice
    for n_splices = 1) and the top cohomology of the last copy survives.

    A contraction block is a power of the evaluated differential of B or
    B-bar; only the splice blocks are evaluated from formal elements.  A
    block depends on its kinds and local degree, not on its shift, so each
    is evaluated once.
    """
    res = SplicedResolution(p, r, flavor, budget)
    q = p ** r
    if closed:
        max_q = 2 * n_splices
        max_degree = (max_q - 1) * q + res.top_local
    else:
        max_q = 2 * n_splices + 1
        max_degree = 2 * n_splices * q
    # solve the splice first: for r >= 2 its pieces are over the budget,
    # and that shows before either complex is built
    res.eps_components()
    data_for = {"T": build_B(q, r, u, p, budget), "Tbar": build_B_bar(q, r, u, p, budget)}

    def piece(kind, local):
        return data_for[kind], contraction_degree(p, p ** (r - 1), 1, 0, local)

    def term_space(t):
        data, z = piece(t.kind, t.local)
        return data.complex.term(z)

    def names(ts):
        # each piece's own names, prefixed by its term
        return lambda: [f"[{t.kind}{t.local}+{t.shift}]{a}" for t in ts for a in term_space(t).names()]

    @lru_cache(maxsize=None)
    def block(src_kind, local, tgt_kind):
        data, zs = piece(src_kind, local)
        if src_kind == tgt_kind:
            return data.complex.iterated_diff(zs, 1 if local % 2 == 0 else p - 1)
        tgt_data, zt = piece(tgt_kind, local - q + 1)
        big = tensor_with_identity(res.eps_element(src_kind, local), u, budget)
        return apply_sym_block(big, data.index.get(zs, {}), tgt_data.index.get(zt, {}), tgt_data.complex.dim(zt))

    terms = {}
    offsets = {}  # term -> (offset in its degree, dim)
    for m in range(max_degree + 2):
        ts = res.terms(m, max_q)
        zdegs, parities = [], []
        for t in ts:
            space = term_space(t)
            offsets[t] = (len(zdegs), space.dim)
            zdegs += space.zdegs()
            # T-bar flips parity
            parities += [par ^ (t.kind == "Tbar") for par in space.parities()]
        terms[m] = SuperSpace.from_columns(zdegs, parities, names(ts))
    diffs = {}
    for m in range(max_degree + 1):
        data = np.zeros((terms[m + 1].dim, terms[m].dim), dtype=np.int8)
        for s, t in res.arrows(m, max_q):
            (off_s, dim_s), (off_t, dim_t) = offsets[s], offsets[t]
            mat = block(s.kind, s.local, t.kind)
            if mat.shape != (dim_t, dim_s):
                raise AssertionError(f"block {s} -> {t} has shape {mat.shape}, expected {(dim_t, dim_s)}")
            data[off_t:off_t + dim_t, off_s:off_s + dim_s] = mat.data
        diffs[m] = FpMatrix(p, data)
    return ChainComplex(p, terms, diffs)


def build_Q(r, u, p=3, budget=DEFAULT_BUDGET, flavor="J"):
    """The two-story splice Q: one copy of each contraction, glued by eps.

    Public API, named in the README; the package itself evaluates J."""
    return build_J(r, u, 1, p, budget, flavor, closed=True)


@dataclass
class ExactnessReport:
    ok: bool
    h0: tuple
    failures: list

    def summary(self):
        if self.ok:
            return f"exact: H^0 = {self.h0}, higher cohomology vanishes in range"
        return "; ".join(self.failures)


def verify_J_exactness(r, u, n_splices, p=3, budget=DEFAULT_BUDGET, flavor="J"):
    cx = build_J(r, u, n_splices, p, budget, flavor)
    cx.validate_p_differential()
    failures = []
    dim0, dim1 = u.dims_by_parity()
    # the resolved functor is the even twist for J, the odd twist for Jbar
    want0 = (dim0, 0) if flavor == "J" else (0, dim1)
    h0 = cx.cohomology_dims(0)
    ok = h0 == want0
    if not ok:
        failures.append(f"H^0 = {h0}, want {want0}")
    top = 2 * n_splices * p ** r - 1
    for i in range(1, top + 1):
        h = cx.cohomology_dims(i)
        if h != (0, 0):
            ok = False
            failures.append(f"H^{i} = {h} != 0")
    return ExactnessReport(ok, h0, failures)


# ---------------------------------------------------------------------------
# Ext tables


@dataclass
class ExtTable:
    p: int
    r: int
    source_parity: int
    target_parity: int
    max_degree: int
    dims: dict  # s -> dim
    classes: list  # (s, name)


def _matching_kind(source_parity):
    return "T" if source_parity == 0 else "Tbar"


def class_name(p, r, source_parity, target_parity, s):
    q = p ** r
    if source_parity == target_parity:
        j = s // 2
        return f"e({j})" if source_parity == 0 else f"eΠ({j})"
    j = (s - q) // 2
    if source_parity == 1:
        return f"c∘eΠ({j})"
    return f"cΠ∘e({j})"


def ext_table(r, max_degree, p=3, source_parity=0, target_parity=0, budget=DEFAULT_BUDGET):
    """Dimensions of the derived Hom between twist functors, from the formal
    resolution: the Hom complex has vanishing differentials, so dimensions
    are term counts."""
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")
    # the premise check below builds dense p^r x p^r maps on Sh_r
    check_sh_budget(p, r, budget, "shift space Sh_r")
    flavor = "J" if target_parity == 0 else "Jbar"
    res = SplicedResolution(p, r, flavor, budget)
    _assert_frobenius_kills_differential(p, r)
    kind = _matching_kind(source_parity)
    dims = {}
    classes = []
    for s in range(max_degree + 1):
        c = 0
        for t in res.terms(s):
            if t.kind == kind and t.local % 2 == 0:
                c += 1
        if c:
            dims[s] = c
            classes.append((s, class_name(p, r, source_parity, target_parity, s)))
    table = ExtTable(p, r, source_parity, target_parity, max_degree, dims, classes)
    _check_theorem_pattern(table)
    return table


def _assert_frobenius_kills_differential(p, r):
    """The twist functor annihilates every differential block of the spliced
    resolution, so the induced Hom complexes have zero differentials.

    The twist keeps only the p^r-th divided power of a single even matrix
    unit.  A one-step block is a sum of gamma_{p^s}(rho) * gamma_{p^r - p^s}(1)
    with s < r; rho has a zero diagonal and p^s < p^r, so every monomial
    holds an off-diagonal and a diagonal unit.  The splice blocks lie in the
    divided powers of Hom(Sh, Pi Sh) and Hom(Pi Sh, Sh), whose units are all
    odd.  Odd-step blocks are (p-1)-fold composites of one-step blocks, and
    the twist is functorial.  The premises are checked for every (p, r); for
    small polynomial degree the twisted elements are checked as well.
    """
    for s in range(r):
        if rho(p, r, s).matrix.data.diagonal().any():
            raise AssertionError(f"rho_{s} should have a zero diagonal")
    sh, shbar = _sh_pair(p, r)
    # the unit E(i, j) of either Hom space has parity par(sh_i) + par(pi sh_j)
    if {(a + b) % 2 for a in sh.parities() for b in shbar.parities()} != {ODD}:
        raise AssertionError("every splice unit should be odd")
    if p ** r <= 5:
        if not apply_frobenius(d_element(p, r), r).is_zero():
            raise AssertionError("twist of the differential should vanish")
        if not apply_frobenius(d_element(p, r, barred=True), r).is_zero():
            raise AssertionError("twist of the conjugate differential should vanish")


def expected_ext_dim(p, r, source_parity, target_parity, s):
    q = p ** r
    if source_parity == target_parity:
        return 1 if s % 2 == 0 else 0
    return 1 if (s % 2 == 1 and s >= q) else 0


def _check_theorem_pattern(table):
    for s in range(table.max_degree + 1):
        want = expected_ext_dim(table.p, table.r, table.source_parity, table.target_parity, s)
        got = table.dims.get(s, 0)
        if got != want:
            raise AssertionError(
                f"Ext dimension mismatch at s={s} "
                f"({table.source_parity}->{table.target_parity}): {got} != {want}"
            )


# ---------------------------------------------------------------------------
# Yoneda products by chain-map lifting


@dataclass(frozen=True)
class ExtClassRef:
    """A canonical basis class of the Ext table."""

    source_parity: int
    target_parity: int
    degree: int

    def name(self, p, r):
        return class_name(p, r, self.source_parity, self.target_parity, self.degree)


def e_class(j, source_parity=0):
    return ExtClassRef(source_parity, source_parity, 2 * j)


def c_class(p, r, conjugate=False):
    q = p ** r
    if conjugate:
        return ExtClassRef(0, 1, q)
    return ExtClassRef(1, 0, q)


def _class_term_and_index(p, r, cls):
    """The formal term and twisted-basis index of the canonical representative."""
    q = p ** r
    flavor = "J" if cls.target_parity == 0 else "Jbar"
    kind = _matching_kind(cls.source_parity)
    s = cls.degree
    if cls.source_parity == cls.target_parity:
        j = s // 2
    else:
        if s < q or s % 2 == 0:
            raise ValueError(f"no canonical class in degree {s}")
        j = (s - q) // 2
    j0, j1 = j % q, j // q
    if cls.source_parity == cls.target_parity:
        shift = 2 * j1 * q
    else:
        shift = (2 * j1 + 1) * q
    return flavor, FormalTerm(shift, kind, 2 * j0), j0


class YonedaCalculator:
    """Computes Yoneda products of canonical classes by lifting chain maps."""

    def __init__(self, p, r, budget=DEFAULT_BUDGET):
        # the resolutions check r >= 1; every lifting step composes with d,
        # so a d past the cap fails next, before any piece is enumerated
        self.res = {f: SplicedResolution(p, r, f, budget) for f in ("J", "Jbar")}
        _check_d_estimate(p, r)
        self.p = p
        self.r = r
        self.q = p ** r
        self.budget = budget
        self._lifts = {}  # class -> {source degree: blocks}
        self._pieces = {}  # (source kind, target kind, target z-sum, source z-sum) -> piece

    def _unknown(self, key, src, tgt):
        """The (key, source, target, piece) unknown of a block from term src to
        term tgt: piece lists the monomials of its bigraded piece.  Each piece
        is enumerated once per calculator and only read afterwards."""
        p, r = self.p, self.r
        sh, shbar = _sh_pair(p, r)
        spaces = {"T": sh, "Tbar": shbar}
        tz, sz = (contraction_degree(p, p ** (r - 1), 1, 0, t.local) for t in (tgt, src))
        grade = (src.kind, tgt.kind, tz, sz)
        piece = self._pieces.get(grade)
        if piece is None:
            piece = self._pieces[grade] = monomials_with_bigrade(
                spaces[src.kind], spaces[tgt.kind], self.q, p, grade[2], grade[3], self.budget
            )
        return key, spaces[src.kind], spaces[tgt.kind], piece

    # -- lifting --------------------------------------------------------

    def lift(self, cls, up_to):
        """Blocks of a chain map lifting the class, {source degree: blocks},
        through at least source degree up_to.  The blocks are cached per class
        and extended step by step as up_to grows."""
        src_res = self.res["J" if cls.source_parity == 0 else "Jbar"]
        tgt_res = self.res["J" if cls.target_parity == 0 else "Jbar"]
        blocks = self._lifts.get(cls)
        if blocks is None:
            # base step: blocks out of degree 0 constrained by the representative
            rep_flavor, rep_term, rep_idx = _class_term_and_index(self.p, self.r, cls)
            assert rep_flavor == tgt_res.flavor
            tau0 = src_res.terms(0)[0]

            def images(key, monomials):
                yield key[1], ({i: int(v) for i, v in enumerate(apply_frobenius(el, self.r).data[:, 0])} for el in monomials())

            unknowns = [self._unknown((tau0, tgt), tau0, tgt) for tgt in tgt_res.terms(cls.degree)]
            rhs = {(rep_term, rep_idx): 1}
            blocks = self._lifts[cls] = {0: _solve_elements(self.p, self.q, unknowns, images, rhs, "lifting base step")}
        for m in range(len(blocks) - 1, up_to):
            blocks[m + 1] = self._lift_step(cls, src_res, tgt_res, blocks[m], m)
        return blocks

    def _lift_step(self, cls, src_res, tgt_res, prev_blocks, m):
        s_b = cls.degree
        d_src = src_res.blocks(m)
        # right-hand side: delta_tgt o prev, block by block; a target block is
        # applied factor by factor, since it is used here only as a left factor
        tgt_res.check_blocks(m + s_b)
        tgt_arrows = list(tgt_res.arrows(m + s_b))
        rhs = {}
        for (tau, mid), el1 in prev_blocks.items():
            for mid2, b in tgt_arrows:
                if mid2 == mid:
                    for e2, c in tgt_res.compose_block(mid, b, el1).terms.items():
                        add_mod_p(rhs, ((tau, b), e2), c, self.p)
        unknowns = [self._unknown((a, b), a, b) for a in src_res.terms(m + 1) for b in tgt_res.terms(m + 1 + s_b)]
        unknowns = [u for u in unknowns if u[3]]

        def images(key, monomials):
            a, b = key
            for (tau, a2), dblock in d_src.items():
                if a2 == a:
                    yield (tau, b), compose_each(monomials(), dblock)

        return _solve_elements(self.p, self.q, unknowns, images, rhs, f"lifting step {m + 1}")

    # -- products -------------------------------------------------------

    def rep_vector(self, cls):
        flavor, term, idx = _class_term_and_index(self.p, self.r, cls)
        vec = [0] * self.q
        vec[idx] = 1
        return {term: vec}

    def product(self, b_cls, a_cls):
        """The Yoneda product b after a, expressed in the canonical classes."""
        if a_cls.target_parity != b_cls.source_parity:
            raise ValueError("classes are not composable")
        s_a = a_cls.degree
        blocks = self.lift(b_cls, s_a)[s_a]
        rep = self.rep_vector(a_cls)
        out_vec = {}
        for (src_t, tgt_t), el in blocks.items():
            vec = rep.get(src_t)
            if vec is None:
                continue
            img = apply_frobenius(el, self.r).apply(vec)
            cur = out_vec.setdefault(tgt_t, [0] * self.q)
            for i, v in enumerate(img):
                cur[i] = (cur[i] + v) % self.p
        # express in canonical classes
        result = {}
        out_cls_proto = ExtClassRef(a_cls.source_parity, b_cls.target_parity, s_a + b_cls.degree)
        for term, vec in out_vec.items():
            idx0 = term.local // 2
            for i, v in enumerate(vec):
                if v and i != idx0:
                    raise AssertionError("product does not land on the canonical slot")
            add_mod_p(result, out_cls_proto, vec[idx0], self.p)
        return result

    def product_expression(self, b_cls, expr):
        """Compose a class with a linear combination {class: coeff}."""
        out = {}
        for a_cls, c in expr.items():
            for cls2, v in self.product(b_cls, a_cls).items():
                add_mod_p(out, cls2, c * v, self.p)
        return out


def ring_relation_report(p=3, r=1, budget=DEFAULT_BUDGET):
    """The multiplicative relations among the canonical generators, each
    computed by honest chain-map lifting."""
    calc = YonedaCalculator(p, r, budget)
    q = p ** r
    e1 = e_class(1)
    e1_pi = ExtClassRef(1, 1, 2)
    c = c_class(p, r)
    c_pi = c_class(p, r, conjugate=True)
    lines = []
    ok = True

    def fmt(expr):
        if not expr:
            return "0"
        bits = []
        for cls, v in sorted(expr.items(), key=lambda kv: kv[0].degree):
            bits.append(f"{v} * {cls.name(p, r)}[{cls.source_parity}->{cls.target_parity}]")
        return " + ".join(bits)

    # e(1) o e(1) = e(2)
    sq = calc.product(e1, e1)
    want = {e_class(2): 1}
    good = sq == want
    ok &= good
    lines.append(("e(1)∘e(1) = e(2)", good, fmt(sq)))
    # e(1)^p = (-1)^{p(p-1)/2} e(p)  [= that multiple of c∘cPi]
    power = {e1: 1}
    for _ in range(p - 1):
        power = calc.product_expression(e1, power)
    sign = (-1) ** (p * (p - 1) // 2) % p
    want = {e_class(p): sign}
    good = power == want
    ok &= good
    lines.append((f"e(1)^{p} = {'-' if sign == p - 1 else '+'}1 * c∘cΠ", good, fmt(power)))
    # e(1) o c = c o ePi(1)
    lhs = calc.product(e1, c)
    rhs = calc.product(c, e1_pi)
    good = lhs == rhs and len(lhs) == 1
    ok &= good
    lines.append(("e(1)∘c = c∘eΠ(1)", good, f"{fmt(lhs)} vs {fmt(rhs)}"))
    # cPi o e(1) = ePi(1) o cPi
    lhs = calc.product(c_pi, e1)
    rhs = calc.product(ExtClassRef(1, 1, 2), c_pi)
    good = lhs == rhs and len(lhs) == 1
    ok &= good
    lines.append(("cΠ∘e(1) = eΠ(1)∘cΠ", good, f"{fmt(lhs)} vs {fmt(rhs)}"))
    return ok, lines
