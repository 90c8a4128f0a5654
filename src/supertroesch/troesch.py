"""The p-complexes B_n(r) = S^n(Sh_r tensor -) with differential built from
convolution components of the shift maps, their evaluation at test spaces,
the algebra-generator cocycles, and computational verification of the
concentration theorem for their cohomology and its contraction corollary.

A complex is built in one array pass with no object per monomial: every
degree-n monomial of W = Sh_r tensor U is a row of one exponent array from
``power_exponents``, one stable sort by Z-degree cuts the rows into graded
pieces, ``convolution_terms`` expands all rows at once into the terms of
each component, each target's row is read off its rank in the enumeration
order (``exponent_ranks``), and one fill writes every differential.  Each
piece is a ``SuperSpace`` built from its grading columns; its basis names
are written from its exponent rows on first read, and the position of each
exponent tuple in its piece (``index``) is made only when a caller asks
for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError
# perfbench's self-test checks that this module's matmul alias is traced
from .linalg import FpMatrix, matmul  # noqa: F401
from .pcomplex import (
    PComplex,
    cocycles_span,
    cohomology,
    contract,
    decompose_cyclic,
)
from .powers import (
    PowerKind,
    add_mod_p,
    binom_mod,
    dim_formula_sym,
    exponent_ranks,
    exponent_tuples,
    multiply_out,
    multiset_coeff,
    nonzero_entries,
    power_basis,
    power_exponents,
)
from .superspace import (
    EVEN,
    ODD,
    SuperSpace,
    build_Sh,
    parity_shift,
    relabel_map,
    rho,
    tensor,
)

DEFAULT_BUDGET = 20_000

SUPPORTED_BUILD = {(3, 1), (3, 2), (5, 1), (5, 2)}


def _check_build_args(p, r):
    if (p, r) not in SUPPORTED_BUILD:
        raise ValueError(f"(p, r) = {(p, r)} outside the supported set {sorted(SUPPORTED_BUILD)}")


# ---------------------------------------------------------------------------
# convolution action on symmetric power monomials


def phi_images_on_tensor(param_map, u_dim):
    """Generator images of f tensor 1_U, as {gen index: (image index, coeff)}."""
    images = {}
    for (i, j), v in param_map.matrix.nonzero_items():
        for k in range(u_dim):
            images[j * u_dim + k] = (i * u_dim + k, v)
    return images


def convolution_terms(exps, images, d, par, p):
    """Every term of the degree-d convolution component of an even map, on
    every row of an exponent array at once.

    exps is an (m, dim W) array of symmetric-power exponent rows; images
    sends a generator index to (image index, coefficient) and omits the
    generators the map kills; par lists the generator parities.  The
    component sends x^a to the sum over l <= a with |l| = d of
    prod binom(a_g, l_g) * scal_g^{l_g} * x^{a-l} * f(x)^l.  Returns
    (src, targets, coeffs): the source row of each term, its target
    exponent row (in the dtype of exps) and its coefficient in [1, p).
    Terms are not merged, so one target can occur more than once per
    source row.
    """
    m, dim = exps.shape
    live = sorted(images)
    img = np.array([images[g][0] for g in live], dtype=np.int64)
    if any(par[g] != par[g2] for g, g2 in zip(live, img.tolist())):
        raise ValueError("convolution components are defined for even maps only")
    a = exps[:, live].astype(np.int64)
    # cap[:, j]: degree the live generators from j on can still take
    cap = np.zeros((m, len(live) + 1), dtype=np.int64)
    cap[:, :-1] = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
    top = int(exps.max(initial=0))
    binom = np.array([[binom_mod(e, l, p) for l in range(top + 1)] for e in range(top + 1)], dtype=np.int64)
    # states (source row, remaining degree, coefficient); each step over a
    # live generator records the chosen l and the parent state
    src = np.flatnonzero(cap[:, 0] >= d)
    rem = np.full(src.size, d, dtype=np.int64)
    coef = np.ones(src.size, dtype=np.int64)
    steps = []
    for j in range(len(live)):
        aj = a[src, j]
        parents, ls = [], []
        for l in range(min(d, top) + 1):
            c = binom[aj, l]
            keep = np.flatnonzero((c != 0) & (rem >= l) & (rem - l <= cap[src, j + 1]))
            parents.append(keep)
            ls.append(np.full(keep.size, l, dtype=exps.dtype))
        parent = np.concatenate(parents)
        lj = np.concatenate(ls)
        coef = coef[parent] * binom[aj[parent], lj] % p
        src, rem = src[parent], rem[parent] - lj
        steps.append((parent, lj))
    # every surviving state has rem = 0; walk the parents back to its l
    # vector.  l <= a, so the targets stay in the dtype of exps
    lvec = np.zeros((src.size, len(live)), dtype=exps.dtype)
    at = np.arange(src.size)
    for j in range(len(live) - 1, -1, -1):
        parent, lj = steps.pop()
        lvec[:, j] = lj[at]
        at = parent[at]
    tgt = exps[src]
    for j, g in enumerate(live):
        tgt[:, g] -= lvec[:, j]
        tgt[:, img[j]] += lvec[:, j]
        scal = images[g][1] % p
        if scal != 1:
            coef = coef * np.array([pow(scal, l, p) for l in range(top + 1)])[lvec[:, j]] % p
    # odd generators square to zero; the survivors are sorted with the
    # Koszul sign of the sequence (g where it stays, f(g) where it moves)
    odd = [g for g in range(dim) if par[g] == ODD]
    if odd:
        ok = (tgt[:, odd] <= 1).all(axis=1)
        src, tgt, coef, lvec = src[ok], tgt[ok], coef[ok], lvec[ok]
        where = {g: j for j, g in enumerate(live)}
        present = exps[src][:, odd] > 0
        seq = np.tile(np.array(odd, dtype=np.int64), (src.size, 1))
        for k, g in enumerate(odd):
            if g in where:
                moved = lvec[:, where[g]] > 0
                seq[moved, k] = img[where[g]]
        inv = np.zeros(src.size, dtype=np.int64)
        for k in range(len(odd) - 1):
            later = present[:, k + 1:] & (seq[:, k + 1:] < seq[:, k : k + 1])
            inv += present[:, k] * later.sum(axis=1)
        coef = np.where(inv % 2, p - coef, coef)
    return src, tgt, coef


def convolution_apply(images, d, mono, par, p):
    """Apply the degree-d convolution component of an even map to a monomial.

    images sends a generator index to (image index, coefficient) or is
    missing when the generator dies; par is ``mono.space.parities()``.  The
    one-row case of ``convolution_terms``.  Returns {exps tuple: coeff}.
    """
    row = np.zeros((1, len(par)), dtype=np.int64)
    for g, e in mono.exps:
        row[0, g] = e
    _, tgts, coeffs = convolution_terms(row, images, d, par, p)
    out = {}
    for t, c in zip(tgts.tolist(), coeffs.tolist()):
        add_mod_p(out, tuple((g, e) for g, e in enumerate(t) if e), c, p)
    return out


# ---------------------------------------------------------------------------
# building the complexes


@dataclass(eq=False)
class PowerComplexData:
    """A built p-complex of symmetric powers plus its monomial bookkeeping.

    ``rows`` holds the exponent rows of each graded piece in basis order;
    the piece names its basis from them on first read, and ``index`` is
    made from them on first access.
    """

    p: int
    r: int
    n: int
    space: SuperSpace  # the parameter space tensor U
    complex: PComplex
    rows: dict  # zdeg -> exponent array, one row per basis element

    @cached_property
    def index(self):
        """zdeg -> {exps: position in the piece}."""
        return {z: {exps: k for k, exps in enumerate(exponent_tuples(rows))} for z, rows in self.rows.items()}


def _labels(rows, names):
    """The ``PowerMonomial.label()`` of each exponent row."""
    top = int(rows.max(initial=1))
    tokens = np.empty((len(names), top + 1), dtype=object)  # [g, e]: how x_g^e is written
    for g, nm in enumerate(names):
        tokens[g] = ["", nm] + [f"{nm}^{e}" for e in range(2, top + 1)]
    return [".".join(part) or "1" for part in nonzero_entries(rows, tokens)]


def _differential_terms(n, w, exps, zdeg, alpha, components, p):
    """Every term of the differential sum of the (images, d) components, as
    (source row, target row, coefficient) arrays.

    exps is ``power_exponents(SYM, n, w)``, so each target row is found by
    its rank in that order (``exponent_ranks``); a target whose row there
    differs from it or lies outside degree zdeg + alpha is an
    AssertionError.
    """
    terms = [convolution_terms(exps, images, d, w.parities(), p) for images, d in components]
    src, tgt, coef = (np.concatenate(parts) for parts in zip(*terms))
    row = np.zeros(src.size, dtype=np.int64)
    if src.size:
        row = np.clip(exponent_ranks(PowerKind.SYM, n, w, tgt), 0, len(exps) - 1)
        if (exps[row] != tgt).any() or (zdeg[row] != zdeg[src] + alpha).any():
            raise AssertionError("differential left the expected graded piece")
    return src, row, coef


def build_power_pcomplex(p, r, n, param, param_maps, u, budget=DEFAULT_BUDGET):
    """S^n(param tensor U) with differential sum of (param_maps[r-1-s])_{p^s}."""
    if n < 0:
        raise ValueError("polynomial degree must be >= 0")
    w = tensor(param, u)
    # cheap pigeonhole bound before enumerating anything: some graded piece
    # must exceed the budget once the total dimension is large enough
    ev, od = w.dims_by_parity()
    total = dim_formula_sym(n, ev, od)
    n_degrees = n * max(w.zdegs(), default=0) + 1
    if total > budget * n_degrees:
        raise BudgetExceededError("total symmetric power dimension", total, budget * n_degrees)
    exps = power_exponents(PowerKind.SYM, n, w)
    zdeg = exps.astype(np.int64) @ np.array(w.zdegs(), dtype=np.int64)
    parity = exps.astype(np.int64) @ np.array(w.parities(), dtype=np.int64) % 2
    # one stable sort by degree: each piece is a run of the sorted rows, in
    # enumeration order, and the first row of a run is its first appearance
    order = np.argsort(zdeg, kind="stable")
    by_z = zdeg[order]
    begin = np.flatnonzero(np.diff(by_z, prepend=by_z[:1] - 1))
    sizes = np.diff(begin, append=by_z.size)
    pieces = by_z[begin]
    seen = np.argsort(order[begin])
    for z, size in zip(pieces[seen].tolist(), sizes[seen].tolist()):
        if size > budget:
            raise BudgetExceededError(f"graded piece at degree {z}", size, budget)
    local = np.empty(len(exps), dtype=np.int64)  # each row's position in its piece
    local[order] = np.arange(len(exps)) - np.repeat(begin, sizes)
    ordered, parity = exps[order], parity[order]
    rows, spaces = {}, {}

    def names(z):
        return lambda: _labels(rows[z], w.names())

    for k in seen.tolist():
        z, at = int(pieces[k]), slice(int(begin[k]), int(begin[k] + sizes[k]))
        rows[z] = ordered[at]
        spaces[z] = SuperSpace.from_columns([z] * len(rows[z]), parity[at].tolist(), names(z))
    alpha = p ** (r - 1)
    components = [(phi_images_on_tensor(param_maps[r - 1 - s], u.dim), p**s) for s in range(r)]
    src, row, coef = _differential_terms(n, w, exps, zdeg, alpha, components, p)
    # one fill for every differential: matrix n maps the piece at degree
    # sources[n] to the piece alpha above it
    sources = [z for z in pieces.tolist() if z + alpha in rows]
    matrix_of = np.full(int(pieces.max(initial=-1)) + 1, -1, dtype=np.int64)
    matrix_of[sources] = np.arange(len(sources))
    shapes = [(len(rows[z + alpha]), len(rows[z])) for z in sources]
    mats = FpMatrix.batch_from_arrays(p, shapes, matrix_of[zdeg[src]], local[row], local[src], coef)
    diffs = {z: mat for z, mat in zip(sources, mats) if not mat.is_zero()}
    cx = PComplex(p, alpha, spaces, diffs)
    return PowerComplexData(p, r, n, w, cx, rows)


def build_B(n, r, u, p=3, budget=DEFAULT_BUDGET, validate=True):
    """The p-complex of the degree-n symmetric power of Sh_r tensor U."""
    _check_build_args(p, r)
    sh = build_Sh(p, r)
    maps = [rho(p, r, s) for s in range(r)]
    data = build_power_pcomplex(p, r, n, sh, maps, u, budget)
    if validate:
        data.complex.validate_p_differential()
    return data


def build_B_bar(n, r, u, p=3, budget=DEFAULT_BUDGET):
    """Same construction with the parity-shifted parameter space.

    The terms returned here are the underlying symmetric powers; the extra
    global parity flip of the wrapped complex is applied by callers that
    need it.
    """
    _check_build_args(p, r)
    sh = build_Sh(p, r)
    shbar = parity_shift(sh)
    base_maps = [rho(p, r, s) for s in range(r)]
    maps = [relabel_map(f, shbar, shbar) for f in base_maps]
    data = build_power_pcomplex(p, r, n, shbar, maps, u, budget)
    data.complex.validate_p_differential()
    return data


# ---------------------------------------------------------------------------
# generator cocycles


def eta_images(n, r, u, p=3):
    """All degree-n products of generator images: cocycles representing the
    cohomology of the built complex.

    Returns a list of ({exps: coeff}, zdeg, parity) with n counted in the
    twisted generators, i.e. polynomial degree n * p^r downstairs.
    """
    _check_build_args(p, r)
    w = tensor(build_Sh(p, r), u)
    q = p ** r
    par = u.parities()
    zdegs = [0 if parity == EVEN else q * (q - 1) // 2 for parity in par]
    u_tw = SuperSpace.from_columns(zdegs, par, lambda: [f"{a}^({r})" for a in u.names()])
    out = []
    for m in power_basis(PowerKind.SYM, n, u_tw):
        factors = []
        for uidx, e in m.exps:
            if par[uidx] == EVEN:
                factors.append({((0 * u.dim + uidx, q * e),): 1})
            else:
                factors.append({tuple((i * u.dim + uidx, 1) for i in range(q)): 1})
        out.append((multiply_out(PowerKind.SYM, w, factors, p), m.zdeg, m.parity))
    return out


def expected_theorem_dims(n, r, u, p):
    """Theorem-side cohomology of B_n(r)(U): {degree: (even, odd)}.

    Nonzero only when p^r divides n; the degree ell * binom(p^r, 2) summand
    has dimension dim S^{m-ell}(U_even) * binom(dim U_odd, ell) in parity
    ell mod 2, where m = n / p^r.
    """
    q = p ** r
    if n % q:
        return {}
    m = n // q
    dim0, dim1 = u.dims_by_parity()
    out = {}
    for ell in range(0, m + 1):
        d = multiset_coeff(dim0, m - ell) * math.comb(dim1, ell)
        if d:
            deg = ell * (q * (q - 1) // 2)
            pair = (d, 0) if ell % 2 == 0 else (0, d)
            out[deg] = tuple(x + y for x, y in zip(out.get(deg, (0, 0)), pair))
    return out


@dataclass
class VerificationReport:
    ok: bool
    checks: list = field(default_factory=list)
    first_failure: str | None = None

    def add(self, name, passed, detail=""):
        self.checks.append((name, passed, detail))
        if not passed:
            self.ok = False
            if self.first_failure is None:
                self.first_failure = f"{name}: {detail}"


def verify_theorem_B(n, r, u, p=3, budget=DEFAULT_BUDGET):
    """Check normality, concentration, dimensions, and generator spanning
    for the degree-n complex on the test space u."""
    report = VerificationReport(ok=True)
    # decompose_cyclic checks d^p = 0 after the ranks, on the pivot columns
    # of d^(p-1) only
    data = build_B(n, r, u, p, budget, validate=False)
    cx = data.complex
    q = p ** r
    dec = decompose_cyclic(cx)
    report.add("normal", dec.is_normal(), f"block lengths {sorted({ln for (_, ln, _) in dec.blocks})}")
    expected = expected_theorem_dims(n, r, u, p)
    for s in range(1, p):
        row = cohomology(cx, s)
        for deg in sorted(set(row) | set(expected)):
            got = row.get(deg, (0, 0))
            want = expected.get(deg, (0, 0))
            if got != want:
                report.add(f"H_[{s}]^{deg}", False, f"got {got}, want {want}")
                return report
        report.add(f"H_[{s}] table", True)
    if n % q == 0:
        m = n // q
        images = eta_images(m, r, u, p)
        by_deg = {}
        for combo, zdeg, parity in images:
            if combo:
                by_deg.setdefault(zdeg, []).append(combo)
        for deg, combos in sorted(by_deg.items()):
            pos = data.index.get(deg, {})
            vmat = FpMatrix.from_coords(
                p,
                cx.dim(deg),
                len(combos),
                [((pos[exps], k), c) for k, combo in enumerate(combos) for exps, c in combo.items()],
            )
            is_cocycle, spans = cocycles_span(cx, deg, vmat)
            report.add(f"eta cocycles deg {deg}", is_cocycle)
            report.add(f"eta classes span deg {deg}", spans)
    return report


def build_T(n, r, u, p=3, budget=DEFAULT_BUDGET):
    """Contraction of the degree-(p^r n) complex: an ordinary cochain complex."""
    data = build_B(p ** r * n, r, u, p, budget)
    return contract(data.complex, 1, 0), data


def verify_corollary_T(n, r, u, p=3, budget=DEFAULT_BUDGET):
    report = VerificationReport(ok=True)
    t, data = build_T(n, r, u, p, budget)
    q = p ** r
    expected_b = expected_theorem_dims(q * n, r, u, p)
    # translate: summand at B-degree ell*binom(q,2) appears in T-degree ell*(q-1)
    expected_t = {}
    for ell in range(0, n + 1):
        bdeg = ell * (q * (q - 1) // 2)
        if bdeg in expected_b:
            expected_t[ell * (q - 1)] = expected_b[bdeg]
    top = max([d for d in t.degrees()], default=0)
    for ell in range(0, top + 2):
        got = t.cohomology_dims(ell)
        want = expected_t.get(ell, (0, 0))
        if got != want:
            report.add(f"H^{ell}(T)", False, f"got {got}, want {want}")
            return report
    report.add("H(T) table", True)
    bound = 2 * n * (q - 1)
    tail_ok = all(t.dim(ell) == 0 for ell in t.degrees() if ell > bound)
    report.add("vanishing bound", tail_ok, f"T^ell = 0 for ell > {bound}")
    return report
