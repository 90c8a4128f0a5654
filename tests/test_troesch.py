import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from supertroesch.errors import BudgetExceededError
from oracles import (
    apply_sym_matrix,
    convolution_apply_oracle,
    d_oracle_maps,
    eager_piece_spaces,
    monomial_from_counts,
    monomials_of,
    multiply_monomials,
    power_basis_oracle,
    tensor_identity_left,
)
from supertroesch.gamma import tensor_with_identity
from supertroesch.linalg import FpMatrix, matmul
from supertroesch.pcomplex import PComplex, cohomology, cohomology_table, decompose_cyclic, tensor_pcomplex
from supertroesch.powers import PowerKind, PowerMonomial, power_basis, power_exponents
from supertroesch.superspace import ZERO_SPACE, BasisElement, k_super, tensor, build_Sh
from supertroesch.troesch import (
    build_B,
    build_B_bar,
    build_T,
    convolution_apply,
    eta_images,
    expected_theorem_dims,
    phi_images_on_tensor,
    verify_corollary_T,
    verify_theorem_B,
)
from supertroesch.superspace import EVEN, ODD, rho
from supertroesch import cli, pcomplex, resolutions, troesch


def test_build_B_examples():
    # three one-dimensional terms, each differential of rank one
    data = build_B(1, 1, k_super(1, 0), 3)
    assert {z: data.complex.dim(z) for z in data.complex.degrees()} == {0: 1, 1: 1, 2: 1}
    assert data.complex.diff(0).rank() == 1
    assert data.complex.diff(1).rank() == 1
    # single summand in top degree for the full exterior case
    data = build_B(3, 1, k_super(0, 1), 3)
    assert {z: data.complex.dim(z) for z in data.complex.degrees()} == {3: 1}
    # zero test space
    data = build_B(2, 1, ZERO_SPACE, 3)
    assert data.complex.degrees() == []


def test_build_B_budget():
    with pytest.raises(BudgetExceededError) as exc:
        build_B(6, 1, k_super(1, 1), 3, budget=3)
    assert exc.value.size > 3


def test_negative_degree_rejected_by_both_builders():
    for build in (build_B, build_B_bar):
        with pytest.raises(ValueError, match="polynomial degree must be >= 0"):
            build(-3, 1, k_super(1, 0), 3)


def test_build_B_rejects_unsupported():
    with pytest.raises(ValueError):
        build_B(1, 3, k_super(1, 0), 3)


def test_convolution_vs_coproduct_oracle():
    rng = random.Random(201)
    p = 3
    sh = build_Sh(p, 1)
    u = k_super(1, 1)
    w = tensor(sh, u)
    images = phi_images_on_tensor(rho(p, 1, 0), u.dim)
    # the shift maps have unit entries; a scaled copy reaches the scal^l factor
    scaled = {g: (g2, 2) for g, (g2, _) in images.items()}
    par = w.parities()
    cases = 0
    while cases < 200:
        n = rng.randrange(1, 5)
        basis = power_basis(PowerKind.SYM, n, w)
        m = rng.choice(basis)
        d = rng.randrange(0, n + 1)
        for imgs in (images, scaled):
            fast = convolution_apply(imgs, d, m, par, p)
            slow = convolution_apply_oracle(imgs, d, m, p)
            assert fast == slow, (m, d)
        cases += 1


def _diffs_from_oracle(data, param_maps, u):
    """Every differential of a built complex, entry by entry from the
    coproduct-route oracle."""
    p, r, alpha = data.p, data.r, data.complex.alpha
    images_list = [(phi_images_on_tensor(param_maps[r - 1 - s], u.dim), p**s) for s in range(r)]
    diffs = {}
    for z, monos in monomials_of(data).items():
        tpos = data.index.get(z + alpha)
        if tpos is None:
            continue
        entries = [
            ((tpos[exps], col), c)
            for col, m in enumerate(monos)
            for images, d in images_list
            for exps, c in convolution_apply_oracle(images, d, m, p).items()
        ]
        mat = FpMatrix.from_coords(p, len(tpos), len(monos), entries)
        if not mat.is_zero():
            diffs[z] = mat
    return diffs


@pytest.mark.parametrize(
    "n, r, u, p, barred",
    [(3, 2, k_super(1, 1), 3, False), (5, 1, k_super(1, 2), 5, False), (6, 1, k_super(2, 1), 3, True)],
)
def test_built_differentials_match_oracle(n, r, u, p, barred):
    data = (build_B_bar if barred else build_B)(n, r, u, p)
    want = _diffs_from_oracle(data, [rho(p, r, s) for s in range(r)], u)
    assert sorted(want) == sorted(data.complex.diffs)
    for z, mat in want.items():
        assert data.complex.diffs[z] == mat, z
    # the Koszul signs show up as entries p - 1
    assert any((mat.data == p - 1).any() for mat in want.values())


def test_convolution_vs_formal_route():
    # the evaluated differential agrees with the induced map of the formal
    # element for small degrees
    from supertroesch.gamma import phi_d

    p = 3
    u = k_super(1, 1)
    sh = build_Sh(p, 1)
    w = tensor(sh, u)
    images = phi_images_on_tensor(rho(p, 1, 0), u.dim)
    par = w.parities()
    for n in (1, 2, 3):
        el = tensor_with_identity(phi_d(rho(p, 1, 0), 1, n, p), u)
        mat = apply_sym_matrix(el)
        basis = power_basis(PowerKind.SYM, n, w)
        idx = {m.exps: k for k, m in enumerate(basis)}
        want = FpMatrix.zeros(p, len(basis), len(basis))
        for col, m in enumerate(basis):
            for exps, c in convolution_apply(images, 1, m, par, p).items():
                want.data[idx[exps], col] = c % p
        assert mat == want


def test_leibniz_rule():
    rng = random.Random(203)
    p = 3
    sh = build_Sh(p, 1)
    u = k_super(1, 1)
    w = tensor(sh, u)
    images = phi_images_on_tensor(rho(p, 1, 0), u.dim)
    par = w.parities()
    cases = 0
    while cases < 200:
        na, nb = rng.randrange(1, 3), rng.randrange(1, 3)
        x = rng.choice(power_basis(PowerKind.SYM, na, w))
        y = rng.choice(power_basis(PowerKind.SYM, nb, w))
        xy = multiply_monomials(x, y, p)
        d = rng.randrange(0, na + nb + 1)
        lhs = {}
        for m, c in xy.items():
            for exps, c2 in convolution_apply(images, d, m, par, p).items():
                v = (lhs.get(exps, 0) + c * c2) % p
                lhs[exps] = v
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {}
        for ell in range(0, d + 1):
            fx = convolution_apply(images, ell, x, par, p)
            fy = convolution_apply(images, d - ell, y, par, p)
            for e1, c1 in fx.items():
                m1 = PowerMonomial(PowerKind.SYM, w, e1)
                for e2, c2 in fy.items():
                    m2 = PowerMonomial(PowerKind.SYM, w, e2)
                    for m3, c3 in multiply_monomials(m1, m2, p).items():
                        v = (rhs.get(m3.exps, 0) + c1 * c2 * c3) % p
                        rhs[m3.exps] = v
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs
        cases += 1


def test_p_power_rule():
    rng = random.Random(207)
    p = 3
    sh = build_Sh(p, 1)
    u = k_super(2, 0)
    w = tensor(sh, u)
    images = phi_images_on_tensor(rho(p, 1, 0), u.dim)
    par = w.parities()
    cases = 0
    while cases < 200:
        n = rng.randrange(1, 3)
        x = rng.choice(power_basis(PowerKind.SYM, n, w))
        xp_counts = {g: e * p for g, e in x.exps}
        xp = monomial_from_counts(PowerKind.SYM, w, xp_counts)
        for d in range(0, 2 * p + 1):
            got = convolution_apply(images, d, xp, par, p)
            if d % p:
                assert got == {}, (x, d)
            else:
                inner = convolution_apply(images, d // p, x, par, p)
                want = {}
                for exps, c in inner.items():
                    cube = {g: e * p for g, e in exps}
                    key = tuple(sorted(cube.items()))
                    want[key] = (want.get(key, 0) + pow(c, p, p)) % p
                want = {k: v for k, v in want.items() if v}
                assert got == want, (x, d)
        cases += 1


def test_eta_images_shape_and_cocycle():
    p = 3
    for u in (k_super(1, 0), k_super(0, 1), k_super(1, 1)):
        data = build_B(p, 1, u, p)
        for combo, zdeg, parity in eta_images(1, 1, u, p):
            if not combo:
                continue
            # even generators at degree zero, odd at binom(p, 2)
            assert zdeg in (0, p * (p - 1) // 2)
            piece = data.index.get(zdeg, {})
            vec = [0] * len(piece)
            for exps, c in combo.items():
                vec[piece[exps]] = c
            img = data.complex.diff(zdeg).apply(vec)
            assert all(v == 0 for v in img)


def test_theorem_small_cases():
    p = 3
    for n in (1, 2, 3):
        for u in (k_super(1, 0), k_super(0, 1), k_super(1, 1)):
            rep = verify_theorem_B(n * p, 1, u, p)
            assert rep.ok, rep.first_failure


def test_vanishing_off_multiples():
    p = 3
    for n in (1, 2, 4, 5):
        for u in (k_super(1, 0), k_super(0, 1), k_super(1, 1)):
            data = build_B(n, 1, u, p)
            assert cohomology_table(data.complex).is_zero(), (n, u)


def test_theorem_and_vanishing_p5():
    rep = verify_theorem_B(5, 1, k_super(1, 1), 5)
    assert rep.ok, rep.first_failure
    data = build_B(3, 1, k_super(1, 1), 5)
    assert cohomology_table(data.complex).is_zero()


def test_expected_dims_examples():
    p = 3
    assert expected_theorem_dims(3, 1, k_super(1, 1), p) == {0: (1, 0), 3: (0, 1)}
    # the whole complex is the sixth exterior power of a 3-dim space: zero
    assert expected_theorem_dims(6, 1, k_super(0, 1), p) == {}
    assert expected_theorem_dims(6, 1, k_super(1, 1), p) == {0: (1, 0), 3: (0, 1)}
    assert expected_theorem_dims(2, 1, k_super(1, 1), p) == {}


def test_corollary_T():
    p = 3
    for n in (1, 2):
        rep = verify_corollary_T(n, 1, k_super(1, 1), p)
        assert rep.ok, rep.first_failure
    t, _ = build_T(1, 1, k_super(1, 1), p)
    assert t.cohomology_dims(0) == (1, 0)
    assert t.cohomology_dims(2) == (0, 1)
    # purely even test space: everything in degree zero
    rep = verify_corollary_T(2, 1, k_super(2, 0), p)
    assert rep.ok


def test_exponential_property():
    # the complex on a direct sum has the Kunneth cohomology of the factors
    p = 3
    parts = [(k_super(1, 0), k_super(0, 1))]
    for u1, u2 in parts:
        for n in range(0, 4):
            whole = cohomology(build_B(n, 1, k_super(1, 1), p).complex, 1)
            expect = {}
            for i in range(0, n + 1):
                h1 = cohomology(build_B(i, 1, u1, p).complex, 1)
                h2 = cohomology(build_B(n - i, 1, u2, p).complex, 1)
                for z1, (e1, o1) in h1.items():
                    for z2, (e2, o2) in h2.items():
                        z = z1 + z2
                        ev, od = expect.get(z, (0, 0))
                        expect[z] = (ev + e1 * e2 + o1 * o2, od + e1 * o2 + o1 * e2)
            expect = {z: v for z, v in expect.items() if v != (0, 0)}
            whole = {z: v for z, v in whole.items() if v != (0, 0)}
            assert whole == expect, n


def test_differential_commutes_with_test_space_morphisms():
    # the differential commutes with the functorial action on the test side
    rng = random.Random(211)
    p = 3
    sh = build_Sh(p, 1)
    for _ in range(20):
        n = rng.randrange(1, 4)
        u1 = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        u2 = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        from supertroesch.powers import power_basis as pb
        from supertroesch.superspace import hom_space
        from supertroesch.gamma import zero_element

        basis = pb(PowerKind.DIV, n, hom_space(u1, u2))
        if not basis:
            continue
        el = zero_element(u1, u2, n, p)
        for _ in range(2):
            el.add_term(rng.choice(basis).exps, rng.randrange(1, p))
        big = tensor_identity_left(el, sh)
        d1 = build_B(n, 1, u1, p)
        d2 = build_B(n, 1, u2, p)
        mat = apply_sym_matrix(big)
        full1 = _full_diff(d1)
        full2 = _full_diff(d2)
        assert matmul(mat, _pad(full1, mat.cols)) == matmul(_pad(full2, mat.rows), mat)


def _full_diff(data):
    """The differential as one matrix on the whole symmetric power."""
    basis = power_basis(PowerKind.SYM, data.n, data.space)
    idx = {}
    pos = 0
    for m in basis:
        idx[m.exps] = pos
        pos += 1
    p = data.p
    mat = FpMatrix.zeros(p, len(basis), len(basis))
    monomials = monomials_of(data)
    for z in data.complex.degrees():
        d = data.complex.diff(z)
        src = monomials.get(z, [])
        tgt = monomials.get(z + data.complex.alpha, [])
        for (i, j), v in d.nonzero_items():
            mat.data[idx[tgt[i].exps], idx[src[j].exps]] = v
    return mat


def _pad(mat, n):
    assert mat.rows == mat.cols == n
    return mat


def test_d_oracle_properties():
    for p, ns in ((3, (1, 2)), (5, (2,))):
        for n in ns:
            dcx, cdata, vp, ps, s = d_oracle_maps(n, p)
            ccx = cdata.complex
            # (1) chain map
            for z in dcx.degrees():
                if z + 1 in vp:
                    assert matmul(ccx.diff(z), vp[z]) == matmul(vp[z + 1], dcx.diff(z))
            for z in dcx.degrees():
                # (2) varphi o psi = id_C
                assert matmul(vp[z], ps[z]) == FpMatrix.identity(p, ccx.dim(z))
                # (5') varphi o s = varphi
                assert matmul(vp[z], s[z]) == vp[z]
                # (6') d_D o s = s o d_D
                if z + 1 in s:
                    assert matmul(dcx.diff(z), s[z]) == matmul(s[z + 1], dcx.diff(z))
                # (7) ker varphi = ker s
                kv = vp[z].kernel_basis()
                kszero = matmul(s[z], kv)
                assert kszero.is_zero()
                ks = s[z].kernel_basis()
                assert matmul(vp[z], ks).is_zero()
            # (3) psi varphi d_D psi = psi d_C and (4) d_C = varphi d_D psi
            for z in dcx.degrees():
                if z + 1 not in vp:
                    continue
                lhs = matmul(ps[z + 1], matmul(vp[z + 1], matmul(dcx.diff(z), ps[z])))
                rhs = matmul(ps[z + 1], ccx.diff(z))
                assert lhs == rhs
                assert ccx.diff(z) == matmul(vp[z + 1], matmul(dcx.diff(z), ps[z]))
            # the auxiliary complex is acyclic and so is the target
            for sdx in range(1, p):
                assert all(v == (0, 0) for v in cohomology(dcx, sdx).values())
                assert all(v == (0, 0) for v in cohomology(ccx, sdx).values())


def test_d_oracle_needs_small_n():
    with pytest.raises(ValueError):
        d_oracle_maps(3, 3)


def _keep_built(monkeypatch):
    """Record every complex build_B returns while verify_theorem_B runs."""
    built = []
    build = troesch.build_B

    def keeping_build_B(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(troesch, "build_B", keeping_build_B)
    return built


def test_theorem_B_eliminates_each_block_once_per_power_call(monkeypatch):
    # the first rank asked of d^m eliminates every (degree, parity) block of
    # d^m in one kernel call; a call per block would make 105 calls here
    built = _keep_built(monkeypatch)
    eliminate = FpMatrix.eliminate
    calls = []

    def counting_eliminate(p, arrays, *args, **kwargs):
        calls.append([a.shape for a in arrays])
        return eliminate(p, arrays, *args, **kwargs)

    monkeypatch.setattr(FpMatrix, "eliminate", staticmethod(counting_eliminate))
    assert verify_theorem_B(7, 2, k_super(1, 0), p=3).ok
    cx = built[0].complex
    assert len(calls) == cx.order - 1
    # d^m is eliminated on the pivot columns of d^(m-1)
    blocks = [
        (cx.dim(i + m * cx.alpha, parity), cx.rank_of_power(i, m - 1, parity))
        for m in range(1, cx.order)
        for i in cx.degrees()
        for parity in (EVEN, ODD)
    ]
    assert sorted(shape for call in calls for shape in call) == sorted(b for b in blocks if min(b))


def test_theorem_B_off_multiples_makes_no_monomials(monkeypatch):
    # 9 does not divide 7, so no eta class is looked up and the per-monomial
    # bookkeeping is never made
    built = _keep_built(monkeypatch)
    assert verify_theorem_B(7, 2, k_super(1, 0), p=3).ok
    assert "index" not in vars(built[0])
    # asked for afterwards, the monomials carry the basis names
    for z, monos in monomials_of(built[0]).items():
        assert [b.name for b in built[0].complex.term(z).basis] == [m.label() for m in monos]
    # r = 1, n = 3 does look the eta classes up, by exponents only
    assert verify_theorem_B(3, 1, k_super(1, 1), p=3).ok
    assert "index" in vars(built[1])


# every (builder, n, r, U, p) that the verify suites, the golden fixtures and
# the matrix and pivot digests build, plus k^{2|1} and k^{1|2} at p = 3 and 5
_SUITE_SPACES = [(1, 0), (0, 1), (1, 1)]
PIECE_CASES = sorted(
    # vanishing
    {("B", n, 1, u, p) for p in (3, 5) for n in range(1, 6) if n % p for u in _SUITE_SPACES}
    # theoremB, corollaryT and kunneth
    | {("B", k * p, 1, u, p) for p in (3, 5) for k in (1, 2, 3) for u in _SUITE_SPACES}
    # the two complexes behind J(1) in jexact
    | {("Bbar", p, 1, (1, 1), p) for p in (3, 5)}
    | {("B", p, 1, u, p) for p in (3, 5) for u in [(2, 1), (1, 2)]}
    | {("B", 9, 2, (0, 1), 3), ("B", 7, 2, (1, 0), 3), ("B", 5, 2, (0, 2), 3), ("B", 6, 1, (2, 1), 3)}
    | {("B", 4, 1, (1, 1), 3), ("Bbar", 5, 1, (2, 1), 5)}
)


@pytest.mark.parametrize(
    "builder, n, r, u, p", PIECE_CASES, ids=[f"{b}_{n}({r}) k^{{{u[0]}|{u[1]}}} p={p}" for b, n, r, u, p in PIECE_CASES]
)
def test_built_pieces_match_the_eager_oracle(builder, n, r, u, p):
    if builder == "B":
        data = build_B(n, r, k_super(*u), p, validate=False)
    else:
        data = build_B_bar(n, r, k_super(*u), p)
    eager = eager_piece_spaces(data)
    assert list(data.complex.terms) == list(eager)
    others = list(eager.values())[1:] + list(eager.values())[:1]
    for (z, piece), want, other in zip(data.complex.terms.items(), eager.values(), others):
        # read off the arrays, before any basis is made
        assert piece.dim == want.dim
        assert piece.parities() == want.parities() and piece.zdegs() == want.zdegs()
        for parity in (EVEN, ODD):
            assert piece.indices_of_parity(parity) == want.indices_of_parity(parity)
        assert piece.dims_by_parity() == want.dims_by_parity()
        assert "basis" not in vars(piece)
        assert piece == want and want == piece and not (piece != want) and not (want != piece)
        assert hash(piece) == hash(want)
        if other is not want:
            assert piece != other and other != piece
        assert type(piece.basis) is tuple and piece.basis == want.basis
        assert [type(v) for b in piece.basis for v in (b.zdeg, b.parity)] == [int] * 2 * piece.dim


def _count_basis_elements(monkeypatch):
    """The list of every BasisElement made from here on."""
    made = []
    check = BasisElement.__post_init__

    def counting_post_init(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(BasisElement, "__post_init__", counting_post_init)
    return made


def test_r2_concentration_makes_no_basis_element_per_monomial(monkeypatch):
    built = _keep_built(monkeypatch)
    made = _count_basis_elements(monkeypatch)
    assert verify_theorem_B(7, 2, k_super(1, 0), p=3).ok
    cx = built[0].complex
    # the pieces hold 6,435 monomials; Sh_2 and Sh_2 (x) U make the rest
    assert sum(cx.dim(z) for z in cx.degrees()) == 6435
    assert all("basis" not in vars(cx.term(z)) for z in cx.degrees())
    assert len(made) < 100


def test_tensor_of_built_complexes_names_like_the_eager_pieces():
    built = [build_B(n, 1, k_super(*u), 3) for n, u in [(1, (1, 0)), (3, (0, 1)), (2, (1, 1))]]
    eager = [PComplex(d.p, d.complex.alpha, eager_piece_spaces(d), d.complex.diffs) for d in built]
    for (c1, e1), (c2, e2) in itertools.product(zip([d.complex for d in built], eager), repeat=2):
        got, got_offsets = tensor_pcomplex(c1, c2)
        want, want_offsets = tensor_pcomplex(e1, e2)
        assert got_offsets == want_offsets and list(got.terms) == list(want.terms)
        for z, space in got.terms.items():
            assert space.basis == want.terms[z].basis


def _names_digest(complexes):
    """(count, sha256) of the (name, Z-degree, parity) of every basis element
    of the complexes, degree by degree."""
    items = [[(z, [(b.name, b.zdeg, b.parity) for b in cx.term(z).basis]) for z in cx.degrees()] for cx in complexes]
    return sum(cx.dim(z) for cx in complexes for z in cx.degrees()), hashlib.sha256(repr(items).encode()).hexdigest()


# recorded while every product and J term was made with its basis
KUNNETH_P5_NAMES = (400, "4751e07516888af17854a026edbf9a09c2f463d8437cb72c9daf16cb1c0b3e40")
J_P3_NAMES = (110, "237a93821c836746fbd81994e9af00eb407453e35b6c8dd40a26f4fbf328f31d")


def test_kunneth_suite_names_no_product_until_read(monkeypatch, capsys):
    # kunneth_check reads dimensions, parities and offsets only
    products = []
    tensor_of = pcomplex.tensor_pcomplex

    def keeping_tensor(c1, c2):
        products.append(tensor_of(c1, c2))
        return products[-1]

    monkeypatch.setattr(pcomplex, "tensor_pcomplex", keeping_tensor)
    made = _count_basis_elements(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--p", "5", "--suite", "kunneth"])
    assert exc.value.code == 0 and "FAIL" not in capsys.readouterr().out
    assert len(products) == 9 and made == []
    assert _names_digest([t for t, _ in products]) == KUNNETH_P5_NAMES
    assert sum("(*)" in b.name for b in made) == KUNNETH_P5_NAMES[0]


def test_J_exactness_names_no_term_until_read(monkeypatch):
    # the exactness check reads dimensions and parities only
    built = []
    build_J = resolutions.build_J

    def keeping_build_J(*args, **kwargs):
        built.append(build_J(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(resolutions, "build_J", keeping_build_J)
    made = _count_basis_elements(monkeypatch)
    assert resolutions.verify_J_exactness(1, k_super(1, 1), 2, 3).ok
    assert len(built) == 1 and made == []
    assert _names_digest(built) == J_P3_NAMES
    assert sum(b.name.startswith("[T") for b in made) == J_P3_NAMES[0]


@pytest.mark.parametrize("barred", [False, True])
def test_lazy_monomials_match_the_enumeration_grouped_by_degree(barred):
    data = (build_B_bar if barred else build_B)(4, 1, k_super(1, 1), 3)
    # the recursive enumeration split into pieces in order of first
    # appearance, each piece in enumeration order
    monomials = {}
    for m in power_basis_oracle(PowerKind.SYM, 4, data.space):
        monomials.setdefault(m.zdeg, []).append(m)
    index = {z: {m.exps: k for k, m in enumerate(monos)} for z, monos in monomials.items()}
    assert list(data.index) == list(index)
    assert all(list(data.index[z].items()) == list(pos.items()) for z, pos in index.items())
    cx = data.complex
    assert list(cx.terms) == list(monomials)
    for z, monos in monomials.items():
        # every basis name is the label of its monomial, with its grading
        assert [(b.name, b.zdeg, b.parity) for b in cx.term(z).basis] == [(m.label(), m.zdeg, m.parity) for m in monos]
        assert data.rows[z].tolist() == [[dict(m.exps).get(g, 0) for g in range(data.space.dim)] for m in monos]
        for parity in (EVEN, ODD):
            assert cx.dim(z, parity) == sum(1 for m in monos if m.parity == parity)


def test_budget_names_the_first_piece_over_the_cap():
    with pytest.raises(BudgetExceededError) as exc:
        build_B(9, 2, k_super(1, 1), 3, budget=20000)
    assert str(exc.value) == "graded piece at degree 26: size 20732 exceeds budget 20000"


def test_differential_terms_refuse_a_target_outside_its_piece():
    # B_3(1)(k^{1|1}) at p = 3: d raises the degree by 1, so every target
    # lies outside the piece 2 above its source, and outside a reordered
    # enumeration
    p, n = 3, 3
    w = tensor(build_Sh(p, 1), k_super(1, 1))
    exps = power_exponents(PowerKind.SYM, n, w)
    zdeg = exps.astype(np.int64) @ np.array(w.zdegs(), dtype=np.int64)
    components = [(phi_images_on_tensor(rho(p, 1, 0), 2), 1)]
    src, row, coef = troesch._differential_terms(n, w, exps, zdeg, 1, components, p)
    assert src.size and (exps[row].sum(axis=1) == n).all() and (zdeg[row] == zdeg[src] + 1).all()
    for args in ((exps, zdeg, 2), (exps[::-1], zdeg[::-1], 1)):
        with pytest.raises(AssertionError, match="differential left the expected graded piece"):
            troesch._differential_terms(n, w, *args, components, p)


def test_built_complex_and_its_powers_are_int8():
    cx = build_B(7, 2, k_super(1, 0), validate=False).complex
    # the ranks of every power fill the power cache; d^(p-1) whole fills
    # the product cache
    decompose_cyclic(cx)
    for i in cx.degrees():
        cx.iterated_diff(i, cx.order - 1)
        cx.image_of_power(i, 1)
    assert cx.diffs and cx._power_cache and cx._iter_cache
    for m in (*cx.diffs.values(), *cx._power_cache.values(), *cx._iter_cache.values()):
        assert m.data.dtype == np.int8


def test_validation_keeps_only_the_top_power():
    # the d^N check multiplies out d^(N-1) through d^(N-2), ..., d^2; only
    # d^(N-1) is kept, the lower powers being steps of its chain
    cx = build_B(5, 1, k_super(1, 1), p=5).complex
    assert cx._iter_cache
    assert {m for _, m in cx._iter_cache} == {cx.order - 1}


def test_r2_concentration_peak_memory():
    # the int64 differentials (10.3 MB) and cached d^2 products (6.7 MB)
    # alone would pass this bound
    tracemalloc.start()
    try:
        rep = verify_theorem_B(7, 2, k_super(1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok, rep.first_failure
    assert peak < 12 * 10**6, f"peak {peak / 1e6:.1f} MB"
