"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every comparison is exact equality; the stated
runtime bounds are asserted with a monotonic clock.
"""

import random
import time

from oracles import (
    SignedTensor,
    act_sigma,
    build_from_blocks,
    contraction_prediction,
    decompose_cyclic_oracle,
    invert,
    monomial_from_counts,
    multiply_monomials,
    shuffle_product_via_reps,
    yoneda_hom_dim,
)
from supertroesch.gamma import element_product, gamma_monomial
from supertroesch.linalg import FpMatrix, matmul
from supertroesch.pcomplex import (
    cohomology_table,
    contract,
    decompose_cyclic,
    kunneth_check,
)
from supertroesch.powers import PowerKind, PowerMonomial, power_basis
from supertroesch.resolutions import (
    ExtClassRef,
    YonedaCalculator,
    c_class,
    check_epsilon_chain,
    check_pascal,
    e_class,
    epsilon_prime_1,
    expected_ext_dim,
    ext_table,
    verify_J_exactness,
)
from supertroesch.superspace import build_Sh, k_super, parity_shift, tensor
from supertroesch.troesch import (
    build_B,
    convolution_apply,
    phi_images_on_tensor,
    verify_corollary_T,
    verify_theorem_B,
)
from supertroesch.superspace import rho

SPACES = {
    "k^{1|0}": k_super(1, 0),
    "k^{0|1}": k_super(0, 1),
    "k^{1|1}": k_super(1, 1),
}


def _report(num, detail):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


def test_criterion_01_theorem_r1():
    t0 = time.monotonic()
    p = 3
    for n in (1, 2, 3):
        for name, u in SPACES.items():
            rep = verify_theorem_B(3 * n, 1, u, p)
            assert rep.ok, f"n={n} U={name}: {rep.first_failure}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"theorem dims, normality, generator spanning at r=1 ({elapsed:.1f}s)")


def test_criterion_02_vanishing():
    p = 3
    for n in (1, 2, 4, 5):
        for name, u in SPACES.items():
            data = build_B(n, 1, u, p)
            table = cohomology_table(data.complex)
            assert table.is_zero(), f"n={n} U={name}"
    _report(2, "cohomology vanishes off multiples of p (includes 1 <= n < p odd cases)")


def test_criterion_03_theorem_r2():
    t0 = time.monotonic()
    p = 3
    for name in ("k^{1|0}", "k^{0|1}"):
        rep = verify_theorem_B(9, 2, SPACES[name], p)
        assert rep.ok, f"U={name}: {rep.first_failure}"
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"criterion 3 took {elapsed:.1f}s"
    _report(3, f"r=2 concentration and normality on one-dimensional spaces ({elapsed:.1f}s)")


def test_criterion_04_kunneth():
    p = 3
    builds = [
        build_B(1, 1, SPACES["k^{1|0}"], p).complex,
        build_B(1, 1, SPACES["k^{0|1}"], p).complex,
        build_B(3, 1, SPACES["k^{0|1}"], p).complex,
    ]
    for c1 in builds:
        for c2 in builds:
            ok, msg = kunneth_check(c1, c2)
            assert ok, msg
    _report(4, "Kunneth dimensions and cocycle-product spanning on all nine pairs")


def test_criterion_05_corollary_T():
    p = 3
    for n in (1, 2):
        rep = verify_corollary_T(n, 1, SPACES["k^{1|1}"], p)
        assert rep.ok, rep.first_failure
    _report(5, "contracted complex cohomology in even degrees with the stated bound")


def test_criterion_06_epsilon_identities():
    for p in (3, 5):
        assert check_pascal(p), f"pascal p={p}"
        assert check_epsilon_chain(p), f"chain p={p}"
        sh, shbar = build_Sh(p, 1), parity_shift(build_Sh(p, 1))
        comps = epsilon_prime_1(p)

        def unit(i, j, c=1):
            return gamma_monomial(sh, shbar, 1, p, [((i, j), 1)], c)

        base = unit(0, 0)
        for j in range(1, p):
            base = element_product(base, unit(0, j, (-1) ** j))
        assert comps[p - 1] == base, f"bottom closed form p={p}"
        top = unit(p - 1, p - 1)
        for i in range(p - 2, -1, -1):
            top = element_product(top, unit(i, p - 1))
        assert comps[2 * p - 2] == top, f"top closed form p={p}"
    _report(6, "Pascal relation, chain identity, closed-form components at p=3,5")


def test_criterion_07_J_exactness():
    t0 = time.monotonic()
    rep = verify_J_exactness(1, SPACES["k^{1|1}"], 2, 3)
    assert rep.ok, rep.summary()
    assert rep.h0 == (1, 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 7 took {elapsed:.1f}s"
    _report(7, f"two-splice resolution exact through degree 11 ({elapsed:.1f}s)")


def test_criterion_08_ext_tables():
    p = 3
    for r in (1, 2):
        for sp in (0, 1):
            for tp in (0, 1):
                table = ext_table(r, 4 * p ** r, p, sp, tp)
                for s in range(table.max_degree + 1):
                    want = expected_ext_dim(p, r, sp, tp, s)
                    assert table.dims.get(s, 0) == want, (r, sp, tp, s)
    _report(8, "Ext dimensions match the stated pattern in all four parity sectors, r=1,2")


def test_criterion_09_ring_relations():
    t0 = time.monotonic()
    p = 3
    calc = YonedaCalculator(p, 1)
    e1 = e_class(1)
    e1_pi = ExtClassRef(1, 1, 2)
    c = c_class(p, 1)
    c_pi = c_class(p, 1, conjugate=True)
    assert calc.product(e1, e1) == {e_class(2): 1}
    power = {e1: 1}
    for _ in range(p - 1):
        power = calc.product_expression(e1, power)
    # e(1)^3 = -1 * (c o cPi), and c o cPi is the canonical degree-2p class
    assert power == {e_class(p): p - 1}
    assert calc.product(c, c_pi) == {e_class(p): 1}
    assert calc.product(e1, c) == calc.product(c, e1_pi)
    assert calc.product(c_pi, e1) == calc.product(e1_pi, c_pi)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"criterion 9 took {elapsed:.1f}s"
    _report(9, f"ring relations with the exact sign at p=3, r=1 ({elapsed:.1f}s)")


# --- criterion 10: randomized property suites ------------------------------


def _random_block_complex(rng, p):
    blocks = []
    total = 0
    for _ in range(rng.randrange(1, 5)):
        length = rng.randrange(1, p + 1)
        if total + length > 12:
            break
        blocks.append((rng.randrange(0, 4), length, rng.randrange(2)))
        total += length
    if not blocks:
        blocks = [(0, 1, 0)]
    return blocks, build_from_blocks(p, rng.choice((1, 2)), blocks)


def _scramble(rng, cx):
    p = cx.p
    mats = {}
    for i, sp in cx.terms.items():
        n = sp.dim
        while True:
            m = FpMatrix.zeros(p, n, n)
            for a in range(n):
                for b in range(n):
                    if sp.basis[a].parity == sp.basis[b].parity:
                        m.data[a, b] = rng.randrange(p)
            if invert(m) is not None:
                mats[i] = m
                break
    diffs = {}
    for i in cx.degrees():
        d = cx.diff(i)
        if d.is_zero():
            continue
        nd = d
        if i + cx.alpha in mats:
            nd = matmul(mats[i + cx.alpha], nd)
        nd = matmul(nd, invert(mats[i]))
        if not nd.is_zero():
            diffs[i] = nd
    from supertroesch.pcomplex import PComplex

    return PComplex(p, cx.alpha, dict(cx.terms), diffs)


def test_criterion_10a_leibniz_and_p_power():
    rng = random.Random(1001)
    p = 3
    w = tensor(build_Sh(p, 1), k_super(1, 1))
    images = phi_images_on_tensor(rho(p, 1, 0), 2)
    par = w.parities()
    cases = 0
    while cases < 200:
        na, nb = rng.randrange(1, 3), rng.randrange(1, 3)
        x = rng.choice(power_basis(PowerKind.SYM, na, w))
        y = rng.choice(power_basis(PowerKind.SYM, nb, w))
        d = rng.randrange(0, na + nb + 1)
        lhs = {}
        for m, c in multiply_monomials(x, y, p).items():
            for exps, c2 in convolution_apply(images, d, m, par, p).items():
                lhs[exps] = (lhs.get(exps, 0) + c * c2) % p
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {}
        for ell in range(0, d + 1):
            for e1, c1 in convolution_apply(images, ell, x, par, p).items():
                m1 = PowerMonomial(PowerKind.SYM, w, e1)
                for e2, c2 in convolution_apply(images, d - ell, y, par, p).items():
                    m2 = PowerMonomial(PowerKind.SYM, w, e2)
                    for m3, c3 in multiply_monomials(m1, m2, p).items():
                        rhs[m3.exps] = (rhs.get(m3.exps, 0) + c1 * c2 * c3) % p
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs
        cases += 1
    # p-power rule on even monomials
    weven = tensor(build_Sh(p, 1), k_super(2, 0))
    images = phi_images_on_tensor(rho(p, 1, 0), 2)
    par = weven.parities()
    cases = 0
    while cases < 200:
        n = rng.randrange(1, 3)
        x = rng.choice(power_basis(PowerKind.SYM, n, weven))
        xp = monomial_from_counts(PowerKind.SYM, weven, {g: e * p for g, e in x.exps})
        d = rng.randrange(0, 2 * p + 1)
        got = convolution_apply(images, d, xp, par, p)
        if d % p:
            assert got == {}
        else:
            want = {}
            for exps, c in convolution_apply(images, d // p, x, par, p).items():
                key = tuple(sorted({g: e * p for g, e in exps}.items()))
                want[key] = (want.get(key, 0) + pow(c, p, p)) % p
            assert got == {k: v for k, v in want.items() if v}
        cases += 1
    _report("10a", "convolution Leibniz and p-power rules, 200+200 random cases")


def test_criterion_10b_symmetric_group_signs():
    rng = random.Random(1003)
    v = k_super(2, 2)
    cases = 0
    while cases < 200:
        n = rng.randrange(2, 5)
        key = tuple(rng.randrange(4) for _ in range(n))
        t = SignedTensor(v, n, 3, {key: 1})
        sigma = list(range(n))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        lhs = act_sigma(act_sigma(t, tuple(sigma)), tuple(tau))
        rhs = act_sigma(t, tuple(sigma[tau[i]] for i in range(n)))
        assert lhs.terms == rhs.terms
        # adjacent transposition acts by the supertwist sign
        k = rng.randrange(n - 1)
        swap = list(range(n))
        swap[k], swap[k + 1] = swap[k + 1], swap[k]
        acted = act_sigma(t, tuple(swap))
        sign = (-1) ** (v.basis[key[k]].parity * v.basis[key[k + 1]].parity)
        want = key[:k] + (key[k + 1], key[k]) + key[k + 2:]
        assert acted.terms == {want: sign % 3}
        cases += 1
    _report("10b", "symmetric group action sign laws, 200 random cases")


def test_criterion_10c_shuffle_independence():
    rng = random.Random(1005)
    cases = 0
    while cases < 200:
        kind = rng.choice((PowerKind.DIV, PowerKind.ALT))
        v = k_super(rng.randrange(0, 3), rng.randrange(0, 3))
        na, nb = rng.randrange(1, 3), rng.randrange(1, 3)
        if na + nb > 4:
            continue
        ba = power_basis(kind, na, v)
        bb = power_basis(kind, nb, v)
        if not ba or not bb:
            continue
        m1, m2 = rng.choice(ba), rng.choice(bb)
        p = rng.choice((3, 5))
        assert (
            shuffle_product_via_reps(m1, m2, p)
            == shuffle_product_via_reps(m1, m2, p, reverse_reps=True)
            == multiply_monomials(m1, m2, p)
        )
        cases += 1
    _report("10c", "shuffle products independent of coset representatives, 200 cases")


def test_criterion_10d_cyclic_vs_oracle():
    rng = random.Random(1007)
    cases = 0
    while cases < 200:
        p = rng.choice((3, 5))
        blocks, cx = _random_block_complex(rng, p)
        cx = _scramble(rng, cx)
        want = {}
        for b in blocks:
            want[b] = want.get(b, 0) + 1
        assert decompose_cyclic(cx).blocks == want
        assert decompose_cyclic_oracle(cx).blocks == want
        cases += 1
    _report("10d", "rank-formula decomposition matches the module oracle, 200 cases")


def test_criterion_10e_contraction_vs_slices():
    rng = random.Random(1009)
    cases = 0
    while cases < 200:
        p = rng.choice((3, 5))
        _, cx = _random_block_complex(rng, p)
        cx = _scramble(rng, cx)
        s = rng.randrange(1, p)
        t = rng.randrange(0, (p - s) * cx.alpha)
        con = contract(cx, s, t)
        top = max(con.degrees(), default=0) + 2
        for ell in range(top):
            assert con.cohomology_dims(ell) == contraction_prediction(cx, s, t, ell)
        cases += 1
    _report("10e", "contraction cohomology matches the slice prediction, 200 cases")


def test_criterion_11_one_dimensional_hom():
    for p in (3, 5):
        for n in range(1, 7):
            ev, od = yoneda_hom_dim(PowerKind.EXT, n, k_super(0, 1))
            assert (ev, od) == ((1, 0) if n % 2 == 0 else (0, 1)), (p, n)
    _report(11, "exterior-to-symmetric Hom is one-dimensional of parity n mod 2")
