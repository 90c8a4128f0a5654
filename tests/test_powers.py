import math
import random

import numpy as np
import pytest

from oracles import (
    SignedTensor,
    act_sigma,
    coproduct_component,
    degree,
    lift_from_power,
    monomial_from_counts,
    multiply_monomials,
    multiply_out_oracle,
    power_basis_oracle,
    power_product,
    project_checked,
    project_to_power,
    shuffle_product_via_reps,
    yoneda_hom_dim,
)
from supertroesch.errors import BudgetExceededError
from supertroesch.powers import (
    PowerKind,
    add_mod_p,
    dim_formula_sym,
    exponent_ranks,
    multiply_out,
    multiset_coeff,
    power_basis,
    power_exponents,
)
from supertroesch.superspace import build_Sh, hom_space, k_super, tensor

SYM, EXT, DIV, ALT = PowerKind.SYM, PowerKind.EXT, PowerKind.DIV, PowerKind.ALT


def test_power_basis_examples():
    v = k_super(1, 1)
    assert [m.label() for m in power_basis(SYM, 3, v)] == ["e0^3", "e0^2.o0"]
    assert [m.label() for m in power_basis(DIV, 3, v)] == ["e0^3", "e0^2.o0"]
    for n in range(1, 6):
        alt = power_basis(ALT, n, k_super(0, 1))
        assert len(alt) == 1 and alt[0].label() == (f"o0^{n}" if n > 1 else "o0")


def test_power_exponents_match_the_recursive_oracle():
    spaces = [
        k_super(0, 0),
        k_super(1, 0),
        k_super(0, 1),
        k_super(2, 1),
        k_super(3, 3),
        tensor(build_Sh(3, 1), k_super(1, 1)),
        hom_space(k_super(1, 1), k_super(2, 1)),
    ]
    for kind in PowerKind:
        for v in spaces:
            for n in range(6):
                rows = power_exponents(kind, n, v)
                want = power_basis_oracle(kind, n, v)
                assert rows.shape == (len(want), v.dim), (kind, n, v)
                assert rows.dtype == np.min_scalar_type(n)
                for row, m in zip(rows.tolist(), want):
                    assert [(g, e) for g, e in enumerate(row) if e] == list(m.exps), (kind, n, v)
                assert list(power_basis(kind, n, v)) == want
                if kind is SYM:
                    # the closed formula behind the build's pigeonhole budget check
                    assert len(rows) == dim_formula_sym(n, *v.dims_by_parity())


def test_exponent_ranks_invert_the_enumeration():
    # every row's rank is its position, whatever order the rows are asked in
    rng = np.random.default_rng(0)
    spaces = [
        k_super(0, 0),
        k_super(0, 3),
        k_super(2, 1),
        tensor(build_Sh(3, 1), k_super(1, 1)),
        tensor(build_Sh(3, 2), k_super(1, 0)),
    ]
    for kind in PowerKind:
        for v in spaces:
            for n in range(9):
                rows = power_exponents(kind, n, v)
                assert exponent_ranks(kind, n, v, rows).tolist() == list(range(len(rows))), (kind, n, v)
                order = rng.permutation(len(rows))
                assert exponent_ranks(kind, n, v, rows[order]).tolist() == order.tolist()


def closed_form_dim(kind, n, m_even, m_odd):
    if kind in (SYM, DIV):
        poly, free = m_even, m_odd
    else:
        poly, free = m_odd, m_even
    return sum(
        multiset_coeff(poly, n - b) * math.comb(free, b) for b in range(min(n, free) + 1)
    )


def test_dims_match_closed_forms():
    for kind in PowerKind:
        for me in range(3):
            for mo in range(3):
                for n in range(7):
                    got = len(power_basis(kind, n, k_super(me, mo)))
                    assert got == closed_form_dim(kind, n, me, mo), (kind, n, me, mo)


def test_act_sigma_signs():
    v = k_super(2, 2)  # indices 0,1 even; 2,3 odd
    t = SignedTensor(v, 2, 3, {(0, 1): 1})
    swapped = act_sigma(t, (1, 0))
    assert swapped.terms == {(1, 0): 1}
    t = SignedTensor(v, 2, 3, {(2, 3): 1})
    swapped = act_sigma(t, (1, 0))
    assert swapped.terms == {(3, 2): 2}  # -1 mod 3


def test_act_sigma_cycle_on_three_odds():
    v = k_super(0, 3)
    t = SignedTensor(v, 3, 3, {(0, 1, 2): 1})
    # oracle: compose two transpositions acting successively
    s1 = act_sigma(t, (1, 0, 2))
    s2 = act_sigma(s1, (0, 2, 1))
    cycle = act_sigma(t, tuple((1, 0, 2)[i] for i in (0, 2, 1)))
    assert s2.terms == cycle.terms
    assert sum(cycle.terms.values()) % 3 == 1  # net sign +1


def test_right_action_composition():
    rng = random.Random(5)
    v = k_super(2, 2)
    for _ in range(200):
        n = rng.randrange(2, 5)
        key = tuple(rng.randrange(4) for _ in range(n))
        t = SignedTensor(v, n, 3, {key: 1 + rng.randrange(2)})
        sigma = list(range(n))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        lhs = act_sigma(act_sigma(t, tuple(sigma)), tuple(tau))
        comp = tuple(sigma[tau[i]] for i in range(n))
        rhs = act_sigma(t, comp)
        assert lhs.terms == rhs.terms


def test_project_lift_round_trip():
    rng = random.Random(9)
    for kind in PowerKind:
        for _ in range(60):
            v = k_super(rng.randrange(1, 3), rng.randrange(1, 3))
            n = rng.randrange(1, 5)
            basis = power_basis(kind, n, v)
            if not basis:
                continue
            m = rng.choice(basis)
            combo = project_checked(kind, lift_from_power(m, 3))
            assert combo == {m: 1}


def test_project_examples():
    v = k_super(2, 1)
    theta = [b.name for b in v.basis].index("o0")
    t = SignedTensor(v, 2, 3, {(theta, theta): 1})
    assert project_to_power(SYM, t) == {}
    x, y = 0, 1
    t = SignedTensor(v, 2, 3, {(x, y): 1, (y, x): 1})
    assert project_to_power(EXT, t) == {}
    # the shared accumulator reduces mod p and drops a key whose sum is 0
    coeffs = {(x,): 2}
    add_mod_p(coeffs, (y,), -1, 3)
    assert coeffs == {(x,): 2, (y,): 2}
    add_mod_p(coeffs, (x,), 4, 3)
    assert coeffs == {(y,): 2}


def test_lift_div_gamma2():
    v = k_super(1, 0)
    m = monomial_from_counts(DIV, v, {0: 2})
    assert lift_from_power(m, 3).terms == {(0, 0): 1}


def test_gamma_product_binomial_vanishes():
    v = k_super(1, 0)
    g1 = monomial_from_counts(DIV, v, {0: 1})
    g2 = monomial_from_counts(DIV, v, {0: 2})
    assert multiply_monomials(g1, g2, 3) == {}  # 3 * gamma_3 = 0 mod 3
    assert multiply_monomials(g1, g2, 5) == {monomial_from_counts(DIV, v, {0: 3}): 3}


def test_sym_odd_anticommute():
    v = k_super(0, 2)
    t1 = monomial_from_counts(SYM, v, {0: 1})
    t2 = monomial_from_counts(SYM, v, {1: 1})
    ab = multiply_monomials(t1, t2, 3)
    ba = multiply_monomials(t2, t1, 3)
    m = monomial_from_counts(SYM, v, {0: 1, 1: 1})
    assert ab == {m: 1}
    assert ba == {m: 2}


def test_alt_gamma_binomial():
    v = k_super(0, 1)
    for p in (3, 5):
        for a in range(1, 4):
            for b in range(1, 4):
                ga = monomial_from_counts(ALT, v, {0: a})
                gb = monomial_from_counts(ALT, v, {0: b})
                got = multiply_monomials(ga, gb, p)
                want = math.comb(a + b, a) % p
                target = monomial_from_counts(ALT, v, {0: a + b})
                assert got == ({target: want} if want else {})
                # oracle: signed shuffle count over coset representatives
                assert got == shuffle_product_via_reps(ga, gb, p)


def test_shuffle_representative_independence():
    rng = random.Random(21)
    cases = 0
    while cases < 200:
        kind = rng.choice((DIV, ALT))
        v = k_super(rng.randrange(0, 3), rng.randrange(0, 3))
        na, nb = rng.randrange(1, 3), rng.randrange(1, 3)
        if na + nb > 4:
            continue
        ba = power_basis(kind, na, v)
        bb = power_basis(kind, nb, v)
        if not ba or not bb:
            continue
        m1 = rng.choice(ba)
        m2 = rng.choice(bb)
        p = rng.choice((3, 5))
        lex = shuffle_product_via_reps(m1, m2, p)
        rev = shuffle_product_via_reps(m1, m2, p, reverse_reps=True)
        fast = multiply_monomials(m1, m2, p)
        assert lex == rev == fast
        cases += 1


def test_project_after_action_sign_law():
    # quotient kinds: the law holds termwise on arbitrary tensors; invariant
    # kinds: the action is (+-1)^sigma on their subspace, so test on lifts
    rng = random.Random(33)
    for _ in range(200):
        kind = rng.choice(list(PowerKind))
        v = k_super(rng.randrange(1, 3), rng.randrange(1, 3))
        n = rng.randrange(2, 4)
        if kind.is_quotient:
            key = tuple(rng.randrange(v.dim) for _ in range(n))
            t = SignedTensor(v, n, 3, {key: 1})
        else:
            basis = power_basis(kind, n, v)
            if not basis:
                continue
            t = lift_from_power(rng.choice(basis), 3)
        sigma = list(range(n))
        rng.shuffle(sigma)
        acted = act_sigma(t, tuple(sigma))
        sgn = 1
        for a in range(n):
            for b in range(a + 1, n):
                if sigma[a] > sigma[b]:
                    sgn = -sgn
        before = project_to_power(kind, t)
        if kind in (SYM, DIV):
            assert project_to_power(kind, acted) == before
        else:
            scaled = {m: (sgn * c) % 3 for m, c in before.items()}
            assert project_to_power(kind, acted) == scaled


def test_coproduct_examples():
    v = k_super(1, 0)
    x2 = monomial_from_counts(SYM, v, {0: 2})
    comps = coproduct_component(x2, 1, 1, 3)
    x1 = monomial_from_counts(SYM, v, {0: 1})
    assert comps == [((x1, x1), 2)]
    g4 = monomial_from_counts(DIV, v, {0: 4})
    comps = coproduct_component(g4, 1, 3, 5)
    assert comps == [((monomial_from_counts(DIV, v, {0: 1}), monomial_from_counts(DIV, v, {0: 3})), 1)]
    # counit law
    m = monomial_from_counts(SYM, k_super(1, 1), {0: 2, 1: 1})
    comps = coproduct_component(m, 3, 0, 3)
    unit = monomial_from_counts(SYM, k_super(1, 1), {})
    assert comps == [((m, unit), 1)]


def _pair_product(kind, c1, c2, space, p):
    """Product in the tensor square of the power algebra, with the graded sign."""
    out = {}
    for (a, b), x in c1.items():
        for (c, d), y in c2.items():
            s = b.parity * c.parity
            if kind.is_signed:
                s += degree(b) * degree(c)
            for m1, z1 in multiply_monomials(a, c, p).items():
                for m2, z2 in multiply_monomials(b, d, p).items():
                    key = (m1, m2)
                    v = (out.get(key, 0) + (-1) ** s * x * y * z1 * z2) % p
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
    return out


def test_hopf_compatibility():
    rng = random.Random(41)
    checked = 0
    while checked < 60:
        kind = rng.choice(list(PowerKind))
        v = k_super(rng.randrange(1, 3), rng.randrange(1, 3))
        p = 3
        na, nb = rng.randrange(1, 3), rng.randrange(1, 3)
        ba = power_basis(kind, na, v)
        bb = power_basis(kind, nb, v)
        if not ba or not bb:
            continue
        m1 = rng.choice(ba)
        m2 = rng.choice(bb)
        prod = multiply_monomials(m1, m2, p)
        n = na + nb
        a = rng.randrange(0, n + 1)
        lhs = {}
        for m, c in prod.items():
            for pair, c2 in coproduct_component(m, a, n - a, p):
                lhs[pair] = (lhs.get(pair, 0) + c * c2) % p
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {}
        for a1 in range(0, min(a, na) + 1):
            a2 = a - a1
            if a2 < 0 or a2 > nb:
                continue
            d1 = dict(coproduct_component(m1, a1, na - a1, p))
            d2 = dict(coproduct_component(m2, a2, nb - a2, p))
            for pair, c in _pair_product(kind, d1, d2, v, p).items():
                rhs[pair] = (rhs.get(pair, 0) + c) % p
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, (kind, m1, m2, a)
        checked += 1


def test_yoneda_hom_dims():
    for p in (3, 5):
        for n in range(1, 7):
            ev, od = yoneda_hom_dim(EXT, n, k_super(0, 1))
            assert ev + od == 1
            assert (od == 1) == (n % 2 == 1)
    # the symmetric power pairs with the divided power
    v = k_super(2, 1)
    for n in range(4):
        assert sum(yoneda_hom_dim(SYM, n, v)) == len(power_basis(DIV, n, v))
    assert yoneda_hom_dim(SYM, 1, k_super(1, 0)) == (1, 0)


def _random_exps(rng, space, top):
    """A random exponent tuple: indices ascending, exponents 1..top, so
    bounded generators are sometimes squared."""
    picks = sorted(rng.sample(range(space.dim), rng.randrange(0, space.dim + 1)))
    return tuple((i, rng.randrange(1, top + 1)) for i in picks)


def _outcome(fn, *args):
    try:
        return list(fn(*args).items())
    except BudgetExceededError as err:
        return str(err)


@pytest.mark.parametrize("kind", list(PowerKind))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_multiply_out_matches_the_power_monomial_rule(kind, p):
    rng = random.Random(f"{kind.value}{p}")
    for space in (k_super(1, 1), k_super(2, 1), k_super(1, 2), k_super(2, 2)):
        # every pair of admissible monomials of degree at most 2
        basis = [m for n in range(3) for m in power_basis(kind, n, space)]
        for m1 in basis:
            for m2 in basis:
                assert multiply_monomials(m1, m2, p) == power_product(m1, m2, p)
        # random factors, in order, with any exponents up to p, so that odd
        # squares die and binomials vanish mod p
        for _ in range(40):
            factors = [
                {_random_exps(rng, space, p): rng.randrange(1, p) for _ in range(rng.randrange(1, 5))}
                for _ in range(rng.randrange(1, 4))
            ]
            budget = rng.choice((None, None, None, 3, 6))
            args = (kind, space, factors, p, budget, "test stage")
            assert _outcome(multiply_out, *args) == _outcome(multiply_out_oracle, *args)


def test_multiply_out_edge_cases():
    v = k_super(1, 1)  # e0 even, o0 odd
    g1, g2 = {((0, 1),): 1}, {((0, 2),): 1}
    # gamma_1 gamma_2 = 3 gamma_3: zero at p = 3, 3 gamma_3 at p = 5
    assert multiply_out(DIV, v, [g1, g2], 3) == {}
    assert multiply_out(DIV, v, [g1, g2], 5) == {((0, 3),): 3}
    # symmetric powers multiply without binomials
    assert multiply_out(SYM, v, [g1, g2], 3) == {((0, 3),): 1}
    # an odd generator squared dies in S and Gamma, lives in Lambda and A
    odd = {((1, 1),): 1}
    for kind in (SYM, DIV):
        assert multiply_out(kind, v, [odd, odd], 5) == {}
        assert multiply_out(kind, v, [{((1, 2),): 1}], 5) == {}
    assert multiply_out(EXT, v, [odd, odd], 5) == {((1, 2),): 1}
    assert multiply_out(ALT, v, [odd, odd], 5) == {((1, 2),): 2}
    # the odd generators of k^{0|2} anticommute in S; in Lambda they commute
    w = k_super(0, 2)
    a, b = {((0, 1),): 1}, {((1, 1),): 1}
    assert multiply_out(SYM, w, [b, a], 3) == {((0, 1), (1, 1)): 2}
    assert multiply_out(EXT, w, [b, a], 3) == {((0, 1), (1, 1)): 1}
    # (e + o)(2e + o) = 2e^2 + eo + 2oe at p = 3: e and o commute, so the
    # eo terms cancel mod p, and the odd square dies
    assert list(multiply_out(SYM, v, [{((0, 1),): 1, ((1, 1),): 1}, {((0, 1),): 2, ((1, 1),): 1}], 3).items()) == [
        (((0, 2),), 2)
    ]
    # terms come out in the order the pairs are met
    assert list(multiply_out(DIV, v, [{((1, 1),): 1, ((0, 1),): 1}, {((0, 1),): 1}], 5).items()) == [
        (((0, 1), (1, 1)), 1),
        (((0, 2),), 2),
    ]
    with pytest.raises(BudgetExceededError, match="^stage: size 2 exceeds budget 1$"):
        multiply_out(SYM, v, [{((0, 1),): 1, ((1, 1),): 1}], 3, 1, "stage")
