import hashlib
import itertools
import random

import pytest

from oracles import (
    apply_sym,
    apply_sym_matrix,
    apply_sym_slow,
    compose_slow,
    element_bigrades,
    even_multiset_expansion,
    expand_to_invariant_tensor,
    monomials_with_bigrade_oracle,
    recognize_invariant_tensor,
)
from supertroesch.errors import BudgetExceededError
from supertroesch.gamma import (
    GammaElement,
    _even_power_terms,
    _tables,
    apply_frobenius,
    compose,
    compose_each,
    element_from_map,
    element_product,
    gamma_monomial,
    identity_element,
    monomials_with_bigrade,
    phi_d,
    relabel_element,
    tensor_with_identity,
    zero_element,
)
from supertroesch.linalg import FpMatrix, matmul
from supertroesch.pcomplex import contraction_degree
from supertroesch.powers import PowerKind, power_basis
from supertroesch.resolutions import _sh_pair, d_component
from supertroesch.superspace import (
    EVEN,
    BasisElement,
    SuperSpace,
    build_Sh,
    hom_space,
    k_super,
    parity_shift,
    rho,
    tensor,
)


def random_element(rng, src, tgt, n, p, terms=2):
    basis = power_basis(PowerKind.DIV, n, hom_space(src, tgt))
    el = zero_element(src, tgt, n, p)
    for _ in range(terms):
        el.add_term(rng.choice(basis).exps, rng.randrange(1, p))
    return el


def test_expand_examples():
    sh = build_Sh(3, 1)
    shbar = parity_shift(sh)
    # gamma_2 of an even unit is the pure square
    e = gamma_monomial(sh, sh, 2, 3, [((0, 0), 2)])
    t = expand_to_invariant_tensor(e, check=True)
    assert t.terms == {(0, 0): 1}
    # product of two distinct odd units: f x g - g x f
    f = gamma_monomial(sh, shbar, 1, 3, [((0, 0), 1)])
    g = gamma_monomial(sh, shbar, 1, 3, [((0, 1), 1)])
    fg = element_product(f, g)
    t = expand_to_invariant_tensor(fg, check=True)
    assert t.terms == {(0, 1): 1, (1, 0): 2}
    # gamma_n of the identity expands to the identity tensor of maps
    idel = identity_element(k_super(1, 1), 2, 3)
    t = expand_to_invariant_tensor(idel, check=True)
    # diagonal units of k^{1|1} sit at hom indices 0 (even) and 3 (odd)
    assert t.terms == {(0, 0): 1, (0, 3): 1, (3, 0): 1, (3, 3): 1}


def test_recognize_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        src = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        tgt = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        n = rng.randrange(1, 4)
        el = random_element(rng, src, tgt, n, 3)
        t = expand_to_invariant_tensor(el, check=True)
        back = recognize_invariant_tensor(t, src, tgt, n)
        assert back == el


def test_compose_identity_neutral():
    rng = random.Random(5)
    for _ in range(50):
        src = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        tgt = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        n = rng.randrange(1, 4)
        el = random_element(rng, src, tgt, n, 3)
        assert compose(el, identity_element(src, n, 3)) == el
        assert compose(identity_element(tgt, n, 3), el) == el


def test_add_term_changes_what_compose_returns():
    # compose keeps f's index; a term added to f afterwards must still count
    rng = random.Random(11)
    src, tgt = k_super(2, 1), k_super(1, 1)
    basis = power_basis(PowerKind.DIV, 2, hom_space(src, tgt))
    ident = identity_element(tgt, 2, 3)
    f = random_element(rng, src, tgt, 2, 3)
    assert compose(ident, f) == f
    f.add_term(next(m.exps for m in basis if m.exps not in f.terms), 1)
    assert compose(ident, f) == f
    g = random_element(rng, tgt, k_super(1, 2), 2, 3)
    compose(g, f)
    f.add_term(next(iter(f.terms)), 1)
    assert compose(g, f) == compose_slow(g, f)


def test_compose_matches_slow_reference():
    rng = random.Random(7)
    for _ in range(60):
        u = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        v = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        w = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        n = rng.randrange(1, 4)
        f = random_element(rng, u, v, n, 3)
        g = random_element(rng, v, w, n, 3)
        assert compose(g, f) == compose_slow(g, f)
    # p = 5 up to n = 5 on denser elements, where some multinomials vanish
    # mod p and composites with a repeated odd unit cancel
    spaces = [k_super(1, 1), k_super(2, 1), k_super(1, 2)]
    pairs = []
    for _ in range(40):
        u, v, w = (rng.choice(spaces) for _ in range(3))
        n = rng.randrange(1, 6)
        pairs.append((random_element(rng, v, w, n, 5, terms=10), random_element(rng, u, v, n, 5, terms=10)))
    # every monomial of gamma_5 End(k^{1|1}) on both sides
    k11 = k_super(1, 1)
    g, f = zero_element(k11, k11, 5, 5), zero_element(k11, k11, 5, 5)
    for m in power_basis(PowerKind.DIV, 5, hom_space(k11, k11)):
        g.add_term(m.exps, rng.randrange(1, 5))
        f.add_term(m.exps, rng.randrange(1, 5))
    pairs.append((g, f))
    nonzero = 0
    for g, f in pairs:
        comp = compose(g, f)
        assert comp == compose_slow(g, f)
        nonzero += not comp.is_zero()
    assert nonzero >= 0.75 * len(pairs)


def _compositions(total, parts):
    """All tuples of parts nonnegative integers that sum to total."""
    if parts == 1:
        return [(total,)]
    return [(x,) + c for x in range(total + 1) for c in _compositions(total - x, parts - 1)]


def test_tables_match_brute_force():
    # every nonnegative table with the given margins, up to 3 x 3 and total 5;
    # labels are spaced out so a table cannot pass with the wrong w or u
    w_labels, u_labels = (0, 2, 5), (1, 3, 4)
    checked = 0
    for rows, cols in itertools.product(range(1, 4), repeat=2):
        for total in range(6):
            by_margins = {}
            for flat in _compositions(total, rows * cols):
                grid = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
                margins = (tuple(map(sum, grid)), tuple(map(sum, zip(*grid))))
                cells = tuple(
                    (w_labels[i], u_labels[j], grid[i][j]) for i in range(rows) for j in range(cols) if grid[i][j]
                )
                by_margins.setdefault(margins, set()).add(cells)
            for a in _compositions(total, rows):
                for b in _compositions(total, cols):
                    col = tuple(zip(w_labels, a))
                    row = tuple(zip(u_labels, b))
                    got = _tables(col, row)
                    assert isinstance(got, tuple) and all(isinstance(t, tuple) for t in got)
                    assert len(set(got)) == len(got)
                    assert set(got) == by_margins.get((a, b), set())
                    assert _tables(col, row) == got
                    checked += len(got) > 1
    assert checked > 500


def test_compose_associative():
    rng = random.Random(11)
    for _ in range(40):
        spaces = [k_super(rng.randrange(1, 3), rng.randrange(0, 2)) for _ in range(4)]
        n = rng.randrange(1, 3)
        f = random_element(rng, spaces[0], spaces[1], n, 3)
        g = random_element(rng, spaces[1], spaces[2], n, 3)
        h = random_element(rng, spaces[2], spaces[3], n, 3)
        assert compose(compose(h, g), f) == compose(h, compose(g, f))


def test_paper_sign_composition():
    # (abar_{0,p-1}...abar_{0,1}.abar_{0,0}) o (a_{p-1,0}...a_{1,0}.a_{0,1})
    #   = (-1)^{p(p-1)/2} gamma_1(k00)^{p-1} gamma_1(k01)
    for p in (3, 5):
        sh = build_Sh(p, 1)
        shbar = parity_shift(sh)

        def unit(src, tgt, i, j):
            return gamma_monomial(src, tgt, 1, p, [((i, j), 1)])

        ebar = unit(shbar, sh, 0, p - 1)
        for j in range(p - 2, -1, -1):
            ebar = element_product(ebar, unit(shbar, sh, 0, j))
        beta = unit(sh, shbar, p - 1, 0)
        for i in range(p - 2, 0, -1):
            beta = element_product(beta, unit(sh, shbar, i, 0))
        beta = element_product(beta, unit(sh, shbar, 0, 1))
        got = compose(ebar, beta)
        want = unit(sh, sh, 0, 0)
        for _ in range(p - 2):
            want = element_product(want, unit(sh, sh, 0, 0))
        want = element_product(want, unit(sh, sh, 0, 1))
        want = want.scaled((-1) ** (p * (p - 1) // 2))
        assert got == want


def test_paper_gamma_p_with_differential_powers():
    from supertroesch.resolutions import d_element

    for p, imax in ((3, 3), (5, 3)):
        sh = build_Sh(p, 1)
        d1 = d_element(p, 1)
        gpk01 = gamma_monomial(sh, sh, p, p, [((0, 1), p)])
        k00 = gamma_monomial(sh, sh, 1, p, [((0, 0), 1)])
        di = None
        for i in range(1, imax):
            di = d1 if di is None else compose(d1, di)
            lhs = compose(gpk01, di)
            rhs = gamma_monomial(sh, sh, p - i, p, [((0, 1), p - i)])
            for _ in range(i):
                rhs = element_product(k00, rhs)
            assert lhs == rhs, (p, i)


def test_apply_sym_identity_and_functorial():
    rng = random.Random(13)
    for _ in range(30):
        u = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        v = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        w = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        n = rng.randrange(1, 4)
        idm = apply_sym_matrix(identity_element(u, n, 3))
        assert idm == FpMatrix.identity(3, idm.rows)
        f = random_element(rng, u, v, n, 3)
        g = random_element(rng, v, w, n, 3)
        assert apply_sym_matrix(compose(g, f)) == matmul(apply_sym_matrix(g), apply_sym_matrix(f))


def test_apply_sym_matches_tensor_route():
    rng = random.Random(17)
    cases = nonzero = 0
    for _ in range(300):
        src = k_super(rng.randrange(0, 3), rng.randrange(0, 3))
        tgt = k_super(rng.randrange(0, 3), rng.randrange(0, 3))
        n = rng.randrange(1, 6)
        if not src.dim or not tgt.dim or not power_basis(PowerKind.DIV, n, hom_space(src, tgt)):
            continue
        el = random_element(rng, src, tgt, n, rng.choice((3, 5)), terms=rng.randrange(1, 12))
        mat = apply_sym_matrix(el)
        assert mat == apply_sym_slow(el)
        cases += 1
        nonzero += not mat.is_zero()
    assert cases >= 200 and nonzero >= 0.6 * cases


def test_apply_sym_wrapper_gradings():
    from supertroesch.resolutions import d_element

    f = apply_sym(d_element(3, 1))
    assert f.parity == 0
    assert f.zshift == 1
    shbar = parity_shift(build_Sh(3, 1))
    sh = build_Sh(3, 1)
    eps = gamma_monomial(sh, shbar, 1, 3, [((0, 0), 1)])
    for j in range(1, 3):
        eps = element_product(eps, gamma_monomial(sh, shbar, 1, 3, [((0, j), 1)]))
    g = apply_sym(eps)
    assert g.parity == 1
    assert g.zshift == -3


def test_apply_sym_p_th_power_of_rank_one():
    # gamma_p(e) sends x^p to (e x)^p for an even rank-one map
    p = 3
    u = k_super(2, 0)
    e = gamma_monomial(u, u, p, p, [((1, 0), p)])  # e maps x0 to x1
    mat = apply_sym_matrix(e)
    from supertroesch.powers import PowerKind, power_basis

    basis = power_basis(PowerKind.SYM, p, u)
    idx = {m.exps: k for k, m in enumerate(basis)}
    col = idx[((0, 3),)]
    row = idx[((1, 3),)]
    assert mat.data[row, col] == 1
    assert sum(1 for (i, j), v in mat.nonzero_items()) == 1


def test_apply_frobenius_rules():
    p = 3
    sh = build_Sh(p, 1)
    shbar = parity_shift(sh)
    # gamma_p of an even unit becomes the twisted unit
    el = gamma_monomial(sh, sh, p, p, [((1, 0), p)])
    m = apply_frobenius(el, 1)
    assert m.data[1, 0] == 1 and len(m.nonzero_items()) == 1
    # monomials with an odd unit die
    odd = gamma_monomial(sh, shbar, 1, p, [((0, 0), 1)])
    for j in range(1, p):
        odd = element_product(odd, gamma_monomial(sh, shbar, 1, p, [((0, j), 1)]))
    assert apply_frobenius(odd, 1).is_zero()
    # mixed products die
    mixed = element_product(
        gamma_monomial(sh, sh, 1, p, [((1, 0), 1)]),
        gamma_monomial(sh, sh, p - 1, p, [((0, 0), p - 1)]),
    )
    assert apply_frobenius(mixed, 1).is_zero()


def test_apply_frobenius_functorial():
    rng = random.Random(17)
    p = 3
    for _ in range(40):
        u = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        v = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        w = k_super(rng.randrange(1, 3), rng.randrange(0, 2))
        f = random_element(rng, u, v, p, p)
        g = random_element(rng, v, w, p, p)
        lhs = apply_frobenius(compose(g, f), 1)
        rhs = matmul(apply_frobenius(g, 1), apply_frobenius(f, 1))
        assert lhs == rhs


def test_phi_d_basics():
    p = 3
    r0 = rho(p, 1, 0)
    assert phi_d(r0, 0, 2, p) == identity_element(build_Sh(p, 1), 2, p)
    assert phi_d(r0, 3, 2, p).is_zero()
    from supertroesch.superspace import LinearMapSS, ODD

    sh = build_Sh(p, 1)
    shbar = parity_shift(sh)
    mm = FpMatrix.zeros(p, 3, 3)
    mm.data[0, 0] = 1
    bad = LinearMapSS(sh, shbar, mm, ODD, 0)
    with pytest.raises(ValueError):
        phi_d(bad, 1, 2, p)


def test_phi_d_evaluated_example():
    # the degree-1 component moves one factor: (sh0 t)(sh1 t) -> (sh0 t)(sh2 t)
    p = 3
    u = k_super(0, 1)
    sh = build_Sh(p, 1)
    el = phi_d(rho(p, 1, 0), 1, 2, p)
    big = tensor_with_identity(el, u)
    from supertroesch.powers import PowerKind, power_basis

    w = tensor(sh, u)
    basis = power_basis(PowerKind.SYM, 2, w)
    idx = {m.exps: k for k, m in enumerate(basis)}
    mat = apply_sym_matrix(big)
    col = idx[((0, 1), (1, 1))]
    row = idx[((0, 1), (2, 1))]
    assert mat.data[row, col] == 1
    # (sh1 t)^2 = 0, so no other image from this column
    assert all(v == 0 or (i == row) for (i, j), v in mat.nonzero_items() if j == col)


def test_tensor_with_identity_trivial_and_zero():
    p = 3
    sh = build_Sh(p, 1)
    el = phi_d(rho(p, 1, 0), 1, 2, p)
    same = tensor_with_identity(el, k_super(1, 0))
    # tensoring with a one-dimensional even space keeps the term count
    assert len(same.terms) == len(el.terms)
    z = zero_element(sh, sh, 2, p)
    assert tensor_with_identity(z, k_super(1, 1)).is_zero()


def test_tensor_with_identity_matches_direct_matrix():
    # gamma_p(rho) tensor 1 evaluated on symmetric powers equals the matrix
    # of the algebra endomorphism induced by rho tensor 1
    p = 3
    u = k_super(1, 0)
    el = element_from_map(rho(p, 1, 0), p, p)
    big = tensor_with_identity(el, u)
    mat = apply_sym_matrix(big)
    from supertroesch.troesch import convolution_apply, phi_images_on_tensor
    from supertroesch.powers import PowerKind, power_basis

    sh = build_Sh(p, 1)
    w = tensor(sh, u)
    basis = power_basis(PowerKind.SYM, p, w)
    idx = {m.exps: k for k, m in enumerate(basis)}
    images = phi_images_on_tensor(rho(p, 1, 0), 1)
    par = w.parities()
    want = FpMatrix.zeros(p, len(basis), len(basis))
    for col, m in enumerate(basis):
        for exps, c in convolution_apply(images, p, m, par, p).items():
            want.data[idx[exps], col] = c % p
    assert mat == want


def _expansion_or_message(expand, n, items, p, budget=None):
    try:
        return list(expand(n, items, p, budget).items())
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_even_power_terms_match_recursive_oracle(p):
    # the exponent rows of power_exponents, read in reverse, give the terms
    # of the item-by-item recursion in its order, scalars included
    rng = random.Random(p)
    for _ in range(60):
        k = rng.randrange(0, 6)
        indices = sorted(rng.sample(range(40), k))
        items = [(idx, rng.randrange(1, p)) for idx in indices]
        n = rng.randrange(0, 6)
        want = list(even_multiset_expansion(n, items, p).items())
        assert list(_even_power_terms(n, items, p).items()) == want, (n, items)
    for n in range(4):
        # no items: only gamma_0 = 1 survives; one item: one monomial
        assert list(_even_power_terms(n, [], p).items()) == ([((), 1)] if n == 0 else [])
        want = list(even_multiset_expansion(n, [(7, 2)], p).items())
        assert list(_even_power_terms(n, [(7, 2)], p).items()) == want == [(((7, n),) if n else (), pow(2, n, p))]
        # a scalar 0 mod p takes no exponent, as the recursion prunes it
        items = [(1, 2), (3, p), (5, 1)]
        assert list(_even_power_terms(n, items, p).items()) == list(even_multiset_expansion(n, items, p).items())


def test_even_power_terms_budget_messages_match_the_oracle():
    # at size budget the terms come back; at budget + 1 and budget + 2 the
    # same message as the recursion's, which stops one term past the budget
    items = [(0, 1), (4, 2), (8, 1), (12, 2)]
    for n in (1, 2, 3):
        size = len(_even_power_terms(n, items, 5))
        for budget in (size, size - 1, size - 2):
            got = _expansion_or_message(_even_power_terms, n, items, 5, budget)
            assert got == _expansion_or_message(even_multiset_expansion, n, items, 5, budget)
            if budget < size:
                assert got == f"divided power expansion: size {budget + 1} exceeds budget {budget}"


def test_identity_element_budget_boundary():
    # gamma_2 of the identity of k^{4|0} has 10 terms: budget 10 returns
    # them, budget 9 raises
    space = k_super(4, 0)
    assert len(identity_element(space, 2, 3, budget=10).terms) == 10
    with pytest.raises(BudgetExceededError, match="divided power expansion: size 10 exceeds budget 9"):
        identity_element(space, 2, 3, budget=9)


def test_relabel_preserves_composition():
    rng = random.Random(23)
    p = 3
    sh = build_Sh(p, 1)
    shbar = parity_shift(sh)
    for _ in range(40):
        n = rng.randrange(1, 4)
        f = random_element(rng, sh, shbar, n, p)
        g = random_element(rng, shbar, sh, n, p)
        comp = compose(g, f)
        fbar = relabel_element(f, shbar, sh)
        gbar = relabel_element(g, sh, shbar)
        assert relabel_element(comp, shbar, shbar) == compose(gbar, fbar)


def test_monomials_with_bigrade():
    p = 3
    sh = build_Sh(p, 1)
    shbar = parity_shift(sh)
    # the full degree-p space on nine odd units has dimension C(9,3) = 84
    total = 0
    for t in range(0, 2 * p * (p - 1) + 1):
        for s in range(0, 2 * p * (p - 1) + 1):
            total += len(monomials_with_bigrade(sh, shbar, p, p, t, s))
    assert total == 84
    # no monomials below the bottom splice degree
    choose2 = p * (p - 1) // 2
    for j in range(choose2):
        assert monomials_with_bigrade(sh, shbar, p, p, 0, j) == []


def _piece_or_message(enumerate_piece, *args, **kwargs):
    try:
        return enumerate_piece(*args, **kwargs)
    except BudgetExceededError as exc:
        return str(exc)


def _assert_matches_oracle(*args, **kwargs):
    got = _piece_or_message(monomials_with_bigrade, *args, **kwargs)
    assert got == _piece_or_message(monomials_with_bigrade_oracle, *args, **kwargs), (args, kwargs)
    return got


@pytest.mark.parametrize("p", [3, 5])
def test_monomials_with_bigrade_matches_recursive_oracle_r1(p):
    # every bigrade of every Sh/Sh-bar pair: the same monomials in the same
    # order as the unit-by-unit recursion
    sh, shbar = _sh_pair(p, 1)
    top = p * (p - 1)
    found = 0
    for source, target in itertools.product((sh, shbar), repeat=2):
        for t in range(top + 1):
            for s in range(top + 1):
                found += len(_assert_matches_oracle(source, target, p, p, t, s))
    assert found > 0


def test_monomials_with_bigrade_matches_recursive_oracle_r2():
    # a coarse grid at r = 2 under the default budget: pieces that fit, empty
    # ones, and ones that stop at the budget with the same message
    sh, shbar = _sh_pair(3, 2)
    outcomes = set()
    for target in (shbar, sh):
        for t in range(0, 73, 24):
            for s in range(0, 73, 24):
                got = _assert_matches_oracle(sh, target, 9, 3, t, s, budget=20_000)
                outcomes.add("budget" if isinstance(got, str) else bool(got))
    assert outcomes == {"budget", True, False}


def test_monomials_with_bigrade_budget_boundary():
    # a piece of exactly the budget comes back whole; one past it raises
    sh, shbar = _sh_pair(5, 1)
    for source, target, t, s in ((sh, sh, 10, 5), (sh, shbar, 10, 10), (shbar, sh, 4, 3)):
        size = len(monomials_with_bigrade(source, target, 5, 5, t, s))
        assert size > 1
        assert _assert_matches_oracle(source, target, 5, 5, t, s, budget=size) == monomials_with_bigrade(source, target, 5, 5, t, s)
        want = f"bigraded piece: size {size} exceeds budget {size - 1}"
        assert _assert_matches_oracle(source, target, 5, 5, t, s, budget=size - 1) == want


def test_monomials_with_bigrade_past_the_recursion_limit():
    # 1,200 units, more than the recursion limit; only the last one carries
    # target z-degree, so the one monomial of bigrade (1, 0) sits at the end
    source = k_super(1, 0)
    target = SuperSpace(tuple(BasisElement(f"b{i}", int(i == 1199), EVEN) for i in range(1200)))
    assert monomials_with_bigrade(source, target, 1, 3, 1, 0) == [((1199, 1),)]


def _piece_elements(rng, source, target, n, p, f, count, terms):
    """count elements of a few terms each, drawn from the bigraded pieces
    whose source z-degree is the target z-degree of f's terms."""
    mid = element_bigrades(f)[0][0]
    pieces = [
        piece
        for t_sum in range(0, 2 * n * (n - 1) + 1)
        for piece in [monomials_with_bigrade(source, target, n, p, t_sum, mid)]
        if piece
    ]
    out = []
    for _ in range(count):
        piece = rng.choice(pieces)
        el = zero_element(source, target, n, p)
        for exps in rng.sample(piece, min(terms, len(piece))):
            el.add_term(exps, rng.randrange(1, p))
        out.append(el)
    return out


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("barred", [False, True])
def test_compose_each_matches_slow_reference(p, barred):
    # f is a component of d over Sh or its shift; half the left factors map
    # into the other space, so their units are odd and their products signed
    rng = random.Random(p + 10 * barred)
    sh, shbar = _sh_pair(p, 1)
    space = shbar if barred else sh
    f = max((d_component(p, 1, z, 1, barred) for z in range(p * (p - 1))), key=lambda el: len(el.terms))
    nonzero = 0
    for target in (sh, shbar):
        gs = _piece_elements(rng, space, target, p, p, f, 4, 3)
        got = list(compose_each(gs, f))
        assert len(got) == len(gs)
        for g, terms in zip(gs, got):
            assert terms == compose_slow(g, f).terms
            assert list(terms.items()) == list(compose(g, f).terms.items())
            nonzero += bool(terms)
    assert nonzero >= 5
    assert list(compose_each([], f)) == []


def _terms_digest(el):
    return hashlib.sha256(repr(list(el.terms.items())).encode()).hexdigest()


def test_compose_term_order_is_locked():
    # the terms of compose(g, f), in order, as a digest recorded before
    # compose ran through compose_each
    pairs = {}
    for p, barred in ((3, False), (5, True)):
        # the d^(p-1) component out of the largest odd local degree
        z = max(
            (contraction_degree(p, 1, 1, 0, local) for local in range(1, 2 * p - 1, 2)),
            key=lambda z: len(d_component(p, 1, z, p - 1, barred).terms),
        )
        pairs[f"d^{p - 1}"] = (d_component(p, 1, z + p - 2, 1, barred), d_component(p, 1, z, p - 2, barred))
    rng = random.Random(19)
    k11 = k_super(1, 1)
    basis = power_basis(PowerKind.DIV, 5, hom_space(k11, k11))
    g, f = zero_element(k11, k11, 5, 5), zero_element(k11, k11, 5, 5)
    for _ in range(12):
        g.add_term(rng.choice(basis).exps, rng.randrange(1, 5))
        f.add_term(rng.choice(basis).exps, rng.randrange(1, 5))
    pairs["End(k^{1|1})"] = (g, f)
    sh, _ = _sh_pair(5, 1)
    piece = monomials_with_bigrade(sh, sh, 5, 5, 8, 7)
    pairs["piece"] = (GammaElement(sh, sh, 5, 5, {e: 1 + i % 4 for i, e in enumerate(piece[::7])}), d_component(5, 1, 6, 1, False))
    want = {
        "d^2": "6a40cf0143dbd1851dbdc459f53ad181be44066aeb0b19a056b37e5aff071bf4",
        "d^4": "0025f98562e1568fa53ae835ef17cf55eef0c69b8a1b5fa3d5a0569bc2dc5580",
        "End(k^{1|1})": "43ca037df01e645da3680a46c13e8f7467a29eb1511afe31e1a2b4f0ec3ca26b",
        "piece": "5ddd8c95e87f922f9487b50d86b97e82f7997b79a08394c58a291443d9b86cf5",
    }
    sizes = {name: len(compose(g, f).terms) for name, (g, f) in pairs.items()}
    assert sizes == {"d^2": 3, "d^4": 125, "End(k^{1|1})": 9, "piece": 327}
    assert {name: _terms_digest(compose(g, f)) for name, (g, f) in pairs.items()} == want
