import random

import numpy as np
import pytest

from oracles import (
    build_from_blocks,
    class_representatives_oracle,
    contraction_prediction,
    decompose_cyclic_oracle,
    invert,
    reconstructed_dims,
    rows_equal,
    spans_cohomology_oracle,
    validate_p_differential_oracle,
)
from supertroesch import pcomplex as pcomplex_module
from supertroesch.linalg import FpMatrix, matmul
from supertroesch.pcomplex import (
    ChainComplex,
    PComplex,
    PDifferentialError,
    _class_representatives,
    cocycles_span,
    cohomology,
    cohomology_table,
    contract,
    contraction_degree,
    decompose_cyclic,
    kunneth_check,
    tensor_pcomplex,
)
from supertroesch.superspace import EVEN, ODD, k_super
from supertroesch.troesch import build_B, verify_theorem_B


def random_block_complex(rng, p, max_blocks=4, max_shift=3):
    blocks = []
    total = 0
    for _ in range(rng.randrange(1, max_blocks + 1)):
        length = rng.randrange(1, p + 1)
        if total + length > 12:
            break
        blocks.append((rng.randrange(0, max_shift + 1), length, rng.randrange(2)))
        total += length
    if not blocks:
        blocks = [(0, 1, 0)]
    return blocks, build_from_blocks(p, rng.choice((1, 2)), blocks)


def scramble_basis(rng, cx):
    """Conjugate the differential by random parity-preserving isomorphisms."""
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
        tgt = mats.get(i + cx.alpha)
        src_inv = invert(mats[i])
        nd = d
        if tgt is not None:
            nd = matmul(tgt, nd)
        nd = matmul(nd, src_inv)
        if not nd.is_zero():
            diffs[i] = nd
    return PComplex(p, cx.alpha, dict(cx.terms), diffs)


def test_cohomology_zero_complex():
    cx = PComplex(3, 1, {}, {})
    assert cohomology(cx, 1) == {}


def test_cohomology_trivial_summand():
    cx = build_from_blocks(3, 1, [(3, 1, ODD)])
    row = cohomology(cx, 1)
    assert row == {3: (0, 1)}


def test_free_block_is_acyclic():
    for p in (3, 5):
        cx = build_from_blocks(p, 1, [(0, p, EVEN)])
        for s in range(1, p):
            assert all(v == (0, 0) for v in cohomology(cx, s).values())


def test_decompose_examples():
    # length-3 odd block at 0: B_1(1)(k^{0|1})
    data = build_B(1, 1, k_super(0, 1), 3)
    dec = decompose_cyclic(data.complex)
    assert dec.blocks == {(0, 3, ODD): 1}
    assert dec.is_normal()
    # a block of length 2 at p=3 is not normal
    cx = build_from_blocks(3, 1, [(0, 2, EVEN)])
    assert not decompose_cyclic(cx).is_normal()


def test_decompose_rejects_bad_differential():
    sp = k_super(1, 0)
    terms = {i: sp for i in range(4)}
    diffs = {i: FpMatrix(3, np.array([[1]], dtype=np.int64) % 3) for i in range(3)}
    cx = PComplex(3, 1, terms, diffs)
    with pytest.raises(PDifferentialError):
        decompose_cyclic(cx)
    with pytest.raises(PDifferentialError, match="d\\^3 is nonzero starting at degree 0"):
        cx.validate_p_differential()


@pytest.mark.parametrize("n, r, u, p", [(4, 1, (1, 1), 3), (7, 2, (1, 0), 3), (5, 1, (1, 2), 5)])
def test_validation_caches_no_power_at_or_past_the_order(n, r, u, p):
    # rank_of_power is 0 from d^N on, and contract and cocycles_span use
    # lower powers, so validation keeps only the powers it multiplied through
    cx = build_B(n, r, k_super(*u), p).complex
    cx._iter_cache.clear()
    cx.validate_p_differential()
    assert cx._iter_cache and max(m for _, m in cx._iter_cache) == cx.order - 1


# most: the products made when d^N(i) is d^(N-1)(i + alpha) times d(i),
# which keeps d^(N-1) one degree past the top and not at degree 0
@pytest.mark.parametrize("n, u, p, most", [(6, (1, 1), 3, 26), (10, (1, 1), 5, 164), (9, (2, 1), 3, 38)])
def test_validation_before_ranks_keeps_d_top_at_the_complex_degrees(monkeypatch, n, u, p, most):
    products = []

    def counting_matmul(a, b):
        products.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(pcomplex_module, "matmul", counting_matmul)
    cx = build_B(n, 1, k_super(*u), p).complex
    # d^(N-1) out of every degree of the complex, and of no other
    assert sorted(cx._iter_cache) == [(i, cx.order - 1) for i in cx.degrees()]
    assert 0 < len(products) <= most
    # the contraction by d and d^(N-1) reads only kept powers
    products.clear()
    contract(cx, 1, 0)
    assert products == []


def test_odd_differential_entry_rejected():
    # on k^{2|1} one entry of the degree-1 map joining an even basis vector
    # to the odd one, in either direction, makes the differential odd
    sp = k_super(2, 1)
    even = FpMatrix.from_coords(3, 3, 3, [((0, 0), 1), ((1, 1), 2), ((2, 2), 1)])
    PComplex(3, 1, {0: sp, 1: sp, 2: sp}, {0: even, 1: even})
    for bad in ((1, 2), (2, 0)):
        odd = FpMatrix.from_coords(3, 3, 3, [((0, 0), 1), (bad, 1)])
        with pytest.raises(ValueError, match="differential at 1 is not even"):
            PComplex(3, 1, {0: sp, 1: sp, 2: sp}, {0: even, 1: odd})
    # terms with no odd part or no even part: (source, target, an even
    # entry, an odd entry)
    cases = (
        (k_super(1, 1), k_super(1, 0), (0, 0), (0, 1)),  # odd -> even
        (k_super(0, 1), k_super(1, 1), (1, 0), (0, 0)),  # odd -> even
        (k_super(1, 1), k_super(0, 1), (0, 1), (0, 0)),  # even -> odd
        (k_super(1, 0), k_super(1, 1), (0, 0), (1, 0)),  # even -> odd
    )
    for src, tgt, good, bad in cases:
        PComplex(3, 1, {0: src, 1: tgt}, {0: FpMatrix.from_coords(3, tgt.dim, src.dim, [(good, 1)])})
        with pytest.raises(ValueError, match="differential at 0 is not even"):
            PComplex(3, 1, {0: src, 1: tgt}, {0: FpMatrix.from_coords(3, tgt.dim, src.dim, [(bad, 1)])})


def test_decompose_matches_ground_truth_and_oracle():
    rng = random.Random(101)
    for case in range(200):
        p = rng.choice((3, 5))
        blocks, cx = random_block_complex(rng, p)
        scrambled = scramble_basis(rng, cx)
        want = {}
        for (shift, length, parity) in blocks:
            key = (shift, length, parity)
            want[key] = want.get(key, 0) + 1
        got = decompose_cyclic(scrambled)
        assert got.blocks == want, f"case {case}"
        oracle = decompose_cyclic_oracle(scrambled)
        assert oracle.blocks == want, f"case {case} (oracle)"
        # dimension reconstruction
        dims = reconstructed_dims(got)
        for (deg, parity), d in dims.items():
            assert d == scrambled.dim(deg, parity)


def test_normal_slices_agree():
    rng = random.Random(103)
    for _ in range(60):
        p = rng.choice((3, 5))
        blocks = []
        for _ in range(rng.randrange(1, 4)):
            blocks.append((rng.randrange(3), rng.choice((1, p)), rng.randrange(2)))
        cx = scramble_basis(rng, build_from_blocks(p, 1, blocks))
        table = cohomology_table(cx)
        assert rows_equal(table)
        assert decompose_cyclic(cx).is_normal()


def test_contract_examples():
    # contraction of a p-acyclic complex with t=0 is exact
    cx = build_from_blocks(3, 1, [(0, 3, EVEN), (1, 3, ODD)])
    con = contract(cx, 1, 0)
    con.validate_p_differential()
    for i in con.degrees():
        assert con.cohomology_dims(i) == (0, 0)
    # contraction of the zero complex
    z = PComplex(3, 1, {}, {})
    assert contract(z, 1, 0).terms == {}
    with pytest.raises(ValueError):
        contract(cx, 0, 0)
    with pytest.raises(ValueError):
        contract(cx, 1, 5)


def test_contract_matches_prediction():
    rng = random.Random(107)
    checked = 0
    while checked < 200:
        p = rng.choice((3, 5))
        blocks, cx = random_block_complex(rng, p)
        cx = scramble_basis(rng, cx)
        s = rng.randrange(1, p)
        t = rng.randrange(0, (p - s) * cx.alpha)
        con = contract(cx, s, t)
        con.validate_p_differential()
        top = max(con.degrees(), default=0) + 2
        for ell in range(top):
            assert con.cohomology_dims(ell) == contraction_prediction(cx, s, t, ell)
        checked += 1


def test_tensor_examples():
    # free tensor anything is acyclic
    free = build_from_blocks(3, 1, [(0, 3, EVEN)])
    triv = build_from_blocks(3, 1, [(2, 1, ODD)])
    t = tensor_pcomplex(free, triv)[0]
    for s in range(1, 3):
        assert all(v == (0, 0) for v in cohomology(t, s).values())
    # trivial k<i> tensor trivial k<j> = trivial k<i+j>
    t2 = tensor_pcomplex(build_from_blocks(3, 1, [(1, 1, EVEN)]), triv)[0]
    assert decompose_cyclic(t2).blocks == {(3, 1, ODD): 1}
    # alpha mismatch
    with pytest.raises(ValueError):
        tensor_pcomplex(free, build_from_blocks(3, 2, [(0, 1, EVEN)]))


def test_tensor_b1_with_itself_is_acyclic():
    data = build_B(1, 1, k_super(0, 1), 3)
    t = tensor_pcomplex(data.complex, data.complex)[0]
    t.validate_p_differential()
    for s in range(1, 3):
        assert all(v == (0, 0) for v in cohomology(t, s).values())


def test_kunneth_on_power_complexes():
    built = [
        build_B(1, 1, k_super(1, 0), 3).complex,
        build_B(1, 1, k_super(0, 1), 3).complex,
        build_B(3, 1, k_super(0, 1), 3).complex,
    ]
    for c1 in built:
        for c2 in built:
            ok, msg = kunneth_check(c1, c2)
            assert ok, msg


def test_kunneth_random_normal_complexes():
    rng = random.Random(109)
    for _ in range(40):
        p = 3
        mk = lambda: scramble_basis(
            rng,
            build_from_blocks(
                p, 1, [(rng.randrange(3), rng.choice((1, p)), rng.randrange(2)) for _ in range(2)]
            ),
        )
        ok, msg = kunneth_check(mk(), mk())
        assert ok, msg


def _tensor_differential_oracle(c1, c2, offsets, z, rows, cols):
    """The Leibniz differential of c1 (*) c2 out of degree z, entry by entry
    in int64: d(a (*) b) = da (*) b + a (*) db, basis c1-major."""
    want = np.zeros((rows, cols), dtype=np.int64)
    alpha = c1.alpha
    for (i, j), off in offsets.items():
        if i + j != z:
            continue
        d1, d2 = c1.diff(i).data.astype(np.int64), c2.diff(j).data.astype(np.int64)
        n1, n2 = c1.dim(i), c2.dim(j)
        for a in range(n1):
            for b in range(n2):
                col = off + a * n2 + b
                if (i + alpha, j) in offsets:
                    to = offsets[(i + alpha, j)]
                    for r in range(d1.shape[0]):
                        want[to + r * n2 + b, col] += d1[r, a]
                if (i, j + alpha) in offsets:
                    to = offsets[(i, j + alpha)]
                    for s in range(d2.shape[0]):
                        want[to + a * d2.shape[0] + s, col] += d2[s, b]
    return want % c1.p


def test_tensor_and_kunneth_at_p7_match_int64_oracle():
    # scrambled bases put every residue up to 6 into the differentials and
    # class representatives, whose products reach 36
    rng = random.Random(113)
    p = 7
    for _ in range(4):
        c1, c2 = (
            scramble_basis(
                rng, build_from_blocks(p, 1, [(rng.randrange(3), rng.choice((1, p)), rng.randrange(2)) for _ in range(3)])
            )
            for _ in range(2)
        )
        assert any((m.data == p - 1).any() for m in c1.diffs.values())
        t, offsets = tensor_pcomplex(c1, c2)
        for z in t.degrees():
            d = t.diff(z)
            assert d.data.dtype == np.int8
            want = _tensor_differential_oracle(c1, c2, offsets, z, *d.shape)
            assert d.data.astype(np.int64).tobytes() == want.tobytes()
        ok, msg = kunneth_check(c1, c2)
        assert ok, msg


def test_contraction_degree_layout():
    cx = build_from_blocks(3, 2, [(0, 3, EVEN)])
    assert contraction_degree(cx.order, cx.alpha, 1, 0, 0) == 0
    assert contraction_degree(cx.order, cx.alpha, 1, 0, 1) == 2
    assert contraction_degree(cx.order, cx.alpha, 1, 0, 2) == 6
    assert contraction_degree(cx.order, cx.alpha, 2, 1, 1) == 5


@pytest.mark.parametrize("n, u, p", [(5, (1, 2), 5), (6, (2, 1), 3)])
def test_rank_of_power_matches_full_parity_block(n, u, p):
    # rank_of_power eliminates d^m only on the pivot columns of d^(m-1);
    # the rank of the whole parity block must be the same
    cx = build_B(n, 1, k_super(*u), p).complex
    checked = 0
    for i in cx.degrees():
        for m in range(1, p):
            for parity in (EVEN, ODD):
                rows = cx.term(i + m * cx.alpha).indices_of_parity(parity)
                cols = cx.term(i).indices_of_parity(parity)
                full = cx.iterated_diff(i, m).submatrix(rows, cols).rank()
                assert cx.rank_of_power(i, m, parity) == full
                checked += full > 0 and m > 1
    assert checked > 10


def test_iterated_diff_first_power_makes_no_product(monkeypatch):
    products = []

    def counting_matmul(a, b):
        products.append((a.shape, b.shape))
        return matmul(a, b)

    cx = build_B(4, 1, k_super(1, 1), 3).complex
    cx._iter_cache.clear()  # the build's validation filled it
    monkeypatch.setattr(pcomplex_module, "matmul", counting_matmul)
    for i in cx.degrees():
        assert cx.iterated_diff(i, 1).data.tobytes() == cx.diff(i).data.tobytes()
    assert products == []
    # d^2 still multiplies: the wrapper sees real products
    cx.iterated_diff(cx.degrees()[0], 2)
    assert len(products) == 1


def test_chain_complex_with_odd_differential_rejected():
    # d^2 = 0 holds, but d joins the even basis vector of k^{1|1} to the odd one
    sp = k_super(1, 1)
    odd = FpMatrix.from_coords(3, 2, 2, [((1, 0), 1)])
    with pytest.raises(ValueError, match="differential at 0 is not even"):
        ChainComplex(3, {0: sp, 1: sp}, {0: odd})
    even = FpMatrix.from_coords(3, 2, 2, [((0, 0), 1)])
    cx = ChainComplex(3, {0: sp, 1: sp}, {0: even})
    assert (cx.order, cx.alpha) == (2, 1)
    assert [cx.cohomology_dims(i) for i in range(2)] == [(0, 1), (0, 1)]


@pytest.mark.parametrize("n, p", [(3, 3), (6, 3), (5, 5)])
def test_span_helpers_match_image_basis_route(n, p):
    # the whole d^(p-1) block spans what its image basis spans, so the
    # representatives and every spanning verdict match the reference route
    cx = build_B(n, 1, k_super(1, 1), p).complex
    classes = 0
    for deg in range(cx.max_degree() + 1):
        reps = class_representatives_oracle(cx, deg)
        assert _class_representatives(cx, deg).T.tolist() == reps
        classes += len(reps)
        ker = cx.diff(deg).kernel_basis().data.T.tolist()
        units = [[int(k == j) for k in range(cx.dim(deg))] for j in range(cx.dim(deg))]
        for vectors in ([], reps, reps[:-1], ker, ker[1:], units[:1], reps + units[-1:]):
            vmat = FpMatrix(p, np.array(vectors, dtype=np.int64).reshape(len(vectors), cx.dim(deg)).T)
            assert all(cocycles_span(cx, deg, vmat)) == spans_cohomology_oracle(cx, deg, vectors), (deg, vectors)
    assert classes > 0


def _p_check_message(check, cx):
    try:
        check(cx)
    except PDifferentialError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pivot_restricted_p_check_matches_full_product_oracle(p):
    # a direct sum of cyclic blocks of both parities, with one even entry
    # that joins the top of a block to the start of another one degree up:
    # once the ranks of d^(N-1) are known, d^N is checked only on the pivot
    # columns of d^(N-1), and must fail in the same first degree as the
    # whole product, or pass with it
    rng = random.Random(100 + p)
    messages = set()
    for trial in range(80):
        chain = trial % 2 == 1
        order, alpha = (2, 1) if chain else (p, rng.choice((1, 2)))
        blocks = [
            (rng.randrange(2 * order * alpha), rng.choice((1, order - 1, order)), rng.choice((EVEN, ODD)))
            for _ in range(rng.randrange(2, 7))
        ]
        good = build_from_blocks(p, alpha, blocks)
        diffs = {i: good.diff(i).data.copy() for i in good.degrees()}
        joins = [
            (i, row, col)
            for i in good.degrees()
            for parity in (EVEN, ODD)
            for col in good.term(i).indices_of_parity(parity)
            for row in good.term(i + alpha).indices_of_parity(parity)
            if not diffs[i][:, col].any() and not diffs[i][row].any()
        ]
        if joins:
            i, row, col = rng.choice(joins)
            diffs[i][row, col] = rng.randrange(1, p)

        def make():
            mats = {d: FpMatrix(p, m.copy()) for d, m in diffs.items()}
            return ChainComplex(p, good.terms, mats) if chain else PComplex(p, alpha, good.terms, mats)

        want = _p_check_message(validate_p_differential_oracle, make())
        # before any rank: the whole d^(N-1) is multiplied out
        assert _p_check_message(PComplex.validate_p_differential, make()) == want
        cx = make()
        cx.rank_of_power(0, cx.order - 1, EVEN)
        assert _p_check_message(PComplex.validate_p_differential, cx) == want, (trial, blocks)
        # the pivot route formed no whole power
        assert cx._iter_cache == {}
        messages.add(want)
    # passes, and first failures in several degrees of both kinds of complex
    assert None in messages
    assert sum(f"d^{p} is" in str(m) for m in messages) >= 3
    assert sum("d^2 is" in str(m) for m in messages) >= 3


def test_r2_products_stay_on_pivot_columns(monkeypatch):
    # d^2 is formed on the pivot columns of d and d^3 = 0 is checked on the
    # pivot columns of d^2: the products of criterion 3's r = 2 job come to
    # at most 60 % of the 523,772,663 multiply-adds of whole powers
    macs = []

    def counting_matmul(a, b):
        macs.append(a.rows * a.cols * b.cols)
        return matmul(a, b)

    monkeypatch.setattr(pcomplex_module, "matmul", counting_matmul)
    assert verify_theorem_B(7, 2, k_super(1, 0), 3).ok
    assert macs and sum(macs) <= 0.6 * 523_772_663
