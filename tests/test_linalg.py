import random

import numpy as np
import pytest

from oracles import (
    eager_rref,
    invert,
    matpow,
    oracle_image_basis,
    oracle_kernel_basis,
    oracle_solve,
    rref_oracle,
)
from supertroesch import linalg
from supertroesch.linalg import FpMatrix, ShapeMismatchError, hstack, matmul
from supertroesch.superspace import rho


def random_matrix(rng, p, rows, cols, density=0.5):
    m = FpMatrix.zeros(p, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                m.data[i, j] = rng.randrange(1, p)
    return m


def test_rank_empty_and_identity():
    assert FpMatrix.zeros(3, 0, 0).rank() == 0
    assert FpMatrix.identity(3, 3).rank() == 3


def test_rank_one_by_one():
    # the differential of the one-dimensional purely odd degree-0 piece
    m = FpMatrix(3, np.array([[1]], dtype=np.int64) % 3)
    assert m.rank() == 1


def test_solve_identity():
    m = FpMatrix.identity(5, 2)
    assert m.solve([3, 4]) == [3, 4]


def test_kernel_of_zero_map():
    m = FpMatrix.zeros(3, 1, 1)
    assert m.kernel_basis().cols == 1


def test_matpow_rho_is_nilpotent():
    for p in (3, 5):
        m = rho(p, 1, 0).matrix
        assert not matpow(m, p - 1).is_zero()
        assert matpow(m, p).is_zero()


def test_shape_mismatch_reports_both_shapes():
    a = FpMatrix.zeros(3, 2, 3)
    b = FpMatrix.zeros(3, 2, 3)
    with pytest.raises(ShapeMismatchError) as exc:
        matmul(a, b)
    assert "(2, 3)" in str(exc.value)


def test_rank_nullity_and_image_rank():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        rows = rng.randrange(0, 6)
        cols = rng.randrange(0, 6)
        m = random_matrix(rng, p, rows, cols)
        r = m.rank()
        ker = m.kernel_basis()
        img = m.image_basis()
        assert r + ker.cols == cols
        assert img.cols == r
        assert img.rank() == r
        if ker.cols:
            assert matmul(m, ker).is_zero()


def test_matmul_associative():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice((3, 5))
        a = random_matrix(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
        b = random_matrix(rng, p, a.cols, rng.randrange(1, 5))
        c = random_matrix(rng, p, b.cols, rng.randrange(1, 5))
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def _wide(m):
    """The residues of m as int64, so that reference arithmetic never runs
    in the int8 of storage."""
    return m.data.astype(np.int64)


def test_product_matches_int64_reference():
    """matmul and apply against int64 ``(a @ b) % p``, bit for bit."""
    rng = np.random.default_rng(5)
    shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1), (7, 13, 5), (40, 65, 33)]
    for p in (3, 5, 7):
        for rows, inner, cols in shapes:
            a = FpMatrix(p, rng.integers(0, p, (rows, inner)))
            b = FpMatrix(p, rng.integers(0, p, (inner, cols)))
            ref = (_wide(a) @ _wide(b)) % p
            for got in (matmul(a, b).data, (a @ b).data):
                assert got.dtype == np.int8 and got.shape == ref.shape
                assert got.astype(np.int64).tobytes() == ref.tobytes()
            # apply reduces its list first, so unreduced entries work too
            vec = rng.integers(-2 * p, 2 * p, inner)
            assert a.apply(vec.tolist()) == ((_wide(a) @ vec) % p).tolist()
        # every dot product at its largest for this inner size
        n = 5000
        a = FpMatrix(p, np.full((1, n), p - 1, dtype=np.int64))
        b = FpMatrix(p, np.full((n, 1), p - 1, dtype=np.int64))
        ref = (_wide(a) @ _wide(b)) % p
        assert matmul(a, b).data.astype(np.int64).tobytes() == ref.tobytes()
        assert a.apply([p - 1] * n) == ref[:, 0].tolist()


def test_product_dtypes_are_the_narrowest_exact_ones():
    # float32 holds every integer up to 2**24, float64 up to 2**53; the
    # reduction runs in the narrowest integer dtype that holds the bound
    assert linalg._product_dtypes(0) == (np.float32, np.int16)
    assert linalg._product_dtypes(2**15 - 1) == (np.float32, np.int16)
    assert linalg._product_dtypes(2**15) == (np.float32, np.int32)
    assert linalg._product_dtypes(2**24) == (np.float32, np.int32)
    assert linalg._product_dtypes(2**24 + 1) == (np.float64, np.int64)
    assert linalg._product_dtypes(2**53) == (np.float64, np.int64)
    assert linalg._product_dtypes(2**53 + 1) is None


def test_products_either_side_of_the_float32_bound(monkeypatch):
    """At p = 7 a dot product is at most 36 per inner column: 466,033
    columns stay within 2**24 and multiply in float32, one more column
    multiplies in float64.  Both against int64 ``(a @ b) % p``, bit for bit,
    with every dot product at its largest and with random residues."""
    p = 7
    rng = np.random.default_rng(7)
    chosen = []
    narrowest = linalg._product_dtypes

    def recording(bound):
        chosen.append(narrowest(bound)[0])
        return narrowest(bound)

    monkeypatch.setattr(linalg, "_product_dtypes", recording)
    for inner in (2**24 // 36, 2**24 // 36 + 1):
        for a, b in (
            (np.full((2, inner), p - 1), np.full((inner, 3), p - 1)),
            (rng.integers(0, p, (2, inner)), rng.integers(0, p, (inner, 3))),
        ):
            ref = (a @ b) % p
            got = matmul(FpMatrix(p, a), FpMatrix(p, b)).data
            assert got.dtype == np.int8 and got.astype(np.int64).tobytes() == ref.tobytes()
    assert chosen == [np.float32, np.float32, np.float64, np.float64]


@pytest.mark.parametrize("p, inner", [(3, 8191), (5, 2047), (7, 910)])
def test_products_either_side_of_the_int16_bound(monkeypatch, p, inner):
    """inner * (p-1)**2 is at most 2**15 - 1 at the given inner size, so the
    product is reduced as int16 through the residue table; one more inner
    column reduces as int32.  Both against int64 ``(a @ b) % p``, bit for
    bit, with every dot product at its largest and with random residues."""
    rng = np.random.default_rng(p)
    chosen = []
    narrowest = linalg._product_dtypes

    def recording(bound):
        chosen.append(narrowest(bound)[1])
        return narrowest(bound)

    monkeypatch.setattr(linalg, "_product_dtypes", recording)
    for k in (inner, inner + 1):
        for a, b in (
            (np.full((3, k), p - 1), np.full((k, 4), p - 1)),
            (rng.integers(0, p, (3, k)), rng.integers(0, p, (k, 4))),
        ):
            ref = (a @ b) % p
            got = matmul(FpMatrix(p, a), FpMatrix(p, b)).data
            assert got.dtype == np.int8 and got.astype(np.int64).tobytes() == ref.tobytes()
    assert chosen == [np.int16, np.int16, np.int32, np.int32]
    assert inner * (p - 1) ** 2 <= 2**15 - 1 < (inner + 1) * (p - 1) ** 2


def test_product_bound_checked_before_conversion():
    # zero-stride int8 views, taken as residues without a copy: 2**48
    # columns and nothing allocated; at p = 7 the largest dot product
    # 36 * 2**48 exceeds 2**53, so matmul must refuse before casting, which
    # would ask for petabytes
    n = 2**48
    a = FpMatrix(7, np.broadcast_to(np.int8(6), (1, n)))
    b = FpMatrix(7, np.broadcast_to(np.int8(6), (n, 1)))
    with pytest.raises(ValueError, match=r"2\*\*53"):
        matmul(a, b)


def _elimination_cases(rng):
    """Random matrices, small and up to 40x60 from sparse to dense, then
    all-(p-1) blocks, alone and behind a unit lower triangle, where the
    unreduced residues of the elimination grow fastest."""
    for _ in range(1200):
        p = rng.choice((3, 5, 7))
        yield random_matrix(rng, p, rng.randrange(0, 9), rng.randrange(0, 9), density=rng.uniform(0.1, 0.9))
    for _ in range(150):
        p = rng.choice((3, 5, 7))
        yield random_matrix(rng, p, rng.randrange(1, 41), rng.randrange(1, 61), density=rng.uniform(0.02, 0.9))
    for p in (3, 5, 7):
        for rows, cols in ((1, 1), (5, 7), (40, 60), (60, 40)):
            m = FpMatrix(p, np.full((rows, cols), p - 1, dtype=np.int64))
            yield m
            # in front of it a unit lower triangle with p-1 below the
            # diagonal: every pivot is 1 and every row below is cleared
            core = np.tril(np.full((rows, min(rows, cols)), p - 1, dtype=np.int64), -1)
            np.fill_diagonal(core, 1)
            yield hstack([FpMatrix(p, core), m])


def test_elimination_matches_rref_oracle():
    rng = random.Random(13)
    for m in _elimination_cases(rng):
        p, rows, cols = m.p, m.rows, m.cols
        assert m.rank() == len(rref_oracle(m, reduce_above=False)[1])
        assert m.kernel_basis() == oracle_kernel_basis(m)
        assert m.image_basis() == oracle_image_basis(m)
        b = [rng.randrange(p) for _ in range(rows)]
        assert m.solve(b) == oracle_solve(m, b)
        # a right-hand side in the image is always solvable
        x = [rng.randrange(p) for _ in range(cols)]
        y = m.apply(x)
        assert oracle_solve(m, y) is not None
        assert m.solve(y) == oracle_solve(m, y)
        # the same comparisons on a submatrix, empty row or column lists included
        sub = m.submatrix(
            [i for i in range(rows) if rng.random() < 0.5],
            [j for j in range(cols) if rng.random() < 0.5],
        )
        assert sub.rank() == len(rref_oracle(sub, reduce_above=False)[1])
        assert sub.kernel_basis() == oracle_kernel_basis(sub)
        assert sub.image_basis() == oracle_image_basis(sub)
        c = [rng.randrange(p) for _ in range(sub.rows)]
        assert sub.solve(c) == oracle_solve(sub, c)


def _oracle_array(m, reduce_above):
    """rref_oracle's rows as a dense array."""
    rows, pivots, _ = rref_oracle(m, reduce_above)
    out = np.zeros((m.rows, m.cols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i, j] = v
    return out, pivots


@pytest.mark.parametrize("cells", [linalg.BATCH_CELLS, 150])
def test_batched_elimination_matches_single_and_oracle(monkeypatch, cells):
    # a small cap splits each call into several batches
    monkeypatch.setattr(linalg, "BATCH_CELLS", cells)
    rng = random.Random(19)
    for _ in range(40):
        p = rng.choice((3, 5, 7))
        shapes = [(0, rng.randrange(6)), (rng.randrange(6), 0), (0, 0), (3, 14), (14, 3), (1, 1)]
        shapes += [(rng.randrange(1, 12), rng.randrange(1, 12)) for _ in range(rng.randrange(8))]
        rng.shuffle(shapes)
        mats = [random_matrix(rng, p, r, c, density=rng.uniform(0.1, 0.9)) for r, c in shapes]
        # residues in any integer dtype
        arrays = [m.data.astype(rng.choice((np.int8, np.int64))) for m in mats]
        for reduce_above in (False, True):
            out = []
            pivots = FpMatrix.eliminate(p, arrays, reduce_above, out)
            assert len(pivots) == len(out) == len(mats)
            for b, m in enumerate(mats):
                one = []
                one_pivots = FpMatrix.eliminate(p, [arrays[b]], reduce_above, one)
                want, want_pivots = _oracle_array(m, reduce_above)
                assert out[b].dtype == one[0].dtype == np.int8 and out[b].shape == want.shape
                assert pivots[b] == one_pivots[0] == want_pivots
                assert out[b].tobytes() == one[0].tobytes()
                assert out[b].astype(np.int64).tobytes() == want.tobytes()
            # without out, the same pivots
            assert FpMatrix.eliminate(p, arrays, reduce_above) == pivots


@pytest.mark.parametrize("cells", [linalg.BATCH_CELLS, 150])
def test_batches_stack_arrays_at_their_own_heights(monkeypatch, cells):
    # no row padding: a batch has as many rows as its arrays together, and
    # is as wide as its widest array
    monkeypatch.setattr(linalg, "BATCH_CELLS", cells)
    lockstep = linalg._lockstep
    batches = []

    def recording_lockstep(p, a, shapes, *args):
        batches.append((a.shape, list(shapes)))
        return lockstep(p, a, shapes, *args)

    monkeypatch.setattr(linalg, "_lockstep", recording_lockstep)
    rng = random.Random(29)
    for _ in range(20):
        shapes = [(rng.randrange(12), rng.randrange(12)) for _ in range(rng.randrange(1, 10))]
        arrays = [random_matrix(rng, 3, r, c).data for r, c in shapes]
        for reduce_above in (False, True):
            batches.clear()
            FpMatrix.eliminate(3, arrays, reduce_above)
            assert sorted(s for _, batch in batches for s in batch) == sorted(shapes)
            for (rows, width), batch in batches:
                assert rows == sum(r for r, c in batch)
                assert width == max(c for r, c in batch)
                # in order of width, so the arrays wider than a column are a suffix
                assert [c for r, c in batch] == sorted(c for r, c in batch)
                assert len(batch) == 1 or rows * width <= cells


@pytest.mark.parametrize("reduce_above", [False, True])
def test_lockstep_keeps_each_array_in_its_own_columns(reduce_above):
    # a hand-stacked batch of mixed widths, each array ending at the batch's
    # last column: the sentinel in the padding left of an array is never
    # read (it would be taken as a pivot) or written, and every array comes
    # out as if eliminated alone, its pivots in its own column numbering
    rng = random.Random(31)
    p, sentinel = 5, 1
    shapes = [(3, 0), (4, 2), (0, 4), (6, 3), (3, 3), (5, 6), (2, 9)]
    cols = max(c for _, c in shapes)
    mats = [random_matrix(rng, p, r, c, density=0.6) for r, c in shapes]
    tops = [0]
    for r, _ in shapes:
        tops.append(tops[-1] + r)
    a = np.full((tops[-1], cols), sentinel, dtype=np.int16)
    for t, m in zip(tops, mats):
        a[t : t + m.rows, cols - m.cols : cols] = m.data
    before = a.copy()
    pivots = linalg._lockstep(p, a, shapes, cols, reduce_above)
    assert sum(map(len, pivots)) > 0
    for t, (r, c), m, got in zip(tops, shapes, mats, pivots):
        assert (a[t : t + r, : cols - c] == before[t : t + r, : cols - c]).all()
        assert (a[t : t + r, : cols - c] == sentinel).all()
        one = []
        want = FpMatrix.eliminate(p, [m.data], reduce_above, one)
        assert got == want[0]
        assert (a[t : t + r, cols - c :] % p).astype(np.int8).tobytes() == one[0].tobytes()


@pytest.mark.parametrize("n, dtype", [(910, np.int16), (911, np.int32)])
def test_elimination_at_the_int16_bound(monkeypatch, n, dtype):
    # p = 7: the bound (p-1) + (p-1)**2 * min(rows, cols) is 32766 at 910,
    # the last size int16 holds.  In a unit lower triangle whose last row is
    # p-1 below the diagonal, each of the first n-1 pivots clears the last
    # row with factor p-1, so the last entry of the all-(p-1) column behind
    # it falls to (p-1) - (p-1)**2 * (n-1) = -32718 at n = 910 before it is
    # reduced: the most an entry can grow, short of the bound by 48.
    p = 7
    core = np.eye(n, dtype=np.int64)
    core[-1, :-1] = p - 1
    m = FpMatrix(p, np.hstack([core, np.full((n, 1), p - 1, dtype=np.int64)]))
    lockstep = linalg._lockstep
    used = []

    def recording_lockstep(p, a, *args):
        used.append(a.dtype)
        return lockstep(p, a, *args)

    monkeypatch.setattr(linalg, "_lockstep", recording_lockstep)
    for reduce_above in (False, True):
        out = []
        pivots = FpMatrix.eliminate(p, [m.data], reduce_above, out=out)
        want, want_pivots = eager_rref(m, reduce_above)
        assert pivots[0] == want_pivots == list(range(n))
        assert out[0].dtype == np.int8
        assert out[0].astype(np.int64).tobytes() == want.tobytes()
    assert used == [dtype, dtype]


def test_submatrix_with_empty_index_lists():
    m = FpMatrix(5, np.array([[1, 2, 3], [4, 0, 1]], dtype=np.int64) % 5)
    # coordinates: repeated positions add up, negative values wrap into [0, p)
    entries = [((0, 0), 1), ((0, 1), -3), ((0, 2), 1), ((1, 0), 9), ((0, 2), 2), ((1, 2), -4), ((1, 1), 0)]
    assert FpMatrix.from_coords(5, 2, 3, entries) == m
    assert m.submatrix([1, 0], [2, 0]) == FpMatrix(5, np.array([[1, 4], [3, 1]], dtype=np.int64) % 5)
    for rows, cols in (([], []), ([], [0, 2]), ([0, 1], [])):
        sub = m.submatrix(rows, cols)
        assert sub.shape == (len(rows), len(cols))
        assert FpMatrix.from_coords(5, len(rows), len(cols), []) == sub
        assert sub.rank() == 0
        assert sub.kernel_basis() == FpMatrix.identity(5, len(cols))
        assert sub.image_basis().shape == (len(rows), 0)
        assert sub.solve([0] * len(rows)) == [0] * len(cols)
        if rows:
            assert sub.solve([1] * len(rows)) is None


def test_solve_inconsistent_returns_none():
    m = FpMatrix(3, np.array([[1, 1], [1, 1]], dtype=np.int64) % 3)
    assert m.solve([1, 2]) is None
    assert m.solve([1, 1]) is not None


def test_invert_round_trip():
    rng = random.Random(17)
    found = 0
    for _ in range(100):
        p = rng.choice((3, 5))
        m = random_matrix(rng, p, 3, 3, density=0.8)
        inv = invert(m)
        if inv is not None:
            found += 1
            assert matmul(m, inv) == FpMatrix.identity(p, 3)
            assert matmul(inv, m) == FpMatrix.identity(p, 3)
    assert found > 10


def test_hstack_ranks():
    a = FpMatrix(3, np.array([[1], [0]], dtype=np.int64) % 3)
    b = FpMatrix(3, np.array([[0], [1]], dtype=np.int64) % 3)
    assert hstack([a, b]).rank() == 2


def _add_at_reference(p, rows, cols, i, j, values):
    data = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(data, (np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)), np.asarray(values, dtype=np.int64))
    return data % p


def test_from_arrays_matches_add_at_reference():
    rng = np.random.default_rng(23)
    cases = 0
    for p in (3, 5, 7):
        for dtype in (np.int8, np.int64):
            for rows, cols in ((0, 4), (4, 0), (0, 0), (1, 1), (3, 5), (6, 2), (9, 9)):
                for count in (0, 1, 7, 40):
                    if count and not rows * cols:
                        continue
                    i = rng.integers(0, rows, count).astype(dtype) if count else np.zeros(0, dtype=dtype)
                    j = rng.integers(0, cols, count).astype(dtype) if count else np.zeros(0, dtype=dtype)
                    values = rng.integers(-2 * p, 2 * p, count).astype(dtype)
                    got = FpMatrix.from_arrays(p, rows, cols, i, j, values)
                    assert got.shape == (rows, cols)
                    assert got.data.dtype == np.int8
                    assert _wide(got).tobytes() == _add_at_reference(p, rows, cols, i, j, values).tobytes()
                    cases += 1
        # repeats that cancel mod p leave zeros, the others sum, whatever
        # their order and dtype
        for dtype in (np.int8, np.int64):
            i = np.array([1, 0, 2, 1, 1, 0, 2], dtype=dtype)
            j = np.array([2, 0, 1, 2, 2, 0, 1], dtype=dtype)
            values = np.array([1, p - 1, p, p - 2, 1, 1, 2], dtype=dtype)
            got = FpMatrix.from_arrays(p, 3, 3, i, j, values)
            want = np.zeros((3, 3), dtype=np.int64)
            want[2, 1] = 2  # p + 2, where (1, 2) and (0, 0) each sum to p
            assert _wide(got).tobytes() == want.tobytes() == _add_at_reference(p, 3, 3, i, j, values).tobytes()
    assert cases > 100
    # no entries at all, from either constructor
    assert FpMatrix.from_arrays(5, 2, 3, [], [], []) == FpMatrix.zeros(5, 2, 3)
    assert FpMatrix.from_coords(5, 0, 3, []) == FpMatrix.zeros(5, 0, 3)


def test_batch_from_arrays_matches_one_fill_per_matrix():
    rng = np.random.default_rng(31)
    shapes = [(0, 3), (2, 2), (4, 0), (5, 7), (1, 1), (3, 6)]
    fillable = [n for n, (r, c) in enumerate(shapes) if r * c]
    for p in (3, 5, 7):
        for count in (0, 1, 60):
            k = rng.choice(fillable, count)
            i = np.array([rng.integers(shapes[n][0]) for n in k], dtype=np.int64)
            j = np.array([rng.integers(shapes[n][1]) for n in k], dtype=np.int64)
            values = rng.integers(-2 * p, 2 * p, count)
            mats = FpMatrix.batch_from_arrays(p, shapes, k, i, j, values)
            assert len(mats) == len(shapes)
            for n, shape in enumerate(shapes):
                one = k == n
                assert mats[n].shape == shape and mats[n].data.dtype == np.int8
                assert mats[n] == FpMatrix.from_arrays(p, *shape, i[one], j[one], values[one])
    assert FpMatrix.batch_from_arrays(3, [], [], [], [], []) == []
    # (1, 1) lies inside the 2 x 2 matrix but outside the 1 x 1 one
    for k, i, j in (([2], [0], [0]), ([-1], [0], [0]), ([6], [0], [0]), ([4], [1], [1]), ([1], [0], [-1])):
        with pytest.raises(IndexError):
            FpMatrix.batch_from_arrays(3, shapes, k, i, j, [1])
    with pytest.raises(ValueError):
        FpMatrix.batch_from_arrays(3, shapes, [1, 1], [0, 1], [0], [1, 1])


def test_from_arrays_rejects_entries_outside_the_matrix():
    for i, j in (([2], [0]), ([0], [3]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(IndexError):
            FpMatrix.from_arrays(3, 2, 3, i, j, [1])
    with pytest.raises(ValueError):
        FpMatrix.from_arrays(3, 2, 3, [0, 1], [0], [1, 1])


def test_every_constructor_stores_int8():
    p = 7
    rng = np.random.default_rng(37)
    a = FpMatrix(p, rng.integers(0, p, (5, 6)))
    b = FpMatrix(p, rng.integers(0, p, (6, 4)))
    made = [
        a,
        FpMatrix(p, [[200, -1]]),
        FpMatrix.zeros(p, 2, 3),
        FpMatrix.identity(p, 3),
        FpMatrix.from_coords(p, 2, 2, [((0, 1), 9)]),
        FpMatrix.from_arrays(p, 2, 2, [0], [1], [9]),
        *FpMatrix.batch_from_arrays(p, [(2, 2), (1, 3)], [0, 1], [0, 0], [1, 2], [9, -9]),
        matmul(a, b),
        a @ b,
        a.submatrix([0, 2], [1, 3]),
        hstack([a, FpMatrix.identity(p, 5)]),
        a.kernel_basis(),
        a.image_basis(),
    ]
    assert all(m.data.dtype == np.int8 for m in made)
    out = []
    FpMatrix.eliminate(p, [a.data, b.data], True, out)
    assert [x.dtype for x in out] == [np.int8, np.int8]


def test_unreduced_input_is_reduced_before_narrowing():
    assert FpMatrix(7, [[200, -1]]).data.tolist() == [[4, 6]]
    # entries that a plain cast to int8 would wrap: 200 to -56, 128 to -128,
    # 2**40 + 3 to 3
    big = np.array([[200, -1, 127, 128], [-129, 2**40 + 3, -(2**40), 7 * 2**50 + 5]], dtype=np.int64)
    for p in (3, 5, 7):
        got = FpMatrix(p, big)
        assert got.data.dtype == np.int8
        assert _wide(got).tolist() == (big % p).tolist()
    # an int8 array is taken as it is, without a copy
    residues = np.array([[1, 6]], dtype=np.int8)
    assert FpMatrix(7, residues).data is residues


def test_int8_arithmetic_sites_match_int64_oracle_at_p7():
    """Every place that computes on stored residues, at p = 7 on inputs whose
    sums or products pass 127, against the same arithmetic in int64 or in
    Python integers."""
    p = 7
    rng = np.random.default_rng(41)
    # products: all-6 rows against all-6 columns, 36 * 40 = 1440 per entry
    a = FpMatrix(p, np.full((3, 40), 6))
    b = FpMatrix(p, np.full((40, 2), 6))
    assert _wide(a @ b).tolist() == ((_wide(a) @ _wide(b)) % p).tolist() == [[1440 % p] * 2] * 3
    dense = FpMatrix(p, rng.integers(0, p, (30, 50)))
    other = FpMatrix(p, rng.integers(0, p, (50, 20)))
    assert _wide(dense @ other).tobytes() == ((_wide(dense) @ _wide(other)) % p).tobytes()
    # apply: an unreduced vector, far past int8 and int16 once multiplied
    vec = rng.integers(-1000, 1000, 50)
    assert dense.apply(vec.tolist()) == ((_wide(dense) @ vec) % p).tolist()
    # from_arrays and batch_from_arrays: 40 copies of 6 at one place sum to 240
    got = FpMatrix.from_arrays(p, 2, 2, [1] * 40, [0] * 40, [6] * 40)
    assert _wide(got).tolist() == [[0, 0], [240 % p, 0]]
    k = i = [1] * 40 + [0]
    one, two = FpMatrix.batch_from_arrays(p, [(1, 1), (2, 2)], k, i, [0] * 41, [6] * 40 + [-300])
    assert _wide(one).tolist() == [[-300 % p]] and _wide(two).tolist() == [[0, 0], [240 % p, 0]]
    # solve: an unreduced augmented column; kernel basis: negated residues
    sixes = FpMatrix(p, np.full((6, 9), 6))
    for m in (dense, sixes, hstack([FpMatrix.identity(p, 6), sixes])):
        rhs = rng.integers(-300, 300, m.rows).tolist()
        assert m.solve(rhs) == oracle_solve(m, rhs)
        y = m.apply(rng.integers(-300, 300, m.cols).tolist())
        x = m.solve([v + 140 * p for v in y])
        assert x is not None and m.apply(x) == y
        ker = m.kernel_basis()
        assert ker == oracle_kernel_basis(m)
        assert not ((_wide(m) @ _wide(ker)) % p).any()
