import pytest

from oracles import matpow
from supertroesch.errors import BudgetExceededError
from supertroesch.linalg import FpMatrix, matmul
from supertroesch.superspace import (
    EVEN,
    ODD,
    BasisElement,
    LinearMapSS,
    SuperSpace,
    ZERO_SPACE,
    build_Sh,
    dual_space,
    frobenius_twist_space,
    hom_space,
    k_super,
    parity_shift,
    parse_space,
    relabel_map,
    rho,
    tensor,
)


def test_tensor_even_odd():
    v = tensor(k_super(1, 0), k_super(0, 1))
    assert v.dim == 1
    assert v.basis[0].parity == ODD


def test_tensor_sh_with_k11():
    w = tensor(build_Sh(3, 1), k_super(1, 1))
    assert w.dim == 6
    assert [b.zdeg for b in w.basis] == [0, 0, 1, 1, 2, 2]
    assert [b.parity for b in w.basis] == [0, 1, 0, 1, 0, 1]


def test_tensor_with_zero():
    assert tensor(k_super(2, 1), ZERO_SPACE).dim == 0


def test_parity_shift_involution_on_parities():
    v = k_super(2, 1)
    w = parity_shift(parity_shift(v))
    assert [b.parity for b in w.basis] == [b.parity for b in v.basis]
    assert parity_shift(k_super(1, 0)).dims_by_parity() == (0, 1)


def test_parity_shift_of_sh():
    shbar = parity_shift(build_Sh(3, 1))
    assert shbar.dims_by_parity() == (0, 3)
    assert [b.zdeg for b in shbar.basis] == [0, 1, 2]


def test_frobenius_twist_space():
    sh = build_Sh(3, 1)
    assert frobenius_twist_space(sh, 0, 3) == sh
    tw = frobenius_twist_space(sh, 1, 3)
    assert [b.zdeg for b in tw.basis] == [0, 3, 6]
    v = frobenius_twist_space(k_super(1, 1), 1, 3)
    assert v.dims_by_parity() == (1, 1)


def test_build_sh_and_rho():
    sh = build_Sh(3, 2)
    assert sh.dim == 9
    assert all(b.parity == EVEN for b in sh.basis)
    assert [b.zdeg for b in sh.basis] == list(range(9))
    r0 = rho(3, 1, 0)
    # column j holds the image of sh_j
    assert r0.matrix.data[:, 0].tolist() == [0, 1, 0]
    assert r0.matrix.data[:, 1].tolist() == [0, 0, 1]
    assert r0.matrix.data[:, 2].tolist() == [0, 0, 0]
    # digit arithmetic: rho_1(sh_2) = sh_5 at p=3, r=2
    r1 = rho(3, 2, 1)
    assert r1.matrix.data[:, 2].tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0]
    with pytest.raises(ValueError):
        rho(3, 1, 1)


def test_rho_commute_and_nilpotent():
    for p, r in ((3, 1), (3, 2), (5, 1), (5, 2)):
        maps = [rho(p, r, s) for s in range(r)]
        for a in maps:
            assert matpow(a.matrix, p).is_zero()
            for b in maps:
                assert matmul(a.matrix, b.matrix) == matmul(b.matrix, a.matrix)


def test_dual_and_hom_spaces():
    assert dual_space(k_super(1, 0)).dims_by_parity() == (1, 0)
    h = hom_space(build_Sh(3, 1), parity_shift(build_Sh(3, 1)))
    assert h.dim == 9
    assert h.dims_by_parity() == (0, 9)
    hv = hom_space(k_super(1, 1), k_super(1, 1))
    # the identity occupies even zdeg-0 units
    diag = [hv.basis[i * 2 + i] for i in range(2)]
    assert all(b.parity == EVEN and b.zdeg == 0 for b in diag)


def test_linear_map_validation():
    sh = build_Sh(3, 1)
    bad = FpMatrix.zeros(3, 3, 3)
    bad.data[0, 0] = 1  # zdeg shift 0, but declared shift 1
    with pytest.raises(ValueError):
        LinearMapSS(sh, sh, bad, EVEN, 1)


def test_tensor_associative_up_to_reindexing():
    spaces = [k_super(1, 1), k_super(2, 0), k_super(0, 1)]
    for a in spaces:
        for b in spaces:
            for c in spaces:
                left = tensor(tensor(a, b), c)
                right = tensor(a, tensor(b, c))
                # same dimensions, degrees and parities in the same order
                assert [x.zdeg for x in left.basis] == [x.zdeg for x in right.basis]
                assert [x.parity for x in left.basis] == [x.parity for x in right.basis]


def test_relabel_map_reads_its_grading_off_the_new_bases():
    sh = build_Sh(3, 1)
    shbar = parity_shift(sh)
    f = rho(3, 1, 0)
    onto_pi = relabel_map(f, shbar, shbar)
    assert (onto_pi.parity, onto_pi.zshift) == (EVEN, 1)
    assert onto_pi.matrix == f.matrix
    across = relabel_map(f, sh, shbar)
    assert (across.parity, across.zshift) == (ODD, 1)
    # a zero map has no entry to read: it keeps f's grading
    zero = LinearMapSS(sh, shbar, FpMatrix.zeros(3, 3, 3), ODD, 5)
    kept = relabel_map(zero, shbar, sh)
    assert (kept.parity, kept.zshift) == (ODD, 5)
    with pytest.raises(ValueError, match="relabel dimension mismatch"):
        relabel_map(f, build_Sh(3, 2), sh)


def test_parse_space():
    assert parse_space("k^{2|1}", 3, 3).dims_by_parity() == (2, 1)
    assert parse_space("Sh(1)", 3, 3).dim == 3
    assert parse_space("PiSh(1)", 3, 3).dims_by_parity() == (0, 3)
    with pytest.raises(ValueError):
        parse_space("bogus", 3, 3)
    # the dimension is checked against the budget before a basis is built
    huge = 10**12
    cases = [("k^{2|2}", 4), ("Sh(2)", "3^2"), ("PiSh(2)", "3^2"), (f"Sh({huge})", f"3^{huge}")]
    for text, size in cases:
        with pytest.raises(BudgetExceededError) as exc:
            parse_space(text, 3, 3)
        assert (exc.value.what, exc.value.size) == ("test space", size)


def test_parity_indices_are_cached_immutable_and_match_a_rescan():
    spaces = (ZERO_SPACE, k_super(2, 0), k_super(0, 3), tensor(build_Sh(3, 1), k_super(1, 1)), hom_space(k_super(1, 2), k_super(2, 1)))
    for v in spaces:
        for parity in (EVEN, ODD):
            got = v.indices_of_parity(parity)
            assert got == tuple(i for i, b in enumerate(v.basis) if b.parity == parity)
            # the same tuple every time: the cache is read, not rebuilt, and
            # a tuple cannot be changed in place by a caller
            assert v.indices_of_parity(parity) is got
            with pytest.raises(TypeError):
                got[0:0] = (0,)
        assert v.dims_by_parity() == tuple(len(v.indices_of_parity(parity)) for parity in (EVEN, ODD))


def test_superspace_hash_is_lazy_and_equals_the_field_hash():
    v = tensor(build_Sh(3, 1), k_super(1, 1))
    assert "_hash" not in vars(v)
    assert hash(v) == hash((v.basis,))
    assert "_hash" in vars(v)
    w = tensor(build_Sh(3, 1), k_super(1, 1))
    assert v == w and hash(v) == hash(w)
    assert len({v, w, k_super(1, 1)}) == 2


def test_columns_with_repeated_names_fail_the_name_check_on_first_read():
    written = []

    def names():
        written.append(1)
        return ["x", "x"]

    v = SuperSpace.from_columns([0, 1], [EVEN, ODD], names)
    # the grading queries read the columns alone
    assert (v.dim, v.dims_by_parity(), v.parities(), v.zdegs()) == (2, (1, 1), (EVEN, ODD), (0, 1))
    assert v.indices_of_parity(ODD) == (1,) and not written
    with pytest.raises(ValueError, match="basis names must be unique"):
        v.basis
    assert "basis" not in vars(v)
    with pytest.raises(ValueError, match="basis names must be unique"):
        SuperSpace((BasisElement("x", 0, EVEN), BasisElement("x", 1, ODD)))


def test_space_from_columns_equals_and_hashes_like_the_eager_space():
    eager = SuperSpace((BasisElement("a", 0, EVEN), BasisElement("b", 2, ODD)))
    lazy = SuperSpace.from_columns([0, 2], [EVEN, ODD], lambda: ["a", "b"])
    assert lazy == eager and eager == lazy and not (lazy != eager) and not (eager != lazy)
    assert hash(lazy) == hash(eager) == hash((eager.basis,))
    assert {eager: 1}[lazy] == {lazy: 1}[eager] == 1
    # a name, a Z-degree or a parity apart
    for zdegs, parities, names in (([0, 2], [EVEN, ODD], ["a", "c"]), ([0, 1], [EVEN, ODD], ["a", "b"]), ([0, 2], [EVEN, EVEN], ["a", "b"])):
        other = SuperSpace.from_columns(zdegs, parities, lambda names=names: names)
        assert other != eager and eager != other and other != lazy and lazy != other
    assert "basis" not in vars(lazy)
    assert lazy.basis == eager.basis and lazy.names() == ("a", "b")


def test_constructions_name_their_bases_on_first_read():
    sh = build_Sh(3, 1)
    v = k_super(1, 1)
    spaces = {
        "k": v,
        "sh": sh,
        "tensor": tensor(v, sh),
        "pi": parity_shift(v),
        "twist": frobenius_twist_space(sh, 1, 3),
        "dual": dual_space(sh),
        "hom": hom_space(v, k_super(1, 0)),
    }
    assert not any("basis" in vars(w) for w in spaces.values())
    got = {key: [(b.name, b.zdeg, b.parity) for b in w.basis] for key, w in spaces.items()}
    assert got == {
        "k": [("e0", 0, EVEN), ("o0", 0, ODD)],
        "sh": [("sh_0", 0, EVEN), ("sh_1", 1, EVEN), ("sh_2", 2, EVEN)],
        "tensor": [(f"{a}*sh_{i}", i, q) for a, q in (("e0", EVEN), ("o0", ODD)) for i in range(3)],
        "pi": [("pi(e0)", 0, ODD), ("pi(o0)", 0, EVEN)],
        "twist": [("sh_0^(1)", 0, EVEN), ("sh_1^(1)", 3, EVEN), ("sh_2^(1)", 6, EVEN)],
        "dual": [("sh_0^*", 0, EVEN), ("sh_1^*", -1, EVEN), ("sh_2^*", -2, EVEN)],
        "hom": [("E(0,0)", 0, EVEN), ("E(0,1)", 0, ODD)],
    }
