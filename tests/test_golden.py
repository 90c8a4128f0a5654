"""Golden outputs: the CLI's stdout must stay byte-identical.

Each fixture in ``tests/golden/<name>.out`` is the UTF-8 stdout of one
command, run through ``cli.main`` in-process.  The README commands are
locked in their documented form, with ``--format csv``, and, where the
README shows text output, also with ``--format json``.  The matrices behind
the printed ranks are locked separately, by digest.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from supertroesch import cli
from supertroesch.gamma import tensor_with_identity
from supertroesch.resolutions import YonedaCalculator, build_J, c_class, d_element, e_class, solve_epsilon
from supertroesch.pcomplex import decompose_cyclic
from supertroesch.superspace import EVEN, ODD, k_super
from supertroesch.troesch import build_B, build_B_bar, eta_images, verify_theorem_B
from oracles import d_power_element
from test_troesch import _keep_built

GOLDEN = Path(__file__).parent / "golden"

README = {
    "readme_cohomology": "cohomology --p 3 --r 1 --n 1 --space k^{1|1}",
    "readme_decompose": "decompose --p 3 --r 1 --n 2 --space k^{0|1} --format json",
    "readme_ext_table": "ext-table --p 3 --r 2 --max-deg 36 --source-parity 1 --target-parity 0",
    "readme_ring": "ring --p 3 --r 1",
    "readme_verify_kunneth": "verify --p 3 --suite kunneth",
    "readme_verify_all": "verify --p 3 --suite all",
}

CASES = {
    **README,
    **{f"{name}_json": f"{cmd} --format json" for name, cmd in README.items() if "--format" not in cmd},
    **{
        f"{name}_csv": f"{README[name].split(' --format')[0]} --format csv"
        for name in ("readme_cohomology", "readme_decompose", "readme_ext_table", "readme_ring", "readme_verify_kunneth")
    },
    "cohomology_p5_k11": "cohomology --p 5 --n 1 --space k^{1|1}",
    "decompose_p5_k11": "decompose --p 5 --n 1 --space k^{1|1}",
    "cohomology_p3_r2_k01": "cohomology --p 3 --r 2 --n 1 --space k^{0|1}",
    "ext_table_p5": "ext-table --p 5 --max-deg 20",
    "verify_p5_kunneth": "verify --p 5 --suite kunneth",
    "verify_p5_epsilon": "verify --p 5 --suite epsilon",
    "verify_p5_jexact": "verify --p 5 --suite jexact",
    "verify_p5_vanishing": "verify --p 5 --suite vanishing",
    "verify_p5_corollaryT": "verify --p 5 --suite corollaryT",
    "verify_p5_ext": "verify --p 5 --suite ext",
    # exit 0 means every relation holds; the fixture carries "e(1)^5 = +1",
    # the p-th power sign (-1)^{p(p-1)/2} at p = 5
    "ring_p5": "ring --p 5",
}


def test_every_fixture_has_a_case():
    assert sorted(f.stem for f in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        cli.main(CASES[name].split())
    assert exc.value.code == 0
    assert buf.getvalue().encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def _matrices_digest(diffs):
    """sha256 over (degree, shape) and the int64 bytes of every matrix."""
    h = hashlib.sha256()
    for z in sorted(diffs):
        m = diffs[z]
        h.update(repr((z, m.shape)).encode())
        h.update(np.ascontiguousarray(m.data, dtype=np.int64).tobytes())
    return h.hexdigest()


def _elimination_digest(cx):
    """sha256 over the kernel basis, image basis (their int64 bytes) and one
    particular solution of every nonempty parity block of d and d^(p-1)."""
    h = hashlib.sha256()
    for i in cx.degrees():
        for m in (1, cx.p - 1):
            for parity in (EVEN, ODD):
                rows = cx.term(i + m * cx.alpha).indices_of_parity(parity)
                cols = cx.term(i).indices_of_parity(parity)
                if not (rows and cols):
                    continue
                block = cx.iterated_diff(i, m).submatrix(rows, cols)
                h.update(repr((i, m, parity, block.shape)).encode())
                h.update(np.ascontiguousarray(block.kernel_basis().data, dtype=np.int64).tobytes())
                h.update(np.ascontiguousarray(block.image_basis().data, dtype=np.int64).tobytes())
                h.update(repr(block.solve(block.apply([1] * len(cols)))).encode())
    return h.hexdigest()


def _terms_digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _epsilon_digest(r, p):
    return _terms_digest([(z, sorted(el.terms.items())) for z, el in sorted(solve_epsilon(r, p).items())])


def _lift_digest(cls, up_to, p=3):
    """Every block of a fresh r = 1 chain-map lift, degree by degree."""
    blocks = YonedaCalculator(p, 1).lift(cls, up_to)
    return _terms_digest(
        [(m, sorted((key, sorted(el.terms.items())) for key, el in blocks[m].items())) for m in range(up_to + 1)]
    )


# the matrices and terms behind the printed ranks: a wrong sign or entry at
# any fill site changes one of these even where the stdout stays the same
MATRIX_DIGESTS = {
    "B_9(1) k^{1|1}": (
        lambda: _matrices_digest(build_B(9, 1, k_super(1, 1), 3).complex.diffs),
        "be25547ea985c0fea856a5d5935a7758c6eb8b0e5b8139ae2fb44f6333a7186c",
    ),
    "B_7(2) k^{1|0}": (
        lambda: _matrices_digest(build_B(7, 2, k_super(1, 0), 3).complex.diffs),
        "40070925effb6d16140373f74bc5c5834b20616a8d773987c59b3431d3c659c4",
    ),
    # odd generators (Koszul signs, the exponent-1 cut) and p = 5 binomials
    "B_6(1) k^{2|1}": (
        lambda: _matrices_digest(build_B(6, 1, k_super(2, 1), 3).complex.diffs),
        "f2dbcb6fc1374dd24747d793f7fc9471ebb55bcbc2068229fe88469725e2b56a",
    ),
    "B_5(1) k^{1|2} p=5": (
        lambda: _matrices_digest(build_B(5, 1, k_super(1, 2), 5).complex.diffs),
        "cab943da92ec134781a2dbe007ec468fe589fd7fd45f9c9cc3aba3cee88c64a3",
    ),
    "Bbar_5(1) k^{2|1} p=5": (
        lambda: _matrices_digest(build_B_bar(5, 1, k_super(2, 1), 5).complex.diffs),
        "6c2b7b1ea8277c32262fc9fb629e7695a1587a0acc3234f95fdaf32b6472ac43",
    ),
    "B_5(2) k^{0|2}": (
        lambda: _matrices_digest(build_B(5, 2, k_super(0, 2), 3).complex.diffs),
        "e3a4f4d8defe31c3319c33011be5e495e8675dfe074884bde30f200d812aa87e",
    ),
    # pivots, kernels and particular solutions on real pieces, mixed parity
    # and p = 5 included: 105 and 74 parity blocks
    "eliminate B_7(2) k^{1|0}": (
        lambda: _elimination_digest(build_B(7, 2, k_super(1, 0), 3).complex),
        "d1a88725289baa055ce7e292942b5d5ccd49367204923e988c76cf1da5f987ac",
    ),
    "eliminate B_5(1) k^{1|2} p=5": (
        lambda: _elimination_digest(build_B(5, 1, k_super(1, 2), 5).complex),
        "4e037fac73aa24a4dc8037cf7824274f2363b94b340a882bc39cf11f5cda6920",
    ),
    "J(1) k^{1|1}": (
        lambda: _matrices_digest(build_J(1, k_super(1, 1), 1, 3).diffs),
        "8ccf3c9b3db154dc658e6c83e2fcf6a0de335c4483ae253c6aef12a833e48a50",
    ),
    "d (x) 1_{k^{1|1}}": (
        lambda: _terms_digest(sorted(tensor_with_identity(d_element(3, 1), k_super(1, 1)).terms.items())),
        "1efc381c5f357f35204481e011214a1b1c1db8f9304a7f300b6971bda2f3d19d",
    ),
    "eta_images(1, 1, k^{1|1})": (
        lambda: _terms_digest([(sorted(c.items()), z, par) for c, z, par in eta_images(1, 1, k_super(1, 1), 3)]),
        "74458847fe6ee2bdefc59dd7a3ef9bfc2c4a6573f24957c9785f889c4ece82da",
    ),
    "solve_epsilon(1, 3)": (
        lambda: _epsilon_digest(1, 3),
        "3c1b19742d920a8faa9081323f09ab7c40ef8749d5c7b8e40ce8ceca3bf5cd12",
    ),
    "solve_epsilon(1, 5)": (
        lambda: _epsilon_digest(1, 5),
        "7c2fd72ff29bae064ed858542d79dbe32d6a653df13533b07b721417de199be2",
    ),
    # the whole d^4 at p = 5 over Sh and over its parity shift, 1,185 terms
    # each; the two digests agree because the shift keeps every unit index
    # and parity
    "d(5, 1)^4": (
        lambda: _terms_digest(sorted(d_power_element(5, 1, 4).terms.items())),
        "e2f08debe02ab5dc20a0265427e9269c73c009504b0a0818d3dd04f747ea0ef5",
    ),
    "dbar(5, 1)^4": (
        lambda: _terms_digest(sorted(d_power_element(5, 1, 4, barred=True).terms.items())),
        "e2f08debe02ab5dc20a0265427e9269c73c009504b0a0818d3dd04f747ea0ef5",
    ),
    "lift(e(1), 4)": (
        lambda: _lift_digest(e_class(1), 4),
        "08077b8289a83b5295591beb0c7f19f049042cebf912477532116c93a47db45a",
    ),
    "lift(c, 3)": (
        lambda: _lift_digest(c_class(3, 1), 3),
        "1621a3fd7627df8e9fca876d81eec92a2923640eba38fcd39ed65d338204109d",
    ),
    "lift(cΠ, 2)": (
        lambda: _lift_digest(c_class(3, 1, conjugate=True), 2),
        "d1d490e92192074b62668b0d88e49f810273858349daf414d680003c1c6caec4",
    ),
    "lift(eΠ(1), 3)": (
        lambda: _lift_digest(e_class(1, source_parity=1), 3),
        "a96fbc2026154c1b0d5f5f279917368b28a57b0e5319f4bd7e6e4eea1e27a3e7",
    ),
    # p = 5 chain-map blocks: multinomials and odd composites mod 5
    "lift(e(1), 2) p=5": (
        lambda: _lift_digest(e_class(1), 2, p=5),
        "2b15e73d818765ed81f0208c3b30e141cfa193bb2bb41e74e1113e22e8c80fed",
    ),
    "lift(c, 2) p=5": (
        lambda: _lift_digest(c_class(5, 1), 2, p=5),
        "a0179a420c834ed326b2e0f74de690366b72e94f5a8122cad87dcaecdfd03a40",
    ),
}


@pytest.mark.parametrize("name", sorted(MATRIX_DIGESTS))
def test_matrix_digest(name):
    compute, want = MATRIX_DIGESTS[name]
    assert compute() == want


def _pivot_digest(cx):
    """sha256 over the sorted (m, degree, parity, pivot columns) of every
    block whose rank the complex has cached."""
    items = sorted((m, i, parity, pivots) for m, blocks in cx._rank_cache.items() for (i, parity), pivots in blocks.items())
    return len(items), hashlib.sha256(json.dumps(items).encode()).hexdigest()


def _theorem_B_pivots(monkeypatch):
    built = _keep_built(monkeypatch)
    assert verify_theorem_B(7, 2, k_super(1, 0), 3).ok
    return _pivot_digest(built[0].complex)


def _decomposed_pivots(n, u, p):
    cx = build_B(n, 1, u, p).complex
    decompose_cyclic(cx)
    return _pivot_digest(cx)


# every cached pivot list of d^1 .. d^(p-1), recorded before the elimination
# kernel stacked its arrays unpadded and before d^m was formed on the pivot
# columns of d^(m-1) only
PIVOT_DIGESTS = {
    "verify_theorem_B(7, 2, k^{1|0})": (
        _theorem_B_pivots,
        (105, "a4856f595d741fdfd6a62b90ef5f4a855b50f0777859420e572da6efd4a55ed9"),
    ),
    "B_4(1) k^{1|1}": (
        lambda monkeypatch: _decomposed_pivots(4, k_super(1, 1), 3),
        (30, "9ec54c1460ccecb2f092e83fa1ffb43e648ad6a2feba15645814fe3501be1c4f"),
    ),
    "B_5(1) k^{1|2} p=5": (
        lambda monkeypatch: _decomposed_pivots(5, k_super(1, 2), 5),
        (148, "0e149e2a3777caf76437f88ecb26412a41f288c0a1dc55ebb058bb17523fcc59"),
    ),
}


@pytest.mark.parametrize("name", sorted(PIVOT_DIGESTS))
def test_pivot_digest(name, monkeypatch):
    compute, want = PIVOT_DIGESTS[name]
    assert compute(monkeypatch) == want
