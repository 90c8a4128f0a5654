"""Golden outputs: the CLI's stdout must stay byte-identical.

Each fixture in ``tests/golden/<name>.out`` is the UTF-8 stdout of one
command, run through ``cli.main`` in-process.  The README commands are
locked in their documented form and, where the README shows text output,
also with ``--format json``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from supertroesch import cli

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
    "cohomology_p5_k11": "cohomology --p 5 --n 1 --space k^{1|1}",
    "decompose_p5_k11": "decompose --p 5 --n 1 --space k^{1|1}",
    "cohomology_p3_r2_k01": "cohomology --p 3 --r 2 --n 1 --space k^{0|1}",
    "ext_table_p5": "ext-table --p 5 --max-deg 20",
    "verify_p5_kunneth": "verify --p 5 --suite kunneth",
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
