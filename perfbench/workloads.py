"""The named benchmark workloads and the jobs each one runs.

Each heavy workload is chosen so that one layer owns most of its time and a
change to that layer moves it, while another workload runs the same code
little or not at all and should not move:

- ``r2_concentration``: dense GF(3) matrix products and eliminations
  (``linalg``), with the convolution build (``troesch``) behind them.
- ``ring_p5``: many small formal compositions (``gamma.compose``) inside
  chain-map lifting (``resolutions``); no ``matmul`` at all.
- ``cli_docs``: the README commands, each in a fresh interpreter; start-up,
  ``cli`` and the per-call overhead of tiny r = 1 matrices.

Left out on purpose (they do not fit the run budget of the benchmark, or add
nothing):

- Pieces past the 2,048-column sparse storage boundary.  The smallest
  candidate, ``verify_theorem_B(9, 1, k^{3|0})`` with 2,810-dimensional
  pieces, runs for over 600 s; add it once the matrix kernel is faster.
- Acceptance criterion 3 at full size, ``verify_theorem_B(9, 2, k^{1|0})``
  (about 94 s), and the full ``ring_relation_report(5, 1)`` (61-82 s): one
  job must fit many times into a run.  The workloads above run the same
  code paths at sizes that do.
- ``verify_J_exactness(1, k^{1|1}, 1, p=5)`` (a few huge compositions plus
  ``apply_sym_block``, 7-9 s a job): four workloads fit the time budget of
  a benchmark round only with 20 s runs, and on a shared 2-vCPU x86_64 VM
  the medians of 20 s runs spread 8-19 % from seed to seed.  Three
  workloads allow 38 s runs.  Its layers (``build_J``,
  ``apply_sym_block``, ``tensor_with_identity``) are still traced on
  ``cli_docs`` through ``verify --suite all``.
- ``ring --p 3 --r 2``: it exits 2 on budget after 13 s.
- The tier-1 test suite (184 s): it only adds pytest overhead to these jobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from supertroesch import resolutions, troesch
from supertroesch.superspace import k_super


@dataclass(frozen=True)
class Job:
    """One unit of work.  A library job is a callable returning (ok, output
    bytes); a CLI job is the argument list of one command."""

    name: str
    call: object = None
    argv: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    setup: str  # code a fresh interpreter runs: imports plus input construction
    warmup: object = None  # tiny untimed job that touches the same code paths

    @property
    def is_cli(self):
        return bool(self.jobs[0].argv)


def canonical(obj):
    """Canonical JSON bytes of a report, for digests."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=True, separators=(",", ":")).encode()


def _verification(rep):
    return {"ok": rep.ok, "checks": rep.checks, "first_failure": rep.first_failure}


def r2_concentration():
    rep = troesch.verify_theorem_B(7, 2, k_super(1, 0), p=3)
    return rep.ok, canonical(_verification(rep))


def ring_p5():
    """Every p = 3 ring relation, then e(1)∘e(1) = e(2) at p = 5."""
    ok3, lines = resolutions.ring_relation_report(3, 1)
    e1 = resolutions.e_class(1)
    square = resolutions.YonedaCalculator(5, 1).product(e1, e1)
    ok5 = square == {resolutions.e_class(2): 1}
    terms = sorted([[c.source_parity, c.target_parity, c.degree], v] for c, v in square.items())
    return ok3 and ok5, canonical({"p3": [ok3, lines], "p5_e1_e1": terms})


def _warm_small():
    troesch.verify_theorem_B(3, 1, k_super(1, 1), p=3)
    resolutions.verify_J_exactness(1, k_super(1, 1), 1, p=3)
    return True, b""


README_COMMANDS = (
    ("cohomology", "--p", "3", "--r", "1", "--n", "1", "--space", "k^{1|1}"),
    ("decompose", "--p", "3", "--r", "1", "--n", "2", "--space", "k^{0|1}", "--format", "json"),
    ("ext-table", "--p", "3", "--r", "2", "--max-deg", "36", "--source-parity", "1", "--target-parity", "0"),
    ("ring", "--p", "3", "--r", "1"),
    ("verify", "--p", "3", "--suite", "kunneth"),
    ("verify", "--p", "3", "--suite", "all"),
)

_LIB_SETUP = (
    "import supertroesch.resolutions as R, supertroesch.troesch as T\n"
    "from supertroesch.superspace import k_super\n"
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "r2_concentration",
            (Job("verify_theorem_B(7,2,k^{1|0},p=3)", r2_concentration),),
            _LIB_SETUP + "u = k_super(1, 0)\n",
            _warm_small,
        ),
        Workload(
            "ring_p5",
            (Job("ring_relation_report(3,1)+e(1)e(1)@p5", ring_p5),),
            _LIB_SETUP + "e1 = R.e_class(1)\ncalc = R.YonedaCalculator(5, 1)\n",
            _warm_small,
        ),
        Workload(
            "cli_docs",
            tuple(Job(" ".join(argv), argv=argv) for argv in README_COMMANDS),
            "import supertroesch.cli as cli\n"
            f"for argv in {README_COMMANDS!r}:\n"
            "    cli.build_parser().parse_args(argv)\n",
        ),
    )
}
