"""Batch command-line surface: build complexes, emit cohomology, cyclic
decomposition and Ext tables, verify the named suites, compute ring
relations.  Identical configurations produce byte-identical output."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetExceededError
from .linalg import check_prime
from .pcomplex import cohomology_table, decompose_cyclic, kunneth_check
from .superspace import k_super, parse_space
from .troesch import (
    DEFAULT_BUDGET,
    build_B,
    verify_corollary_T,
    verify_theorem_B,
)
from .resolutions import (
    check_epsilon_chain,
    check_pascal,
    epsilon_prime_1,
    ext_table,
    ring_relation_report,
    verify_J_exactness,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


def _budget(args):
    """The per-piece dimension cap from --budget, else SUPERTROESCH_BUDGET,
    else the default; anything but a positive integer is a usage error."""
    if args.budget is not None:
        source, text = "--budget", args.budget
    else:
        source, text = "SUPERTROESCH_BUDGET", os.environ.get("SUPERTROESCH_BUDGET")
        if not text:
            return DEFAULT_BUDGET
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return value


def _emit(fmt, payload, header, rows, lines):
    """Write one command's result in the chosen format: the JSON payload with
    the schema version, the CSV header and rows, or the text lines."""
    if fmt == "json":
        print(json.dumps({**payload, "schema": 1}, sort_keys=True, ensure_ascii=False))
    elif fmt == "csv":
        for row in (header, *rows):
            print(",".join(str(x) for x in row))
    else:
        for line in lines:
            print(line)


def _power_complex(args):
    """B_n(r) on the --space test space and its cyclic decomposition.

    decompose_cyclic validates after the ranks, so d is applied only to the
    pivot columns of d^(p-1)."""
    u = parse_space(args.space, args.p, args.budget)
    data = build_B(args.n * args.p ** args.r, args.r, u, args.p, args.budget, validate=False)
    return data.complex, decompose_cyclic(data.complex)


def cmd_cohomology(args):
    cx, dec = _power_complex(args)
    table = cohomology_table(cx)
    normal = dec.is_normal()
    header = ("s", "degree", "even", "odd")
    rows = [
        (s, i, even, odd)
        for s in sorted(table.rows)
        for i, (even, odd) in sorted(table.rows[s].items())
        if (even, odd) != (0, 0)
    ]
    tables = {str(s): [] for s in table.rows}
    for row in rows:
        tables[str(row[0])].append(dict(zip(header[1:], row[1:])))
    payload = {
        "p": table.p,
        "alpha": table.alpha,
        "tables": tables,
        "normal": normal,
        "n": args.n,
        "r": args.r,
        "space": args.space,
    }
    lines = [f"H_[{s}]^{i} = ({even}, {odd})" for s, i, even, odd in rows]
    lines.append(f"normal: {normal}")
    _emit(args.format, payload, header, rows, lines)
    return EXIT_OK


def cmd_decompose(args):
    _, dec = _power_complex(args)
    normal = dec.is_normal()
    header = ("shift", "length", "parity", "multiplicity")
    rows = [(s, ln, par, m) for (s, ln, par), m in sorted(dec.blocks.items())]
    payload = {"p": dec.p, "alpha": dec.alpha, "blocks": [dict(zip(header, row)) for row in rows], "normal": normal}
    lines = [f"block shift={s} length={ln} parity={par} x{m}" for s, ln, par, m in rows]
    lines.append(f"normal: {normal}")
    _emit(args.format, payload, header, rows, lines)
    return EXIT_OK


def cmd_ext_table(args):
    table = ext_table(
        args.r, args.max_deg, args.p, args.source_parity, args.target_parity, args.budget
    )
    header = ("s", "dim")
    rows = [(s, table.dims.get(s, 0)) for s in range(table.max_degree + 1)]
    payload = {
        "p": table.p,
        "r": table.r,
        "source_parity": table.source_parity,
        "target_parity": table.target_parity,
        "dims": [dict(zip(header, row)) for row in rows],
        "classes": [{"s": s, "name": name} for s, name in table.classes],
    }
    lines = [f"Ext^{s} = {dim}" for s, dim in rows] + [f"class @{s}: {name}" for s, name in table.classes]
    _emit(args.format, payload, header, rows, lines)
    return EXIT_OK


def cmd_ring(args):
    try:
        ok, lines = ring_relation_report(args.p, args.r, args.budget)
    except BudgetExceededError as exc:
        # the general-r relations need lifting data that is only affordable
        # at r = 1; record what was not computed before signalling the limit
        if args.r > 1:
            print("mu: not computed (budget)")
        print(f"budget exceeded: {exc}", file=sys.stderr)
        sys.exit(EXIT_BUDGET)
    payload = {
        "p": args.p,
        "r": args.r,
        "relations": [
            {"relation": name, "holds": good, "computed": detail} for name, good, detail in lines
        ],
    }
    text = [f"{'PASS' if good else 'FAIL'}  {name}   [{detail}]" for name, good, detail in lines]
    if args.r > 1:
        payload["mu"] = None
        payload["note"] = "mu (top p-th power scalar) not computed: splice solve above budget"
        text.append("mu: not computed (budget)")
    rows = [(name, good) for name, good, _ in lines]
    _emit(args.format, payload, ("relation", "holds"), rows, text)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _suite_kunneth(args):
    p = args.p
    specs = [(1, "k^{1|0}"), (1, "k^{0|1}"), (3, "k^{0|1}")]
    built = [build_B(n, 1, parse_space(s, p, args.budget), p, args.budget).complex for n, s in specs]
    results = []
    for i, c1 in enumerate(built):
        for j, c2 in enumerate(built):
            ok, msg = kunneth_check(c1, c2)
            results.append((f"kunneth {specs[i]} x {specs[j]}", ok, msg))
    return results


def _suite_theorem_b(args):
    p = args.p
    results = []
    for n in (1, 2, 3):
        for s in ("k^{1|0}", "k^{0|1}", "k^{1|1}"):
            rep = verify_theorem_B(n * p, 1, parse_space(s, p, args.budget), p, args.budget)
            results.append((f"theoremB n={n} U={s}", rep.ok, rep.first_failure or ""))
    return results


def _suite_vanishing(args):
    p = args.p
    results = []
    for n in range(1, 6):
        if n % p == 0:
            continue
        for s in ("k^{1|0}", "k^{0|1}", "k^{1|1}"):
            data = build_B(n, 1, parse_space(s, p, args.budget), p, args.budget)
            table = cohomology_table(data.complex)
            results.append((f"vanishing n={n} U={s}", table.is_zero(), ""))
    return results


def _suite_corollary_t(args):
    p = args.p
    results = []
    for n in (1, 2):
        rep = verify_corollary_T(n, 1, k_super(1, 1), p, args.budget)
        results.append((f"corollaryT n={n}", rep.ok, rep.first_failure or ""))
    return results


def _suite_epsilon(args):
    p = args.p
    results = [
        (f"pascal p={p}", check_pascal(p), ""),
        (f"epsilon chain p={p}", check_epsilon_chain(p), ""),
    ]
    # J reads one component per contraction degree p-1 .. 2p-2, and each is nonzero
    comps = epsilon_prime_1(p)
    results.append((f"epsilon components present p={p}", not any(el.is_zero() for el in comps.values()), ""))
    return results


def _suite_jexact(args):
    p = args.p
    rep = verify_J_exactness(1, k_super(1, 1), 2, p, args.budget)
    return [(f"J(1) exactness p={p}", rep.ok, rep.summary())]


def _suite_ext(args):
    results = []
    for r in (1, 2):
        for sp in (0, 1):
            for tp in (0, 1):
                try:
                    ext_table(r, 4 * args.p ** r, args.p, sp, tp, args.budget)
                    results.append((f"ext r={r} ({sp}->{tp})", True, ""))
                except AssertionError as exc:
                    results.append((f"ext r={r} ({sp}->{tp})", False, str(exc)))
    return results


def _suite_ring(args):
    ok, lines = ring_relation_report(args.p, 1, args.budget)
    return [(name, good, detail) for name, good, detail in lines]


SUITES = {
    "kunneth": _suite_kunneth,
    "theoremB": _suite_theorem_b,
    "vanishing": _suite_vanishing,
    "corollaryT": _suite_corollary_t,
    "epsilon": _suite_epsilon,
    "jexact": _suite_jexact,
    "ext": _suite_ext,
    "ring": _suite_ring,
}


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    rows = []
    for name in names:
        for item, ok, detail in SUITES[name](args):
            all_ok &= ok
            rows.append((item, ok, detail))
    header = ("check", "pass")
    checks = [(item, ok) for item, ok, _ in rows]
    payload = {"p": args.p, "results": [dict(zip(header, check)) for check in checks]}
    text = [f"{'PASS' if ok else 'FAIL'}  {item}" + (f"  ({d})" if d and not ok else "") for item, ok, d in rows]
    text.append("PASS" if all_ok else "FAIL")
    _emit(args.format, payload, header, checks, text)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def build_parser():
    ap = argparse.ArgumentParser(
        prog="supertroesch",
        description="Exact GF(p) computations with p-complexes of symmetric powers on superspaces",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--budget", default=None, help="max dimension of a graded piece (a positive integer)")
    with_r = argparse.ArgumentParser(add_help=False)
    with_r.add_argument("--r", type=int, default=1)
    power = argparse.ArgumentParser(add_help=False)
    power.add_argument("--n", type=int, default=1, help="twisted symmetric power index")
    power.add_argument("--space", required=True, help="test space: k^{m|n}, Sh(r), PiSh(r)")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cohomology", parents=[common, with_r, power], help="cohomology table and normality of the power complex")
    c.set_defaults(func=cmd_cohomology)

    d = sub.add_parser("decompose", parents=[common, with_r, power], help="cyclic decomposition of the power complex")
    d.set_defaults(func=cmd_decompose)

    e = sub.add_parser("ext-table", parents=[common, with_r], help="derived Hom dimensions between twist functors")
    e.add_argument("--max-deg", type=int, required=True)
    e.add_argument("--source-parity", type=int, choices=(0, 1), default=0)
    e.add_argument("--target-parity", type=int, choices=(0, 1), default=0)
    e.set_defaults(func=cmd_ext_table)

    g = sub.add_parser("ring", parents=[common, with_r], help="multiplicative relations of the Ext generators")
    g.set_defaults(func=cmd_ring)

    v = sub.add_parser("verify", parents=[common], help="run a verification suite")
    v.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        if exc.code not in (0, None):
            sys.exit(EXIT_USAGE)
        raise
    try:
        check_prime(args.p)
        args.budget = _budget(args)
        code = args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        sys.exit(EXIT_BUDGET)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    sys.exit(code)


if __name__ == "__main__":
    main()
