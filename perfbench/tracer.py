"""Per-layer tracing of supertroesch from outside the package.

The tracer wraps the public functions of each layer module and records one
span per call: name, parent span, start and end.  Nothing under ``src/`` is
edited; instead every module attribute that refers to a traced function is
replaced, so that ``from .linalg import matmul`` aliases in ``pcomplex``,
``troesch`` and the rest are traced as well as the defining module.  Methods
are patched on their class.

Spans stay in memory until ``summarise`` folds them into per-layer totals:
call counts, self time (a span's duration minus the time its direct child
spans cover), work counts taken from the arguments, and two ratios.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path in that module, metric prefix).  Module-level
# ``rank``/``solve``/... in linalg only forward to the FpMatrix methods, so
# the methods are the traced boundary.
TARGETS = [
    ("linalg", "matmul", "linalg.matmul"),
    ("linalg", "FpMatrix.rank", "linalg.rank"),
    ("linalg", "FpMatrix.solve", "linalg.solve"),
    ("linalg", "FpMatrix.kernel_basis", "linalg.kernel_basis"),
    ("linalg", "FpMatrix.image_basis", "linalg.image_basis"),
    ("powers", "power_basis", "powers.power_basis"),
    ("troesch", "build_B", "troesch.build_B"),
    ("troesch", "convolution_apply", "troesch.convolution_apply"),
    ("troesch", "eta_images", "troesch.eta_images"),
    ("pcomplex", "PComplex.iterated_diff", "pcomplex.iterated_diff"),
    ("pcomplex", "PComplex.rank_of_power", "pcomplex.rank_of_power"),
    ("pcomplex", "PComplex.validate_p_differential", "pcomplex.validate_p_differential"),
    ("pcomplex", "cohomology", "pcomplex.cohomology"),
    ("pcomplex", "decompose_cyclic", "pcomplex.decompose_cyclic"),
    ("pcomplex", "ChainComplex.cohomology_dims", "pcomplex.ChainComplex.cohomology_dims"),
    ("gamma", "compose", "gamma.compose"),
    ("gamma", "apply_sym_block", "gamma.apply_sym_block"),
    ("gamma", "tensor_with_identity", "gamma.tensor_with_identity"),
    ("gamma", "apply_frobenius", "gamma.apply_frobenius"),
    ("gamma", "monomials_with_bigrade", "gamma.monomials_with_bigrade"),
    ("resolutions", "YonedaCalculator.lift", "resolutions.YonedaCalculator.lift"),
    ("resolutions", "YonedaCalculator.product", "resolutions.YonedaCalculator.product"),
    ("resolutions", "build_J", "resolutions.build_J"),
    ("cli", "main", "cli.main"),
]

PACKAGE = "supertroesch"
MATMUL = "linalg.matmul"
SOLVE = "linalg.solve"
ITER_DIFF = "pcomplex.iterated_diff"
LIFT = "resolutions.YonedaCalculator.lift"

# Work counts taken from a call's arguments and result.  Bytes assume dense
# int64 operands and result; they are computed from shapes, not measured.
WORK = {
    MATMUL: lambda args, out: {
        "mac": args[0].rows * args[0].cols * args[1].cols,
        "bytes": 8 * (args[0].rows * args[0].cols + args[1].rows * args[1].cols + out.rows * out.cols),
    },
    "linalg.rank": lambda args, out: {"cells": args[0].rows * args[0].cols},
    "powers.power_basis": lambda args, out: {"monomials": len(out)},
    "gamma.compose": lambda args, out: {
        "terms_in": len(args[0].terms) + len(args[1].terms),
        "terms_out": len(out.terms),
    },
}

# (metric, unit, better) for every per-layer figure a trace reports.
PER_LAYER = (
    [(f"{name}.{stat}", unit, "lower") for _, _, name in TARGETS for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("linalg.matmul.mac", "count", "lower"),
        ("linalg.matmul.bytes", "B_computed", "lower"),
        ("linalg.rank.cells", "count", "lower"),
        ("powers.power_basis.monomials", "count", "lower"),
        ("gamma.compose.terms_in", "count", "lower"),
        ("gamma.compose.terms_out", "count", "lower"),
        ("pcomplex.iterated_diff.hit_ratio", "ratio", "higher"),
        ("resolutions.YonedaCalculator.lift.steps_solved", "count", "lower"),
        ("resolutions.YonedaCalculator.lift.steps_needed", "count", "lower"),
        ("resolutions.YonedaCalculator.lift.useful_ratio", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def _resolve(module, path):
    owner = module
    *outer, leaf = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, work dict or None, lift key]
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            if name == LIFT:
                # (calculator, class) identifies the chain map being lifted;
                # holding the calculator keeps its id from being reused
                rec[5] = (args[0], args[1])
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if work is not None:
                rec[4] = work(args, out)
            return out

        return traced

    def install(self):
        """Patch every traced function and every alias of it in the package."""
        layers = {mod: importlib.import_module(f"{PACKAGE}.{mod}") for mod, _, _ in TARGETS}
        modules = [m for n, m in list(sys.modules.items()) if m is not None and n.split(".")[0] == PACKAGE]
        for mod_name, path, name in TARGETS:
            owner, leaf = _resolve(layers[mod_name], path)
            if isinstance(owner, type):
                orig = owner.__dict__[leaf]
                self._patch(owner, leaf, self._wrap(name, orig))
                continue
            orig = getattr(owner, leaf)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take_spans(self):
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarise(spans):
    """Per-layer totals of one list of spans (see module docstring)."""
    out = defaultdict(float)
    child_time = [0.0] * len(spans)
    matmul_child = [False] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == MATMUL:
                matmul_child[parent] = True
    solves_under = defaultdict(int)  # lift span index -> solve spans below it
    for k, (name, parent, start, end, work, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[k]
        for stat, v in (work or {}).items():
            out[f"{name}.{stat}"] += v
        if name == ITER_DIFF and not matmul_child[k]:
            out[f"{ITER_DIFF}.hits"] += 1
        if name == SOLVE:
            anc = parent
            while anc >= 0 and spans[anc][0] != LIFT:
                anc = spans[anc][1]
            if anc >= 0:
                solves_under[anc] += 1
    # a lift that solves k steps of a chain map already lifted through fewer
    # steps repeats that work: the steps needed per chain map are the most
    # any one lift of it solved
    needed = {}
    for anc, count in solves_under.items():
        key = spans[anc][5]
        needed[key] = max(needed.get(key, 0), count)
    out[f"{LIFT}.steps_solved"] = float(sum(solves_under.values()))
    out[f"{LIFT}.steps_needed"] = float(sum(needed.values()))
    return dict(out)


def per_job_metrics(totals, jobs):
    """Per-layer metrics per traced job from summed totals of ``jobs`` jobs."""
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_frac":
            continue  # needs the untraced run; the caller adds it
        if name == f"{ITER_DIFF}.hit_ratio":
            calls = totals.get(f"{ITER_DIFF}.calls", 0.0)
            value = totals.get(f"{ITER_DIFF}.hits", 0.0) / calls if calls else 0.0
        elif name == f"{LIFT}.useful_ratio":
            solved = totals.get(f"{LIFT}.steps_solved", 0.0)
            value = totals.get(f"{LIFT}.steps_needed", 0.0) / solved if solved else 0.0
        else:
            value = totals.get(name, 0.0) / jobs
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def add_totals(acc, totals):
    for k, v in totals.items():
        acc[k] = acc.get(k, 0.0) + v
