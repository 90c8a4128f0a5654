"""Self-test of the benchmark harness on a tiny input.

    python3 perfbench/selftest.py

Traces ``build_B(3, 1, k^{1|1})`` and checks that spans nest, that self
times sum to no more than the wall time, that the iterated-differential hit
ratio follows from the spans, that module aliases were traced and restored,
that a job whose output does not match its digest counts as failed, and that
the host probe samples while a job runs and stops when asked.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import hashlib
import random
import sys
from time import monotonic, perf_counter

import run


def check(cond, what):
    if not cond:
        print(f"FAIL  {what}")
        sys.exit(1)
    print(f"ok    {what}")


def test_tracer():
    import tracer
    from supertroesch import linalg, pcomplex, troesch
    from supertroesch.superspace import k_super

    orig_matmul = linalg.matmul
    tr = tracer.Tracer()
    with tr:
        check(pcomplex.matmul is linalg.matmul is troesch.matmul is not orig_matmul, "every matmul alias is wrapped")
        start = perf_counter()
        troesch.build_B(3, 1, k_super(1, 1), p=3)
        wall = perf_counter() - start
    check(pcomplex.matmul is linalg.matmul is troesch.matmul is orig_matmul, "aliases restored after the trace")
    spans = tr.take_spans()
    check(len(spans) > 0 and spans[0][0] == "troesch.build_B", "outermost span is build_B")

    nested = all(
        parent < k and spans[parent][2] <= start and end <= spans[parent][3]
        for k, (_, parent, start, end, _, _) in enumerate(spans)
        if parent >= 0
    )
    check(nested, "every span lies inside its parent")

    totals = tracer.summarise(spans)
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    check(0 < self_sum <= wall, f"self times sum to {self_sum:.6f} s <= wall {wall:.6f} s")
    check(totals.get("linalg.matmul.calls", 0) > 0, "matmul reached through the pcomplex alias is traced")

    with_matmul = {parent for name, parent, *_ in spans if name == tracer.MATMUL}
    diff_spans = [k for k, s in enumerate(spans) if s[0] == tracer.ITER_DIFF]
    hits = sum(k not in with_matmul for k in diff_spans)
    metrics = tracer.per_job_metrics(totals, 1)
    want = hits / len(diff_spans)
    got = metrics["pcomplex.iterated_diff.hit_ratio"]["value"]
    check(0 < hits < len(diff_spans) and got == want, f"hit ratio {got:.4f} = {hits}/{len(diff_spans)} iterated_diff calls without a matmul child")


def test_wrong_digest():
    import workloads

    out = b'{"ok":true}'
    job = workloads.Job("tiny", call=lambda: (True, out))
    wl = workloads.Workload("selftest", (job,), "")
    right = run.Runner(wl, {"selftest/tiny": hashlib.sha256(out).hexdigest()})
    wrong = run.Runner(wl, {"selftest/tiny": hashlib.sha256(b"other").hexdigest()})
    right.run_for(0, random.Random(0), trace=False)
    wrong.run_for(0, random.Random(0), trace=False)
    check(right.samples[0][3] and not wrong.samples[0][3], "a job whose output misses its digest counts as failed")


def test_host_probe():
    probe = run.HostProbe()
    try:
        start = monotonic()
        while monotonic() - start < 0.5:
            pass
        end = monotonic()
    finally:
        probe.stop()
    check(probe.proc.returncode == 0, "the probe exits when its stdin closes")
    times = [at for at, _ in probe.samples]
    inside = [x for at, x in probe.samples if start <= at <= end]
    check(len(inside) >= 10 and times == sorted(times), f"{len(inside)} probe samples, in order, during a 0.5 s job")
    mean = probe.loop_s(end, end - start)
    check(min(inside) <= mean <= max(inside), f"mean loop time {mean * 1e3:.3f} ms over the job's interval")
    check(probe.loop_s(start - 10, 0.0) == probe.samples[0][1], "an interval before every sample takes the nearest one")


def main():
    if run.prepare() is None:
        print(f"no supertroesch sources under {run.SRC}", file=sys.stderr)
        return 2
    test_tracer()
    test_wrong_digest()
    test_host_probe()
    return 0


if __name__ == "__main__":
    sys.exit(main())
