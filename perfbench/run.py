"""Benchmark of supertroesch: runs one named workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Jobs run one at a time in a closed loop with a single client:
whole passes over the workload's jobs repeat until ``--seconds`` have gone.
Library jobs run in this process with every ``lru_cache`` of the package
cleared before each job, so each job pays what a fresh call pays; CLI jobs
each start a fresh interpreter.  Every job's output is checked against the
sha256 digest recorded in ``digests.json``.

The benchmark pins itself, its children and ``hostprobe.py`` to one CPU.  With
``--trace 0`` the probe samples that CPU's speed all through the run, and
every job and set-up time is scaled to the probe's nominal speed over that
job's own interval: on a shared host the other hardware thread of the core
slows the same code by up to half, for seconds to minutes at a time, and the
raw medians of 38 s runs spread up to 16 % from seed to seed, the scaled ones
under 5 %.  The raw medians are on the details line.  The set-up samples are
spread evenly over the same ``--seconds``, between jobs.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and the last line
reports the per-layer metrics of the traced jobs (see ``tracer.py``).  The
line before it records the environment and the per-run details.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import random
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter, process_time

import hostprobe
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 30
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TRACE_MARK = "perfbench-trace "


def nproc():
    return len(os.sched_getaffinity(0))


def prepare():
    """Cap BLAS/OpenMP threads at nproc and put ``src/`` first on the path.

    Must run before numpy is imported; children inherit the environment.
    Returns the thread settings, or None when the sources are missing.
    """
    if not (SRC / "supertroesch" / "__init__.py").is_file():
        return None
    cap = nproc()
    for var in THREAD_VARS:
        try:
            want = min(int(os.environ.get(var, cap)), cap)
        except ValueError:
            want = cap
        os.environ[var] = str(max(want, 1))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(threads):
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        config = {}
    return {
        "nproc": nproc(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}),
        "threads": threads,
    }


def run_child(argv):
    """Run a command to completion from the checkout root.

    Returns (exit code, stdout, stderr, wall s, user+sys s, peak RSS MB).
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    cpu = usage.ru_utime + usage.ru_stime
    return (
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        wall,
        cpu,
        usage.ru_maxrss / 1024,
    )


def setup_sample(workload):
    """Wall time of one fresh interpreter running the workload's set-up."""
    code, _, err, wall, _, _ = run_child([sys.executable, "-c", workload.setup])
    if code != 0:
        raise RuntimeError(f"set-up of {workload.name} exited {code}: {err.decode(errors='replace')}")
    return wall


class Runner:
    """Runs jobs, checks their outputs and keeps per-job samples."""

    def __init__(self, workload, digests):
        self.workload = workload
        self.digests = digests
        self.caches = _package_caches()
        self.samples = []  # (job name, wall s, cpu s, passed, traced, monotonic end)
        self.setups = []  # (wall s, monotonic end)
        self.totals = {}
        self.traced_jobs = 0
        self.peak_child_mb = 0.0

    def run_job(self, job, traced=False):
        if job.argv:
            passed, wall, cpu = self._run_cli(job, traced)
        else:
            passed, wall, cpu = self._run_library(job, traced)
        self.samples.append((job.name, wall, cpu, passed, traced, monotonic()))
        if traced:
            self.traced_jobs += 1

    def _check(self, job, ok, out):
        want = self.digests.get(f"{self.workload.name}/{job.name}")
        got = hashlib.sha256(out).hexdigest()
        if ok and got != want:
            print(f"digest mismatch in {job.name}: {got} != {want}", file=sys.stderr)
        return ok and got == want

    def _run_library(self, job, traced):
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        tr = tracer.Tracer() if traced else None
        if tr:
            tr.install()
        start, cpu0 = perf_counter(), process_time()
        try:
            ok, out = job.call()
        except Exception:  # a job that raises counts as failed; keep running
            traceback.print_exc()
            ok, out = False, b""
        finally:
            wall, cpu = perf_counter() - start, process_time() - cpu0
            if tr:
                tr.uninstall()
        if tr:
            tracer.add_totals(self.totals, tracer.summarise(tr.take_spans()))
        return self._check(job, ok, out), wall, cpu

    def _run_cli(self, job, traced):
        if traced:
            argv = [sys.executable, str(HERE / "trace_cli.py"), *job.argv]
        else:
            argv = [sys.executable, "-m", "supertroesch.cli", *job.argv]
        code, out, err, wall, cpu, rss = run_child(argv)
        if traced:
            lines = [ln for ln in err.decode().splitlines() if ln.startswith(TRACE_MARK)]
            if lines:
                tracer.add_totals(self.totals, json.loads(lines[-1][len(TRACE_MARK):]))
        else:
            self.peak_child_mb = max(self.peak_child_mb, rss)
        if code != 0:
            print(f"{job.name} exited {code}: {err.decode(errors='replace')}", file=sys.stderr)
        return self._check(job, code == 0, out), wall, cpu

    def run_for(self, seconds, rng, trace, setup_samples=0):
        """Whole passes over the jobs until ``seconds`` have gone.  With
        ``trace`` set, passes alternate untraced and traced, at least one of
        each.  ``setup_samples`` set-up samples are taken between jobs, one
        each time another ``seconds / setup_samples`` have gone; any still
        due at the end are taken then."""
        start = perf_counter()
        deadline = start + seconds
        traced = False

        def take_due_setups():
            due = min(setup_samples, int((perf_counter() - start) * setup_samples / seconds) + 1) if seconds else 0
            while len(self.setups) < due:
                self.setups.append((setup_sample(self.workload), monotonic()))

        while True:
            order = list(self.workload.jobs)
            rng.shuffle(order)
            for job in order:
                take_due_setups()
                self.run_job(job, traced)
            if trace:
                traced = not traced
            if perf_counter() >= deadline and (not trace or self.traced_jobs):
                break
        while len(self.setups) < setup_samples:
            self.setups.append((setup_sample(self.workload), monotonic()))


class HostProbe:
    """Speed samples of the CPU the jobs run on, taken by ``hostprobe.py``
    while the jobs run.  Stop it on every path out."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostprobe.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self.samples = []

    def stop(self):
        if self.proc.returncode is None:
            try:
                out, _ = self.proc.communicate(b"", timeout=30)
            finally:
                if self.proc.returncode is None:
                    self.proc.kill()
                    self.proc.wait()
            self.samples = json.loads(out)

    def loop_s(self, end, wall):
        """Mean reference-loop time of the samples in [end - wall, end], or of
        the sample nearest to it when none fall inside."""
        times = [at for at, _ in self.samples]
        lo, hi = bisect.bisect_left(times, end - wall), bisect.bisect_right(times, end)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(times) - 1)
            if lo + 1 < len(times) and abs(times[lo + 1] - end) < abs(times[lo] - end):
                lo += 1
            hi = lo + 1
        return statistics.fmean(s for _, s in self.samples[lo:hi])


def _package_caches():
    caches = []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == tracer.PACKAGE and mod is not None:
            caches.extend(v for v in vars(mod).values() if hasattr(v, "cache_clear"))
    return list({id(c): c for c in caches}.values())


def per_job_median(samples, field):
    """Median of one field over each job's samples, averaged over the jobs,
    so that a workload of unlike jobs weighs each job once."""
    by_job = {}
    for s in samples:
        by_job.setdefault(s[0], []).append(s[field])
    return statistics.fmean(statistics.median(v) for v in by_job.values())


def percentile_with_tail(values, q, tail=10):
    """The q-quantile of values, or None when fewer than ``tail`` lie beyond it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100)[q - 1]
    return cut if sum(v > cut for v in values) >= tail else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # one CPU for the jobs, their children and the host probe (see hostprobe.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    threads = prepare()
    if threads is None:
        print(f"perfbench: no supertroesch sources under {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 64
    digests = json.loads(DIGESTS.read_text())
    rng = random.Random(args.seed)

    runner = Runner(workload, digests)
    probe = None if args.trace else HostProbe()
    try:
        if workload.is_cli:
            runner.run_job(workload.jobs[0])
            runner.samples.clear()
        else:
            workload.warmup()
        runner.run_for(args.seconds, rng, args.trace == 1, 0 if args.trace else SETUP_SAMPLES)
    finally:
        if probe:
            probe.stop()

    plain = [s for s in runner.samples if not s[4]]
    walls = [s[1] for s in plain]
    setup_walls = [w for w, _ in runner.setups]
    attempted = len(runner.samples)
    failed = sum(not s[3] for s in runner.samples)
    if args.trace:
        traced = [s for s in runner.samples if s[4]]
        metrics = tracer.per_job_metrics(runner.totals, runner.traced_jobs)
        overhead = per_job_median(traced, 1) / per_job_median(plain, 1) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        peak = runner.peak_child_mb if workload.is_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # scale each time to the nominal speed of the core over its own interval
        scale = [hostprobe.NOMINAL_LOOP_S / probe.loop_s(s[5], s[1]) for s in plain]
        fixed = [(s[0], s[1] * k, s[2] * k) for s, k in zip(plain, scale)]
        metrics = {
            "wall_s": {"value": per_job_median(fixed, 1), "unit": "s"},
            "cpu_s": {"value": per_job_median(fixed, 2), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "setup_s": {
                "value": statistics.median(w * hostprobe.NOMINAL_LOOP_S / probe.loop_s(end, w) for w, end in runner.setups),
                "unit": "s",
            },
        }
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "environment": environment(threads),
        "jobs": len(plain),
        "job_walls_s": walls,
        "traced_jobs": runner.traced_jobs,
        "wall_p90_s": percentile_with_tail(walls, 90),
        "fail_frac": failed / attempted,
        "setup_walls_s": setup_walls,
    }
    if probe:
        details["uncorrected"] = {
            "wall_s": per_job_median(plain, 1),
            "cpu_s": per_job_median(plain, 2),
            "setup_s": statistics.median(setup_walls),
        }
        details["probe_samples"] = len(probe.samples)
        details["probe_loop_s"] = {
            "median": statistics.median(x for _, x in probe.samples),
            "min": min(x for _, x in probe.samples),
        }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
