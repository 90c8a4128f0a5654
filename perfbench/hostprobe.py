"""Sample the speed of the CPU this process is pinned to.

    python3 perfbench/hostprobe.py

Every 10 ms, times one fixed pure-Python loop of about 0.3 ms.  When its
stdin closes, prints the samples as one JSON list of
``[time.monotonic() at the start, loop seconds]`` pairs and exits.

``run.py`` starts it on the CPU that runs the jobs.  On a shared host the
other hardware thread of that core belongs to someone else, and the
benchmark's own code slows down by up to half whenever it is busy; the loop
slows down with it, so the jobs' times can be divided by the loop's times
taken over the same interval (see ``run.py``).
"""

from __future__ import annotations

import json
import select
import sys
from time import monotonic, perf_counter

INTERVAL_S = 0.010
LOOP = 4000
# The loop's median time over the runs made when the benchmark was written
# (shared 2-vCPU x86_64 VM, Intel Xeon, Python 3.11).  Times are reported at
# this speed; the value only sets the scale, not any comparison.
NOMINAL_LOOP_S = 4.5e-4


def reference_loop():
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


def main():
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        at = monotonic()
        start = perf_counter()
        reference_loop()
        samples.append((at, perf_counter() - start))
    sys.stdin.read()
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
