"""Record the sha256 digest of every benchmark job's output.

    python3 perfbench/record_digests.py

Runs each job once and rewrites ``digests.json``.  Only do this when an
output is meant to change: the benchmark counts any other mismatch as a
failed job.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main():
    if run.prepare() is None:
        print(f"no supertroesch sources under {run.SRC}", file=sys.stderr)
        return 2
    import workloads

    digests = {}
    for workload in workloads.WORKLOADS.values():
        for job in workload.jobs:
            if job.argv:
                code, out, err, *_ = run.run_child([sys.executable, "-m", "supertroesch.cli", *job.argv])
                ok = code == 0
            else:
                ok, out = job.call()
            if not ok:
                print(f"{workload.name}/{job.name} did not pass; nothing recorded", file=sys.stderr)
                return 1
            digests[f"{workload.name}/{job.name}"] = hashlib.sha256(out).hexdigest()
            print(f"{workload.name}/{job.name}: {digests[f'{workload.name}/{job.name}']}")
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
