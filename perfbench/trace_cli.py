"""Run one supertroesch CLI command under the tracer.

    python3 perfbench/trace_cli.py <cli arguments>

stdout and the exit code are the command's own; the per-layer totals of the
command go to stderr as one line starting with ``perfbench-trace ``.
"""

from __future__ import annotations

import json
import sys

import supertroesch.cli as cli
import tracer
from run import TRACE_MARK


def main(argv):
    tr = tracer.Tracer()
    tr.install()
    try:
        cli.main(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tr.uninstall()
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(tracer.summarise(tr.take_spans())), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
