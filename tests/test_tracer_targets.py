"""perfbench/tracer.py patches library functions by module and attribute
name, so a renamed or moved function would silently drop out of every trace.
Each of its targets must resolve against the package as it is, and the
harness's own self-test must pass on it."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod_name, path, _ in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        owner, leaf = tracer._resolve(module, path)
        # the tracer reads a method from its class dict and a function from the module
        target = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        assert callable(target), f"{mod_name}.{path}"


def test_perfbench_selftest_passes():
    # among its checks: build_B's validation calls iterated_diff both with
    # and without a matmul child, which the hit-ratio metric needs
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
