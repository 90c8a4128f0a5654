"""perfbench/tracer.py patches library functions by module and attribute
name, so a renamed or moved function would silently drop out of every trace.
Each of its targets must resolve against the package as it is."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
