"""Every name the library defines must be used by the library itself.

A def or class that only the tests reach belongs beside the tests, in
``tests/oracles.py`` or the test module, not in ``src/``.  This scans the
package's syntax trees: a module-level function counts as used when its bare
name is loaded or imported somewhere in ``src/`` outside its own body, a
method when its name is read as an attribute, and a class or nested function
when either happens.  An attribute read such as ``dec.is_normal()`` therefore
keeps a method alive but never a module-level function of the same name.
The attribute check does not know the receiver's type: any read of the name
counts, so ``dict.items()`` keeps a method ``items`` alive and
``FpMatrix.is_zero()`` keeps every ``is_zero``.  A method whose name some
other object also has can be dead without this test failing.
Exempt are the functions ``perfbench/tracer.py`` patches, the console entry
point, and the public API listed below.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "supertroesch"

# public API that the package does not call itself: (module, qualified name)
API = {
    ("resolutions", "build_Q"),  # the two-story splice Q, named in the README
    ("resolutions", "check_delta_squared_formal"),  # delta^2 = 0 on the formal resolution
    ("superspace", "dual_space"),  # the dual construction, named in the README
    ("superspace", "frobenius_twist_space"),  # the degree-twist construction, named in the README
}


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, path) for module, path, _ in tracer.TARGETS}


def _entry_points():
    """(module, function) for each entry of pyproject.toml's ``[project.scripts]``."""
    text = (ROOT / "pyproject.toml").read_text()
    table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"supertroesch\.(\w+):(\w+)"', table))


class _Scanner(ast.NodeVisitor):
    """Collects definitions and the references made outside each one's body."""

    def __init__(self):
        self.defs = []  # (name, kind, (module, qualified name), line)
        self.names = set()  # bare names loaded, and imports
        self.attrs = set()
        self._stack = []
        self._module = ""

    def scan(self, path):
        self._module = path.stem
        self.visit(ast.parse(path.read_text()))

    def _visit_def(self, node):
        if isinstance(node, ast.ClassDef):
            kind = "other"
        elif not self._stack:
            kind = "function"
        else:
            kind = "method" if isinstance(self._stack[-1], ast.ClassDef) else "other"
        qualname = ".".join([outer.name for outer in self._stack] + [node.name])
        self.defs.append((node.name, kind, (self._module, qualname), node.lineno))
        for deco in node.decorator_list:
            self.visit(deco)
        self._stack.append(node)
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self._stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def _outside(self, name):
        return all(node.name != name for node in self._stack)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and self._outside(node.id):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if self._outside(node.attr):
            self.attrs.add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self.names.add(node.name)


def unused_library_names():
    scanner = _Scanner()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        scanner.scan(path)
    exempt = set(API) | _tracer_targets() | _entry_points()
    unused = []
    for name, kind, key, line in scanner.defs:
        if name.startswith("__") and name.endswith("__") or key in exempt:
            continue
        used = {
            "function": name in scanner.names,
            "method": name in scanner.attrs,
            "other": name in scanner.attrs or name in scanner.names,
        }[kind]
        if not used:
            unused.append(f"{key[0]}.py:{line} {key[1]}")
    return unused


def test_every_library_name_is_used_by_the_library():
    assert unused_library_names() == []


def test_exemptions_are_defined():
    scanner = _Scanner()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        scanner.scan(path)
    defined = {key for _, _, key, _ in scanner.defs}
    assert API <= defined
    assert _entry_points() <= defined
    assert _tracer_targets() <= defined
