"""Every module-level function and class in the package has a caller inside
the package. A name that only tests or demos reach is surface to maintain
with no run behind it, so it goes; the re-exports in __init__.py do not
count as callers."""

import ast
from collections import Counter
from pathlib import Path

import zrp

# name -> why it stays without a caller in the package
ALLOWED = {
    "mass_conservation_check": "perfbench/tracer.py wraps it by name as a "
                               "tracer target",
}


def _modules():
    return sorted(p for p in Path(zrp.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def test_every_module_level_name_has_a_caller():
    defined = {}
    uses = Counter()
    for path in _modules():
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
    unused = sorted(f"{mod}:{name}" for name, mod in defined.items()
                    if uses[name] == 0 and name not in ALLOWED)
    assert not unused, f"defined but never called in src/zrp: {unused}"

