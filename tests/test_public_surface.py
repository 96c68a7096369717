"""Every module-level function and class, and every method other than a
dunder, in the package has a caller inside the package. A name that only
tests or demos reach is surface to maintain with no run behind it, so it
goes; the re-exports in __init__.py do not count as callers. A method is
called through an attribute (obj.name), so a local variable that shares its
name does not count."""

import ast
from collections import Counter
from pathlib import Path

import zrp

# name -> why it stays without a caller in the package
ALLOWED = {
    "mass_conservation_check": "perfbench/tracer.py wraps it by name as a "
                               "tracer target",
    "_Parser.error": "argparse calls it on a usage error",
    "HarrisNoise.window": "perfbench/tracer.py wraps it by name, and the tests "
                          "use it as the one-band view of band_atoms",
}


def _modules():
    return sorted(p for p in Path(zrp.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def _defs(tree):
    """(qualified name, name, is a method) of every module-level function
    and class and of every method of a module-level class that is not a
    dunder."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs + (ast.ClassDef,)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, True


def test_every_module_level_name_has_a_caller():
    defined = {}
    names, attrs = Counter(), Counter()
    for path in _modules():
        tree = ast.parse(path.read_text())
        for qualname, name, method in _defs(tree):
            defined[qualname] = (path.name, name, method)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attrs[node.attr] += 1
    unused = sorted(f"{mod}:{qualname}" for qualname, (mod, name, method)
                    in defined.items()
                    if attrs[name] + (0 if method else names[name]) == 0
                    and qualname not in ALLOWED)
    assert not unused, f"defined but never called in src/zrp: {unused}"

