"""Every name the faicodes package defines has a caller.

A top-level function or class, or a method that is not a dunder, fails the
check when no module of the package refers to it (as a bare name or as an
attribute) and `faicodes.__all__` does not export it.  A helper that only
the tests call is dead weight: delete it, or call it from the package.
"""

import ast
from pathlib import Path

import faicodes

PACKAGE = Path(faicodes.__file__).parent

# the AC-8 fixture in tests/test_acceptance.py scans every n = 4 function with
# it; it lives beside the sweeps it reuses, but no module of the package calls it
ALLOWED = {"exhaustive_pai_sets"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(name, label) of each top-level def or class and each non-dunder method."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, f"{node.name}.{item.name}"


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unreferenced():
    defined, referenced = {}, set(faicodes.__all__)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, label in _definitions(tree):
            defined[f"{path.name}: {label}"] = name
        referenced.update(_references(tree))
    return {label: name for label, name in defined.items() if name not in referenced}


def test_every_definition_has_a_caller():
    dead = _unreferenced()
    assert sorted(label for label, name in dead.items() if name not in ALLOWED) == []
    # an allowed name that gains a caller or goes away leaves the list
    assert set(dead.values()) >= ALLOWED
