"""Every name the faicodes package defines has a caller.

A top-level function or class fails the check when no module of the package
refers to it, as a bare name or as an attribute, and `faicodes.__all__`
does not export it.  A method that is not a dunder fails when no module
reaches it as an attribute: a local variable of the same name does not
count, nor does an attribute of an imported outside module (`np.zeros`
keeps no `zeros` method alive).  A helper that only the tests call is dead
weight: delete it, or call it from the package.

A module-level import fails when the importing module never refers to the
name it binds; `__init__.py`, whose imports are the package's re-exports,
and `from __future__` imports are exempt.

A parameter with a default fails when no call in the package sets it, by
keyword or by position: an option that only ever takes one value is not an
option.  `cli.main`'s `argv` is exempt; the tests and the bench pass it.
"""

import ast
from pathlib import Path

import faicodes

PACKAGE = Path(faicodes.__file__).parent

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(name, label, is_method) of each top-level def or class and each non-dunder method."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, f"{node.name}.{item.name}", True


def _references(tree):
    """(bare names, attribute names) the module refers to, minus attributes of imported modules."""
    external = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in external):
                attrs.add(node.attr)
    return names, attrs


def _unreferenced(sources, exported=()):
    """The labels of the definitions in sources ({file name: text}) that nothing refers to."""
    defined, names, attrs = {}, set(exported), set()
    for file_name, text in sources.items():
        tree = ast.parse(text, file_name)
        for name, label, is_method in _definitions(tree):
            defined[f"{file_name}: {label}"] = name, is_method
        more_names, more_attrs = _references(tree)
        names |= more_names
        attrs |= more_attrs
    return sorted(
        label for label, (name, is_method) in defined.items()
        if name not in attrs and (is_method or name not in names)
    )


def test_every_definition_has_a_caller():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(sources, faicodes.__all__) == []


def test_a_same_named_variable_or_outside_attribute_keeps_no_method_alive():
    source = (
        "import numpy as np\n"
        "class Grid:\n"
        "    def zeros(self): ...\n"
        "    def used(self): ...\n"
        "def helper():\n"
        "    zeros = np.zeros(3)\n"
        "    return Grid().used(), zeros\n"
    )
    assert _unreferenced({"m.py": source}, exported=["helper"]) == ["m.py: Grid.zeros"]
    # one attribute access through a package object does keep it
    assert _unreferenced({"m.py": source + "helper().zeros\n"}, exported=["helper"]) == []


def _unused_imports(sources):
    """The labels of the module-level imports in sources ({file name: text}) whose module never uses them."""
    unused = []
    for file_name, text in sources.items():
        if file_name == "__init__.py":
            continue
        tree = ast.parse(text, file_name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{file_name}: {name}" for name in bound if name not in used]
    return sorted(unused)


def test_every_import_is_used():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unused_imports(sources) == []


def test_an_unused_import_is_caught_and_re_exports_are_not():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from math import comb, inf as INF\n"
        "def helper(x: np.ndarray) -> int:\n"
        "    return comb(3, 2) + len(xml.dom.__name__)\n"
    )
    assert _unused_imports({"m.py": source, "__init__.py": "from .m import helper\n"}) == [
        "m.py: INF",
        "m.py: os",
    ]


def _unset_defaults(sources):
    """The labels of the default-valued parameters in sources ({file name: text}) that no call sets.

    Calls are matched to functions by name, bare or attribute.  A call sets a
    parameter when it names it as a keyword, passes a positional argument at
    its place (a method's self not counted), or unpacks * or ** that far.
    """
    params, keywords, reach = [], set(), {}
    for file_name, text in sources.items():
        tree = ast.parse(text, file_name)
        methods = {
            id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef)
            and "staticmethod" not in {getattr(d, "id", None) for d in item.decorator_list}
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                skip = id(node) in methods
                for i, arg in enumerate(positional[first:], start=first - skip):
                    params.append((node.name, arg.arg, i, f"{file_name}: {node.name}({arg.arg})"))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        params.append((node.name, arg.arg, None, f"{file_name}: {node.name}({arg.arg})"))
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                reach[name] = max(reach.get(name, 0), float("inf") if starred else len(node.args))
                keywords |= {(name, kw.arg) for kw in node.keywords}  # kw.arg is None for **
    return sorted(
        label for name, arg, position, label in params
        if not ({(name, arg), (name, None)} & keywords or (position is not None and reach.get(name, 0) > position))
    )


def test_every_default_is_set_by_some_call():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert [label for label in _unset_defaults(sources) if label != "cli.py: main(argv)"] == []


def test_a_default_no_call_sets_is_caught():
    source = (
        "class Box:\n"
        "    def put(self, item, lid=False, tag=None): ...\n"
        "def pack(items, box=None, *, size=1, fast=False):\n"
        "    for item in items:\n"
        "        (box or Box()).put(item, True)\n"
        "    return size\n"
        "def run(args, opts):\n"
        "    pack(*args)\n"
        "    pack([], fast=True)\n"
        "    pack([], **opts)\n"
    )
    # put's lid is set by position past self; pack's box only through *args, size only through **opts
    assert _unset_defaults({"m.py": source}) == ["m.py: put(tag)"]
    without_opts = source.replace("    pack([], **opts)\n", "")
    assert _unset_defaults({"m.py": without_opts}) == ["m.py: pack(size)", "m.py: put(tag)"]
