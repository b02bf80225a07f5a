"""Every name a module of ewaldkit imports is read in that module or
re-exported through its __all__: an import nothing reads is dead code."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ewaldkit")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def _unread_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read | exported)


def test_the_scan_sees_an_unread_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nfrom a import b, c\nc()\n")
    assert _unread_imports(tree) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert _unread_imports(tree) == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unread_helpers(trees):
    """(module, name) for each private module-level function, class or
    constant of the modules (module name -> tree) that no statement other
    than its own definition reads.  A bare name read in a module is the
    module's own definition, else the one it imports from a sibling; an
    attribute read counts for every module that defines the name."""
    defs = {}  # (module, name) -> the defining statement
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined(node):
                if _is_private(name):
                    defs[module, name] = node
    read = set()
    for module, tree in trees.items():
        source = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    source[alias.asname or alias.name] = (node.module, alias.name)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = (module, node.id) if (module, node.id) in defs else source.get(node.id)
                    if key in defs and defs[key] is not top:
                        read.add(key)
                elif isinstance(node, ast.Attribute):
                    read.update(k for k, d in defs.items() if k[1] == node.attr and d is not top)
    return sorted(set(defs) - read)


def test_the_scan_sees_an_unread_helper():
    trees = {
        "a": ast.parse("_A = 1\n_B = _A\ndef _f():\n    return _f()\nclass _C: pass\n__x__ = 0\n"),
        "b": ast.parse("from .a import _C\nfrom .c import _f\n_C()\n_f()\n"),
    }
    assert _unread_helpers(trees) == [("a", "_B"), ("a", "_f")]


def test_every_private_helper_is_read():
    trees = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            trees[module[:-3]] = ast.parse(fh.read(), module)
    assert _unread_helpers(trees) == []
