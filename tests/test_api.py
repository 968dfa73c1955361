"""Every name in the ``__all__`` of each ``invdist`` module resolves, every
name a module imports is used, and no module imports ``random``: every
verdict rests on an exact certificate, so nothing in the package draws."""

import ast
import importlib
import os
import pkgutil

import pytest

import invdist

MODULES = ["invdist"] + [f"invdist.{m.name}"
                         for m in pkgutil.iter_modules(invdist.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_random(name):
    path = importlib.import_module(name).__file__
    with open(path) as fh:
        tree = ast.parse(fh.read(), os.path.basename(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "random" not in imported


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # a name a module imports is read in that module or exported by its
    # __all__, so no deletion leaves an import behind
    module = importlib.import_module(name)
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read(), os.path.basename(module.__file__))
    imported, used = set(), set(getattr(module, "__all__", ()))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert sorted(imported - used) == []
