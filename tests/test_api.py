"""Every name in the ``__all__`` of each ``invdist`` module resolves."""

import importlib
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
