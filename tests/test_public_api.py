"""The exported surface: every name a module lists in ``__all__`` exists.
``quartet.cli`` exports ``main`` through the package's script entry and
lists no ``__all__``."""

import importlib
import pkgutil

import pytest

import quartet

MODULES = ["quartet"] + [
    f"quartet.{m.name}" for m in pkgutil.iter_modules(quartet.__path__) if m.name != "cli"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_gives_the_package_exports():
    namespace: dict = {}
    exec("from quartet import *", namespace)
    assert set(quartet.__all__) <= set(namespace)
