"""Every module's ``__all__`` names what the module defines, so a function
deleted from a module cannot stay listed as its export."""

import importlib
import pkgutil

import pytest

import cq_analyzer

MODULES = ["cq_analyzer"] + [
    f"cq_analyzer.{info.name}" for info in pkgutil.iter_modules(cq_analyzer.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
