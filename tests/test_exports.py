"""Every name a pelldecide module lists in ``__all__`` is defined there."""

import importlib
import pkgutil

import pytest

import pelldecide

MODULES = [
    info.name
    for info in pkgutil.iter_modules(pelldecide.__path__)
    if hasattr(importlib.import_module(f"pelldecide.{info.name}"), "__all__")
]


def test_modules_with_exports_are_found():
    assert {"automata", "logic", "learner", "pell", "search", "sequences", "theorems"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"pelldecide.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"pelldecide.{name} exports undefined names {missing}"
