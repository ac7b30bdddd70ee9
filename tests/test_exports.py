"""Every name a module lists in `__all__` resolves, so `import *` works."""

import importlib
import pkgutil

import pytest

import antiflex

MODULES = ["antiflex"] + [f"antiflex.{info.name}" for info in
                          pkgutil.iter_modules(antiflex.__path__)
                          if info.name != "__main__"]
EXPORTING = [name for name in MODULES
             if hasattr(importlib.import_module(name), "__all__")]


def test_the_exporting_modules_are_found():
    assert {"antiflex", "antiflex.linalg", "antiflex.cli"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__), "duplicate entry"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
