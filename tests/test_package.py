"""The public surface: the package imports and every exported name resolves."""

import importlib
import pkgutil

import pytest

import cyclesync

MODULES = sorted(m.name for m in pkgutil.iter_modules(cyclesync.__path__)
                 if not m.name.startswith("_"))


def test_package_imports():
    importlib.reload(cyclesync)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cyclesync.{name}")
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert not missing, f"cyclesync.{name}.__all__ names missing attributes {missing}"
