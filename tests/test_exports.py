import importlib
import pkgutil

import pytest

import seqdisc

MODULES = [info.name for info in pkgutil.iter_modules(seqdisc.__path__)]


def test_package_exports_resolve():
    assert [name for name in seqdisc.__all__ if not hasattr(seqdisc, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"seqdisc.{name}")
    assert [export for export in getattr(module, "__all__", []) if not hasattr(module, export)] == []
