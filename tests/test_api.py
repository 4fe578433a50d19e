import importlib
import pkgutil

import pytest

import hodge3d as h

# the package and every submodule that declares an export list
MODULES = ["hodge3d"] + [
    f"hodge3d.{m.name}" for m in pkgutil.iter_modules(h.__path__)
    if hasattr(importlib.import_module(f"hodge3d.{m.name}"), "__all__")]


def test_export_lists_found():
    assert {"hodge3d", "hodge3d.hodge", "hodge3d.mesh", "hodge3d.cli"} <= \
        set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace = {}
    exec("from hodge3d import *", namespace)
    assert set(h.__all__) <= set(namespace)
