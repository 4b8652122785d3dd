"""Every exported name of the package and of each submodule resolves."""

import importlib
import pkgutil

import pytest

import platenull

SUBMODULES = sorted(f"platenull.{info.name}" for info in pkgutil.iter_modules(platenull.__path__))


@pytest.mark.parametrize("module", ["platenull"] + SUBMODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
