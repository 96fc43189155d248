"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import lenglart

MODULES = ["lenglart"] + [
    f"lenglart.{info.name}" for info in pkgutil.iter_modules(lenglart.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
