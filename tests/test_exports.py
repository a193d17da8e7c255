"""Every exported name resolves, so a stale export fails the suite."""

import inspect

import pytest

import matineq
from matineq import certify, core, maps

MODULES = (core, maps, certify)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_are_listed_names():
    listed = {name: getattr(module, name) for module in MODULES for name in module.__all__}
    exported = {
        name: value
        for name, value in vars(matineq).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(exported) <= set(listed), sorted(set(exported) - set(listed))
    for name, value in exported.items():
        assert value is listed[name], name
