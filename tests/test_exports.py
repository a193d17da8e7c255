"""Every exported name resolves, so a stale export fails the suite."""

import inspect
import json
import os
import re

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


def test_benchmark_times_every_public_checker():
    # The benchmark names one per-layer metric after each check_* export, so
    # renaming or merging a public checker must be mirrored in BENCHMARK.json.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        names = [entry["name"] for entry in json.load(fh)["per_layer"]]
    pattern = re.compile(r"certify\.(check_\w+)\.ms_per_unit")
    timed = {m.group(1) for m in map(pattern.fullmatch, names) if m}
    assert timed == {name for name in certify.__all__ if name.startswith("check_")}
