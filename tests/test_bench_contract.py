"""What the benchmark's traced worker reads of the library.

``bench/worker.py`` wraps library functions by name. Its unit span is a call
of ``run_trial`` (``verify``, one trial or a batch of trials of one shape,
each trial a unit) or of ``minimal_orbit_constant`` (``search``, one pair or
a chunk of pairs, each pair a unit), and it times
``run_trial`` for its scaling curve. A wrapped name that is gone,
a unit that is no longer called in-process, or outcomes without ``passed``
make a traced benchmark run crash rather than report. These tests read the
worker's name lists with ``ast``, without importing it, and check each
against the library. The benchmark's own self-test counts one traced
``core.mat_abs`` call in ``check_block_certificate``; the tests at the end
guard that count and that every stage of a trial is asked for.
"""

import ast
import functools
import sys
from pathlib import Path

import pytest

from matineq import certify, cli, core, maps, serialize, staging

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
MODULES = {"certify": certify, "core": core, "maps": maps, "serialize": serialize}


def _worker():
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    constants = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return tree, constants


def _strings(node) -> list:
    """The string elements of every tuple literal in ``node``."""
    return [
        elt.value
        for t in ast.walk(node)
        if isinstance(t, ast.Tuple)
        for elt in t.elts
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    ]


def _wrapped() -> list:
    """``(module, name)`` for every name that ``install`` looks up with ``getattr``."""
    tree, constants = _worker()
    install = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    found = []
    for loop in ast.walk(install):
        if not isinstance(loop, ast.For):
            continue
        owners = {
            call.args[0].id
            for call in ast.walk(loop)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
        }
        if not owners:
            continue
        (owner,) = owners
        names = _strings(loop.iter) + [
            name
            for ref in ast.walk(loop.iter)
            if isinstance(ref, ast.Name) and ref.id in constants
            for name in _strings(constants[ref.id])
        ]
        found += [(owner, name) for name in names]
    return found


def test_every_name_the_worker_wraps_resolves():
    wrapped = _wrapped()
    _, constants = _worker()
    # CORE_FNS, MAP_GENERATORS and the certify names of install are all read.
    for owner, listed in (("core", "CORE_FNS"), ("maps", "MAP_GENERATORS")):
        assert {(owner, name) for name in _strings(constants[listed])} <= set(wrapped), listed
    certify_names = {name for owner, name in wrapped if owner == "certify"}
    assert {"run_trial", "minimal_orbit_constant", "estimate_constant", "chain_certificate"} <= certify_names
    for owner, name in wrapped:
        assert callable(getattr(MODULES[owner], name, None)), f"{owner}.{name}"


def test_unit_spans_are_wrapped_names():
    tree, _ = _worker()
    spans = [
        node.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "unit_span" for target in node.targets)
    ]
    assert sorted(spans) == ["certify.minimal_orbit_constant", "certify.run_trial"]
    wrapped = {f"{owner}.{name}" for owner, name in _wrapped()}
    assert set(spans) <= wrapped


def test_scaling_curve_outcomes_report_a_verdict():
    _, constants = _worker()
    betas = ast.literal_eval(constants["CURVE_BETAS"])
    outcomes = certify.run_trial(1, 0, 2, 2, betas)
    assert outcomes and all(isinstance(o.passed, bool) for o in outcomes.values())


def _count_everywhere(monkeypatch, fn) -> list:
    """Wrap ``fn`` in every loaded ``matineq`` module that binds it; returns the call log."""
    calls = []

    @functools.wraps(fn)  # the staging engine finds a stage by __name__
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "matineq" or name.startswith("matineq."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
                    bound += 1
    assert bound, fn.__name__
    return calls


def _members(fn, args) -> int:
    """Units in one call: a trial or the trials of a sweep batch, one search pair or the pairs of a chunk.

    ``run_trial`` takes its index or a list of indices second,
    ``minimal_orbit_constant`` a map or a chunk's ``(k, terms, n, m)`` Kraus stack first.
    """
    if fn.__name__ == "run_trial":
        return len(args[1]) if isinstance(args[1], list) else 1
    return 1 if isinstance(args[0], maps.PositiveMapRep) else len(args[0])


@pytest.mark.parametrize(
    "fn, argv, count, units",
    [
        # The 3 trials of one shape are one batch.
        (certify.run_trial, ["verify", "--trials", "3", "--dims", "2,2"], 1, 3),
        # Per weight, one call for the sharpness-family pair and one for the chunk
        # of 2 drawn pairs: 4 calls solve the 6 units.
        (certify.minimal_orbit_constant, ["search", "--trials", "2", "--beta", "0.1,0.25", "--json"], 4, 6),
    ],
    ids=["verify", "search"],
)
def test_each_unit_is_one_in_process_call(capsys, monkeypatch, fn, argv, count, units):
    calls = _count_everywhere(monkeypatch, fn)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == count, argv
    assert sum(_members(fn, args) for args in calls) == units, argv


def test_block_certificate_makes_one_mat_abs_call(monkeypatch):
    calls = _count_everywhere(monkeypatch, core.mat_abs)
    certify.check_block_certificate(maps.random_cp_map(0, 2, 2), core.random_normal(1, 2))
    assert len(calls) == 1


def test_a_trial_asks_every_stage(monkeypatch):
    stages, asked = [], set()
    run_staged, answer = certify.run_staged, staging._answer

    def recorded_run(names, tasks):
        stages.append(tuple(names))
        return run_staged(names, tasks)

    def recorded_answer(asks):
        asked.add(asks[0].fn.__name__)
        return answer(asks)

    monkeypatch.setattr(certify, "run_staged", recorded_run)
    monkeypatch.setattr(staging, "_answer", recorded_answer)
    for n, m in ((3, 3), (2, 3)):
        certify.run_trial(1, 0, n, m, cli.DEFAULT_BETAS)
    assert len(set(stages)) == 1
    assert asked == set(stages[0])
