"""End-to-end tests for the command line harness: exit codes, report schema,
determinism, failure injection, and the stored golden reports.

A change that means to move the seeded sweep rewrites
``golden/verify_mutant.json`` with ``python tests/test_cli.py``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

from matineq import certify, cli
from matineq.certify import _real_part_margin, search_nonnormal_counterexample
from matineq.serialize import matrix_from_json

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def approx_equal(a, b, tol=1e-12):
    """Structural equality with absolute float tolerance, for golden comparisons."""
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(approx_equal(a[k], b[k], tol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(approx_equal(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=0.0, abs_tol=tol)
    return a == b


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_small_run_passes(capsys):
    code, out = run_cli(capsys, ["verify", "--trials", "3", "--seed", "42"])
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["artifactVersion"].startswith("matineq-")
    assert report["config"]["masterSeed"] == 42
    # pass counts + failure count == trials x statements
    assert sum(report["passCounts"].values()) + len(report["failures"]) == 3 * len(
        report["statements"]
    )


def test_verify_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--trials", "0"])
    assert exc.value.code == 2


def test_verify_rejects_bad_dims(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--dims", "2;3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("betas", ["1,1", "0.1234561,0.1234562"])
def test_verify_rejects_weights_sharing_a_key(capsys, betas):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--trials", "1", "--beta", betas])
    assert exc.value.code == 2
    assert "share report keys" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "search"])
def test_dims_over_the_memory_budget_are_usage_errors(capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the size guard must stop the run before any work")

    monkeypatch.setattr(cli, "run_trial", refuse)
    monkeypatch.setattr(cli, "estimate_constant", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--dims", "1000,1000", "--trials", "1"])
    assert exc.value.code == 2
    assert "budget" in capsys.readouterr().err


def test_verify_mutant_hook_fails_and_replays(capsys):
    code, out = run_cli(
        capsys, ["verify", "--trials", "2", "--seed", "3", "--inject-mutant"]
    )
    assert code == 1
    report = json.loads(out)
    assert report["failures"]
    first = report["failures"][0]
    assert set(first) == {"statementId", "seed", "trialIndex", "minSlack"}

    # replay the recorded trial alone and reproduce the identical failure
    code2, out2 = run_cli(
        capsys,
        [
            "verify",
            "--trials",
            "1",
            "--trial-offset",
            str(first["trialIndex"]),
            "--seed",
            "3",
            "--inject-mutant",
        ],
    )
    assert code2 == 1
    replay = json.loads(out2)
    replayed = [f for f in replay["failures"] if f["statementId"] == first["statementId"]]
    assert replayed and replayed[0]["minSlack"] == first["minSlack"]


MUTANT_GOLDEN = os.path.join(GOLDEN_DIR, "verify_mutant.json")
MUTANT_ARGS = ["verify", "--seed", "7", "--trials", "3", "--dims", "2,2;3,3;4,4", "--inject-mutant"]


def _mutant_report():
    """The exit code and the report, minus ``wallTimeMs``, of the golden mutant sweep."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(MUTANT_ARGS)
    report = json.loads(out.getvalue())
    report.pop("wallTimeMs")
    return code, report


def test_verify_mutant_matches_golden():
    code, report = _mutant_report()
    assert code == 1
    with open(MUTANT_GOLDEN) as fh:
        expected = json.load(fh)
    keys = [(f["statementId"], f["trialIndex"]) for f in report["failures"]]
    assert keys == [(f["statementId"], f["trialIndex"]) for f in expected["failures"]]
    assert approx_equal(report, expected)


def test_verify_reports_are_deterministic(capsys):
    args = ["verify", "--trials", "2", "--seed", "11", "--dims", "2,3"]
    _, out1 = run_cli(capsys, args)
    _, out2 = run_cli(capsys, args)
    rep1, rep2 = json.loads(out1), json.loads(out2)
    rep1.pop("wallTimeMs")
    rep2.pop("wallTimeMs")
    assert rep1 == rep2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--trials", "1", "--tol", "inf", "--inject-mutant"],
        ["verify", "--trials", "1", "--tol", "nan"],
        ["verify", "--trials", "1", "--beta", "inf"],
        ["verify", "--trials", "1", "--beta", "0.5,nan"],
        ["search", "--trials", "1", "--beta", "nan"],
        ["repro", "sharpness-beta", "--beta", "inf"],
        ["verify", "--trials", "1", "--beta", "0.5,1e308"],
        ["search", "--trials", "1", "--beta", "1e-309"],
        ["search", "--trials", "1", "--beta", "0"],
        ["repro", "sharpness-beta", "--beta", "1e308"],
        # 4 beta^2 overflows: eigen-shift scales a beta-sized side by 4 beta.
        ["verify", "--trials", "1", "--beta", "0.5,1e154"],
        ["repro", "sharpness-beta", "--beta", "1e200"],
    ],
)
def test_non_finite_weights_and_tolerance_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--trials", "1", "--dims", "2,2"], ["repro", "all"]])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "r.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(path)])
    assert exc.value.code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--trials", "2", "--dims", "2,2"],
        ["repro", "all"],
        ["search", "--trials", "2"],
        ["counterexample", "--trials", "2"],
    ],
)
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_out_stops_before_any_work(capsys, monkeypatch, tmp_path, argv, target):
    def refuse(*args, **kwargs):
        raise AssertionError("the --out check must stop the run before any work")

    for name in ("run_trial", "estimate_constant", "search_nonnormal_counterexample"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli, "_repro_results", refuse)
    path = tmp_path / "missing" / "r.json" if target == "missing" else tmp_path
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(path)])
    assert exc.value.code == 2
    assert str(path) in capsys.readouterr().err


def test_empty_out_is_refused_before_any_trial(capsys, monkeypatch):
    # Every matineq module that holds run_trial gets the counting wrapper, so
    # a call through any of them is seen.
    calls, original = [], certify.run_trial

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("matineq") and getattr(module, "run_trial", None) is original:
            monkeypatch.setattr(module, "run_trial", counted)
    assert cli.run_trial is counted
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--trials", "2", "--dims", "2,2", "--out", ""])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert calls == []


def test_failed_write_is_usage_error_naming_the_path(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    # A write that fails after the --out check passed, as on a full disk.
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    path = tmp_path / "r.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["repro", "psi-quarter", "--out", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Permission denied" in err
    assert "matineq repro: error:" in err


@pytest.mark.parametrize("command", ["verify", "search", "counterexample"])
def test_negative_seed_is_a_usage_error_naming_the_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--seed", "-1", "--trials", "1"])
    assert exc.value.code == 2
    assert "--seed must be nonnegative" in capsys.readouterr().err


def test_verify_writes_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = cli.main(["verify", "--trials", "1", "--out", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["failures"] == []


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------


def test_repro_psi_quarter(capsys):
    code, out = run_cli(capsys, ["repro", "psi-quarter"])
    assert code == 0
    assert "0.25" in out and "ok" in out


def test_repro_all_json(capsys):
    code, out = run_cli(capsys, ["repro", "all", "--json"])
    assert code == 0
    payload = json.loads(out)
    ids = [entry["exampleId"] for entry in payload]
    assert "psi-quarter" in ids and "no-single-unitary" in ids
    assert all(entry["pass"] for entry in payload)


def test_repro_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["repro", "bogus"])
    assert exc.value.code == 2


def test_repro_sharpness_rejects_small_beta(capsys):
    for name in ("sharpness-beta", "all"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["repro", name, "--beta", "0.25"])
        assert exc.value.code == 2, name
        assert "matineq repro: error:" in capsys.readouterr().err, name


def test_repro_sharpness_passes_at_large_weights(capsys):
    # lambda2 = 1 - 2 beta^2 = -19999 is decided at its own scale, not by an
    # absolute 1e-12 that its rounding already exceeds.
    code, out = run_cli(capsys, ["repro", "sharpness-beta", "--beta", "100"])
    assert code == 0, out


@pytest.mark.parametrize(
    "name,golden",
    [
        ("sharpness-beta", "repro_sharpness_beta.json"),
        ("no-single-unitary", "repro_no_single_unitary.json"),
        ("psi-quarter", "repro_psi_quarter.json"),
    ],
)
def test_repro_matches_golden(capsys, name, golden):
    code, out = run_cli(capsys, ["repro", name, "--json"])
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, golden)) as fh:
        expected = json.load(fh)
    assert approx_equal(json.loads(out), expected)


@pytest.mark.parametrize("name", ["no-single-unitary", "psi-quarter"])
def test_repro_beta_outside_its_scope_is_usage_error(capsys, name):
    with pytest.raises(SystemExit) as exc:
        cli.main(["repro", name, "--beta", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "sharpness-beta" in err
    assert "matineq repro: error:" in err


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_csv_and_bounds(capsys):
    code, out = run_cli(
        capsys, ["search", "--beta", "0.25,0.5", "--trials", "20", "--seed", "5"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,empirical_c,bound,ratio"
    rows = {float(l.split(",")[0]): [float(v) for v in l.split(",")] for l in lines[1:]}
    # the equality family sits in the pool: the bound is met at 1/2 ...
    assert rows[0.5][1] >= 0.5 - 1e-9
    # ... and never exceeded at 1/4
    assert rows[0.25][1] <= 1.0 + 1e-9


def test_search_rejects_beta_outside_range(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--beta", "0.75"])
    assert exc.value.code == 2
    assert "matineq search: error:" in capsys.readouterr().err


def test_search_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--trials", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "matineq search: error:" in err
    # refused at parse time, as verify --trials is, not by the library
    assert "argument --trials" in err


def test_search_rejects_several_dims_pairs(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--dims", "2,2;3,3", "--trials", "1"])
    assert exc.value.code == 2


def test_search_rejects_empty_beta(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--beta", ""])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [["verify", "--trials", "1", "--json"], ["repro", "psi-quarter", "--seed", "1"]]
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def test_counterexample_finds_violation(capsys):
    code, out = run_cli(capsys, ["counterexample", "--seed", "42", "--trials", "100000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["computed"]["found"] == 1.0
    assert payload["computed"]["margin"] > 1e-6


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--trials", "0"]])
def test_counterexample_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["counterexample"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "matineq counterexample: error:" in err
    assert f"argument {argv[0]}" in err


def test_counterexample_golden_replays_exactly():
    with open(os.path.join(GOLDEN_DIR, "nonnormal_counterexample.json")) as fh:
        golden = json.load(fh)
    frozen = matrix_from_json(golden["matrices"]["matrix"])
    # the frozen matrix reproduces the stored margin exactly
    assert _real_part_margin(frozen) == pytest.approx(golden["computed"]["margin"], abs=1e-15)
    assert golden["computed"]["margin"] > 1e-6
    # and the stored search configuration rediscovers the same matrix
    result = search_nonnormal_counterexample(golden["searchSeed"], golden["searchTrials"])
    np.testing.assert_array_equal(result.matrices["matrix"], frozen)
    assert result.computed["trial_index"] == golden["computed"]["trial_index"]


# ---------------------------------------------------------------------------
# option inventory
# ---------------------------------------------------------------------------


def test_option_inventory():
    # Every option each subcommand accepts, in order: adding or dropping one
    # must show up here.
    expected = {
        "verify": [
            "--seed", "--trials", "--dims", "--beta", "--tol", "--out", "--trial-offset",
            "--inject-mutant",
        ],
        "repro": ["name", "--beta", "--out", "--json"],
        "search": ["--seed", "--trials", "--beta", "--dims", "--out", "--json"],
        "counterexample": ["--seed", "--trials", "--out"],
    }
    (subparsers,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    found = {
        command: [
            action.option_strings[0] if action.option_strings else action.dest
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for command, parser in subparsers.choices.items()
    }
    assert found == expected


if __name__ == "__main__":
    with open(MUTANT_GOLDEN, "w") as fh:
        fh.write(json.dumps(_mutant_report()[1], indent=2) + "\n")
    sys.exit(0)
