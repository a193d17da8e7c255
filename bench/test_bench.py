"""Self-tests of the benchmark: correctness check, digests, metric names, spans.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra, cwd=ROOT, workload="sweep-small", seed=3, seconds=0.5, trace=0):
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def result_and_info(lines):
    return json.loads(lines[-1]), json.loads(lines[-2])


def test_end_to_end_metrics_and_digest_repeat():
    first = bench(seed=11)
    second = bench(seed=11)
    assert first[0] == 0 and second[0] == 0
    (result, info), (_, info2) = result_and_info(first[1]), result_and_info(second[1])
    assert result["correct"] and result["failed"] == 0 and info["fail_frac"] == 0.0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert info["digest"] == info2["digest"]
    assert len(info["setup_samples_s"]) == 9
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "commit", "seed"):
        assert key in info["environment"]


def test_injected_mutant_is_flagged():
    code, lines = bench("--inject-mutant")
    result, info = result_and_info(lines)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0 and info["fail_frac"] > 0


def test_traced_run_reports_every_per_layer_metric():
    code, lines = bench(workload="search-small-beta", seconds=0.3, trace=1)
    assert code == 0
    result, info = result_and_info(lines)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    # search bisects on eigvalsh and never reaches the geometric mean or the tensor route.
    assert metrics["lapack.eigvalsh.calls_per_unit"]["value"] > 50
    assert metrics["core.geometric_mean.calls_per_unit"]["value"] == 0
    assert metrics["certify.minimal_orbit_constant.ms_per_unit"]["value"] > 0
    assert info["spans"] > 0
    assert (ROOT / ".bench_out" / "spans-search-small-beta-seed3.npz").is_file()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


VERIFY = worker.WORKLOADS["sweep-small"]
SEARCH = worker.WORKLOADS["search-small-beta"]


def test_verify_check_counts_a_broken_call_as_all_failed():
    argv = VERIFY.argv(1, 1, False)
    code, text = worker.invoke(argv)
    attempted, failed, digest = VERIFY.check(argv, code, text)
    assert code == 0 and failed == 0 and digest
    assert attempted == VERIFY.trials * len(worker.certify.trial_statements(VERIFY.betas))
    for bad_code, bad_text in ((2, text), (None, ""), (0, "not json")):
        assert VERIFY.check(argv, bad_code, bad_text) == (attempted, attempted, None)
    short = json.loads(text)
    short["totalChecks"] -= 1
    assert VERIFY.check(argv, 0, json.dumps(short))[1] == attempted


def test_search_check_rejects_nonfinite_and_ratio_above_one():
    argv = SEARCH.argv(1, 1, False)
    code, text = worker.invoke(argv)
    rows = json.loads(text)
    assert SEARCH.check(argv, code, text)[1] == 0
    rows[0]["ratio"] = 1.5
    rows[1]["empirical_c"] = float("nan")
    assert SEARCH.check(argv, 0, json.dumps(rows))[1] == 2
    assert SEARCH.check(argv, 2, text) == (3, 3, None)


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    inner()
    totals = tracer.totals()
    (outer_calls, outer_s, outer_self), (inner_calls, inner_s, inner_self) = totals["outer"], totals["inner"]
    assert outer_calls == 1 and inner_calls == 3
    assert inner_s >= 0.06 and inner_self == pytest.approx(inner_s)
    assert outer_s >= 0.05
    nested_s = tracer.durations("inner")[:2].sum()
    assert outer_self == pytest.approx(outer_s - nested_s)
    assert list(tracer.parent) == [-1, 0, 0, -1]
    # Only the two calls made under "outer" lie within it.
    assert list(tracer.within("outer")) == [False, True, True, False]


def test_patch_everywhere_covers_from_imports_and_restores():
    from matineq import certify, core, maps

    original = core.mat_abs
    tracer = Tracer()
    bound = tracer.patch_everywhere(original, "core.mat_abs", "matineq")
    try:
        assert bound >= 3  # core, certify and the package namespace
        assert certify.mat_abs is core.mat_abs is not original
        certify.check_block_certificate(maps.random_cp_map(0, 2, 2), core.random_normal(1, 2))
        assert tracer.totals()["core.mat_abs"][0] == 1
    finally:
        tracer.restore()
    assert core.mat_abs is original and certify.mat_abs is original
