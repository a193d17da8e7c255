"""One benchmark process: import matineq, warm up, then run one workload.

``run.py`` starts this script with BLAS pinned and ``PYTHONPATH`` pointing at
the checkout's ``src``; it is not meant to be run by hand. Modes:

* ``probe``: import and finish the warm-up unit, then exit (set-up samples);
* ``run``: after the warm-up, call ``matineq.cli.main`` in a closed loop (one
  client, no worker pool) for ``--seconds`` and report throughput, scaled to
  one host speed by ``reference_seconds``, and memory;
* ``trace``: run the loop untraced for half of ``--seconds``, replay the same
  calls with spans recorded at every layer boundary, time ``run_trial`` for
  growing ``n`` and report per-layer metrics.

After the warm-up the script prints ``READY <digest>``; its last line is one
JSON object for ``run.py``. Every call's output is checked; a call that raises
or exits with a code other than 0 or 1 counts all of its checks as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import scipy.linalg

from matineq import certify, cli, maps, serialize

from spans import Tracer

CURVE_DIMS = (2, 4, 8, 12, 16)
# The CLI's default weights, so the curve is the same on every workload.
CURVE_BETAS = (0.25, 0.5, 1.0, 2.0)

CORE_FNS = (
    "as_matrix",
    "hermitian_part",
    "spectral_norm",
    "singular_values",
    "mat_abs",
    "polar",
    "geometric_mean",
    "weak_log_majorize",
    "is_normal",
)
LAPACK_FNS = (
    (np.linalg, "svd"),
    (np.linalg, "eigh"),
    (np.linalg, "eigvalsh"),
    (np.linalg, "norm"),
    (np.linalg, "det"),
    (scipy.linalg, "schur"),
)
CERTIFY_FNS = tuple(n for n in certify.__all__ if n.startswith("check_")) + (
    "chain_certificate",
    "minimal_orbit_constant",
)
MAP_GENERATORS = ("random_cp_map", "random_unital_cp_map")

# Time of one ``reference_seconds`` pass on the host the bounds were set on (a
# 2-core KVM guest, Intel Xeon at 2.1 GHz, OpenBLAS 0.3.31) at its fastest.
REFERENCE_S = 0.24


def reference_seconds() -> float:
    """Time one pass of a fixed kernel that does not use matineq.

    The host's speed drifts: on the host above it switched every few seconds
    between two states about 1.6 times apart, which spread the median call
    rate of a run by up to 0.32 across runs. The kernel does what the
    workloads spend most of their time on, Python driving tiny complex LAPACK
    calls, so its time follows the host's state. Each call's rate is scaled by
    the kernel times just before and after it. The kernel's arrays are small,
    so that ``peak_rss_mb`` stays the program's.
    """
    rng = np.random.default_rng(0)
    small = rng.standard_normal((300, 4, 4)) + 1j * rng.standard_normal((300, 4, 4))
    t0 = perf_counter()
    for _ in range(10):
        for a in small:
            h = (a + a.conj().T) / 2
            np.linalg.eigvalsh(h)
            np.linalg.svd(a, compute_uv=False)
            np.linalg.norm(a, 2)
            np.kron(a, h) @ np.kron(h, a)
    return perf_counter() - t0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Verify:
    """``matineq verify`` sweeps; a unit is one trial.

    Call 0 is the one-trial warm-up at offset 0; call ``i`` runs ``trials``
    trials from offset ``1 + (i - 1) * trials``, so no trial repeats in a run.
    ``trials`` is a multiple of the number of dims pairs, so each call covers
    every pair equally.
    """

    unit_span = "certify.run_trial"

    def __init__(self, dims: str, betas: tuple, trials: int):
        self.dims, self.betas, self.trials = dims, betas, trials

    def argv(self, seed: int, call: int, mutant: bool) -> list:
        trials, offset = (1, 0) if call == 0 else (self.trials, 1 + (call - 1) * self.trials)
        argv = [
            "verify", "--seed", str(seed), "--dims", self.dims,
            "--beta", ",".join(f"{b:g}" for b in self.betas),
            "--trials", str(trials), "--trial-offset", str(offset),
        ]
        return argv + ["--inject-mutant"] if mutant else argv

    def units(self, argv: list) -> int:
        return int(argv[argv.index("--trials") + 1])

    def check(self, argv: list, code, text: str):
        """(checks attempted, checks failed, digest of the deterministic report)."""
        expected = self.units(argv) * len(certify.trial_statements(self.betas))
        if code not in (0, 1):
            return expected, expected, None
        try:
            report = json.loads(text)
            failed = len(report["failures"])
            total = report["totalChecks"]
            del report["wallTimeMs"]
        except (ValueError, KeyError, TypeError):
            return expected, expected, None
        if total != expected or (code == 0) != (failed == 0):
            return expected, expected, None
        return expected, failed, _digest(json.dumps(report, sort_keys=True))


class Search:
    """``matineq search --json``; a unit is one map/matrix instance.

    Each call handles ``len(betas) * (trials + 1)`` instances: ``trials``
    random pairs plus the sharpness-family pair per weight. Search has no
    trial offset, so call ``i`` runs with seed ``seed * 100000 + i``; call 0
    is the one-trial warm-up.
    """

    unit_span = "certify.minimal_orbit_constant"

    def __init__(self, dims: str, betas: tuple, trials: int):
        self.dims, self.betas, self.trials = dims, betas, trials

    def argv(self, seed: int, call: int, mutant: bool) -> list:
        trials = 1 if call == 0 else self.trials
        return [
            "search", "--seed", str(seed * 100000 + call), "--dims", self.dims,
            "--beta", ",".join(f"{b:g}" for b in self.betas),
            "--trials", str(trials), "--json",
        ]

    def units(self, argv: list) -> int:
        return len(self.betas) * (int(argv[argv.index("--trials") + 1]) + 1)

    def check(self, argv: list, code, text: str):
        """Each row is one check: every field finite and ``ratio <= 1``."""
        expected = len(self.betas)
        if code != 0:
            return expected, expected, None
        try:
            rows = json.loads(text)
            good = [
                all(math.isfinite(row[k]) for k in ("beta", "empirical_c", "bound", "ratio"))
                and row["ratio"] <= 1.0
                for row in rows
            ]
        except (ValueError, KeyError, TypeError):
            return expected, expected, None
        if len(rows) != expected:
            return expected, expected, None
        return expected, good.count(False), _digest(text)


# Calls as a user issues them: 99 verify trials (the CLI default of 100, rounded
# down to a multiple of the 3 dims pairs) and the search default of 200 trials.
# sweep-large runs 2 trials a call: a 100-trial call there takes about 4 minutes,
# longer than one run may last.
WORKLOADS = {
    "sweep-small": Verify("2,2;3,3;4,4", (0.25, 0.5, 1.0, 2.0), trials=99),
    "sweep-large": Verify("12,12;16,16", (0.25, 0.5, 1.0, 2.0), trials=2),
    "search-small-beta": Search("3,3", (0.1, 0.25, 0.5), trials=200),
}


def invoke(argv: list):
    """Run ``matineq.cli.main(argv)``; returns (exit code or None if it raised, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a raising command is a recorded failure, not a crash
        traceback.print_exc()
        code = None
    return code, out.getvalue()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def run_call(workload, argv: list, tally: Tally):
    """One checked call; returns (seconds spent in the CLI, digest)."""
    t0 = perf_counter()
    code, text = invoke(argv)
    seconds = perf_counter() - t0
    attempted, failed, digest = workload.check(argv, code, text)
    tally.add(attempted, failed)
    return seconds, digest


def closed_loop(workload, seed: int, seconds: float, mutant: bool, tally: Tally) -> list:
    """Issue calls 1, 2, ... back to back until ``seconds`` have passed.

    Returns ``(argv, units, seconds in the CLI, reference seconds)`` per call;
    the last is the mean of the ``reference_seconds`` passes before and after it.
    """
    done = []
    reference_seconds()  # the first pass in a process also loads the LAPACK routines
    before = reference_seconds()
    start = perf_counter()
    call = 1
    while perf_counter() - start < seconds:
        argv = workload.argv(seed, call, mutant)
        spent, _ = run_call(workload, argv, tally)
        after = reference_seconds()
        done.append((argv, workload.units(argv), spent, (before + after) / 2.0))
        before = after
        call += 1
    return done


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def _max_shape(counters, args, kwargs, result) -> None:
    counters["core.max_dim"] = max(counters["core.max_dim"], max(result.shape))


def _kraus_terms(counters, args, kwargs, result) -> None:
    counters["maps.kraus_terms"] += len(args[0].kraus_ops)


def _decomposition_dim3(counters, args, kwargs, result) -> None:
    shape = np.shape(args[0])
    rows, cols = shape[-2:]
    counters["lapack.flops_computed"] += math.prod(shape[:-2]) * rows * cols * min(rows, cols)


def _norm_dim3(counters, args, kwargs, result) -> None:
    # Only the spectral and nuclear norms run a decomposition (an SVD).
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    if order in (2, -2, "nuc"):
        _decomposition_dim3(counters, args, kwargs, result)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from matineq import core

    for name in CORE_FNS:
        hook = _max_shape if name == "as_matrix" else None
        tracer.patch_everywhere(getattr(core, name), f"core.{name}", "matineq", hook)
    for owner, name in LAPACK_FNS:
        tracer.patch(owner, name, f"lapack.{name}", _norm_dim3 if name == "norm" else _decomposition_dim3)
    tracer.patch_everywhere(maps.apply, "maps.apply", "matineq", _kraus_terms)
    for name in ("compose",) + MAP_GENERATORS:
        tracer.patch_everywhere(getattr(maps, name), f"maps.{name}", "matineq")
    # estimate_constant has no metric; wrapping it keeps its loop out of cli self time.
    for name in CERTIFY_FNS + ("run_trial", "estimate_constant"):
        tracer.patch_everywhere(getattr(certify, name), f"certify.{name}", "matineq")
    for name in serialize.__all__:
        tracer.patch_everywhere(getattr(serialize, name), f"serialize.{name}", "matineq")
    tracer.patch(cli, "main", "cli.main")


def _quantile(sorted_values, q: float) -> float:
    return float(sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))])


def layer_metrics(tracer: Tracer, workload, units: int) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``, normalised per work unit."""
    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    ms = 1000.0 / units
    out = {}
    for name in CORE_FNS:
        out[f"core.{name}.calls_per_unit"] = (calls(f"core.{name}") / units, "count")
        out[f"core.{name}.self_ms_per_unit"] = (self_s(f"core.{name}") * ms, "ms")
    out["core.max_dim"] = (tracer.counters["core.max_dim"], "dim")
    for _, name in LAPACK_FNS:
        out[f"lapack.{name}.calls_per_unit"] = (calls(f"lapack.{name}") / units, "count")
        out[f"lapack.{name}.self_ms_per_unit"] = (self_s(f"lapack.{name}") * ms, "ms")
    out["lapack.flops_computed_per_unit"] = (tracer.counters["lapack.flops_computed"] / units, "dim3")
    out["maps.apply.calls_per_unit"] = (calls("maps.apply") / units, "count")
    out["maps.apply.self_ms_per_unit"] = (self_s("maps.apply") * ms, "ms")
    out["maps.kraus_terms_per_unit"] = (tracer.counters["maps.kraus_terms"] / units, "count")
    out["maps.compose.calls_per_unit"] = (calls("maps.compose") / units, "count")
    out["maps.gen.self_ms_per_unit"] = (sum(self_s(f"maps.{n}") for n in MAP_GENERATORS) * ms, "ms")
    for name in CERTIFY_FNS:
        out[f"certify.{name}.ms_per_unit"] = (total_s(f"certify.{name}") * ms, "ms")
    out["certify.run_trial.self_ms_per_unit"] = (self_s("certify.run_trial") * ms, "ms")
    unit_s = np.sort(tracer.durations(workload.unit_span))
    out["certify.unit_ms_p50"] = (_quantile(unit_s, 0.5) * 1000.0, "ms")
    out["certify.unit_ms_p90"] = (_quantile(unit_s, 0.9) * 1000.0, "ms")
    out["certify.unit_samples"] = (len(unit_s), "count")
    out["cli.self_ms_per_unit"] = (self_s("cli.main") * ms, "ms")
    out["serialize.calls"] = (sum(calls(f"serialize.{n}") for n in serialize.__all__), "count")
    # Only lapack calls made inside a unit span count against unit time.
    ids, _, duration = tracer.columns()
    lapack_ids = [i for i, n in enumerate(tracer.names) if n.startswith("lapack.")]
    in_units = np.isin(ids, lapack_ids) & tracer.within(workload.unit_span)
    out["py_overhead_frac"] = (1.0 - float(duration[in_units].sum() / unit_s.sum()), "ratio")
    return out


def scaling_curve(seed: int, tally: Tally) -> dict:
    """Untraced ``run_trial`` time at ``n = m`` for each of CURVE_DIMS (median of reps)."""
    out = {}
    for n in CURVE_DIMS:
        times = []
        for trial in range(3 if n <= 8 else 1):
            t0 = perf_counter()
            outcomes = certify.run_trial(seed, trial, n, n, CURVE_BETAS)
            times.append(perf_counter() - t0)
            tally.add(len(outcomes), sum(not o.passed for o in outcomes.values()))
        out[f"certify.run_trial.ms.n{n}"] = (statistics.median(times) * 1000.0, "ms")
    return out


def trace_run(workload, args, tally: Tally) -> dict:
    half = closed_loop(workload, args.seed, args.seconds / 2.0, args.inject_mutant, tally)
    tracer = Tracer()
    install(tracer)
    try:
        traced_s = sum(run_call(workload, argv, tally)[0] for argv, *_ in half)
    finally:
        tracer.restore()
    units = sum(u for _, u, *_ in half)
    metrics = layer_metrics(tracer, workload, units)
    metrics["trace_overhead_frac"] = (traced_s / sum(s for _, _, s, _ in half) - 1.0, "ratio")
    metrics.update(scaling_curve(args.seed, tally))
    out_dir = Path(args.spans_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    return {"metrics": metrics, "units": units, "spans": len(tracer.start)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--spans-dir", required=True)
    parser.add_argument("--inject-mutant", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tally = Tally()
    warmup = workload.argv(args.seed, 0, args.inject_mutant)
    _, digest = run_call(workload, warmup, tally)
    print(f"READY {digest}", flush=True)
    if args.mode == "probe":
        return 0

    result = {"environment": environment(), "digest": digest}
    if args.mode == "run":
        calls = closed_loop(workload, args.seed, args.seconds, args.inject_mutant, tally)
        result["units"] = sum(u for _, u, *_ in calls)
        result["calls"] = len(calls)
        result["units_per_s"] = statistics.median(u / s * r / REFERENCE_S for _, u, s, r in calls)
        result["call_units_per_s"] = [u / s for _, u, s, _ in calls]
        result["call_reference_s"] = [r for *_, r in calls]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result.update(trace_run(workload, args, tally))
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
