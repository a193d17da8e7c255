"""matineq benchmark: one command per workload, run from the root of a checkout.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

Builds nothing: matineq is imported from the checkout's ``src``. Every process
it starts has BLAS pinned to one thread. With ``--trace 0`` it prints the
end-to-end metrics:

* ``setup_s``: median over SETUP_SAMPLES fresh processes of the time to start,
  import ``matineq.cli`` and finish one warm-up unit;
* ``units_per_s``: median over the timed calls of units finished per second,
  in one closed loop (one client, no worker pool) lasting ``--seconds``, each
  call's rate scaled to one host speed (``worker.reference_seconds``);
* ``peak_rss_mb``: ``ru_maxrss`` of the timed process.

With ``--trace 1`` a separate traced process prints the per-layer metrics (see
``worker.py``). Every call's output is checked, and the warm-up report must
hash to the same digest in every process of the run. The line before the last
holds the environment, the digest and ``fail_frac``; the last line is the
result object. The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep-small", "sweep-large", "search-small-beta")
SETUP_SAMPLES = 9
BLAS_THREADS = "1"
# Every run, its set-up included, must end within this many seconds.
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Stop git from searching directories above the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, mode: str, deadline: float):
    """Start one worker; returns (seconds until it was ready, digest, result or None)."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--spans-dir", str(ROOT / ".bench_out"),
    ]
    if args.inject_mutant:
        cmd.append("--inject-mutant")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    # The timer kills a worker that runs past the deadline, which ends both reads.
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().split()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if perf_counter() >= deadline:
        raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "READY":
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, ready[1], json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="matineq benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--inject-mutant",
        action="store_true",
        help="pass --inject-mutant to verify (self-test of the correctness check)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "matineq" / "cli.py").is_file():
        print(f"matineq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    try:
        if args.trace:
            _, digest, result = run_worker(args, "trace", deadline)
            digests = {digest}
        else:
            # Probes on both sides of the timed run, so that the median of the
            # set-up samples spans the host's drift over the whole run.
            probes = [run_worker(args, "probe", deadline) for _ in range(SETUP_SAMPLES // 2)]
            setup_s, digest, result = run_worker(args, "run", deadline)
            probes += [run_worker(args, "probe", deadline) for _ in range(SETUP_SAMPLES // 2)]
            setups = [p[0] for p in probes] + [setup_s]
            digests = {p[1] for p in probes} | {digest}
    except (WorkerFailed, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("benchmark failed: the worker printed no result", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "units_per_s": {"value": result["units_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = result["attempted"], result["failed"]
    deterministic = len(digests) == 1 and "None" not in digests
    correct = failed == 0 and attempted > 0 and deterministic

    info = {key: value for key, value in result.items() if key not in ("metrics", "attempted", "failed")}
    info["environment"].update(
        {
            "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "commit": git_commit(),
            "seed": args.seed,
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "load": "closed loop, one client, no worker pool",
        }
    )
    info["fail_frac"] = failed / attempted if attempted else 1.0
    info["deterministic"] = deterministic
    if not args.trace:
        info["setup_samples_s"] = setups
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
