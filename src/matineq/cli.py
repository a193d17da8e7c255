"""Command line harness: verification sweeps, worked reproductions, constant search.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage error.
Reports are deterministic for a fixed configuration and artifact version, up
to the wall-time field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from . import certify
from .certify import (
    estimate_constant,
    repro_no_single_unitary,
    repro_psi_sharpness,
    repro_sharpness_beta,
    run_trial,
    search_nonnormal_counterexample,
)
from .serialize import repro_to_json

ARTIFACT_VERSION = f"matineq-{__version__}"

DEFAULT_DIMS = ((2, 2), (3, 3))
DEFAULT_BETAS = (0.25, 0.5, 1.0, 2.0)
DEFAULT_SHARPNESS_BETAS = (0.5, 1.0, 2.0)
DEFAULT_ANGLES = (1e-1, 1e-2, 1e-3)

REPRO_NAMES = ("sharpness-beta", "no-single-unitary", "psi-quarter", "all")

# Bytes allowed for the largest intermediate of a --dims pair n,m: the n*m
# complex Kraus factors of random_cp_map, 16 n^2 m^2 bytes. A sweep trial
# holds a few maps of that size at once.
MAX_KRAUS_BYTES = 64 * 2**20


@dataclass(frozen=True)
class RunConfig:
    """Echoed verbatim into every report."""

    command: str
    master_seed: int
    dims: tuple
    trials: int
    beta_list: tuple
    tol: float
    output_path: str
    trial_offset: int = 0

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "masterSeed": self.master_seed,
            "dims": [list(d) for d in self.dims],
            "trials": self.trials,
            "betaList": list(self.beta_list),
            "tol": self.tol,
            "outputPath": self.output_path,
            "trialOffset": self.trial_offset,
        }


@dataclass
class RunReport:
    config: RunConfig
    pass_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    wall_time_ms: float = 0.0
    artifact_version: str = ARTIFACT_VERSION

    def to_json(self) -> dict:
        return {
            "artifactVersion": self.artifact_version,
            "config": self.config.to_json(),
            "statements": sorted(self.pass_counts),
            "passCounts": {k: self.pass_counts[k] for k in sorted(self.pass_counts)},
            "failures": self.failures,
            "totalChecks": sum(self.pass_counts.values()) + len(self.failures),
            "wallTimeMs": self.wall_time_ms,
        }


def _emit(text: str, path: str) -> None:
    """Write ``text`` to stdout (``-``) or to ``path``; a failed write is a ValueError."""
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from exc


def _out_problem(path: str):
    """Why a report could not be written to ``path``, checked before any work; None if it can."""
    if path == "-":
        return None
    if os.path.isdir(path):
        return f"cannot write --out {path}: it is a directory"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"cannot write --out {path}: no directory {parent}"
    if not os.access(parent, os.W_OK):
        return f"cannot write --out {path}: directory {parent} is not writable"
    return None


def cmd_verify(config: RunConfig, inject_mutant: bool = False):
    """Run the full statement sweep; returns (report, exit_code)."""
    start = time.perf_counter()
    report = RunReport(config=config)
    # dims cycle by absolute trial index so a recorded failure replays with
    # --trials 1 --trial-offset <index>.
    for trial in range(config.trial_offset, config.trial_offset + config.trials):
        n, m = config.dims[trial % len(config.dims)]
        outcomes = run_trial(
            config.master_seed, trial, n, m, config.beta_list, config.tol, inject_mutant=inject_mutant
        )
        for key, outcome in outcomes.items():
            if outcome.passed:
                report.pass_counts[key] = report.pass_counts.get(key, 0) + 1
            else:
                report.pass_counts.setdefault(key, 0)
                report.failures.append(
                    {
                        "statementId": key,
                        "seed": config.master_seed,
                        "trialIndex": trial,
                        "minSlack": float(outcome.min_slack),
                    }
                )
    report.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return report, (0 if not report.failures else 1)


def _repro_results(name: str, betas):
    results = []
    if name in ("sharpness-beta", "all"):
        for beta in betas or DEFAULT_SHARPNESS_BETAS:
            results.append(repro_sharpness_beta(beta))
    if name in ("no-single-unitary", "all"):
        results.append(repro_no_single_unitary(DEFAULT_ANGLES))
    if name in ("psi-quarter", "all"):
        results.append(repro_psi_sharpness())
    return results


def _format_repro_table(results) -> str:
    lines = []
    header = f"{'example':<24} {'quantity':<24} {'computed':>24} {'expected':>24} {'|err|':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for result in results:
        for key in result.expected:
            computed = result.computed.get(key, float("nan"))
            expected = result.expected[key]
            lines.append(
                f"{result.example_id:<24} {key:<24} {computed:>24.16g} "
                f"{expected:>24.16g} {abs(computed - expected):>10.2e}"
            )
        status = "ok" if result.passed else f"FAIL (maxAbsError={result.max_abs_error:.3e})"
        lines.append(f"{result.example_id:<24} -> {status}")
    return "\n".join(lines)


def cmd_repro(name: str, betas, as_json: bool, output_path: str):
    results = _repro_results(name, betas)
    if as_json:
        _emit(json.dumps([repro_to_json(r) for r in results], indent=2), output_path)
    else:
        _emit(_format_repro_table(results), output_path)
    return results, (0 if all(r.passed for r in results) else 1)


def cmd_search(betas, seed, trials, dims, as_json: bool, output_path: str):
    n, m = dims[0]
    rows = estimate_constant(betas, seed=seed, trials=trials, n=n, m=m)
    if as_json:
        _emit(json.dumps(rows, indent=2), output_path)
    else:
        lines = ["beta,empirical_c,bound,ratio"]
        for row in rows:
            lines.append(
                f"{row['beta']:.17g},{row['empirical_c']:.17g},"
                f"{row['bound']:.17g},{row['ratio']:.17g}"
            )
        _emit("\n".join(lines), output_path)
    return rows, 0


def cmd_counterexample(seed, trials, output_path: str):
    result = search_nonnormal_counterexample(seed, trials)
    _emit(json.dumps(repro_to_json(result), indent=2), output_path)
    return result, 0


def _parse_dims(text: str):
    try:
        pairs = []
        for chunk in text.split(";"):
            n, m = chunk.split(",")
            pairs.append((int(n), int(m)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}: expected n,m[;n,m...]") from exc
    if not pairs or any(n < 1 or m < 1 for n, m in pairs):
        raise argparse.ArgumentTypeError("dims must be positive pairs n,m")
    for n, m in pairs:
        if 16 * (n * m) ** 2 > MAX_KRAUS_BYTES:
            raise argparse.ArgumentTypeError(
                f"dims {n},{m} need {16 * (n * m) ** 2} bytes of Kraus factors, "
                f"over the budget of {MAX_KRAUS_BYTES} bytes"
            )
    return tuple(pairs)


def _parse_betas(text: str):
    try:
        betas = tuple(float(b) for b in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad beta list {text!r}") from exc
    if not betas or not all(math.isfinite(b) and b > 0 for b in betas):
        raise argparse.ArgumentTypeError("betas must be finite and positive")
    return betas


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matineq",
        description="verify positive-linear-map inequalities, reproduce worked "
        "examples, and search for empirical constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the statement sweep")
    verify.add_argument("--seed", type=int, default=42, help="master seed")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--dims", type=_parse_dims, default=DEFAULT_DIMS, metavar="n,m[;n,m...]")
    verify.add_argument("--beta", type=_parse_betas, default=DEFAULT_BETAS, metavar="b[,b...]")
    verify.add_argument("--tol", type=float, default=certify.DEFAULT_TOL)
    verify.add_argument("--out", default="-", metavar="PATH")
    verify.add_argument("--trial-offset", type=int, default=0, help="first trial index (replay)")
    verify.add_argument("--inject-mutant", action="store_true", help=argparse.SUPPRESS)

    repro = sub.add_parser("repro", help="reproduce a worked example")
    repro.add_argument("name", choices=REPRO_NAMES)
    repro.add_argument("--beta", type=_parse_betas, default=None, metavar="b[,b...]")
    repro.add_argument("--out", default="-", metavar="PATH")
    repro.add_argument("--json", action="store_true")

    search = sub.add_parser("search", help="empirical constants for small weights")
    search.add_argument("--seed", type=int, default=42)
    search.add_argument("--trials", type=int, default=200)
    search.add_argument("--beta", type=_parse_betas, default=(0.1, 0.25, 0.5), metavar="b[,b...]")
    search.add_argument("--dims", type=_parse_dims, default=((2, 2),), metavar="n,m")
    search.add_argument("--out", default="-", metavar="PATH")
    search.add_argument("--json", action="store_true")

    counter = sub.add_parser("counterexample", help="search for a nonnormal determinant violation")
    counter.add_argument("--seed", type=int, default=42)
    counter.add_argument("--trials", type=int, default=100000)
    counter.add_argument("--out", default="-", metavar="PATH")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    problem = _out_problem(args.out)
    if problem:
        parser.error(problem)
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be nonnegative")

    if args.command == "verify":
        if args.trials < 1:
            parser.error("--trials must be >= 1")
        if not (math.isfinite(args.tol) and args.tol > 0):
            parser.error("--tol must be finite and positive")
        if args.trial_offset < 0:
            parser.error("--trial-offset must be nonnegative")
        tags = [certify.weight_tag(beta) for beta in args.beta]
        if len(set(tags)) < len(tags):
            parser.error(f"weights that print alike share report keys: {', '.join(tags)}")
        config = RunConfig(
            command="verify",
            master_seed=args.seed,
            dims=args.dims,
            trials=args.trials,
            beta_list=args.beta,
            tol=args.tol,
            output_path=args.out,
            trial_offset=args.trial_offset,
        )
        report, code = cmd_verify(config, inject_mutant=args.inject_mutant)
        try:
            _emit(json.dumps(report.to_json(), indent=2), args.out)
        except ValueError as exc:
            parser.error(str(exc))
        return code

    if args.command == "repro":
        try:
            _, code = cmd_repro(args.name, args.beta, args.json, args.out)
        except ValueError as exc:
            parser.error(str(exc))
        return code

    if args.command == "search":
        if len(args.dims) != 1:
            parser.error("search takes a single --dims pair n,m")
        try:
            _, code = cmd_search(args.beta, args.seed, args.trials, args.dims, args.json, args.out)
        except ValueError as exc:
            parser.error(str(exc))
        return code

    if args.command == "counterexample":
        try:
            _, code = cmd_counterexample(args.seed, args.trials, args.out)
        except ValueError as exc:
            parser.error(str(exc))
        return code

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
