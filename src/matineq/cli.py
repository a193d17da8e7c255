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


def cmd_verify(args):
    """Run the full statement sweep; returns (JSON report, exit code)."""
    start = time.perf_counter()
    pass_counts, failures = {}, []
    # dims cycle by absolute trial index so a recorded failure replays with
    # --trials 1 --trial-offset <index>.
    for trial in range(args.trial_offset, args.trial_offset + args.trials):
        n, m = args.dims[trial % len(args.dims)]
        outcomes = run_trial(args.seed, trial, n, m, args.beta, args.tol, inject_mutant=args.inject_mutant)
        for key, outcome in outcomes.items():
            pass_counts[key] = pass_counts.get(key, 0) + bool(outcome.passed)
            if not outcome.passed:
                min_slack = float(outcome.min_slack)
                failures.append(
                    {"statementId": key, "seed": args.seed, "trialIndex": trial, "minSlack": min_slack}
                )
    report = {
        "artifactVersion": ARTIFACT_VERSION,
        "config": {
            "command": "verify",
            "masterSeed": args.seed,
            "dims": [list(d) for d in args.dims],
            "trials": args.trials,
            "betaList": list(args.beta),
            "tol": args.tol,
            "outputPath": args.out,
            "trialOffset": args.trial_offset,
        },
        "statements": sorted(pass_counts),
        "passCounts": dict(sorted(pass_counts.items())),
        "failures": failures,
        "totalChecks": sum(pass_counts.values()) + len(failures),
        "wallTimeMs": (time.perf_counter() - start) * 1000.0,
    }
    return json.dumps(report, indent=2), (1 if failures else 0)


def _repro_results(name: str, betas):
    if betas and name not in ("sharpness-beta", "all"):
        raise ValueError(f"--beta applies to sharpness-beta and all, not to {name}")
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


def cmd_repro(args):
    results = _repro_results(args.name, args.beta)
    if args.json:
        text = json.dumps([repro_to_json(r) for r in results], indent=2)
    else:
        text = _format_repro_table(results)
    return text, (0 if all(r.passed for r in results) else 1)


def cmd_search(args):
    ((n, m),) = args.dims
    rows = estimate_constant(args.beta, seed=args.seed, trials=args.trials, n=n, m=m)
    if args.json:
        return json.dumps(rows, indent=2), 0
    lines = ["beta,empirical_c,bound,ratio"]
    for row in rows:
        lines.append(
            f"{row['beta']:.17g},{row['empirical_c']:.17g},"
            f"{row['bound']:.17g},{row['ratio']:.17g}"
        )
    return "\n".join(lines), 0


def cmd_counterexample(args):
    result = search_nonnormal_counterexample(args.seed, args.trials)
    return json.dumps(repro_to_json(result), indent=2), 0


def _checked(convert, ok, message: str):
    """An argparse type: ``convert`` the text, then refuse a value failing ``ok``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    # argparse names the type in its "invalid <type> value" message
    parse.__name__ = convert.__name__
    return parse


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
    return betas


def _parse_sweep_betas(text: str):
    """A ``verify --beta`` list: weights whose statement keys ``certify`` can tell apart."""
    betas = _parse_betas(text)
    try:
        certify.trial_statements(betas)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return betas


def _parse_out(path: str) -> str:
    """A report path, checked before any work: no directory there, and a writable parent."""
    if path == "-":
        return path
    if not path:
        raise argparse.ArgumentTypeError("--out needs a path, or - for standard output")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"cannot write --out {path}: it is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"cannot write --out {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"cannot write --out {path}: directory {parent} is not writable"
        )
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matineq",
        description="verify positive-linear-map inequalities, reproduce worked "
        "examples, and search for empirical constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _checked(int, lambda s: s >= 0, "--seed must be nonnegative")
    trials = _checked(int, lambda t: t >= 1, "--trials must be >= 1")
    tol = _checked(float, lambda t: math.isfinite(t) and t > 0, "--tol must be finite and positive")
    offset = _checked(int, lambda i: i >= 0, "--trial-offset must be nonnegative")
    pair = _checked(_parse_dims, lambda dims: len(dims) == 1, "search takes a single --dims pair n,m")

    verify = sub.add_parser("verify", help="run the statement sweep")
    verify.set_defaults(run=cmd_verify, parser=verify)
    verify.add_argument("--seed", type=seed, default=42, help="master seed")
    verify.add_argument("--trials", type=trials, default=100)
    verify.add_argument("--dims", type=_parse_dims, default=DEFAULT_DIMS, metavar="n,m[;n,m...]")
    verify.add_argument("--beta", type=_parse_sweep_betas, default=DEFAULT_BETAS, metavar="b[,b...]")
    verify.add_argument("--tol", type=tol, default=certify.DEFAULT_TOL)
    verify.add_argument("--out", type=_parse_out, default="-", metavar="PATH")
    verify.add_argument("--trial-offset", type=offset, default=0, help="first trial index (replay)")
    verify.add_argument("--inject-mutant", action="store_true", help=argparse.SUPPRESS)

    repro = sub.add_parser("repro", help="reproduce a worked example")
    repro.set_defaults(run=cmd_repro, parser=repro)
    repro.add_argument("name", choices=REPRO_NAMES)
    repro.add_argument("--beta", type=_parse_betas, metavar="b[,b...]", help="sharpness-beta and all only")
    repro.add_argument("--out", type=_parse_out, default="-", metavar="PATH")
    repro.add_argument("--json", action="store_true")

    search = sub.add_parser("search", help="empirical constants for small weights")
    search.set_defaults(run=cmd_search, parser=search)
    search.add_argument("--seed", type=seed, default=42)
    search.add_argument("--trials", type=trials, default=200)
    search.add_argument("--beta", type=_parse_betas, default=(0.1, 0.25, 0.5), metavar="b[,b...]")
    search.add_argument("--dims", type=pair, default=((2, 2),), metavar="n,m")
    search.add_argument("--out", type=_parse_out, default="-", metavar="PATH")
    search.add_argument("--json", action="store_true")

    counter = sub.add_parser("counterexample", help="search for a nonnormal determinant violation")
    counter.set_defaults(run=cmd_counterexample, parser=counter)
    counter.add_argument("--seed", type=seed, default=42)
    counter.add_argument("--trials", type=trials, default=100000)
    counter.add_argument("--out", type=_parse_out, default="-", metavar="PATH")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
    except ValueError as exc:
        # An error inside the sweep is a fault of the library, not of the usage.
        if args.command == "verify":
            raise
        args.parser.error(str(exc))
    if args.out == "-":
        print(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    except OSError as exc:
        args.parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    return code


if __name__ == "__main__":
    sys.exit(main())
