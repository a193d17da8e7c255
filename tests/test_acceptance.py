"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from matineq.core import mat_abs, random_matrix, random_psd, random_normal, geometric_mean, spectral_norm
from matineq.maps import random_cp_map, schur_multiplier
from matineq.certify import (
    chain_certificate,
    check_theorem_main,
    check_two_positive_unital,
    quarter_sharpness_hermitian,
    quarter_sharpness_map,
    repro_no_single_unitary,
    repro_psi_sharpness,
    repro_sharpness_beta,
    run_trial,
    search_nonnormal_counterexample,
    sharpness_family,
    _real_part_margin,
)
from matineq.serialize import matrix_from_json

from _oracles import arithmetic_harmonic_mean, abs_via_eig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def report(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_sharpness_constants():
    start = time.perf_counter()
    ok = True
    for beta in (0.5, 1.0, 2.0):
        result = repro_sharpness_beta(beta)
        ok &= abs(result.computed["lambda1"] - 0.5) <= 1e-12
        ok &= abs(result.computed["lambda2"] - (1.0 - 2.0 * beta**2)) <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(f"criterion 1: sharpness-family constants at 1e-12 ({elapsed:.3f}s)", ok)


def test_criterion_2_quarter_map_sharpness():
    start = time.perf_counter()
    result = repro_psi_sharpness()
    ok = abs(result.computed["c_min"] - 0.25) <= 1e-12
    ok &= "stated_identity" in result.notes  # discrepancy recorded in the report
    ok &= abs(result.computed["stated_identity_gap"] - 0.5) <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(f"criterion 2: quarter-map minimal constant 0.25 at 1e-12 ({elapsed:.3f}s)", ok)


def test_criterion_3_no_single_unitary_limit():
    start = time.perf_counter()
    angles = (1e-1, 1e-2, 1e-3)
    result = repro_no_single_unitary(angles)
    ratios = [result.computed[f"ratio_a={a:g}"] for a in angles]
    ok = all(abs(r - a / 2.0) <= 0.01 * (a / 2.0) for r, a in zip(ratios, angles))
    ok &= all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(f"criterion 3: trace-ratio matches a/2 within 1% and decreases ({elapsed:.3f}s)", ok)


def test_criterion_4_theorem_soundness_sweep():
    start = time.perf_counter()
    betas = (0.25, 0.5, 1.0, 2.0)
    dims = list(itertools.product((2, 3, 4), (2, 3, 4)))
    failures = []
    tuples = 0
    for trial in range(250):
        n, m = dims[trial % len(dims)]
        pmap = random_cp_map([1001, trial, 0], n, m)
        nmat = random_normal([1001, trial, 1], n)
        for beta in betas:
            tuples += 1
            arith, geom = check_theorem_main(pmap, nmat, beta, tol=1e-8)
            chain = chain_certificate(geom, arith, tol=1e-8)
            for cert in (arith, geom, chain):
                if not cert.passed:
                    failures.append((trial, beta, cert.statement_id, cert.min_slack))
    elapsed = time.perf_counter() - start
    ok = tuples == 1000 and not failures and elapsed < 60.0
    report(
        f"criterion 4: {tuples} tuples, {len(failures)} failures at 1e-8 scale ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_5_corollary_sweep():
    start = time.perf_counter()
    betas = (0.25, 0.5, 1.0, 2.0)
    dims = list(itertools.product((2, 3, 4), (2, 3, 4)))
    failures = []
    for trial in range(500):
        n, m = dims[trial % len(dims)]
        outcomes = run_trial(2002, trial, n, m, betas)
        for key, outcome in outcomes.items():
            if not outcome.passed:
                failures.append((trial, key, outcome.min_slack))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(
        f"criterion 5: 500 instances per statement, {len(failures)} failures ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_6_equality_attainment():
    ok = True
    for beta in (0.5, 1.0, 2.0):
        a, r = sharpness_family(beta)
        arith, _ = check_theorem_main(schur_multiplier(a), r, beta)
        ok &= abs(arith.slack_spectrum[-1]) <= 1e-12
    cert = check_two_positive_unital(quarter_sharpness_map(), quarter_sharpness_hermitian())
    ok &= np.allclose(cert.slack_spectrum, [0.75, 0.0], atol=1e-12)
    report("criterion 6: equality attained on both sharp configurations at 1e-12", ok)


def test_criterion_7_oracle_equivalence():
    ok = True
    for seed in range(200):
        n = 2 + seed % 4  # n <= 5
        a = random_psd([3003, seed, 0], n) + 0.05 * np.eye(n)
        b = random_psd([3003, seed, 1], n) + 0.05 * np.eye(n)
        g = geometric_mean(a, b)
        ok &= spectral_norm(g - arithmetic_harmonic_mean(a, b)) <= 1e-8
    for seed in range(200):
        x = random_matrix([3003, seed, 2], 2 + seed % 4)
        scale = max(1.0, spectral_norm(x))
        ok &= spectral_norm(mat_abs(x) - abs_via_eig(x)) <= 1e-9 * scale
    report("criterion 7: geometric mean and absolute value match independent oracles", ok)


def test_criterion_8_nonnormal_counterexample():
    with open(os.path.join(GOLDEN_DIR, "nonnormal_counterexample.json")) as fh:
        golden = json.load(fh)
    result = search_nonnormal_counterexample(golden["searchSeed"], golden["searchTrials"])
    ok = result.computed["found"] == 1.0
    ok &= result.computed["margin"] > 1e-6
    frozen = matrix_from_json(golden["matrices"]["matrix"])
    ok &= bool(np.array_equal(result.matrices["matrix"], frozen))
    ok &= _real_part_margin(frozen)[2] == pytest.approx(golden["computed"]["margin"], abs=1e-15)
    report("criterion 8: nonnormal determinant violation found and replayed exactly", ok)
