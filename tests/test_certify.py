"""Tests for the inequality certificates and the worked sharpness examples."""

import ast
import functools
import glob
import inspect
import math
import os
import re
import time

import numpy as np
import pytest

import matineq
from matineq import certify, cli, maps, staging
from matineq.core import (
    MajorizationReport,
    _hermitian_within,
    _is_psd,
    as_matrix,
    direct_sum,
    geometric_mean,
    haar_unitary,
    herm_eig,
    hermitian_part,
    is_contraction,
    is_normal,
    loewner_leq,
    mat_abs,
    polar,
    random_contraction,
    random_matrix,
    random_normal,
    random_psd,
    schur_prod,
    spectral_norm,
    weak_log_majorize,
)
from matineq.maps import (
    PositiveMapRep,
    apply,
    corner_block_map,
    is_unital,
    partial_trace_first,
    random_cp_map,
    random_unital_cp_map,
    schur_multiplier,
)
from matineq.serialize import map_from_json, matrix_from_json, matrix_to_json
from matineq.certify import (
    DEFAULT_TOL,
    Certificate,
    chain_certificate,
    check_block_certificate,
    check_corollary_eigen,
    check_hermitian_sum,
    check_partial_trace,
    check_real_part,
    check_russo_dye,
    check_schur_diagonal,
    check_schur_normal,
    check_schur_square,
    check_sum_of_normals,
    check_theorem_main,
    check_two_positive_unital,
    check_weighted_sum,
    estimate_constant,
    minimal_orbit_constant,
    quarter_sharpness_hermitian,
    quarter_sharpness_map,
    repro_no_single_unitary,
    repro_psi_sharpness,
    repro_sharpness_beta,
    run_trial,
    search_nonnormal_counterexample,
    sharpness_family,
    trial_statements,
    _diagonal_certificate,
    _draw,
    _real_part_margin,
)

from _oracles import (
    abs_direct_sum_via_svd,
    abs_pair_via_one_svd,
    hermitian_sum_term_via_block,
    identity_map,
    minimal_orbit_constant_by_bisection,
    schur_normal_terms_via_kron,
    schur_square_terms_via_kron,
    trial_drawn_alone,
    witness_unitary,
)

R = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
ONES2 = np.ones((2, 2), dtype=complex)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def test_witness_of_psd_is_identity():
    p = random_psd(0, 3) + 0.1 * np.eye(3)
    np.testing.assert_allclose(witness_unitary(p), np.eye(3), atol=1e-12)


def test_witness_of_flip_is_flip():
    np.testing.assert_allclose(witness_unitary(R), R, atol=1e-14)


def test_witness_of_zero_is_identity():
    np.testing.assert_array_equal(witness_unitary(np.zeros((2, 2))), np.eye(2))


def test_witness_of_a_stack_is_the_stack_of_its_members_witnesses():
    # A zero member keeps the identity, and the rest their own bits.
    ys = np.stack([random_matrix(1, 3), np.zeros((3, 3)), random_matrix(2, 3)])
    stacked = witness_unitary(ys)
    assert stacked.shape == (3, 3, 3)
    np.testing.assert_array_equal(stacked, [witness_unitary(y) for y in ys])


def test_witness_polar_relation_sweep():
    for seed in range(50):
        y = random_matrix(seed, 3)
        v = witness_unitary(y)
        scale = max(1.0, spectral_norm(y))
        assert spectral_norm(v.conj().T @ v - np.eye(3)) <= 1e-9
        assert spectral_norm(v.conj().T @ mat_abs(y) - y) <= 1e-9 * scale


def _orbit_certificates(seed, n=3):
    """(certificate, image) for every orbit certificate of the public checkers."""
    pmap = random_cp_map([seed, 0], n, n)
    nmat = random_normal([seed, 1], n)
    blocks = [random_normal([seed, 2 + i], n) for i in range(3)]
    stacked = random_normal([seed, 5], 2 * n)
    z = random_contraction([seed, 6], n)
    a = random_psd([seed, 7], n)
    b = random_normal([seed, 8], n)
    x = random_matrix([seed, 9], n)
    main = apply(pmap, nmat)
    summed = apply(partial_trace_first(3, n), direct_sum(blocks))
    contracted = apply(pmap, z)
    dye = check_russo_dye(pmap, z)
    return [
        *((cert, main) for cert in check_theorem_main(pmap, nmat, 0.75)),
        (check_partial_trace(stacked, 2, n), apply(partial_trace_first(2, n), stacked)),
        *((cert, summed) for cert in check_sum_of_normals(blocks)),
        (dye.arithmetic, contracted),
        (dye.geometric, contracted),
        (check_schur_diagonal(a, z), schur_prod(a, z)),
        (check_schur_normal(nmat, b), schur_prod(nmat, b)),
        (check_hermitian_sum(pmap, x), apply(pmap, x + x.conj().T)),
        (check_schur_square(pmap, x), apply(pmap, schur_prod(x, x.conj().T))),
    ]


def test_orbit_certificates_carry_the_witness_of_their_image():
    for seed in range(3):
        for cert, image in _orbit_certificates(seed):
            assert cert.passed, (seed, cert.statement_id)
            np.testing.assert_array_equal(cert.witness, witness_unitary(image), cert.statement_id)


def test_arithmetic_bounds_record_their_weight():
    # Each arithmetic orbit bound is beta a + v a v*/(4 beta) at a fixed
    # weight: (a + v a v*)/2 is beta = 1/2, and a + v a v*/4 is beta = 1.
    weights = {
        cert.statement_id: cert.beta
        for cert, _ in _orbit_certificates(0)
        if cert.statement_id != "main-arith"
    }
    assert weights == {
        "main-geom": 0.75,
        "ptrace-geom": None,
        "sum-normals-geom": None,
        "sum-normals-arith": 0.5,
        "contraction-arith": 0.5,
        "contraction-geom": None,
        "schur-diagonal": 0.5,
        "schur-normal": 1.0,
        "hermitian-sum-geom": None,
        "schur-square-geom": None,
    }


# ---------------------------------------------------------------------------
# main orbit bounds
# ---------------------------------------------------------------------------


def test_theorem_family_equality_at_half():
    a, r = sharpness_family(0.5)
    arith, geom = check_theorem_main(schur_multiplier(a), r, 0.5)
    assert arith.passed and geom.passed
    np.testing.assert_allclose(arith.slack_spectrum, [0.0, 0.0], atol=1e-12)


def test_theorem_family_slack_at_one():
    a, r = sharpness_family(1.0)
    arith, _ = check_theorem_main(schur_multiplier(a), r, 1.0)
    np.testing.assert_allclose(arith.slack_spectrum, [9.0 / 8.0, 0.0], atol=1e-12)


def test_theorem_identity_input():
    pmap = random_unital_cp_map(1, 3, 3)
    arith, geom = check_theorem_main(pmap, np.eye(3), 0.5)
    assert arith.passed and geom.passed
    np.testing.assert_allclose(arith.rhs, np.eye(3), atol=1e-9)


def test_theorem_rejects_bad_arguments():
    pmap = identity_map(2)
    with pytest.raises(ValueError):
        check_theorem_main(pmap, np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        check_theorem_main(pmap, R, 0.0)


def test_theorem_equality_stress_over_weights():
    # Smallest slack stays pinned at zero across the family, and the top
    # slack matches the closed form 2 beta^2 + 1/(8 beta^2) - 1.
    for beta in (0.5, 0.7, 1.0, 1.5, 2.0, 3.25):
        a, r = sharpness_family(beta)
        arith, geom = check_theorem_main(schur_multiplier(a), r, beta)
        assert arith.passed and geom.passed
        assert abs(arith.slack_spectrum[-1]) <= 1e-12
        expected_top = 2 * beta**2 + 1.0 / (8 * beta**2) - 1.0
        assert abs(arith.slack_spectrum[0] - expected_top) <= 1e-10


def test_theorem_and_chain_random_sweep():
    betas = (0.25, 0.5, 1.0, 2.0)
    for seed in range(25):
        n, m = 2 + seed % 3, 2 + (seed // 3) % 3
        pmap = random_cp_map([seed, 0], n, m)
        nmat = random_normal([seed, 1], n)
        for beta in betas:
            arith, geom = check_theorem_main(pmap, nmat, beta)
            chain = chain_certificate(geom, arith)
            assert arith.passed, (seed, beta, arith.min_slack)
            assert geom.passed, (seed, beta, geom.min_slack)
            assert chain.passed, (seed, beta, chain.min_slack)
            v = arith.witness
            assert spectral_norm(v.conj().T @ v - np.eye(m)) <= 1e-9


E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_normality_is_needed_even_for_the_identity_map():
    # Control: the orbit task runs on the non-normal E12, which the public
    # checker refuses. The polar witness gives E22 <= beta E22 + E11/(4 beta),
    # which fails by exactly beta - 1 for beta < 1, whatever the constant.
    betas = (0.25, 0.5, 1.0, 2.0)
    task = certify._orbit_statements(identity_map(2), E12[None], betas, DEFAULT_TOL)
    outcomes = certify._alone(*certify._run(task))
    arith = outcomes[0:12:3]  # main-arith, main-geom and main-chain per weight
    assert [(o.statement_id, o.beta) for o in arith] == [("main-arith", beta) for beta in betas]
    assert [o.passed for o in arith] == [False, False, True, True]
    assert [o.min_slack for o in arith] == [-0.75, -0.5, 0.0, 0.125]
    with pytest.raises(ValueError, match="^nmat must be normal$"):
        check_theorem_main(identity_map(2), E12, 0.5)


def _compression_control(seed, sign):
    """main-arith@beta=1 of ``X -> W* X W``, ``W`` a Haar 3 x 2 isometry, on a real symmetric ``A``."""
    w = haar_unitary([seed, 0], 3)[:, :2]
    g = np.random.default_rng([seed, 1]).standard_normal((3, 3))
    pmap = PositiveMapRep(w[None])
    task = certify._orbit_statements(pmap, (g + g.T)[None], (1.0,), DEFAULT_TOL, sign)
    return certify._alone(*certify._run(task))[0]


def test_the_orbit_term_is_needed_even_for_a_unital_cp_map():
    # Control: with the orbit term dropped (sign 0) the bound is
    # |W* A W| <= W* |A| W, which fails for most seeds; the theorem's bound
    # holds for every one.
    seeds = range(12)
    assert all(_compression_control(seed, 1.0).passed for seed in seeds)
    assert [seed for seed in seeds if not _compression_control(seed, 0.0).passed] == [1, 3, 4, 5, 6, 7, 8, 10, 11]


def test_scalar_block_seed_of_the_certificate():
    # [[|z|, z], [conj z, |z|]] is PSD for every complex scalar.
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = complex(rng.standard_normal(), rng.standard_normal())
        block = np.array([[abs(z), z], [np.conj(z), abs(z)]])
        assert np.linalg.eigvalsh(block).min() >= -1e-12


def test_block_certificate_psd_input():
    p = random_psd(0, 3)
    cert = check_block_certificate(identity_map(3), p)
    assert cert.passed


def test_block_certificate_flip_spectrum():
    cert = check_block_certificate(schur_multiplier(ONES2), R)
    assert cert.passed
    np.testing.assert_allclose(cert.slack_spectrum, [2.0, 2.0, 0.0, 0.0], atol=1e-12)


def test_block_certificate_random():
    for seed in range(25):
        cert = check_block_certificate(
            random_cp_map([seed, 0], 3, 3), random_normal([seed, 1], 3)
        )
        assert cert.passed, (seed, cert.min_slack)


# ---------------------------------------------------------------------------
# eigenvalue corollaries
# ---------------------------------------------------------------------------


def test_eigen_family_hand_values():
    a, r = sharpness_family(1.0)
    reports = check_corollary_eigen(schur_multiplier(a), r, 1.0)
    assert reports.log_majorization.passed
    assert reports.pair_bounds.passed
    assert reports.shifted_bounds.passed
    # shifted: 4 * eig(|image| - image_abs_arg) = (2, -4) vs (2, 1/2)
    np.testing.assert_allclose(reports.shifted_bounds.lhs, [2.0, -4.0], atol=1e-12)
    np.testing.assert_allclose(reports.shifted_bounds.rhs, [2.0, 0.5], atol=1e-12)


def test_eigen_top_pair_is_norm_bound():
    for seed in range(25):
        pmap = random_cp_map([seed, 0], 3, 3)
        nmat = random_normal([seed, 1], 3)
        reports = check_corollary_eigen(pmap, nmat, 1.0)
        assert reports.pair_bounds.passed
        top_lhs = float(reports.pair_bounds.lhs[0])
        assert abs(top_lhs - spectral_norm(apply(pmap, nmat))) <= 1e-12


def test_eigen_psd_input_has_equal_spectra():
    p = random_psd(3, 3)
    reports = check_corollary_eigen(identity_map(3), p, 0.5)
    assert reports.log_majorization.passed
    np.testing.assert_allclose(
        reports.log_majorization.a, reports.log_majorization.b, atol=1e-10
    )


def test_eigen_sweep():
    for seed in range(25):
        pmap = random_cp_map([seed, 2], 2, 4)
        nmat = random_normal([seed, 3], 2)
        for beta in (0.25, 1.0):
            reports = check_corollary_eigen(pmap, nmat, beta)
            assert reports.log_majorization.passed
            assert reports.pair_bounds.passed
            assert reports.shifted_bounds.passed


def _diagonal_cases():
    rng = np.random.default_rng(12)
    for size in (1, 3, 10, 136):
        for scale in (1.0, 1e-8, 1e4):
            lhs = scale * rng.standard_normal(size)
            gap = scale * np.abs(rng.standard_normal(size))
            yield "random", lhs, scale * rng.standard_normal(size)
            yield "above", lhs, lhs + gap
            threshold = DEFAULT_TOL * max(1.0, float(np.abs(lhs).max()))
            yield "within-tol", lhs, lhs - 0.5 * threshold
            yield "beyond-tol", lhs, lhs - 2.0 * threshold
            if size > 1:
                # One entry far below its bound puts ||lhs|| far above ||rhs||.
                wide = lhs.copy()
                wide[0] -= 1e3 * max(1.0, float(np.abs(lhs).max()))
                yield "beyond-tol", wide, lhs - 2.0 * threshold
            yield "equal", lhs, lhs.copy()
        yield "zero", np.zeros(size), np.zeros(size)


def test_diagonal_certificate_matches_loewner_test():
    # eigen-pairs and eigen-shift compare vectors; the verdict and the slack
    # spectrum are those of the Loewner test on the diagonal matrices.
    verdicts = {}
    for case, lhs, rhs in _diagonal_cases():
        cert = _diagonal_certificate("diag", lhs, rhs, tol=DEFAULT_TOL)
        ref = loewner_leq(np.diag(lhs), np.diag(rhs), DEFAULT_TOL)
        assert cert.passed == ref.passed, (case, lhs.size)
        verdicts.setdefault(case, set()).add(cert.passed)
        scale = max(1.0, float(np.abs(rhs).max()))
        np.testing.assert_allclose(cert.slack_spectrum, ref.slack_spectrum, rtol=0, atol=1e-14 * scale)
        # The certificate keeps the two vectors themselves as its sides.
        assert cert.lhs is lhs and cert.rhs is rhs
    assert verdicts["within-tol"] == {True} and verdicts["beyond-tol"] == {False}
    assert verdicts["equal"] == verdicts["zero"] == {True}


@pytest.mark.parametrize(
    "lhs,rhs",
    [([-math.inf, 0.0], [1.0, 1.0]), ([0.0, 0.0], [math.inf, 1.0]), ([math.nan, 0.0], [1.0, 1.0])],
)
def test_diagonal_certificate_refuses_non_finite_sides(lhs, rhs):
    # As the Loewner verdict does: an infinite side would pass with an infinite slack.
    with pytest.raises(ValueError, match="the sides of diag must be finite"):
        _diagonal_certificate("diag", np.array(lhs), np.array(rhs))


def test_eigen_shift_refuses_an_overflowed_side():
    # An accepted weight can still overflow 4 beta times the shifted spectrum
    # of a large Phi(|N|); that side is refused, where it once passed with
    # every lhs entry -inf and a min slack of inf.
    pmap, nmat = random_cp_map(1, 3, 3), 1e150 * random_normal(2, 3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match="the sides of eigen-shift must be finite"):
            check_corollary_eigen(pmap, nmat, 1e150)


# ---------------------------------------------------------------------------
# entrywise real part
# ---------------------------------------------------------------------------


def test_real_part_pure_imaginary_diagonal():
    report = check_real_part(np.diag([1j, -1j]))
    assert report.passed
    assert abs(report.det_check.lhs[0]) <= 1e-12
    assert abs(report.det_check.rhs[0] - 1.0) <= 1e-12


def test_real_part_real_symmetric():
    g = random_matrix(5, 3).real
    a = ((g + g.T) / 2).astype(complex)
    report = check_real_part(a)
    assert report.passed


def test_real_part_random_normal():
    for seed in range(25):
        report = check_real_part(random_normal(seed, 4))
        assert report.passed, seed


def test_real_part_rejects_nonnormal():
    with pytest.raises(ValueError):
        check_real_part(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# partial trace and sums of normals
# ---------------------------------------------------------------------------


def test_partial_trace_hand_example():
    a = math.pi / 3
    p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    q = np.array(
        [[math.cos(a) ** 2, math.sin(a) * math.cos(a)], [math.sin(a) * math.cos(a), math.sin(a) ** 2]],
        dtype=complex,
    )
    big = np.zeros((4, 4), dtype=complex)
    big[:2, :2] = p
    big[2:, 2:] = -q
    cert = check_partial_trace(big, 2, 2)
    assert cert.passed
    # hand spectra: eig(p + q) = 1 +- cos a, both singular values of p - q are sin a
    traced_abs = apply(partial_trace_first(2, 2), mat_abs(big))
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(traced_abs)), [1 - math.cos(a), 1 + math.cos(a)], atol=1e-12
    )
    np.testing.assert_allclose(
        np.linalg.svd(p - q, compute_uv=False), [math.sin(a), math.sin(a)], atol=1e-12
    )


def test_sum_of_normals_psd_equality():
    mats = [random_psd([7, i], 3) for i in range(3)]
    geom, arith = check_sum_of_normals(mats)
    assert geom.passed and arith.passed
    assert spectral_norm(arith.rhs - arith.lhs) <= 1e-9


def test_sum_of_normals_random():
    for seed in range(25):
        mats = [random_normal([seed, i], 3) for i in range(3)]
        geom, arith = check_sum_of_normals(mats)
        assert geom.passed and arith.passed
        # geometric bound is tighter than arithmetic
        assert loewner_leq(geom.rhs, arith.rhs, 1e-8).passed


def test_partial_trace_random_three_blocks():
    for seed in range(10):
        cert = check_partial_trace(random_normal(seed, 9), 3, 3)
        assert cert.passed, seed


def test_partial_trace_dimension_check():
    with pytest.raises(ValueError):
        check_partial_trace(random_normal(0, 4), 2, 3)


# ---------------------------------------------------------------------------
# contraction bounds
# ---------------------------------------------------------------------------


def test_russo_dye_identity_contraction():
    pmap = random_unital_cp_map(2, 3, 3)
    reports = check_russo_dye(pmap, np.eye(3))
    assert reports.arithmetic.passed and reports.geometric.passed
    assert spectral_norm(reports.arithmetic.rhs - reports.arithmetic.lhs) <= 1e-8


def test_russo_dye_zero_contraction():
    pmap = random_cp_map(3, 2, 2)
    reports = check_russo_dye(pmap, np.zeros((2, 2)))
    assert reports.arithmetic.passed and reports.geometric.passed
    assert spectral_norm(reports.arithmetic.lhs) <= 1e-12


def test_russo_dye_random_sweep():
    for seed in range(25):
        pmap = random_cp_map([seed, 0], 3, 3)
        z = random_contraction([seed, 1], 3)
        reports = check_russo_dye(pmap, z)
        assert reports.arithmetic.passed, seed
        assert reports.geometric.passed, seed
        assert reports.log_majorization.passed, seed


def test_russo_dye_rejects_expansion():
    with pytest.raises(ValueError):
        check_russo_dye(identity_map(2), 2.0 * np.eye(2))


def test_weighted_sum_single_unitary():
    from matineq.core import haar_unitary

    maj, block = check_weighted_sum([np.eye(3)], [haar_unitary(0, 3)])
    assert maj.passed and block.passed
    np.testing.assert_allclose(maj.a, np.ones(3), atol=1e-12)


def test_weighted_sum_identity_contractions():
    xs = [random_matrix(s, 3) for s in range(3)]
    maj, block = check_weighted_sum(xs, [np.eye(3)] * 3)
    assert maj.passed and block.passed
    np.testing.assert_allclose(maj.prefix_a, maj.prefix_b, rtol=1e-10)


def test_log_majorization_reports_use_the_callers_tol():
    tol = 0.25
    pmap, z = random_cp_map(0, 3, 3), random_contraction(2, 3)
    real = check_real_part(random_normal(3, 3), tol=tol)
    reports = [
        check_corollary_eigen(pmap, random_normal(1, 3), 0.5, tol=tol).log_majorization,
        real.construction_route,
        real.direct_route,
        check_russo_dye(pmap, z, tol=tol).log_majorization,
        check_weighted_sum([random_matrix(4, 3)], [z], tol=tol)[0],
    ]
    out = run_trial(5, 0, 2, 2, (0.5,), tol)
    reports += [out[key] for key in trial_statements((0.5,)) if key.endswith("-logmaj")]
    assert [report.tol for report in reports] == [tol] * 10


def test_weighted_sum_random_rectangular():
    for seed in range(25):
        xs = [random_matrix([seed, i, 0], 3, 2) for i in range(3)]
        zs = [random_contraction([seed, i, 1], 3) for i in range(3)]
        maj, block = check_weighted_sum(xs, zs)
        assert maj.passed and block.passed


@pytest.mark.parametrize("n, m", [(8, 1), (16, 1), (8, 2), (7, 2)])
def test_weighted_sum_logmaj_stops_at_the_rank_bound(n, m):
    # At n > 3m both sums of the sweep's three m x n factors have rank at most
    # 3m < n, so past 3m both prefix products are exactly 0; comparing them
    # would let rounding decide, so the report keeps the first 3m entries.
    for trial in range(5):
        report = run_trial(0, trial, n, m, (0.5,))["weighted-sum-logmaj"]
        assert report.passed and len(report.a) == len(report.b) == 3 * m, trial


def test_weighted_sum_validation():
    with pytest.raises(ValueError):
        check_weighted_sum([np.eye(2)], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        check_weighted_sum([np.eye(2)], [np.eye(3)])
    with pytest.raises(ValueError, match="xs must not be empty"):
        check_weighted_sum([], [])
    with pytest.raises(ValueError, match="xs must not be empty"):
        check_weighted_sum(np.zeros((0, 3, 2)), np.zeros((0, 3, 3)))


def test_weighted_sum_takes_a_stack_as_a_list():
    # A (k, m, n) stack of factors and a (k, m, m) stack of contractions give
    # the bits of the lists of their members.
    xs = np.stack([random_matrix([7, i], 3, 2) for i in range(3)])
    zs = np.stack([random_contraction([7, i, 1], 3) for i in range(3)])
    stacked, listed = check_weighted_sum(xs, zs), check_weighted_sum(list(xs), list(zs))
    for got, want in zip(stacked, listed):
        for name in got.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


# ---------------------------------------------------------------------------
# entrywise product bounds
# ---------------------------------------------------------------------------


def test_schur_diagonal_identity_multiplier():
    z = random_contraction(0, 3)
    cert = check_schur_diagonal(np.eye(3), z)
    assert cert.passed
    np.testing.assert_allclose(cert.rhs, np.eye(3), atol=1e-9)


def test_schur_diagonal_random():
    for seed in range(25):
        cert = check_schur_diagonal(
            random_psd([seed, 0], 3), random_contraction([seed, 1], 3)
        )
        assert cert.passed, seed


def test_schur_diagonal_refuses_a_non_contraction():
    with pytest.raises(ValueError, match="z must be a contraction"):
        check_schur_diagonal(random_psd(0, 3), 2.0 * np.eye(3))


def test_schur_normal_flip_pair():
    cert = check_schur_normal(R, R)
    assert cert.passed
    np.testing.assert_allclose(cert.slack_spectrum, [0.25, 0.25], atol=1e-12)


def _oracle_inputs(n, normal):
    """Random, zero, rank-deficient and 1e-8-scaled n x n inputs."""
    if normal:
        cases = [random_normal([n, s], n) for s in range(3)]
        u = haar_unitary([n, 3], n)
        z = random_normal([n, 4], n).diagonal().copy()
        z[: (n + 1) // 2] = 0.0
        deficient = (u * z) @ u.conj().T
    else:
        cases = [random_matrix([n, s], n) for s in range(3)]
        deficient = random_matrix([n, 3], n, 1) @ random_matrix([n, 4], 1, n)
    return cases + [np.zeros((n, n), dtype=complex), deficient, 1e-8 * cases[0]]


def _geometric_reference(pmap, source, comparison):
    """Geometric-mean orbit verdict for ``|map(source)|`` against ``map(comparison)``."""
    arg = hermitian_part(apply(pmap, comparison))
    w, lhs = polar(apply(pmap, source))
    orbit = hermitian_part(w.conj().T @ arg @ w)
    return loewner_leq(lhs, geometric_mean(arg, orbit), DEFAULT_TOL)


def _assert_matches_oracle(cert, reference):
    passed, slack = reference
    assert cert.passed == passed
    scale = max(1.0, spectral_norm(cert.rhs))
    assert np.abs(cert.slack_spectrum - slack).max() <= 1e-12 * scale


def test_schur_normal_matches_tensor_oracle():
    for n in (1, 2, 3, 4):
        cases = _oracle_inputs(n, normal=True)
        for a, b in zip(cases, cases[1:] + cases[:1]):
            cert = check_schur_normal(a, b)
            assert cert.passed
            product, comparison = schur_normal_terms_via_kron(a, b)
            w, lhs = polar(product)
            rhs = hermitian_part(comparison + w.conj().T @ comparison @ w / 4.0)
            _assert_matches_oracle(cert, loewner_leq(lhs, rhs, DEFAULT_TOL))


def test_schur_square_matches_tensor_oracle():
    for n in (1, 2, 3, 4):
        pmap = random_cp_map([n, 9], n, 3)
        for x in _oracle_inputs(n, normal=False):
            cert = check_schur_square(pmap, x)
            assert cert.passed
            reference = _geometric_reference(pmap, *schur_square_terms_via_kron(x))
            _assert_matches_oracle(cert, reference)


def test_hermitian_sum_matches_block_oracle():
    for n in (1, 2, 3, 4):
        pmap = random_cp_map([n, 9], n, 3)
        for x in _oracle_inputs(n, normal=False):
            cert = check_hermitian_sum(pmap, x)
            assert cert.passed
            reference = _geometric_reference(
                pmap, x + x.conj().T, hermitian_sum_term_via_block(x)
            )
            _assert_matches_oracle(cert, reference)


def _orbit_sides(pmap, source, comparison):
    """``(|map(source)|, arg, v arg v*)`` with ``arg = map(comparison)`` and ``v`` the polar witness."""
    arg = hermitian_part(apply(pmap, comparison))
    w, lhs = polar(apply(pmap, source))
    return lhs, arg, hermitian_part(w.conj().T @ arg @ w)


def _one_svd_oracle_cases(n):
    """(library outcome, oracle sides, oracle verdict) for each statement built from |x*| or a direct sum's |x|."""
    pmap = random_cp_map([n, 40], n, n)
    x = random_matrix([n, 41], n)
    abs_x, abs_x_adj = abs_pair_via_one_svd(x)
    mats = [random_normal([n, 42, i], n) for i in range(3)]
    lhs, arg, orbit = _orbit_sides(partial_trace_first(3, n), direct_sum(mats), abs_direct_sum_via_svd(mats))
    geom, arith = check_sum_of_normals(mats)
    sides = [(geom, lhs, geometric_mean(arg, orbit)), (arith, lhs, (arg + orbit) / 2.0)]
    for cert, source, comparison in (
        (check_hermitian_sum(pmap, x), x + x.conj().T, abs_x + abs_x_adj),
        (check_schur_square(pmap, x), schur_prod(x, x.conj().T), schur_prod(abs_x, abs_x_adj)),
    ):
        lhs, arg, orbit = _orbit_sides(pmap, source, comparison)
        sides.append((cert, lhs, geometric_mean(arg, orbit)))
    xs = [random_matrix([n, 43, i], n) for i in range(3)]
    zs = [random_contraction([n, 44, i], n) for i in range(3)]
    pairs = [abs_pair_via_one_svd(z) for z in zs]
    weighted = sum(x.conj().T @ z @ x for x, z in zip(xs, zs))
    block = np.block(
        [
            [sum(x.conj().T @ left @ x for x, (_, left) in zip(xs, pairs)), weighted],
            [weighted.conj().T, sum(x.conj().T @ right @ x for x, (right, _) in zip(xs, pairs))],
        ]
    )
    sides.append((check_weighted_sum(xs, zs)[1], np.zeros_like(block), hermitian_part(block)))
    cases = [(cert, (lhs, rhs), loewner_leq(lhs, rhs, DEFAULT_TOL).passed) for cert, lhs, rhs in sides]
    a = random_normal([n, 45], n)
    averager = corner_block_map(n)
    image = apply(averager, direct_sum([a, a.conj()]))
    arg = hermitian_part(apply(averager, abs_direct_sum_via_svd([a, a.conj()])))
    spectrum = np.maximum(np.linalg.eigvalsh(arg)[::-1], 0.0)
    construction = weak_log_majorize(np.linalg.svd(image, compute_uv=False), spectrum, DEFAULT_TOL)
    real = check_real_part(a).construction_route
    return cases + [(real, (construction.a, construction.b), construction.passed)]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_absolute_values_match_the_one_svd_oracles(n):
    # The library asks mat_abs of x* and of each block of a direct sum; the
    # oracles take |x*| as u s u* from the SVD of x and a direct sum's |x|
    # from one SVD of the whole.
    def norm(v):
        return float(np.abs(v).max()) if v.ndim == 1 else spectral_norm(v)

    for outcome, (lhs, rhs), passed in _one_svd_oracle_cases(n):
        if isinstance(outcome, MajorizationReport):
            got = outcome.a, outcome.b
        else:
            got = outcome.lhs, outcome.rhs
        for side, reference in zip(got, (lhs, rhs)):
            assert norm(side - reference) <= 1e-12 * max(1.0, norm(rhs)), outcome
        assert outcome.passed == passed


def test_schur_square_takes_no_tensor_route():
    # The tensor route would take the absolute value of a 16384 x 16384 matrix.
    start = time.perf_counter()
    cert = check_schur_square(random_cp_map(5, 64, 2), random_matrix(6, 64))
    assert cert.passed
    assert time.perf_counter() - start < 1.0


def test_schur_normal_rejects_nonnormal():
    with pytest.raises(ValueError):
        check_schur_normal(np.array([[0.0, 1.0], [0.0, 0.0]]), R)


def test_hermitian_sum_reduces_for_hermitian_input():
    pmap = random_cp_map(0, 3, 2)
    g = random_matrix(1, 3)
    x = (g + g.conj().T) / 2.0
    cert = check_hermitian_sum(pmap, x)
    assert cert.passed
    arg = hermitian_part(apply(pmap, 2.0 * mat_abs(x)))
    u = cert.witness
    expected = geometric_mean(arg, u @ arg @ u.conj().T)
    assert spectral_norm(cert.rhs - expected) <= 1e-9 * max(1.0, spectral_norm(expected))


def test_hermitian_sum_zero_input():
    cert = check_hermitian_sum(identity_map(2), np.zeros((2, 2)))
    assert cert.passed
    assert spectral_norm(cert.lhs) <= 1e-12


def test_hermitian_sum_and_schur_square_random():
    for seed in range(15):
        pmap = random_cp_map([seed, 0], 3, 3)
        x = random_matrix([seed, 1], 3)
        assert check_hermitian_sum(pmap, x).passed, seed
        assert check_schur_square(pmap, x).passed, seed


def test_schur_square_zero_input():
    cert = check_schur_square(identity_map(2), np.zeros((2, 2)))
    assert cert.passed


def test_two_positive_quarter_sharp_pair():
    cert = check_two_positive_unital(quarter_sharpness_map(), quarter_sharpness_hermitian())
    assert cert.passed
    np.testing.assert_allclose(cert.slack_spectrum, [0.75, 0.0], atol=1e-12)


def test_two_positive_identity_contraction():
    pmap = random_unital_cp_map(4, 3, 2)
    cert = check_two_positive_unital(pmap, np.eye(3))
    assert cert.passed


def test_two_positive_random_hermitian_contractions():
    for seed in range(25):
        pmap = random_unital_cp_map([seed, 0], 3, 3)
        z = random_contraction([seed, 1], 3)
        z = (z + z.conj().T) / 2.0
        z = z / max(1.0, spectral_norm(z))
        assert check_two_positive_unital(pmap, z).passed, seed


def _as_map(drawn: certify._Drawn, j: int = 0) -> PositiveMapRep:
    """Member ``j``'s drawn map as a public map, which a checker applies through ``maps.apply``."""
    return PositiveMapRep(drawn.batch.ops[drawn.index[j]])


def _trial(trials: certify._Trials, j: int = 0) -> certify._Trials:
    """Row ``j`` of a batch's record of stacks: each instance of its trial, its maps as public maps."""
    return trials._replace(pmap=_as_map(trials.pmap, j), unital=_as_map(trials.unital, j), **{
        name: value[j] for name, value in trials._asdict().items() if name not in ("pmap", "unital")
    })


def test_two_positive_applies_the_unital_map_to_z_and_its_modulus_only(monkeypatch):
    # Unitality is the checker's hypothesis, refused through maps.is_unital
    # before the run; the sweep's unital map is unital as drawn, so the sweep
    # applies it once, to [z, |z|], and never to the identity.
    stacks = []
    unital = _as_map(_draw(5, [3], 3, 3).unital).kraus_ops
    apply_members = certify._apply_members

    @functools.wraps(apply_members)  # the engine finds the stage by __name__
    def counted(batch, index, x):
        images = apply_members(batch, index, x)
        member = [np.array_equal(batch.ops[i], unital) for i in index]
        stacks.extend([x[member]] if any(member) else [])
        return images

    monkeypatch.setattr(certify, "_apply_members", counted)
    run_trial(5, 3, 3, 3, (0.5,))
    z = _draw(5, [3], 3, 3).quarter_z[0]
    assert len(stacks) == 1
    np.testing.assert_array_equal(stacks[0], [z, mat_abs(z)])


def test_two_positive_rejects_nonunital():
    with pytest.raises(ValueError):
        check_two_positive_unital(partial_trace_first(2, 2), np.eye(4))


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def test_repro_sharpness_values():
    for beta, lam2 in ((0.5, 0.5), (1.0, -1.0), (2.0, -7.0)):
        result = repro_sharpness_beta(beta)
        assert result.passed
        assert abs(result.computed["lambda1"] - 0.5) <= 1e-12
        assert abs(result.computed["lambda2"] - lam2) <= 1e-12
        assert abs(result.computed["c_min_forced"] - 1.0) <= 1e-12
    result = repro_sharpness_beta(2.0)
    assert abs(result.computed["orbit_bound_second"] - 1.0 / 32.0) <= 1e-15


@pytest.mark.parametrize("beta", [100.0, 1e3, 1e6])
def test_repro_sharpness_decides_each_quantity_at_its_scale(beta):
    # lambda2 = 1 - 2 beta^2 is off by about one ulp of itself, which exceeds
    # an absolute 1e-12 from beta = 100 on.
    result = repro_sharpness_beta(beta)
    assert result.passed, result.max_abs_error


def test_repro_sharpness_rejects_small_weight():
    with pytest.raises(ValueError):
        repro_sharpness_beta(0.25)


def test_repro_no_single_unitary_exact_angles():
    result = repro_no_single_unitary([math.pi / 2, math.pi / 3])
    assert result.passed
    assert abs(result.computed[f"ratio_a={math.pi/2:g}"] - 1.0) <= 1e-12
    assert abs(result.computed[f"ratio_a={math.pi/3:g}"] - 1.0 / math.sqrt(3.0)) <= 1e-12


def test_repro_no_single_unitary_small_angles():
    result = repro_no_single_unitary([1e-1, 1e-2, 1e-3])
    assert result.passed
    assert result.computed["monotone_decreasing"] == 1.0
    for a in (1e-1, 1e-2, 1e-3):
        ratio = result.computed[f"ratio_a={a:g}"]
        assert abs(ratio - a / 2.0) <= 0.01 * (a / 2.0)


def test_repro_no_single_unitary_compares_in_angle_order():
    # The ratio falls with the angle whatever order the angles come in.
    for angles in ([1e-3, 1e-2, 1e-1], [1e-2, 1e-1, 1e-3], [1e-1, 1e-2, 1e-3]):
        result = repro_no_single_unitary(angles)
        assert result.passed, angles
        assert result.computed["monotone_decreasing"] == 1.0


@pytest.mark.parametrize("angles", [[0.1, 0.1], [0.1, 0.10000001]])
def test_repro_no_single_unitary_refuses_angles_sharing_a_key(linalg_calls, angles):
    # Angles that print alike under %g would share one ratio key.
    linalg_calls.clear()
    with pytest.raises(ValueError, match="angles that print alike share report keys"):
        repro_no_single_unitary(angles)
    assert sum(linalg_calls.values()) == 0, dict(linalg_calls)


def test_repro_no_single_unitary_runs_every_angle_in_one_call_per_stage(monkeypatch):
    # Every angle's orbit pair comes from one run: one stacked call each for
    # |x|, the images and the polar decompositions, however many angles.
    answered = []
    answer = staging._answer

    def counted_answer(asks):
        answered.append(asks[0].fn.__name__)
        return answer(asks)

    monkeypatch.setattr(staging, "_answer", counted_answer)
    for angles in ([0.5], [1.2, 0.8, 0.4]):
        answered.clear()
        repro_no_single_unitary(angles)
        assert answered == ["mat_abs", "apply", "_orbit"], (angles, answered)


def test_repro_no_single_unitary_rejects_bad_angles():
    for bad in (0.0, -0.1, math.pi):
        with pytest.raises(ValueError):
            repro_no_single_unitary([bad])


def test_repro_psi_quarter():
    result = repro_psi_sharpness()
    assert result.passed
    assert abs(result.computed["c_min"] - 0.25) <= 1e-12
    np.testing.assert_allclose(result.matrices["abs_image"], np.eye(2) / 2.0, atol=1e-12)
    np.testing.assert_allclose(
        result.matrices["image_of_abs"], np.diag([1.0, 0.25]), atol=1e-12
    )
    assert abs(result.computed["stated_identity_gap"] - 0.5) <= 1e-12
    assert "stated_identity" in result.notes


def test_search_never_hits_normal_matrices():
    for seed in range(300):
        margin = _real_part_margin(random_normal(seed, 2))[2]
        assert margin <= 1e-9


def test_search_finds_and_reports():
    result = search_nonnormal_counterexample(42, 100000)
    assert result.passed
    assert result.computed["margin"] > 1e-6
    # replay from the stored matrix is exact
    assert _real_part_margin(result.matrices["matrix"])[2] == result.computed["margin"]


def test_search_reports_failure_without_error():
    result = search_nonnormal_counterexample(0, 1)
    assert result.computed["found"] in (0.0, 1.0)


# ---------------------------------------------------------------------------
# empirical constants
# ---------------------------------------------------------------------------


def test_minimal_constant_identity_map_psd():
    p = random_psd(3, 3) + 0.2 * np.eye(3)
    for beta in (0.25, 0.5):
        c = minimal_orbit_constant(identity_map(3), p, beta)
        assert abs(c - (1.0 - beta)) <= 1e-9


def test_minimal_constant_family_attains_bound():
    # The verdict floor keeps the value a hair below 1/(4 beta): the search's
    # rows on this family report a ratio <= 1.
    for beta in (0.05, 0.1, 0.25, 0.4, 0.5, 1.0, 2.0):
        a, r = sharpness_family(beta)
        c = minimal_orbit_constant(schur_multiplier(a), r, beta)
        assert 1.0 - 1e-10 <= 4.0 * beta * c <= 1.0, beta


def _orbit_constant_instances():
    """Seeded search pools, rank-deficient normal matrices at several scales, and 0."""
    for n in (2, 3, 4):
        for t in range(10):
            yield random_cp_map([11, n, t, 0], n, n), random_normal([11, n, t, 1], n)
    for n in (2, 3):
        for seed in range(3):
            u = haar_unitary([12, n, seed], n)
            spectrum = np.exp(2j * np.pi * np.arange(n) / n) * np.r_[np.arange(1, n), 0.0]
            singular = (u * spectrum) @ u.conj().T
            maps = (identity_map(n), random_cp_map([13, n, seed], n, n, terms=1))
            maps += (random_cp_map([14, n, seed], n, n, terms=2),)
            for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                for pmap in maps:
                    yield pmap, scale * singular
    yield identity_map(3), np.zeros((3, 3), dtype=complex)


@pytest.mark.parametrize("beta", [0.1, 0.25, 0.5, 2.0])
def test_minimal_constant_matches_bisection(beta):
    for pmap, nmat in _orbit_constant_instances():
        c = minimal_orbit_constant(pmap, nmat, beta)
        reference = minimal_orbit_constant_by_bisection(pmap, nmat, beta)
        assert abs(c - reference) <= 1e-13 / (4.0 * beta), (c, reference)
    assert minimal_orbit_constant(identity_map(3), np.zeros((3, 3)), beta) == 0.0


@pytest.mark.parametrize("beta", [1e-4, 1e-8])
def test_minimal_constant_keeps_its_digits_at_small_weights(beta):
    # The constant is far below 1/(2 beta) here; a closed form that subtracts
    # from 1/(2 beta) loses about log10(1/beta) of its digits.
    pmap, nmat = random_cp_map(1, 3, 3), random_normal(2, 3)
    c = minimal_orbit_constant(pmap, nmat, beta)
    reference = minimal_orbit_constant_by_bisection(pmap, nmat, beta)
    assert abs(c - reference) <= 1e-9 * reference, (c, reference)


def test_minimal_constant_settles_as_the_weight_vanishes():
    pmap, nmat = random_cp_map(1, 3, 3), random_normal(2, 3)
    settled = minimal_orbit_constant(pmap, nmat, 1e-8)
    assert abs(minimal_orbit_constant(pmap, nmat, 1e-16) - settled) <= 1e-6


def _chunk(size, n=3, m=3, seed=15):
    """``size`` seeded map/matrix pairs as a chunk: a ``(size, n m, n, m)`` Kraus stack and a ``(size, n, n)`` stack."""
    ops = np.stack([random_cp_map([seed, t, 0], n, m).kraus_ops for t in range(size)])
    return ops, np.stack([random_normal([seed, t, 1], n) for t in range(size)])


def test_minimal_constant_refuses_an_infeasible_guaranteed_constant(monkeypatch):
    beta = 0.25
    orbit = certify._orbit

    def exceeding(image, arg):
        o = orbit(image, arg)
        return o._replace(lhs=beta * o.arg + o.orbit / beta)

    monkeypatch.setattr(certify, "_orbit", exceeding)
    p = random_psd(3, 3) + 0.2 * np.eye(3)
    with pytest.raises(RuntimeError, match="infeasible"):
        minimal_orbit_constant(identity_map(3), p, beta)
    with pytest.raises(RuntimeError, match="infeasible"):
        minimal_orbit_constant(*_chunk(5), beta)


def test_minimal_constant_refuses_a_non_normal_matrix():
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="nmat must be normal"):
        minimal_orbit_constant(identity_map(2), shift, 0.25)
    ops, nmats = _chunk(5)
    nmats[2] = random_matrix(3, 3)
    with pytest.raises(ValueError, match="nmat must be normal"):
        minimal_orbit_constant(ops, nmats, 0.25)


def test_minimal_constant_refuses_a_chunk_it_cannot_stack(linalg_calls):
    # A chunk's Kraus stack meets the rule of a map's own, 4-d: one array has one
    # Kraus shape, so no two members can differ in it.
    ops, nmats = _chunk(4)
    nonfinite = ops.copy()
    nonfinite[2, 0, 0, 0] = np.nan
    cases = {
        "pmap must be finite": (nonfinite, nmats),
        "pmap must be a nonempty 4-d stack of nonempty matrices, got \\(9, 3, 3\\)": (ops[0], nmats),
        "pmap must be a nonempty 4-d stack of nonempty matrices, got \\(0, 9, 3, 3\\)": (ops[:0], nmats[:0]),
        "a chunk of 4 maps needs nmat of shape \\(4, n, n\\), got \\(3, 3, 3\\)": (ops, nmats[:3]),
        "a chunk of 3 maps": (ops[:3], nmats),
        "got \\(3, 3\\)": (ops, nmats[0]),
        "map expects 3": (ops, np.stack([random_normal(t, 2) for t in range(4)])),
    }
    for message, (chunk_ops, chunk_nmats) in cases.items():
        with pytest.raises(ValueError, match=message):
            minimal_orbit_constant(chunk_ops, chunk_nmats, 0.25)
    assert sum(linalg_calls.values()) == 0, dict(linalg_calls)


def test_search_pairs_are_the_public_generators_draws():
    # A weight's pool is one stream: pair after pair, the pairs are what
    # random_cp_map and then random_normal draw in place from the pool's
    # generator. Built once a chunk, they keep those bits; at n = 1 the stacked
    # u diag(z) u* may round the last bit otherwise, so there the normals are
    # only close.
    for n, m in ((1, 1), (1, 3), (3, 2), (4, 4)):
        ops, nmats = certify._search_pairs(np.random.default_rng([5, 2]), 37, n, m)
        assert ops.shape == (37, n * m, n, m) and len(nmats) == 37
        same = np.array_equal if n > 1 else np.allclose
        rng = np.random.default_rng([5, 2])
        for member, nmat in zip(ops, nmats):
            assert np.array_equal(member, random_cp_map(rng, n, m).kraus_ops)
            assert same(nmat, random_normal(rng, n))


@pytest.mark.parametrize("n, m", [(3, 3), (1, 2), (2, 1)])
def test_a_chunk_returns_the_constants_of_its_members(n, m):
    ops, nmats = _chunk(12, n, m)
    for beta in (0.1, 0.5, 1e-8):
        constants = minimal_orbit_constant(ops, nmats, beta)
        assert isinstance(constants, np.ndarray) and constants.shape == (12,)
        alone = [minimal_orbit_constant(PositiveMapRep(member), nmat, beta) for member, nmat in zip(ops, nmats)]
        assert all(isinstance(c, float) for c in alone)
        assert constants.tolist() == alone


def test_minimal_constant_takes_one_generalized_eigensolve(linalg_calls):
    a, r = sharpness_family(0.25)
    for pmap, nmat in ((random_cp_map(1, 3, 3), random_normal(2, 3)), (schur_multiplier(a), r), _chunk(50)):
        linalg_calls.clear()
        minimal_orbit_constant(pmap, nmat, 0.25)
        # The pencil is reduced by one Cholesky factor and its inverse, then one
        # eigvalsh; a chunk of 50 pairs makes the same calls as one pair.
        assert dict(linalg_calls) == {"svd": 4, "cholesky": 1, "inv": 1, "eigvalsh": 1}


def _chunk_budget(size, n, m):
    """A ``MAX_KRAUS_BYTES`` that makes the search chunk of ``(n, m)`` exactly ``size``."""
    return size * maps._unit_bytes(certify._SEARCH_PAIR, n, m)


def _search_chunk(n, m):
    return maps._units_per_call(certify._SEARCH_PAIR, n, m)


def test_estimate_constant_solves_its_pool_in_chunks(monkeypatch):
    # Chunks change neither the instances solved, nor their order, nor the rows.
    def solve(budget, trials=20):
        monkeypatch.setattr(maps, "MAX_KRAUS_BYTES", budget)
        calls = []

        def recorded(pmap, nmat, beta):
            constants = minimal_orbit_constant(pmap, nmat, beta)
            ops = pmap.kraus_ops[None] if isinstance(pmap, certify.PositiveMapRep) else pmap
            calls.append(
                [
                    (member.tobytes(), x.tobytes(), c)
                    for member, x, c in zip(ops, np.reshape(nmat, (-1,) + np.shape(nmat)[-2:]), np.atleast_1d(constants))
                ]
            )
            return constants

        monkeypatch.setattr(certify, "minimal_orbit_constant", recorded)
        rows = estimate_constant([0.1, 0.5], trials=trials, seed=4, n=3, m=2)
        monkeypatch.setattr(certify, "minimal_orbit_constant", minimal_orbit_constant)
        return rows, [member for call in calls for member in call], [len(call) for call in calls]

    whole, whole_solved, sizes = solve(maps.MAX_KRAUS_BYTES)
    # Per weight, the sharpness-family member alone, then the 20 drawn pairs in one
    # call, or in as few even chunks as the budget allows.
    assert sizes == [1, 20] * 2 and len(whole_solved) == 2 * 21
    for chunk, chunk_sizes in ((1, [1] * 21), (7, [1, 6, 7, 7])):
        rows, solved, sizes = solve(_chunk_budget(chunk, 3, 2))
        assert _search_chunk(3, 2) == chunk
        assert rows == whole
        assert solved == whole_solved
        assert sizes == chunk_sizes * 2
    # Each weight's pool is one stream read pair by pair, so 10 trials solve the
    # first 10 pairs that 20 solve, in order, whatever the chunks.
    prefix = whole_solved[:11] + whole_solved[21:32]
    for budget in (maps.MAX_KRAUS_BYTES, _chunk_budget(1, 3, 2), _chunk_budget(7, 3, 2)):
        assert solve(budget, trials=10)[1] == prefix


def test_search_chunks_fit_the_byte_budget():
    # By arithmetic: the bytes a chunk's pairs hold fit MAX_KRAUS_BYTES, and a
    # chunk holds one pair at least.
    assert maps.MAX_KRAUS_BYTES == 64 * 2**20
    for n, m in ((1, 1), (2, 2), (3, 3), (2, 3), (1, 16), (4, 4), (8, 8), (16, 16), (12, 30), (30, 40), (45, 45)):
        chunk = _search_chunk(n, m)
        per = maps._unit_bytes(certify._SEARCH_PAIR, n, m)
        assert per >= 3 * 16 * (n * m) ** 2 + certify._SEARCH_PAIR.object_bytes
        assert chunk >= 1
        assert chunk * per <= maps.MAX_KRAUS_BYTES or chunk == 1
        assert (chunk + 1) * per > maps.MAX_KRAUS_BYTES
    # The benchmark's search: each weight's 200 drawn 3x3 pairs in one chunk.
    assert _search_chunk(3, 3) >= 200
    # A 45 x 45 map, the largest the Kraus budget admits, makes a chunk of one pair.
    assert _search_chunk(16, 16) == 20 and _search_chunk(45, 45) == 1
    assert 16 * (45 * 45) ** 2 <= maps.MAX_KRAUS_BYTES < 16 * (46 * 46) ** 2


def test_search_builds_one_map_object_a_weight(capsys, monkeypatch):
    # A chunk's maps stay the Kraus stack they are drawn as, up to the solve: the
    # one PositiveMapRep a search builds per weight is the sharpness multiplier.
    built = []
    post_init = PositiveMapRep.__post_init__

    def counted(self):
        built.append(self.kraus_ops.shape)
        post_init(self)

    monkeypatch.setattr(PositiveMapRep, "__post_init__", counted)
    assert cli.main(["search", "--trials", "40", "--beta", "0.1,0.25,0.5", "--dims", "3,2", "--json"]) == 0
    capsys.readouterr()
    assert len(built) == 3, built


@pytest.mark.parametrize(
    "n, m, budget_pairs", [(16, 16, 1), (16, 16, 2), (2, 2, None), (3, 3, None), (1, 16, None), (16, 1, None)]
)
def test_search_chunks_stay_within_the_byte_budget(monkeypatch, n, m, budget_pairs):
    # Measured: the peak traced memory of a search of two whole chunks stays
    # within the budget that sizes its chunks. At 16 x 16 (1 MiB of factors
    # a pair) the budgets hold 1 and 2 pairs; at small shapes the default budget
    # holds thousands, whose n x n and m x m arrays and Python objects weigh as
    # much as their factors.
    import tracemalloc

    if budget_pairs is not None:
        monkeypatch.setattr(maps, "MAX_KRAUS_BYTES", _chunk_budget(budget_pairs, n, m))
    chunk = _search_chunk(n, m)
    estimate_constant([0.25], trials=1, n=2, m=2)  # one-time allocations first
    tracemalloc.start()
    try:
        estimate_constant([0.25], seed=3, trials=2 * chunk, n=n, m=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * chunk * 16 * (n * m) ** 2 < peak <= maps.MAX_KRAUS_BYTES, (chunk, peak)


@pytest.mark.parametrize(
    "n, m", [(3, 3), (16, 16), (1, 64), (64, 1), (9, 9), (8, 9), (9, 8), (9, 10), (10, 9)]
)
def test_a_sweep_trial_stays_within_its_byte_count(n, m):
    # Measured: the peak traced memory of one trial lies within what the sweep
    # trial record counts at its number of weights, the default four and 1, 16
    # and 40 evenly spaced in [0.1, 4] (at 40 weights 0.80 of it at 3 x 3 and
    # 0.81 at 1 x 64, where each weight's m x m sides decide the peak), and holds
    # the factors of the trial's two maps at least.
    import tracemalloc

    run_trial(1, 0, 2, 2, (0.5,))  # one-time allocations first
    for betas in ((0.25, 0.5, 1.0, 2.0), (0.1,), *(tuple(np.linspace(0.1, 4.0, w)) for w in (16, 40))):
        tracemalloc.start()
        try:
            run_trial(3, 0, n, m, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = maps._unit_bytes(certify._sweep_trial(len(betas)), n, m)
        assert 2 * 16 * (n * m) ** 2 < peak <= record, (len(betas), peak, record)


@pytest.mark.parametrize("n", [3, 4])
def test_a_sweep_batch_stays_within_its_trials_byte_counts(n):
    # Measured: the peak traced memory of a default batch, 18 trials at 3 x 3 and
    # 12 at 4 x 4, lies within its trials' records at the default four weights.
    import tracemalloc

    unit = certify._sweep_trial(4)
    k = maps._units_per_call(unit, n, n)
    assert k == {3: 18, 4: 12}[n]
    run_trial(1, [0, 1], 2, 2, (0.5,))  # one-time allocations first
    tracemalloc.start()
    try:
        run_trial(3, list(range(k)), n, n, (0.25, 0.5, 1.0, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= k * maps._unit_bytes(unit, n, n), (k, peak)


def test_the_sweep_trial_record_is_the_fitted_one_at_four_weights():
    # At the default four weights the record is the one fitted there, so the
    # default batch sizes and the largest shapes the sweep takes do not move.
    assert certify._sweep_trial(4) == maps._Unit("sweep trial", 7, 144, 144, 65536, 32)


def test_estimate_constant_rows():
    rows = estimate_constant([0.25, 0.5], trials=20, seed=9)
    by_beta = {row["beta"]: row for row in rows}
    assert by_beta[0.5]["empirical_c"] >= 0.5 - 1e-9
    assert by_beta[0.25]["empirical_c"] <= 1.0 + 1e-9
    for row in rows:
        assert row["ratio"] <= 1.0 + 1e-9


def test_estimate_constant_validation():
    with pytest.raises(ValueError):
        estimate_constant([0.75], trials=1)
    with pytest.raises(ValueError):
        estimate_constant([], trials=1)
    with pytest.raises(ValueError):
        estimate_constant([0.5], trials=0)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, 1e308, 1e154, 1e-309])
def test_weight_must_be_positive_and_finite(linalg_calls, beta):
    # An infinite weight used to reach LAPACK (or give the sharpness family
    # infinite entries), and 1e308 made 1/(2 beta) underflow; every entry
    # refuses a weight out of scale before any decomposition.
    def refused(call, *args):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            call(*args)

    pmap, nmat = random_cp_map(1, 3, 3), random_normal(2, 3)
    linalg_calls.clear()
    refused(check_theorem_main, pmap, nmat, beta)
    refused(check_corollary_eigen, pmap, nmat, beta)
    refused(sharpness_family, beta)
    refused(minimal_orbit_constant, pmap, nmat, beta)
    refused(run_trial, 1, 0, 2, 2, (0.5, beta))
    assert sum(linalg_calls.values()) == 0, dict(linalg_calls)


def _pmap3():
    return random_cp_map(1, 3, 3)


# (entry, arguments, message): each refusal, on inputs drawn before counting.
_REFUSALS = {
    "theorem-size": lambda: (check_theorem_main, (_pmap3(), random_normal(2, 2), 0.5), "map expects 3"),
    "block-size": lambda: (check_block_certificate, (_pmap3(), random_normal(2, 2)), "map expects 3"),
    "search-size": lambda: (minimal_orbit_constant, (_pmap3(), random_normal(2, 2), 0.25), "map expects 3"),
    "russo-dye-size": lambda: (check_russo_dye, (_pmap3(), random_contraction(2, 2)), "map expects 3"),
    "two-positive-size": lambda: (
        check_two_positive_unital,
        (random_unital_cp_map(1, 3, 3), random_contraction(2, 2)),
        "map expects 3",
    ),
    "hermitian-sum-size": lambda: (check_hermitian_sum, (_pmap3(), random_matrix(2, 2)), "map expects 3"),
    "partial-trace-size": lambda: (check_partial_trace, (random_normal(0, 4), 2, 3), "map expects 6"),
    "weighted-sum-size": lambda: (
        check_weighted_sum,
        ([random_matrix(3, 3)[:2]], [random_contraction(4, 3)]),
        "row space",
    ),
    "sum-of-normals-size": lambda: (
        check_sum_of_normals,
        ([random_normal(5, 2), random_normal(6, 3)],),
        "shape mismatch",
    ),
    "schur-normal-size": lambda: (check_schur_normal, (random_normal(5, 2), random_normal(6, 3)), "shape mismatch"),
    "trial-weight": lambda: (run_trial, (1, 0, 2, 2, (0.5, math.inf)), "beta must be positive"),
    "search-weight": lambda: (minimal_orbit_constant, (_pmap3(), random_normal(2, 3), math.inf), "beta must"),
    "search-huge-weight": lambda: (minimal_orbit_constant, (_pmap3(), random_normal(2, 3), 1e308), "beta must"),
    "eigen-huge-weight": lambda: (check_corollary_eigen, (_pmap3(), random_normal(2, 3), 1e154), "beta must"),
    "estimate-weight": lambda: (estimate_constant, ([0.25, 1e-309],), "beta must be positive"),
    # 2116 Kraus factors of shape 46 x 46 take 72 MB, over the 64 MiB budget.
    "random-cp-budget": lambda: (random_cp_map, (0, 46, 46), r"one drawn \(46, 46\) map of 2116 Kraus factors holds"),
    "trial-budget": lambda: (run_trial, (1, 0, 46, 46, (0.5,)), "over the budget"),
    "estimate-budget": lambda: (estimate_constant, ([0.25], 0, 100, 46, 46), "over the budget"),
    # Each map of these shapes fits the budget, but one drawn search pair holds
    # 1.08x (35 x 35) and 15x (1 x 2048) of it.
    "estimate-pair-budget": lambda: (estimate_constant, ([0.25], 0, 100, 35, 35), "search pair holds"),
    "estimate-thin-pair-budget": lambda: (estimate_constant, ([0.25], 0, 100, 1, 2048), "search pair holds"),
    # And one sweep trial holds 1.82x (32 x 32) and 151x (1 x 2048) of it.
    "trial-square-budget": lambda: (run_trial, (1, 0, 32, 32, (0.5,)), "sweep trial holds"),
    "trial-thin-budget": lambda: (run_trial, (1, [0, 1], 1, 2048, (0.5,)), "sweep trial holds"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusals_come_before_any_decomposition(linalg_calls, case):
    # A size or weight that an entry cannot take is refused before its first
    # decomposition, not after the work on its other inputs.
    call, args, message = _REFUSALS[case]()
    linalg_calls.clear()
    with pytest.raises(ValueError, match=message):
        call(*args)
    assert sum(linalg_calls.values()) == 0, dict(linalg_calls)


# (entry, arguments): inputs each entry accepts, drawn before counting, for
# every function that takes a tol.
_TOL_REFUSALS = {
    "check_theorem_main": lambda: (check_theorem_main, (_pmap3(), random_normal(2, 3), 0.5)),
    "chain_certificate": lambda: (chain_certificate, check_theorem_main(_pmap3(), random_normal(2, 3), 0.5)[::-1]),
    "check_block_certificate": lambda: (check_block_certificate, (_pmap3(), random_normal(2, 3))),
    "check_corollary_eigen": lambda: (check_corollary_eigen, (_pmap3(), random_normal(2, 3), 0.5)),
    "check_real_part": lambda: (check_real_part, (random_normal(2, 3),)),
    "check_partial_trace": lambda: (check_partial_trace, (random_normal(0, 4), 2, 2)),
    "check_sum_of_normals": lambda: (check_sum_of_normals, ([random_normal(5, 2), random_normal(6, 2)],)),
    "check_russo_dye": lambda: (check_russo_dye, (_pmap3(), random_contraction(2, 3))),
    "check_weighted_sum": lambda: (check_weighted_sum, ([random_matrix(3, 3, 2)], [random_contraction(4, 3)])),
    "check_schur_diagonal": lambda: (check_schur_diagonal, (random_psd(5, 2), random_contraction(6, 2))),
    "check_schur_normal": lambda: (check_schur_normal, (random_normal(5, 2), random_normal(6, 2))),
    "check_hermitian_sum": lambda: (check_hermitian_sum, (_pmap3(), random_matrix(2, 3))),
    "check_schur_square": lambda: (check_schur_square, (_pmap3(), random_matrix(2, 3))),
    "check_two_positive_unital": lambda: (
        check_two_positive_unital, (random_unital_cp_map(1, 3, 3), random_contraction(2, 3))
    ),
    "run_trial": lambda: (run_trial, (1, 0, 2, 2, (0.5,))),
    "loewner_leq": lambda: (loewner_leq, (np.eye(2), np.eye(2))),
    "weak_log_majorize": lambda: (weak_log_majorize, ([1.0], [1.0])),
}


def test_every_entry_that_takes_tol_has_a_refusal_row():
    # Every public function of certify that takes a tol, and the two checked
    # verdicts of core, has a row below, so a new checker cannot skip the rule.
    # The records Certificate and ReproResult carry a tol but decide nothing.
    entries = {
        name for name in certify.__all__
        if inspect.isfunction(getattr(certify, name))
        and "tol" in inspect.signature(getattr(certify, name)).parameters
    }
    assert entries | {"loewner_leq", "weak_log_majorize"} == set(_TOL_REFUSALS)


@pytest.mark.parametrize("case", sorted(_TOL_REFUSALS))
def test_a_bad_tol_is_refused_before_any_decomposition(linalg_calls, case):
    # The tolerance rule runs first in each entry, not at the verdict after the work.
    call, args = _TOL_REFUSALS[case]()
    assert call(*args) is not None  # the inputs are accepted with the default tol
    linalg_calls.clear()
    with pytest.raises(ValueError, match=r"^tol must be finite and nonnegative, got -1\.0$"):
        call(*args, tol=-1.0)
    assert sum(linalg_calls.values()) == 0, dict(linalg_calls)


_ONE = {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}
_WORDS = np.array([["a", "b"], ["c", "d"]])  # a 2 x 2 matrix of strings
_NONE = [[None, 1.0], [0.0, 1.0]]  # None is no number, not a NaN

# (entry, arguments, message) for the five argument rules of core: a size is
# an integer >= 1, a seed or trial index an integer >= 0, a list is not empty,
# matrices compared entrywise or side by side share one shape, and a matrix
# or Kraus stack holds numbers (every public entry that coerces one refuses
# strings, None or other objects before the cast to complex; their sizes fit,
# so only the entries are at fault). Inputs are drawn before counting. A batch
# refuses its bad index before it draws a trial.
_ARGUMENT_REFUSALS = {
    "random-matrix-rows": lambda: (random_matrix, (0, 0), "rows must be an integer >= 1, got 0"),
    "random-matrix-cols": lambda: (random_matrix, (0, 2, 2.5), "cols must be an integer >= 1, got 2.5"),
    "random-normal-float": lambda: (random_normal, (0, 2.5), "n must be an integer >= 1, got 2.5"),
    "random-normal-bool": lambda: (random_normal, (0, True), "n must be an integer >= 1, got True"),
    "random-psd": lambda: (random_psd, (0, 0), "n must be an integer >= 1, got 0"),
    "haar-unitary": lambda: (haar_unitary, (0, -1), "n must be an integer >= 1, got -1"),
    "random-contraction": lambda: (random_contraction, (0, np.int64(0)), "n must be an integer >= 1"),
    "partial-trace-d": lambda: (partial_trace_first, (2.0, 2), "d must be an integer >= 1, got 2.0"),
    "partial-trace-n": lambda: (partial_trace_first, (2, 0), "n must be an integer >= 1, got 0"),
    "corner-block": lambda: (corner_block_map, (0,), "n must be an integer >= 1, got 0"),
    "random-cp-n": lambda: (random_cp_map, (0, 0, 2), "n must be an integer >= 1, got 0"),
    "random-cp-m": lambda: (random_cp_map, (0, 2, False), "m must be an integer >= 1, got False"),
    "random-cp-terms": lambda: (random_cp_map, (0, 2, 2, 0), "terms must be an integer >= 1, got 0"),
    "unital-cp-n": lambda: (random_unital_cp_map, (0, 1.0, 2), "n must be an integer >= 1, got 1.0"),
    "ptrace-check-d": lambda: (check_partial_trace, (random_normal(0, 4), 0, 2), "d must be an integer >= 1"),
    "counterexample-trials": lambda: (
        search_nonnormal_counterexample, (0, 0), "trials must be an integer >= 1, got 0"
    ),
    "counterexample-float-trials": lambda: (
        search_nonnormal_counterexample, (0, 1.5), "trials must be an integer >= 1, got 1.5"
    ),
    "counterexample-seed": lambda: (search_nonnormal_counterexample, (-1, 3), "seed must be nonnegative"),
    "counterexample-bool-seed": lambda: (search_nonnormal_counterexample, (True, 3), "seed must be an integer"),
    "estimate-trials": lambda: (estimate_constant, ([0.25], 0, 0), "trials must be an integer >= 1, got 0"),
    "estimate-n": lambda: (estimate_constant, ([0.25], 0, 1, 0), "n must be an integer >= 1, got 0"),
    "estimate-m": lambda: (estimate_constant, ([0.25], 0, 1, 2, 1.5), "m must be an integer >= 1, got 1.5"),
    "estimate-seed": lambda: (estimate_constant, ([0.25], -1), "seed must be nonnegative"),
    "estimate-bool-seed": lambda: (estimate_constant, ([0.25], True), "seed must be an integer"),
    "trial-seed": lambda: (run_trial, (-1, 0, 2, 2, (0.5,)), "master_seed must be nonnegative"),
    "trial-index": lambda: (run_trial, (1, -1, 2, 2, (0.5,)), "trial_index must be nonnegative"),
    "trial-float-index": lambda: (run_trial, (1, 1.5, 2, 2, (0.5,)), "trial_index must be an integer"),
    "trial-bool-index": lambda: (run_trial, (1, True, 2, 2, (0.5,)), "trial_index must be an integer"),
    "trial-batch-index": lambda: (run_trial, (1, [0, -2], 2, 2, (0.5,)), "trial_index[1] must be nonnegative"),
    "literal-rows": lambda: (matrix_from_json, ({**_ONE, "rows": 0},), "rows must be an integer >= 1, got 0"),
    "literal-cols": lambda: (matrix_from_json, ({**_ONE, "cols": True},), "cols must be an integer >= 1"),
    # A map literal's sizes are its factors': the rows and columns of its matrix literals.
    "map-literal-input-dim": lambda: (
        map_from_json, ({"kraus": [{**_ONE, "rows": 0}]},), "rows must be an integer >= 1, got 0"
    ),
    "map-literal-output-dim": lambda: (
        map_from_json, ({"kraus": [{**_ONE, "cols": 1.5}]},), "cols must be an integer >= 1, got 1.5"
    ),
    "direct-sum-empty": lambda: (direct_sum, ([],), "mats must not be empty"),
    "sum-of-normals-empty": lambda: (check_sum_of_normals, ([],), "mats must not be empty"),
    "weighted-sum-empty": lambda: (check_weighted_sum, ([], []), "xs must not be empty"),
    "angles-empty": lambda: (repro_no_single_unitary, ([],), "angles must not be empty"),
    "beta-grid-empty": lambda: (estimate_constant, ([],), "beta_grid must not be empty"),
    "geometric-mean-shape": lambda: (
        geometric_mean, (np.eye(2), np.eye(3)), "shape mismatch: a (2, 2) vs b (3, 3)"
    ),
    "verdict-shape": lambda: (loewner_leq, (np.eye(2), np.eye(3)), "shape mismatch: lhs (2, 2) vs rhs (3, 3)"),
    "logmaj-shape": lambda: (weak_log_majorize, ([1.0], [1.0, 0.5]), "shape mismatch: a (1,) vs b (2,)"),
    "schur-prod-shape": lambda: (schur_prod, (np.eye(2), np.ones((2, 3))), "shape mismatch: a (2, 2) vs b (2, 3)"),
    "sum-of-normals-shape": lambda: (
        check_sum_of_normals,
        ([random_normal(5, 2), random_normal(6, 2), random_normal(7, 3)],),
        "shape mismatch: mats[0] (2, 2) vs mats[2] (3, 3)",
    ),
    "weighted-sum-xs-shape": lambda: (
        check_weighted_sum,
        ([random_matrix(3, 3, 2), random_matrix(4, 3, 3)], [random_contraction(5, 3)] * 2),
        "shape mismatch: xs[0] (3, 2) vs xs[1] (3, 3)",
    ),
    "schur-diagonal-shape": lambda: (
        check_schur_diagonal, (random_psd(5, 2), random_contraction(6, 3)), "shape mismatch: a (2, 2) vs z (3, 3)"
    ),
    "schur-normal-shape": lambda: (
        check_schur_normal, (random_normal(5, 2), random_normal(6, 3)), "shape mismatch: a (2, 2) vs b (3, 3)"
    ),
    "numeric-as-matrix-object": lambda: (as_matrix, ([[object()]],), "matrix must be numeric"),
    "numeric-as-matrix-none": lambda: (as_matrix, (_NONE,), "matrix must be numeric"),
    "numeric-stack-none": lambda: (mat_abs, (_NONE,), "x must be numeric"),
    "numeric-kraus-object": lambda: (PositiveMapRep, ([[[object()]]],), "kraus_ops must be numeric"),
    "numeric-kraus-none": lambda: (PositiveMapRep, ([_NONE],), "kraus_ops must be numeric"),
    "numeric-apply": lambda: (apply, (random_cp_map(1, 2, 2), _WORDS), "x must be numeric"),
    "numeric-schur-multiplier": lambda: (schur_multiplier, (_WORDS,), "a must be numeric"),
    "numeric-loewner": lambda: (loewner_leq, (np.eye(2), _WORDS), "b must be numeric"),
    "numeric-matrix-to-json": lambda: (matrix_to_json, (_NONE,), "matrix must be numeric"),
    "numeric-theorem": lambda: (check_theorem_main, (random_cp_map(1, 2, 2), _WORDS, 0.5), "nmat must be numeric"),
    "numeric-block": lambda: (check_block_certificate, (random_cp_map(1, 2, 2), _NONE), "nmat must be numeric"),
    "numeric-eigen": lambda: (check_corollary_eigen, (random_cp_map(1, 2, 2), _WORDS, 0.5), "nmat must be numeric"),
    "numeric-real-part": lambda: (check_real_part, (_WORDS,), "a must be numeric"),
    "numeric-partial-trace": lambda: (check_partial_trace, (_WORDS, 2, 1), "nmat must be numeric"),
    "numeric-sum-of-normals": lambda: (check_sum_of_normals, ([np.eye(2), _NONE],), "mats[1] must be numeric"),
    "numeric-russo-dye": lambda: (check_russo_dye, (random_cp_map(1, 2, 2), _WORDS), "z must be numeric"),
    "numeric-weighted-sum": lambda: (check_weighted_sum, ([np.eye(2)], [_WORDS]), "zs[0] must be numeric"),
    "numeric-schur-diagonal": lambda: (check_schur_diagonal, (np.eye(2), _WORDS), "z must be numeric"),
    "numeric-schur-normal": lambda: (check_schur_normal, (_NONE, np.eye(2)), "a must be numeric"),
    "numeric-hermitian-sum": lambda: (check_hermitian_sum, (random_cp_map(1, 2, 2), _WORDS), "x must be numeric"),
    "numeric-schur-square": lambda: (check_schur_square, (random_cp_map(1, 2, 2), _WORDS), "x must be numeric"),
    "numeric-two-positive": lambda: (
        check_two_positive_unital, (random_unital_cp_map(1, 2, 2), _WORDS), "z must be numeric"
    ),
    "numeric-search-matrix": lambda: (
        minimal_orbit_constant, (random_cp_map(1, 2, 2), _WORDS, 0.25), "nmat must be numeric"
    ),
    # A list of maps is not a Kraus stack.
    "numeric-search-maps": lambda: (
        minimal_orbit_constant, ([random_cp_map(1, 2, 2)] * 2, np.stack([np.eye(2)] * 2), 0.25), "pmap must be numeric"
    ),
    "numeric-search-chunk-matrices": lambda: (
        minimal_orbit_constant, (random_cp_map(1, 2, 2).kraus_ops[None], [_NONE], 0.25), "nmat must be numeric"
    ),
}


@pytest.mark.parametrize("case", sorted(_ARGUMENT_REFUSALS))
def test_argument_rules_refuse_by_name_before_any_decomposition(linalg_calls, case):
    # Each rule is one helper in core; every entry that takes a size, a list,
    # two matrices of one shape or a matrix refuses through it, naming the
    # argument.
    call, args, message = _ARGUMENT_REFUSALS[case]()
    linalg_calls.clear()
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(*args)
    assert sum(linalg_calls.values()) == 0, dict(linalg_calls)


_SHIFT = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent, so not normal
_NON_HERMITIAN = np.array([[1.0, 2.0], [0.0, 1.0]])  # its Hermitian part is PSD
_INDEFINITE = np.diag([1.0, -1.0])
_EYE = np.eye(2)

# (entry, arguments, message): one row per place that refuses an input lacking
# a property its statement assumes, each through core._refuse and naming the
# argument its caller passed.
_PROPERTY_REFUSALS = {
    "as-stack-finite": lambda: (mat_abs, (np.full((2, 2), np.nan),), "x must be finite"),
    "as-matrix-numeric": lambda: (as_matrix, ("ab",), "matrix must be numeric"),
    "herm-eig-hermitian": lambda: (herm_eig, (_NON_HERMITIAN,), "h must be Hermitian"),
    "schur-multiplier-hermitian": lambda: (schur_multiplier, (_NON_HERMITIAN,), "a must be Hermitian"),
    "geometric-mean-hermitian": lambda: (geometric_mean, (_EYE, _NON_HERMITIAN), "b must be Hermitian"),
    "geometric-mean-psd-a": lambda: (geometric_mean, (_INDEFINITE, _EYE), "a must be positive semidefinite"),
    "geometric-mean-psd-b": lambda: (geometric_mean, (_EYE, _INDEFINITE), "b must be positive semidefinite"),
    "loewner-hermitian": lambda: (loewner_leq, (_EYE, _NON_HERMITIAN), "b must be Hermitian"),
    "logmaj-finite": lambda: (weak_log_majorize, ([1.0, 0.5], [np.nan, 1.0]), "b must be finite"),
    "logmaj-nonnegative": lambda: (weak_log_majorize, ([1.0, -0.5], [1.0, 1.0]), "a must be nonnegative"),
    "schur-multiplier-psd": lambda: (schur_multiplier, (_INDEFINITE,), "a must be positive semidefinite"),
    "russo-dye-contraction": lambda: (
        check_russo_dye, (random_cp_map(1, 2, 2), 2.0 * _EYE), "z must be a contraction"
    ),
    "kraus-finite": lambda: (PositiveMapRep, ([np.full((1, 1), np.nan)],), "kraus_ops must be finite"),
    "theorem-normal": lambda: (check_theorem_main, (random_cp_map(1, 2, 2), _SHIFT, 0.5), "nmat must be normal"),
    "sum-of-normals-normal": lambda: (check_sum_of_normals, ([_EYE, _SHIFT],), "mats[1] must be normal"),
    "weighted-sum-contraction": lambda: (
        check_weighted_sum, ([_EYE], [2.0 * _EYE]), "zs[0] must be a contraction"
    ),
    "search-normal": lambda: (
        minimal_orbit_constant, (random_cp_map(1, 2, 2), _SHIFT, 0.25), "nmat must be normal"
    ),
    "schur-diagonal-hermitian": lambda: (check_schur_diagonal, (_NON_HERMITIAN, _EYE), "a must be Hermitian"),
    "schur-diagonal-psd": lambda: (check_schur_diagonal, (_INDEFINITE, _EYE), "a must be positive semidefinite"),
    "schur-diagonal-contraction": lambda: (check_schur_diagonal, (_EYE, 2.0 * _EYE), "z must be a contraction"),
    "two-positive-unital": lambda: (
        check_two_positive_unital, (random_cp_map(1, 2, 2), 0.5 * _EYE), "pmap must be unital"
    ),
    "diagonal-finite": lambda: (
        _diagonal_certificate, ("diag", np.array([np.inf, 0.0]), np.ones(2)), "the sides of diag must be finite"
    ),
}


@pytest.mark.parametrize("case", sorted(_PROPERTY_REFUSALS))
def test_property_refusals_name_the_argument(case):
    call, args, message = _PROPERTY_REFUSALS[case]()
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(*args)


def test_the_kraus_budget_is_refused_before_any_draw():
    # Drawing 46 x 46 factors would allocate 72 MB, one 1 x 2048 search pair
    # about 1 GB, and one 1 x 2048 sweep trial far more; each entry refuses first.
    import tracemalloc

    tracemalloc.start()
    try:
        for case in (
            "random-cp-budget", "trial-budget", "estimate-budget", "estimate-pair-budget", "estimate-thin-pair-budget",
            "trial-square-budget", "trial-thin-budget",
        ):
            call, args, _ = _REFUSALS[case]()
            with pytest.raises(ValueError, match="over the budget of 67108864 bytes"):
                call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# Words that name an input property a statement assumes.
_PROPERTY_WORDS = re.compile(r"hermitian|semidefinite|\bpsd\b|\bnormal\b|contraction|unital|finite|numeric", re.I)
# The argument rules, and serialize's translation of an integer overflow, phrase their own refusals.
_OWN_REFUSALS = {"_check_tol", "_check_weights", "matrix_from_json"}


def _property_raises(path) -> list:
    """``(function, line)`` of each ``raise ValueError`` in ``path`` whose message names an input property."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            exc = child.exc if isinstance(child, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ValueError" and exc.args:
                # The literal parts of the message, an f-string's included.
                text = " ".join(str(n.value) for n in ast.walk(exc.args[0]) if isinstance(n, ast.Constant))
                if _PROPERTY_WORDS.search(text):
                    found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_input_properties_are_refused_in_one_form():
    # A missing property is refused by core._refuse alone, as "<name> must be
    # <property>"; no other raise names one.
    found = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(matineq.__file__), "*.py"))):
        for function, line in _property_raises(path):
            found.setdefault(function, []).append(f"{os.path.basename(path)}:{line}")
    offenders = {function: lines for function, lines in found.items() if function not in _OWN_REFUSALS}
    assert offenders == {}
    # The guard reads f-string messages: it sees the refusals it allows.
    assert set(found) == _OWN_REFUSALS


def test_only_the_byte_rules_read_the_budget():
    # MAX_KRAUS_BYTES is read by the refusal and the units per call of the unit
    # records in maps (a drawn map's, a search pair's and a sweep trial's), and by
    # no other function, so a second byte rule cannot come back unnoticed.
    readers = set()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(matineq.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                name = getattr(child, "id", getattr(child, "attr", None))
                if name == "MAX_KRAUS_BYTES" and isinstance(child.ctx, ast.Load):
                    readers.add(f"{os.path.basename(path)}:{function}")
                visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

        visit(tree, None)
    assert readers == {"maps.py:_check_unit_bytes", "maps.py:_units_per_call"}


# The primitives that decide a statement: only certify._decide asks for them.
_VERDICTS = {"_hermitian_verdict", "_log_majorizations", "_diagonal_certificate"}


def test_every_task_decides_through_one_step():
    # Every statement task lists its claims for _decide; no other generator
    # names a verdict primitive, so a verdict rule changes in one place.
    with open(certify.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    named = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & _VERDICTS
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node))
    }
    assert {"_orbit_statements", "_real_part", "_russo_dye", "_weighted_sum"} <= set(named)
    assert {task: verdicts for task, verdicts in named.items() if verdicts} == {"_decide": _VERDICTS}


def test_a_claim_listed_twice_is_decided_once(monkeypatch):
    # main-geom is listed under every weight: it is one outcome, and one member
    # of the m x m verdict call beside the 4 arithmetic and 4 chain claims.
    betas = (0.25, 0.5, 1.0, 2.0)
    out = run_trial(5, 0, 2, 3, betas)
    assert len({id(out[f"main-geom@beta={beta:g}"]) for beta in betas}) == 1
    calls = []
    answer = staging._answer

    def recorded(asks):
        if asks[0].fn.__name__ == "_hermitian_verdict":
            calls.append((asks[0].args[0].shape[1:], sum(ask.members() for ask in asks)))
        return answer(asks)

    monkeypatch.setattr(staging, "_answer", recorded)
    certify._run(certify._orbit_statements(random_cp_map(1, 2, 3), random_normal(2, 2)[None], betas, DEFAULT_TOL))
    assert calls == [((3, 3), 9), ((6, 6), 1)]


def test_numpy_integer_sizes_are_accepted():
    size = np.int64(2)
    np.testing.assert_array_equal(random_normal(0, size), random_normal(0, 2))
    np.testing.assert_array_equal(random_matrix(0, size, np.int32(3)), random_matrix(0, 2, 3))
    np.testing.assert_array_equal(random_cp_map(0, size, size).kraus_ops, random_cp_map(0, 2, 2).kraus_ops)
    assert partial_trace_first(size, size).input_dim == 4


# ---------------------------------------------------------------------------
# sweep assembly
# ---------------------------------------------------------------------------


def test_run_trial_covers_statements_and_passes():
    betas = (0.25, 1.0)
    for trial in range(5):
        out = run_trial(99, trial, 2 + trial % 2, 2 + trial % 3, betas)
        assert list(out) == trial_statements(betas)
        for key, outcome in out.items():
            assert outcome.passed, (trial, key, outcome.min_slack)


def test_report_keys_and_certificates_name_the_same_statement():
    # A statement's name is written in its task (the claim's id) and in the
    # statement table (the report key); the two must agree.
    betas = (0.25, 0.5, 1.0, 2.0)
    weights = {f"beta={beta:g}": beta for beta in betas}
    for n, m in ((2, 2), (2, 3), (3, 2)):
        out = run_trial(3, n, n, m, betas)
        logmaj = [key for key in out if key.endswith("-logmaj")]
        assert len(logmaj) == 5, logmaj
        for key, outcome in out.items():
            if key in logmaj:
                assert isinstance(outcome, MajorizationReport), key
                continue
            assert isinstance(outcome, Certificate), key
            name, _, tag = key.partition("@")
            assert outcome.statement_id == name, key
            if tag:
                # main-geom has no weight: the sweep builds it once for all weights.
                assert outcome.beta == (None if name == "main-geom" else weights[tag]), key


@pytest.mark.parametrize("betas", [(1.0, 1.0000001), (0.5, 0.25, 0.5)])
def test_weights_sharing_a_key_are_refused(betas):
    # Two weights that print alike under %g would share every per-weight key,
    # so run_trial would silently keep one outcome of each pair.
    with pytest.raises(ValueError, match="share report keys"):
        trial_statements(betas)
    with pytest.raises(ValueError, match="share report keys"):
        run_trial(1, 0, 2, 2, betas)


def test_run_trial_decomposition_budget(linalg_calls):
    # A trial makes one stacked call per stage and matrix shape. At n = m, 2
    # calls draw the instances (1 stacked SVD scales the 6 contractions, 1
    # eigh makes the unital map), 2 take absolute values (at n and 2n: a
    # direct sum's is taken block by block, and |x*| is a member of the
    # n-shaped call), 1 polar serves all 9 orbit pairs, 1 + 1 + 1 take
    # spectra and determinants, 3 serve the 6 geometric means and 2 + 2
    # decide the 21 Loewner certificates (shapes n and 2n). The draws hold
    # their hypotheses as drawn, so no call checks them. With n != m the
    # calls at n and at m are separate.
    for n, m, budget in ((2, 2, 15), (3, 3, 15), (2, 3, 27), (3, 2, 27)):
        linalg_calls.clear()
        run_trial(5, n, n, m, (0.25, 0.5, 1.0, 2.0))
        assert sum(linalg_calls.values()) == budget, (n, m, dict(linalg_calls))
        assert linalg_calls["norm"] == 0, dict(linalg_calls)
    # A batch of k trials makes each call once: its instances are built once a
    # batch (the contractions' SVD, one per size, and the unital maps' eigh), and
    # realpart-det's det is one stacked ask, so 15 decompositions at n = m and
    # 27 at n != m, whatever k.
    for k in (2, 17, 33):
        for n, m, budget in ((3, 3, 15), (2, 3, 27)):
            linalg_calls.clear()
            run_trial(5, list(range(k)), n, m, (0.25, 0.5, 1.0, 2.0))
            assert sum(linalg_calls.values()) == budget, (k, n, m, dict(linalg_calls))
            assert (linalg_calls["det"], linalg_calls["norm"]) == (1, 0), dict(linalg_calls)


def test_run_trial_stacked_calls(monkeypatch):
    # One engine call per stage and shape: at n = m, 13 serve the absolute
    # values, images, polar decompositions, spectra, means and verdicts, and
    # 1 the 5 log-majorizations; at n != m, the calls at n and
    # at m are separate, and the log-majorizations take one call per length.
    # The verdict stage takes the 21 certificates' sides as Hermitian parts
    # and _orbit every comparison argument, so hermitian_part runs only on
    # the Gram matrix of the weighted sum.
    answered, hermitian = [], []
    answer = staging._answer

    def counted_answer(asks):
        answered.append(asks[0].fn.__name__)
        return answer(asks)

    def counted_hermitian(x):
        hermitian.append(x.shape)
        return hermitian_part(x)

    monkeypatch.setattr(staging, "_answer", counted_answer)
    monkeypatch.setattr(certify, "hermitian_part", counted_hermitian)
    for n, m, calls, lengths in ((3, 3, 14, 1), (2, 3, 22, 2)):
        answered.clear()
        hermitian.clear()
        run_trial(5, n, n, m, (0.25, 0.5, 1.0, 2.0))
        assert len(answered) == calls, answered
        assert answered.count("_log_majorizations") == lengths, answered
        assert len(hermitian) == 1, hermitian
    # A batch of k trials shares every call: the real-part averager and the two
    # partial traces are built once a call, one apply each, and the trials'
    # sweep and unital maps are members of one stack, whose images take one
    # _apply_members call, so 14 calls whatever k.
    for k in (2, 17, 33):
        answered.clear()
        run_trial(5, list(range(k)), 3, 3, (0.25, 0.5, 1.0, 2.0))
        assert len(answered) == 14, answered
        assert (answered.count("apply"), answered.count("_apply_members")) == (3, 1), answered


def test_a_batch_drives_one_task_per_table_row(monkeypatch):
    # A batch's Python work does not grow with its trials: each table row is one
    # task on the batch's stacks, and it asks once per primitive and claim, so a
    # batch of any size drives len(_STATEMENTS) tasks and answers the same asks.
    tasks, asks = [], []
    run_staged, answer = certify.run_staged, staging._answer

    def counted_run(names, driven):
        tasks.append(len(driven))
        return run_staged(names, driven)

    def counted_answer(group):
        asks.append(len(group))
        return answer(group)

    monkeypatch.setattr(certify, "run_staged", counted_run)
    monkeypatch.setattr(staging, "_answer", counted_answer)
    for n, m in ((3, 3), (2, 3)):
        counts = set()
        for k in (1, 2, 17, 33):
            tasks.clear()
            asks.clear()
            run_trial(5, list(range(k)), n, m, (0.25, 0.5, 1.0, 2.0))
            counts.add((tuple(tasks), sum(asks)))
        assert len(counts) == 1, (n, m, counts)
        assert next(iter(counts))[0] == (len(certify._STATEMENTS),)


def test_every_orbit_pair_is_exactly_hermitian(monkeypatch):
    # _orbit takes the Hermitian part of every comparison argument, so each
    # pair's argument, |image| and orbit term are Hermitian bit for bit, for
    # the sweep, the worked examples and the search alike.
    orbits = []
    orbit = certify._orbit

    @functools.wraps(orbit)  # the engine finds the stage by __name__
    def recorded(image, arg):
        orbits.append(orbit(image, arg))
        return orbits[-1]

    monkeypatch.setattr(certify, "_orbit", recorded)
    runs = [
        functools.partial(run_trial, 5, n, n, m, (0.25, 1.0), inject_mutant=mutant)
        for n, m in ((2, 2), (2, 3), (3, 2))
        for mutant in (False, True)
    ]
    runs += [
        functools.partial(repro_sharpness_beta, 0.5),
        repro_psi_sharpness,
        functools.partial(repro_no_single_unitary, [0.5, 1.0]),
        functools.partial(minimal_orbit_constant, random_cp_map(1, 3, 3), random_normal(2, 3), 0.25),
    ]
    for run in runs:
        before = len(orbits)
        run()
        assert len(orbits) > before
    for o in orbits:
        for x in (o.arg, o.lhs, o.orbit):
            assert np.array_equal(x, x.conj().swapaxes(-1, -2))


def _recorded_generators(monkeypatch) -> list:
    """Record the seed of every generator ``np.random.default_rng`` builds, ``core._rng``'s included."""
    seeds = []
    default_rng = np.random.default_rng

    def recorded(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recorded)
    return seeds


def test_run_trial_builds_one_seeded_generator(monkeypatch):
    # Every instance of a trial is drawn from one generator, seeded [seed, index];
    # a batch builds one a trial, in index order, and no other.
    seeds = _recorded_generators(monkeypatch)
    for n, m in ((2, 2), (3, 2)):
        for index in (7, [7, 2, 9]):
            seeds.clear()
            run_trial(5, index, n, m, (0.25, 1.0))
            assert seeds == [[5, i] for i in np.atleast_1d(index).tolist()], seeds


def test_search_chunk_reads_the_generator_it_is_handed(monkeypatch):
    # A chunk builds no generator of its own: it reads the next pairs of the
    # weight's stream, so two chunks of 3 and 5 are one chunk of 8.
    seeds = _recorded_generators(monkeypatch)
    for n, m in ((2, 3), (3, 2)):
        rng, whole_rng = np.random.default_rng([4, 2]), np.random.default_rng([4, 2])
        seeds.clear()
        parts = [certify._search_pairs(rng, k, n, m) for k in (3, 5)]
        whole = certify._search_pairs(whole_rng, 8, n, m)
        assert seeds == []
        for split, joined in zip(zip(*parts), whole):
            assert np.array_equal(np.concatenate(split), joined)


def test_search_builds_one_generator_a_weight(capsys, monkeypatch):
    # The whole search command, as the benchmark runs it, draws each weight's
    # pool from one generator seeded [seed, bi], whatever its chunks.
    seeds = _recorded_generators(monkeypatch)
    for budget in (maps.MAX_KRAUS_BYTES, _chunk_budget(7, 3, 3)):
        monkeypatch.setattr(maps, "MAX_KRAUS_BYTES", budget)
        seeds.clear()
        code = cli.main(["search", "--dims", "3,3", "--beta", "0.1,0.25,0.5", "--trials", "20", "--seed", "2"])
        assert code == 0 and capsys.readouterr().out.startswith("beta,empirical_c")
        assert seeds == [[2, 0], [2, 1], [2, 2]]


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2), (4, 4), (12, 12), (27, 27), (1, 166), (166, 1)])
def test_every_draw_holds_its_hypotheses(n, m):
    # The sweep runs its tasks on the draws as drawn, checking nothing: each
    # instance holds its statement's hypotheses by the library's own rules.
    for index in range(3):
        t = _trial(_draw(5, [index], n, m))
        normals = [t.main, t.real, *t.summands, *t.schur_pair, t.block]
        contractions = [t.russo_z, t.schur_z, t.quarter_z, *t.zs]
        assert (len(normals), len(contractions)) == (8, 6)
        assert all(is_normal(x) for x in normals), index
        assert all(is_contraction(z) for z in contractions), index
        assert is_unital(t.unital), index
        w = np.linalg.eigvalsh(t.psd)
        assert _hermitian_within(t.psd) and _is_psd(w, np.abs(w).max()), index


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (4, 4), (12, 12)])
def test_a_batch_member_is_its_trial_drawn_alone(n, m):
    # A batch draws every trial's instances into one record of stacks and builds
    # each kind once; each member has, field by field, the bits of its trial
    # drawn alone by the public generators, and of a batch of one.
    indices = [5, 0, 3, 9]  # out of order: a batch is any list of indices
    batch = _draw(7, indices, n, m)
    for j, index in enumerate(indices):
        member = _trial(batch, j)
        drawn = zip(member._fields, member, trial_drawn_alone(7, index, n, m), _trial(_draw(7, [index], n, m)))
        for field, mine, alone, one in drawn:
            if field in ("pmap", "unital"):
                mine, alone, one = mine.kraus_ops, alone.kraus_ops, one.kraus_ops
            np.testing.assert_array_equal(mine, alone, f"{field} of trial {index}")
            np.testing.assert_array_equal(mine, one, f"{field} of trial {index}")


# The input rules: coercion, fit, the weight rule and the hypotheses' predicates.
_INPUT_RULES = {"_refuse", "_check_fit", "as_matrix", "is_normal", "is_contraction", "is_unital", "_check_weights"}


def test_no_task_checks_its_inputs():
    # Every input rule runs where an input enters a public checker; no
    # generator in certify names one, so a task does only mathematics on
    # checked inputs and the sweep runs it on its draws as drawn.
    with open(certify.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    named = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & _INPUT_RULES
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node))
    }
    assert {"_orbit_statements", "_real_part", "_weighted_sum", "_schur_diagonal", "_two_positive_unital"} <= set(named)
    assert {task: rules for task, rules in named.items() if rules} == {}


def _public_outcomes(t, betas, tol) -> dict:
    """Every statement of the drawn trial ``t``, from the public checkers one at a time on public maps."""
    out = {}
    for beta in betas:
        tag = f"@beta={beta:g}"
        arith, geom = check_theorem_main(t.pmap, t.main, beta, tol)
        out["main-arith" + tag], out["main-geom" + tag] = arith, geom
        out["main-chain" + tag] = chain_certificate(geom, arith, tol)
        eigen = check_corollary_eigen(t.pmap, t.main, beta, tol)
        out["eigen-logmaj"], out["eigen-pairs"] = eigen.log_majorization, eigen.pair_bounds
        out["eigen-shift" + tag] = eigen.shifted_bounds
    out["block-psd"] = check_block_certificate(t.pmap, t.main, tol)
    real = check_real_part(t.real, tol)
    out["realpart-construction-logmaj"] = real.construction_route
    out["realpart-direct-logmaj"] = real.direct_route
    out["realpart-det"] = real.det_check
    out["ptrace-geom"] = check_partial_trace(t.block, 2, len(t.main), tol)
    out["sum-normals-geom"], out["sum-normals-arith"] = check_sum_of_normals(list(t.summands), tol)
    dye = check_russo_dye(t.pmap, t.russo_z, tol)
    out["contraction-arith"], out["contraction-geom"] = dye.arithmetic, dye.geometric
    out["contraction-logmaj"] = dye.log_majorization
    weighted = check_weighted_sum(list(t.xs), list(t.zs), tol)
    out["weighted-sum-logmaj"], out["weighted-sum-block"] = weighted
    out["schur-diagonal"] = check_schur_diagonal(t.psd, t.schur_z, tol)
    out["schur-normal"] = check_schur_normal(*t.schur_pair, tol)
    out["hermitian-sum-geom"] = check_hermitian_sum(t.pmap, t.x, tol)
    out["schur-square-geom"] = check_schur_square(t.pmap, t.x, tol)
    out["two-positive-quarter"] = check_two_positive_unital(t.unital, t.quarter_z, tol)
    return out


def test_run_trial_symmetrized_statements_match_public_checkers():
    # The sweep runs each statement's task together with the others; every
    # public checker runs the same task alone and must give the same bits.
    betas = (0.25, 0.5, 1.0, 2.0)
    for trial, (n, m) in enumerate(((2, 2), (3, 3), (4, 4), (2, 3), (3, 2))):
        out = run_trial(11, trial, n, m, betas)
        public = _public_outcomes(_trial(_draw(11, [trial], n, m)), betas, DEFAULT_TOL)
        assert set(public) == set(out)
        for key, outcome in out.items():
            mine = public[key]
            assert (mine.passed, mine.min_slack) == (outcome.passed, outcome.min_slack), key
            for spectrum in ("slack_spectrum", "margins"):
                if hasattr(outcome, spectrum):
                    expected = getattr(outcome, spectrum)
                    np.testing.assert_array_equal(getattr(mine, spectrum), expected, key)


def test_fault_injection_affects_only_its_call():
    betas = (0.25, 0.5, 1.0, 2.0)
    orbit_keys = ("main-arith@", "main-chain@")
    for trial in range(3):
        n = 2 + trial % 3
        mutant = run_trial(7, trial, n, n, betas, inject_mutant=True)
        clean = run_trial(7, trial, n, n, betas)
        assert all(outcome.passed for outcome in clean.values()), trial
        failed = [key for key, outcome in mutant.items() if not outcome.passed]
        assert any(key.startswith("main-arith@") for key in failed), trial
        # main-chain compares against the arithmetic right-hand side, so it
        # sees the fault too; every other statement is untouched.
        assert all(key.startswith(orbit_keys) for key in failed), failed
        for key, outcome in clean.items():
            if not key.startswith(orbit_keys):
                assert mutant[key].min_slack == outcome.min_slack, key
