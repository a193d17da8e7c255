"""Tests for the inequality certificates and the worked sharpness examples."""

import math
import time

import numpy as np
import pytest

from matineq import certify
from matineq.core import (
    direct_sum,
    geometric_mean,
    haar_unitary,
    hermitian_part,
    loewner_leq,
    mat_abs,
    polar,
    random_contraction,
    random_matrix,
    random_normal,
    random_psd,
    schur_prod,
    spectral_norm,
)
from matineq.maps import (
    apply,
    identity_map,
    partial_trace_first,
    random_cp_map,
    random_unital_cp_map,
    schur_multiplier,
)
from matineq.certify import (
    DEFAULT_TOL,
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
    witness_unitary,
    _diagonal_certificate,
    _real_part_margin,
)

from _oracles import (
    hermitian_sum_term_via_block,
    minimal_orbit_constant_by_bisection,
    schur_normal_terms_via_kron,
    schur_square_terms_via_kron,
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
    np.testing.assert_allclose(
        np.diag(reports.shifted_bounds.lhs).real, [2.0, -4.0], atol=1e-12
    )
    np.testing.assert_allclose(
        np.diag(reports.shifted_bounds.rhs).real, [2.0, 0.5], atol=1e-12
    )


def test_eigen_top_pair_is_norm_bound():
    for seed in range(25):
        pmap = random_cp_map([seed, 0], 3, 3)
        nmat = random_normal([seed, 1], 3)
        reports = check_corollary_eigen(pmap, nmat, 1.0)
        assert reports.pair_bounds.passed
        top_lhs = float(np.diag(reports.pair_bounds.lhs)[0].real)
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
        np.testing.assert_array_equal(cert.lhs, np.diag(lhs))
        np.testing.assert_array_equal(cert.rhs, np.diag(rhs))
    assert verdicts["within-tol"] == {True} and verdicts["beyond-tol"] == {False}
    assert verdicts["equal"] == verdicts["zero"] == {True}


# ---------------------------------------------------------------------------
# entrywise real part
# ---------------------------------------------------------------------------


def test_real_part_pure_imaginary_diagonal():
    report = check_real_part(np.diag([1j, -1j]))
    assert report.passed
    assert abs(report.det_lhs) <= 1e-12
    assert abs(report.det_rhs - 1.0) <= 1e-12


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


def test_weighted_sum_random_rectangular():
    for seed in range(25):
        xs = [random_matrix([seed, i, 0], 3, 2) for i in range(3)]
        zs = [random_contraction([seed, i, 1], 3) for i in range(3)]
        maj, block = check_weighted_sum(xs, zs)
        assert maj.passed and block.passed


def test_weighted_sum_validation():
    with pytest.raises(ValueError):
        check_weighted_sum([np.eye(2)], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        check_weighted_sum([np.eye(2)], [np.eye(3)])


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
        margin = _real_part_margin(random_normal(seed, 2))
        assert margin <= 1e-9


def test_search_finds_and_reports():
    result = search_nonnormal_counterexample(42, 100000)
    assert result.passed
    assert result.computed["margin"] > 1e-6
    # replay from the stored matrix is exact
    assert _real_part_margin(result.matrices["matrix"]) == result.computed["margin"]


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


def test_minimal_constant_takes_one_generalized_eigensolve(linalg_calls):
    a, r = sharpness_family(0.25)
    for pmap, nmat in ((random_cp_map(1, 3, 3), random_normal(2, 3)), (schur_multiplier(a), r)):
        linalg_calls.clear()
        minimal_orbit_constant(pmap, nmat, 0.25)
        assert linalg_calls["scipy.linalg.eigh"] == 1, dict(linalg_calls)
        assert sum(linalg_calls.values()) <= 6, dict(linalg_calls)


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


def test_run_trial_decomposition_budget(linalg_calls):
    # Each geometric mean takes three decompositions, the weight-free
    # main-geom certificate is built once, each contraction's |z| and |z*|
    # come from one SVD, and one SVD of x serves both x + x* and x o x*.
    for n in (2, 3):
        linalg_calls.clear()
        run_trial(5, n, n, n, (0.25, 0.5, 1.0, 2.0))
        assert sum(linalg_calls.values()) <= 128, dict(linalg_calls)


def test_run_trial_symmetrized_statements_match_public_checkers():
    # The sweep builds hermitian-sum-geom and schur-square-geom from one
    # shared |x|, |x*| pair instead of calling the two checkers.
    for trial in range(4):
        n, m = 2 + trial % 3, 2 + trial % 2
        out = run_trial(11, trial, n, m, (0.5,))
        pmap = random_cp_map([11, trial, 0], n, m)
        x = random_matrix([11, trial, 18], n)
        assert out["hermitian-sum-geom"].min_slack == check_hermitian_sum(pmap, x).min_slack
        assert out["schur-square-geom"].min_slack == check_schur_square(pmap, x).min_slack


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
