"""Tests for the dense matrix primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matineq.core import (
    _haar,
    _loewner_verdict,
    _normals,
    conj_real_part,
    direct_sum,
    geometric_mean,
    haar_unitary,
    herm_eig,
    is_contraction,
    is_hermitian,
    is_normal,
    loewner_leq,
    mat_abs,
    polar,
    random_contraction,
    random_matrix,
    random_normal,
    random_psd,
    schur_prod,
    singular_values,
    spectral_norm,
    weak_log_majorize,
)
from matineq.maps import halmos_dilation, schur_multiplier

from _oracles import abs_via_eig, arithmetic_harmonic_mean, geometric_mean_six_decompositions

R = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(seed, n):
    g = random_matrix(seed, n)
    return (g + g.conj().T) / 2.0


# ---------------------------------------------------------------------------
# herm_eig
# ---------------------------------------------------------------------------


def test_herm_eig_identity():
    w, v = herm_eig(np.eye(2))
    np.testing.assert_allclose(w, [1.0, 1.0], atol=0)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(2), atol=1e-14)


def test_herm_eig_rank_two_flip():
    # 3x3 with a single symmetric off-diagonal pair: spectrum 1, 0, -1
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    w, _ = herm_eig(h)
    np.testing.assert_allclose(w, [1.0, 0.0, -1.0], atol=1e-12)


def test_herm_eig_diagonal_sorting():
    # diag(1 - 2 beta^2, 1/2) at beta = 1 sorts to (1/2, -1)
    w, _ = herm_eig(np.diag([-1.0, 0.5]))
    np.testing.assert_allclose(w, [0.5, -1.0], atol=0)


def test_herm_eig_reconstruction_and_descending():
    for seed in range(20):
        h = random_hermitian(seed, 4)
        w, v = herm_eig(h)
        assert np.all(np.diff(w) <= 1e-14)
        recon = (v * w) @ v.conj().T
        scale = max(1.0, spectral_norm(h))
        assert spectral_norm(recon - h) <= 1e-10 * scale
        assert spectral_norm(v.conj().T @ v - np.eye(4)) <= 1e-12


def test_herm_eig_phase_gauge_deterministic():
    h = random_hermitian(5, 4)
    w1, v1 = herm_eig(h)
    w2, v2 = herm_eig(h.copy())
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(v1, v2)
    for j in range(4):
        col = v1[:, j]
        pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(pivot.imag) <= 1e-12
        assert pivot.real > 0


def test_herm_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        herm_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# mat_abs / polar
# ---------------------------------------------------------------------------


def test_mat_abs_reflexion():
    np.testing.assert_allclose(mat_abs(R), np.eye(2), atol=1e-14)


def test_mat_abs_half_flip():
    np.testing.assert_allclose(mat_abs(R / 2.0), np.eye(2) / 2.0, atol=1e-14)


def test_mat_abs_fixes_psd():
    p = random_psd(0, 3)
    np.testing.assert_allclose(mat_abs(p), p, atol=1e-12)


def test_mat_abs_square_identity():
    for seed in range(20):
        x = random_matrix(seed, 4)
        a = mat_abs(x)
        assert np.linalg.eigvalsh(a).min() >= -1e-12
        scale = max(1.0, spectral_norm(x) ** 2)
        assert spectral_norm(a @ a - x.conj().T @ x) <= 1e-9 * scale


def test_mat_abs_matches_eigen_oracle():
    for seed in range(20):
        x = random_matrix(seed, 4)
        assert spectral_norm(mat_abs(x) - abs_via_eig(x)) <= 1e-9 * max(1.0, spectral_norm(x))


def test_mat_abs_commutes_with_entrywise_conjugation():
    for seed in range(20):
        t = random_matrix(seed, 4)
        lhs = mat_abs(np.conj(t))
        rhs = np.conj(mat_abs(t))
        assert spectral_norm(lhs - rhs) <= 1e-9 * max(1.0, spectral_norm(t))


def test_mat_abs_requires_square():
    with pytest.raises(ValueError):
        mat_abs(np.ones((2, 3)))


def test_polar_of_unitary():
    u = haar_unitary(3, 4)
    w, p = polar(u)
    np.testing.assert_allclose(w, u, atol=1e-12)
    np.testing.assert_allclose(p, np.eye(4), atol=1e-12)


def test_polar_of_zero_uses_identity_convention():
    w, p = polar(np.zeros((3, 3)))
    np.testing.assert_array_equal(w, np.eye(3))
    np.testing.assert_array_equal(p, np.zeros((3, 3)))


def test_polar_half_flip():
    w, p = polar(R / 2.0)
    np.testing.assert_allclose(w, R, atol=1e-14)
    np.testing.assert_allclose(p, np.eye(2) / 2.0, atol=1e-14)


def test_polar_reconstruction_including_singular():
    for seed in range(20):
        x = random_matrix(seed, 4)
        if seed % 3 == 0:
            x[:, 0] = 0.0  # rank deficient
        w, p = polar(x)
        scale = max(1.0, spectral_norm(x))
        assert spectral_norm(w @ p - x) <= 1e-10 * scale
        assert spectral_norm(w.conj().T @ w - np.eye(4)) <= 1e-12
        assert spectral_norm(p - mat_abs(x)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# geometric mean
# ---------------------------------------------------------------------------


def test_geometric_mean_idempotent():
    p = random_psd(1, 3) + 0.1 * np.eye(3)
    np.testing.assert_allclose(geometric_mean(p, p), p, atol=1e-11)
    singular = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(geometric_mean(singular, singular), singular, atol=1e-9)


def test_geometric_mean_scalars():
    g = geometric_mean(np.array([[4.0]]), np.array([[9.0]]))
    np.testing.assert_allclose(g, [[6.0]], atol=1e-12)


def test_geometric_mean_against_iteration_oracle():
    for seed in range(10):
        a = random_psd([seed, 0], 3) + 0.1 * np.eye(3)
        b = random_psd([seed, 1], 3) + 0.1 * np.eye(3)
        g = geometric_mean(a, b)
        np.testing.assert_allclose(g, arithmetic_harmonic_mean(a, b), atol=1e-8)


def test_geometric_mean_symmetry_and_covariance():
    a = random_psd([2, 0], 3) + 0.05 * np.eye(3)
    b = random_psd([2, 1], 3) + 0.05 * np.eye(3)
    g = geometric_mean(a, b)
    assert spectral_norm(g - geometric_mean(b, a)) <= 1e-9
    u = haar_unitary(9, 3)
    lhs = geometric_mean(u @ a @ u.conj().T, u @ b @ u.conj().T)
    assert spectral_norm(lhs - u @ g @ u.conj().T) <= 1e-9


def test_geometric_mean_below_arithmetic():
    for seed in range(10):
        a = random_psd([seed, 2], 4)
        b = random_psd([seed, 3], 4)
        g = geometric_mean(a, b)
        assert loewner_leq(g, (a + b) / 2.0, 1e-9).passed


def test_geometric_mean_block_characterization():
    a = random_psd([4, 0], 3) + 0.1 * np.eye(3)
    b = random_psd([4, 1], 3) + 0.1 * np.eye(3)
    g = geometric_mean(a, b)
    block = np.block([[a, g], [g, b]])
    assert np.linalg.eigvalsh(block).min() >= -1e-9 * max(1.0, spectral_norm(block))


def test_geometric_mean_singular_inputs():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    g = geometric_mean(a, b)
    # True limit is zero; the regularized value may deviate by O(sqrt(eps)).
    assert spectral_norm(g) <= 1e-4
    block = np.block([[a, g], [g, b]])
    assert np.linalg.eigvalsh(block).min() >= -1e-4


def test_geometric_mean_rejects_non_psd():
    with pytest.raises(ValueError):
        geometric_mean(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError):
        geometric_mean(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="not Hermitian"):
        geometric_mean(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_geometric_mean_is_the_reference_on_definite_inputs(n):
    # No shift applies, so the arithmetic is the reference's, bit for bit.
    for seed in range(10):
        for c in (1e-3, 1.0, 1e4):
            a = c * (random_psd([seed, 0], n) + 0.1 * np.eye(n))
            b = c * (random_psd([seed, 1], n) + 0.1 * np.eye(n))
            assert np.array_equal(geometric_mean(a, b), geometric_mean_six_decompositions(a, b))


def _singular_pairs(rotate):
    """Commuting singular and near-singular pairs, in a random eigenbasis or the standard one."""
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        u = haar_unitary([n, 5], n) if rotate else np.eye(n)
        for c in (1e-6, 1.0, 1e4):
            for tiny in (0.0, 1e-13, 1e-11):
                for rank in range(n):
                    w = np.r_[rng.uniform(0.5, 2.0, rank), np.full(n - rank, tiny)]
                    s = c * (u * w) @ u.conj().T
                    definite = c * (u * rng.uniform(0.5, 2.0, n)) @ u.conj().T
                    yield s, definite
                    yield definite, s
                    yield s, s
                    if not rotate:
                        # Complementary supports, where the mean is the shift's alone.
                        yield s, c * np.diag(rng.permutation(w[::-1]))


def test_geometric_mean_matches_reference_on_singular_inputs():
    # In the standard basis the shift moves only the eigenvalues, and both
    # routes agree to rounding.
    for a, b in _singular_pairs(rotate=False):
        scale = max(1.0, spectral_norm(a), spectral_norm(b))
        diff = spectral_norm(geometric_mean(a, b) - geometric_mean_six_decompositions(a, b))
        assert diff <= 1e-12 * scale


def test_geometric_mean_matches_reference_within_the_shift_budget():
    # In a rotated basis the shifted mean is ill-conditioned: the reference
    # itself moves by as much under a rotation of its inputs. The two agree
    # within the O(sqrt(eps)) budget of the shift.
    for a, b in _singular_pairs(rotate=True):
        scale = max(1.0, spectral_norm(a), spectral_norm(b))
        diff = spectral_norm(geometric_mean(a, b) - geometric_mean_six_decompositions(a, b))
        assert diff <= np.sqrt(1e-10) * scale


def test_geometric_mean_takes_three_decompositions(linalg_calls):
    definite = random_psd(3, 4) + 0.1 * np.eye(4)
    singular = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)
    for a, b in ((definite, definite.T), (singular, definite), (singular, singular)):
        linalg_calls.clear()
        geometric_mean(a, b)
        assert linalg_calls == {"eigh": 2, "eigvalsh": 1}


# ---------------------------------------------------------------------------
# loewner_leq / weak_log_majorize
# ---------------------------------------------------------------------------


def test_loewner_basic():
    ok, slack = loewner_leq(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]))
    assert ok
    np.testing.assert_allclose(slack, [1.0, 1.0], atol=0)


def test_loewner_equality_at_half_weight():
    beta = 0.5
    b = np.diag([2 * beta**2 + 1 / (8 * beta**2), 1.0])
    ok, slack = loewner_leq(np.eye(2), b)
    assert ok
    np.testing.assert_allclose(slack, [0.0, 0.0], atol=1e-15)


def test_loewner_detects_violation():
    ok, slack = loewner_leq(np.diag([1.0, 0.5]), np.diag([0.5, 0.5]))
    assert not ok
    assert slack.min() < -0.4


def test_loewner_shape_mismatch():
    with pytest.raises(ValueError):
        loewner_leq(np.eye(2), np.eye(3))


def test_weak_log_majorize_reflexive_example():
    rep = weak_log_majorize([2.0, 1.0, 0.0], [2.0, 1.0, 0.0])
    assert rep.passed and rep.first_violation is None


def test_weak_log_majorize_flip_spectra():
    rep = weak_log_majorize([1.0, 1.0], [2.0, 0.5])
    assert rep.passed
    np.testing.assert_allclose(rep.prefix_a, [1.0, 1.0])
    np.testing.assert_allclose(rep.prefix_b, [2.0, 1.0])


def test_weak_log_majorize_reversal_fails_at_one():
    rep = weak_log_majorize([2.0, 0.5], [1.0, 1.0])
    assert not rep.passed
    assert rep.first_violation == 1


def test_weak_log_majorize_input_validation():
    with pytest.raises(ValueError):
        weak_log_majorize([1.0, 2.0], [2.0, 1.0])  # unsorted a
    with pytest.raises(ValueError):
        weak_log_majorize([1.0, -0.1], [1.0, 0.0])
    with pytest.raises(ValueError):
        weak_log_majorize([1.0], [1.0, 0.5])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6))
def test_weak_log_majorize_reflexive(values):
    seq = np.sort(np.asarray(values))[::-1]
    assert weak_log_majorize(seq, seq, tol=0.0).passed


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=2, max_size=5),
    st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=2, max_size=5),
    st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=2, max_size=5),
)
def test_weak_log_majorize_transitive(base, lift1, lift2):
    n = min(len(base), len(lift1), len(lift2))
    a = np.sort(np.asarray(base[:n]))[::-1]
    # Scaling up prefix-wise preserves the order, giving a <= b <= c chains.
    b = np.sort(a * np.asarray(lift1[:n]))[::-1]
    c = np.sort(b * np.asarray(lift2[:n]))[::-1]
    assert weak_log_majorize(a, b, tol=0.0).passed
    assert weak_log_majorize(b, c, tol=0.0).passed
    assert weak_log_majorize(a, c, tol=0.0).passed


# ---------------------------------------------------------------------------
# products, sums, entrywise real part
# ---------------------------------------------------------------------------


def test_schur_with_identity_extracts_diagonal():
    a = random_matrix(0, 3)
    np.testing.assert_array_equal(schur_prod(a, np.eye(3)), np.diag(np.diag(a)))


def test_schur_family_flip():
    beta = 0.7
    a = np.array([[2 * beta, 1.0], [1.0, 1 / (2 * beta)]])
    np.testing.assert_allclose(schur_prod(a, R), R, atol=0)


def test_schur_shape_mismatch():
    with pytest.raises(ValueError):
        schur_prod(np.eye(2), np.eye(3))


def test_direct_sum_empty():
    with pytest.raises(ValueError):
        direct_sum([])


EMPTY = np.zeros((0, 0), dtype=complex)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: is_contraction(np.zeros((2, 0))), "z", id="is_contraction"),
        pytest.param(lambda: is_hermitian(EMPTY), "x", id="is_hermitian"),
        pytest.param(lambda: herm_eig(EMPTY), "h", id="herm_eig"),
        pytest.param(lambda: loewner_leq(EMPTY, EMPTY), "a", id="loewner_leq-a"),
        pytest.param(lambda: loewner_leq(np.eye(2), EMPTY), "b", id="loewner_leq-b"),
        pytest.param(lambda: schur_multiplier(EMPTY), "a", id="schur_multiplier"),
        pytest.param(lambda: halmos_dilation(EMPTY), "z", id="halmos_dilation"),
        pytest.param(lambda: mat_abs(EMPTY), "x", id="mat_abs"),
        pytest.param(lambda: mat_abs(np.zeros((3, 0, 0))), "x", id="mat_abs-stack"),
        pytest.param(lambda: mat_abs(np.zeros((0, 3, 3))), "x", id="mat_abs-no-members"),
    ],
)
def test_empty_matrices_are_refused_by_name(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must not be empty"):
        call()


def test_direct_sum_places_mixed_blocks_exactly():
    blocks = [random_matrix(0, 2), np.array([[3.0]]), random_matrix(1, 3, 2), random_matrix(2, 1, 3)]
    out = direct_sum(blocks)
    assert out.shape == (7, 8) and out.dtype == complex
    expected = np.zeros((7, 8), dtype=complex)
    expected[:2, :2] = blocks[0]
    expected[2, 2] = 3.0
    expected[3:6, 3:5] = blocks[2]
    expected[6:, 5:] = blocks[3]
    np.testing.assert_array_equal(out, expected)


# ---------------------------------------------------------------------------
# stacks: one call on (..., k, k) decides each member as a call on it alone
# ---------------------------------------------------------------------------


def _assert_members(stacked, single, members):
    """``stacked`` on the stack of ``members`` has the bits of ``single`` on each member."""
    got = stacked(*(np.stack(column) for column in zip(*members)))
    for k, member in enumerate(members):
        want = single(*member)
        if isinstance(want, tuple):
            for field_got, field_want in zip(got, want):
                np.testing.assert_array_equal(field_got[k], field_want)
        else:
            np.testing.assert_array_equal(np.asarray(got)[k], want)


def test_stacked_decompositions_match_per_matrix_calls():
    zero = np.zeros((3, 3), dtype=complex)
    singular = np.diag([1.0, 0.5, 0.0]).astype(complex)
    mats = [random_matrix(1, 3), zero, singular, random_normal(2, 3), random_contraction(3, 3)]
    members = [(m,) for m in mats]
    for fn in (polar, mat_abs, singular_values, spectral_norm, is_normal, is_contraction):
        _assert_members(fn, fn, members)
    # polar(0) = (I, 0) for the zero member only
    w, p = polar(np.stack(mats))
    np.testing.assert_array_equal(w[1], np.eye(3))
    np.testing.assert_array_equal(p[1], zero)
    assert spectral_norm(w[0] - np.eye(3)) > 0.1
    # One matrix keeps its Python scalar types.
    assert type(spectral_norm(zero)) is float and type(is_normal(zero)) is bool


def test_stacked_geometric_mean_decides_each_shift_alone():
    definite = random_psd(3, 4) + 0.1 * np.eye(4)
    singular = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)
    u = haar_unitary(5, 4)
    rotated = u @ np.diag([0.0, 2.0, 1.0, 0.0]) @ u.conj().T
    members = [
        (definite, definite.T), (singular, singular), (definite, rotated), (1e6 * definite, definite)
    ]
    _assert_members(geometric_mean, geometric_mean, members)
    with pytest.raises(ValueError, match="positive semidefinite"):
        geometric_mean(np.stack([definite, -definite]), np.stack([definite, definite]))


def test_stacked_loewner_verdict_decides_each_floor_alone():
    # With tol = 1/4 the floor of rhs diag(2, 1) is exactly -1/2: the first
    # member sits on it and passes, the second is one ulp below and fails.
    rhs = np.diag([2.0, 1.0]).astype(complex)
    at_floor = np.diag([2.0, 1.5]).astype(complex)
    below = np.diag([2.0, np.nextafter(1.5, 2.0)]).astype(complex)
    members = [(at_floor, rhs, 0.25), (below, rhs, 0.25), (np.eye(2) * 1e-3, rhs * 1e3, 0.25)]
    lhs, rhs = (np.stack(side) for side in zip(*(member[:2] for member in members)))
    passed, slack = _loewner_verdict(lhs, rhs, 0.25)
    np.testing.assert_array_equal(passed, [True, False, True])
    for k, member in enumerate(members):
        single = _loewner_verdict(*member)
        assert single.passed is bool(passed[k])
        np.testing.assert_array_equal(slack[k], single.slack_spectrum)


class _Replay:
    """A stand-in generator whose ``standard_normal`` returns the given draws in turn."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def standard_normal(self, shape):
        out = next(self.draws)
        assert out.shape == tuple(np.atleast_1d(shape)), (out.shape, shape)
        return out


def test_stacked_haar_and_normals_match_per_member_draws():
    # A stack of k unitaries (one QR) or normal matrices has, member by
    # member, the bits of a stack of one drawn from that member's numbers;
    # the zero member takes the identity phase.
    k, n = 5, 3
    rng = np.random.default_rng(17)
    real, imag = rng.standard_normal((k, n, n)), rng.standard_normal((k, n, n))
    real[2] = imag[2] = 0.0
    z_real, z_imag = rng.standard_normal((k, n)), rng.standard_normal((k, n))
    unitaries = _haar(_Replay(real, imag), k, n)
    normals = _normals(_Replay(real, imag, z_real, z_imag), k, n)
    for j in range(k):
        member = [draw[j : j + 1] for draw in (real, imag, z_real, z_imag)]
        np.testing.assert_array_equal(unitaries[j], _haar(_Replay(*member[:2]), 1, n)[0])
        np.testing.assert_array_equal(normals[j], _normals(_Replay(*member), 1, n)[0])
    assert spectral_norm(unitaries[0].conj().T @ unitaries[0] - np.eye(n)) <= 1e-12
    assert np.all(is_normal(normals))


def test_conj_real_part_cases():
    a = random_matrix(2, 3).real.astype(complex)
    np.testing.assert_array_equal(conj_real_part(a), a)
    np.testing.assert_array_equal(conj_real_part(np.diag([1j, -1j])), np.zeros((2, 2)))
    a = np.array([[0.0, 1.0 + 1.0j], [-1.0 + 1.0j, 0.0]])
    np.testing.assert_array_equal(conj_real_part(a), np.array([[0.0, 1.0], [-1.0, 0.0]]))


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def test_random_normal_is_normal():
    for seed in range(10):
        n = random_normal(seed, 4)
        comm = n @ n.conj().T - n.conj().T @ n
        assert spectral_norm(comm) <= 1e-10 * max(1.0, spectral_norm(n) ** 2)
        assert is_normal(n)


def test_haar_unitary_is_unitary():
    u = haar_unitary(11, 3)
    assert spectral_norm(u.conj().T @ u - np.eye(3)) <= 1e-12


def test_random_contraction_norm():
    for seed in range(10):
        z = random_contraction(seed, 3)
        assert singular_values(z)[0] <= 1.0 + 1e-12


def test_random_psd_is_psd():
    p = random_psd(8, 4)
    np.testing.assert_array_equal(p, p.conj().T)
    assert np.linalg.eigvalsh(p).min() >= -1e-14


def test_generators_deterministic():
    np.testing.assert_array_equal(random_normal(123, 3), random_normal(123, 3))
    np.testing.assert_array_equal(haar_unitary([1, 2], 3), haar_unitary([1, 2], 3))
