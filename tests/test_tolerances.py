"""Where the tolerance rule lives, and where each scaled check flips.

Every scaled check compares against ``tol * max(1, magnitude)``. The
boundary tests put the guarded quantity of a (mostly diagonal) input on the
threshold and one ``np.nextafter`` step to either side, and pin the verdict
of each: on the threshold and inside it the input is accepted, one step
outside it is refused. A change to the rule moves these verdicts.
"""

import ast

import numpy as np
import pytest

from matineq import certify, maps
from matineq.certify import _diagonal_certificate, check_russo_dye, check_schur_diagonal
from matineq.core import (
    CONSTRUCTION_TOL,
    PSD_TOL,
    geometric_mean,
    herm_eig,
    is_contraction,
    is_hermitian,
    is_normal,
    loewner_leq,
    weak_log_majorize,
)
from matineq.maps import random_cp_map, schur_multiplier

# The tolerance of every Hermitian-input check and of the normal input check.
INPUT_TOL = 1e-8
# Magnitudes above and below one, where max(1, magnitude) takes either side.
MAGNITUDES = (4.0, 0.25)


def _small_float_literals(module) -> list:
    """Float literals below 1e-6 in ``module``, apart from ``ReproResult(..., tol=...)``."""
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reporting = {
        id(keyword.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ReproResult"
        for keyword in node.keywords
        if keyword.arg == "tol"
    }
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-6
        and id(node) not in reporting
    ]


@pytest.mark.parametrize("module", [maps, certify], ids=lambda m: m.__name__)
def test_thresholds_are_named_in_core(module):
    assert _small_float_literals(module) == []


def _flanks(threshold: float):
    """``threshold`` and its two neighbours, each with its verdict: inside, on, outside."""
    return [
        (np.nextafter(threshold, 0.0), True),
        (threshold, True),
        (np.nextafter(threshold, np.inf), False),
    ]


def _cases(tol: float):
    """``(magnitude, value, verdict)`` around ``tol * max(1, magnitude)`` for each magnitude."""
    return [(mag, v, ok) for mag in MAGNITUDES for v, ok in _flanks(tol * max(1.0, mag))]


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("magnitude,depth,accepted", _cases(PSD_TOL))
def test_psd_checks_flip_at_the_scaled_threshold(magnitude, depth, accepted):
    # Least eigenvalue -depth: refused below -PSD_TOL * max(1, magnitude).
    a = np.diag([magnitude, -depth]).astype(complex)
    assert _accepts(lambda: geometric_mean(a, magnitude * np.eye(2))) is accepted
    assert _accepts(lambda: schur_multiplier(a)) is accepted
    assert _accepts(lambda: check_schur_diagonal(a, 0.5 * np.eye(2))) is accepted


@pytest.mark.parametrize("norm,accepted", _flanks(1.0 + CONSTRUCTION_TOL))
def test_contraction_checks_flip_at_one_plus_construction_tol(norm, accepted):
    # The contraction rule is absolute: no magnitude scales it.
    z = np.diag([0.5, norm]).astype(complex)
    assert is_contraction(z) is accepted
    assert _accepts(lambda: check_russo_dye(random_cp_map(0, 2, 2), z)) is accepted


def _hermitian_verdicts(x) -> list:
    """Whether each of the six Hermitian-input checks accepts ``x``, whose Hermitian part is PSD."""
    return [
        is_hermitian(x),
        _accepts(lambda: herm_eig(x)),
        _accepts(lambda: schur_multiplier(x)),
        _accepts(lambda: loewner_leq(x, 5.0 * np.eye(2))),
        _accepts(lambda: geometric_mean(x, np.eye(2))),
        _accepts(lambda: check_schur_diagonal(x, 0.5 * np.eye(2))),
    ]


def test_schur_diagonal_refuses_a_non_hermitian_multiplier():
    # The Hermitian part [[1, 1], [1, 1]] is PSD, but a itself is not Hermitian,
    # so the theorem's hypothesis fails and no certificate is made.
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="a must be Hermitian"):
        check_schur_diagonal(a, np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize(
    "tol,magnitude,error,accepted", [(INPUT_TOL, *case) for case in _cases(INPUT_TOL)]
)
def test_hermitian_check_flips_at_the_scaled_threshold(tol, magnitude, error, accepted):
    # diag(magnitude, 0.1 + i error/2) has max |x - x*| = error and largest
    # entry magnitude; every Hermitian-input check flips at tol * max(1, magnitude),
    # with tol the one input tolerance.
    x = np.diag([magnitude, 0.1 + 0.5j * error])
    assert _hermitian_verdicts(x) == [accepted] * 6


def test_hermitian_checks_decide_one_matrix_alike():
    # An error of 5e-9 against a largest entry of 0.25: within 1e-8 * max(1, 0.25).
    x = np.diag([0.25, 0.1 + 2.5e-9j])
    assert _hermitian_verdicts(x) == [True] * 6


@pytest.mark.parametrize("magnitude,error,accepted", _cases(INPUT_TOL))
def test_geometric_mean_hermitian_check_flips_at_the_scaled_threshold(magnitude, error, accepted):
    # Each input's check reads its own largest entry, not the pair's spectrum:
    # the larger partner 16 I leaves the threshold of a at tol * max(1, magnitude).
    a = np.diag([magnitude, 0.1 + 0.5j * error])
    assert _accepts(lambda: geometric_mean(a, 16.0 * np.eye(2))) is accepted
    assert _accepts(lambda: geometric_mean(16.0 * np.eye(2), a)) is accepted


@pytest.mark.parametrize("corner", [2.0, 0.5])
def test_normality_check_flips_at_the_scaled_threshold(corner):
    # x = [[0, b], [0, 0]] (+) [corner] has commutator diag(b^2, -b^2, 0) and
    # ||x|| = corner, so it is normal iff b^2 <= 1e-8 * max(1, corner^2). A
    # non-normal input cannot be diagonal; b steps one float at a time across
    # the threshold.
    threshold = INPUT_TOL * max(1.0, corner**2)
    b = np.sqrt(threshold)
    while b * b > threshold:
        b = np.nextafter(b, 0.0)
    while np.nextafter(b, 1.0) ** 2 <= threshold:
        b = np.nextafter(b, 1.0)
    for entry, normal in ((np.nextafter(b, 0.0), True), (b, True), (np.nextafter(b, 1.0), False)):
        x = np.zeros((3, 3), dtype=complex)
        x[0, 1], x[2, 2] = entry, corner
        assert is_normal(x) is normal, entry


@pytest.mark.parametrize("magnitude,depth,accepted", _cases(PSD_TOL))
def test_loewner_floor_flips_at_the_scaled_threshold(magnitude, depth, accepted):
    # b - a = diag(magnitude, -depth) and ||b|| = magnitude.
    lhs, rhs = np.array([0.0, depth]), np.array([magnitude, 0.0])
    assert loewner_leq(np.diag(lhs), np.diag(rhs), PSD_TOL).passed is accepted
    assert _diagonal_certificate("diag", lhs, rhs, tol=PSD_TOL).passed is accepted


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_tolerance_outside_its_range_is_refused(tol):
    # An infinite tolerance passed every certificate, the injected fault's
    # included, and a NaN or negative one failed all of them.
    eye = np.eye(2)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        certify.run_trial(1, 0, 3, 3, (0.25, 0.5), tol=tol, inject_mutant=True)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        loewner_leq(5.0 * eye, eye, tol)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        weak_log_majorize([2.0, 1.0], [1.0, 1.0], tol)


def test_zero_tolerance_decides_exactly():
    eye = np.eye(2)
    below = np.diag([1.0, np.nextafter(1.0, 0.0)])
    assert loewner_leq(below, eye, 0.0).passed and not loewner_leq(eye, below, 0.0).passed
    assert weak_log_majorize([2.0, 1.0], [2.0, 1.0], 0.0).passed
    assert not weak_log_majorize([2.0, 1.0], [2.0, np.nextafter(1.0, 0.0)], 0.0).passed
    for tol in (0.0, certify.DEFAULT_TOL):
        clean = certify.run_trial(1, 0, 3, 3, (0.25, 0.5), tol=tol)
        mutant = certify.run_trial(1, 0, 3, 3, (0.25, 0.5), tol=tol, inject_mutant=True)
        assert all(outcome.passed for outcome in clean.values()), tol
        assert sum(not outcome.passed for outcome in mutant.values()) == 4, tol
