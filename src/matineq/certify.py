"""Certificates for the operator inequalities this library implements.

Each checker constructs the witness unitary the corresponding statement
asserts to exist (always the adjoint of the polar unitary factor of the
relevant image matrix, never a searched one), assembles both sides of the
inequality, and returns a machine-checkable certificate with the full slack
spectrum. Worked sharpness examples and an empirical search for the best
constant at small weights round out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.linalg

from .core import (
    MajorizationReport,
    _loewner_floor,
    _loewner_verdict,
    as_matrix,
    conj_real_part,
    direct_sum,
    geometric_mean,
    hermitian_part,
    is_contraction,
    is_normal,
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
from .maps import (
    PositiveMapRep,
    apply,
    corner_block_map,
    is_unital,
    partial_trace_first,
    random_cp_map,
    random_unital_cp_map,
    schur_multiplier,
)

__all__ = [
    "DEFAULT_TOL",
    "Certificate",
    "ScalarCheck",
    "EigenCorollaryReports",
    "RealPartReport",
    "RussoDyeReports",
    "ReproResult",
    "witness_unitary",
    "check_theorem_main",
    "chain_certificate",
    "check_block_certificate",
    "check_corollary_eigen",
    "check_real_part",
    "check_partial_trace",
    "check_sum_of_normals",
    "check_russo_dye",
    "check_weighted_sum",
    "check_schur_diagonal",
    "check_schur_normal",
    "check_hermitian_sum",
    "check_schur_square",
    "check_two_positive_unital",
    "sharpness_family",
    "repro_sharpness_beta",
    "repro_no_single_unitary",
    "quarter_sharpness_map",
    "quarter_sharpness_hermitian",
    "repro_psi_sharpness",
    "search_nonnormal_counterexample",
    "minimal_orbit_constant",
    "estimate_constant",
    "run_trial",
    "trial_statements",
    "weight_tag",
]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Certificate:
    """One verified operator inequality ``lhs <= rhs``.

    ``lhs`` and ``rhs`` are stored as their Hermitian parts, and
    ``slack_spectrum`` holds the descending eigenvalues of ``rhs - lhs``. The
    pass flag is the verdict of ``core.loewner_leq``: the minimum slack is at
    least ``-tol * max(1, ||rhs||)``.
    """

    statement_id: str
    lhs: np.ndarray
    rhs: np.ndarray
    slack_spectrum: np.ndarray
    passed: bool
    tol: float
    witness: Optional[np.ndarray] = None
    beta: Optional[float] = None

    @property
    def min_slack(self) -> float:
        return float(self.slack_spectrum.min()) if self.slack_spectrum.size else 0.0


class ScalarCheck(NamedTuple):
    """A scalar inequality outcome with the same (passed, min_slack) surface."""

    passed: bool
    min_slack: float


@dataclass(frozen=True, eq=False)
class EigenCorollaryReports:
    """Eigenvalue-level consequences: log-majorization, pair bounds, shifted bounds."""

    log_majorization: MajorizationReport
    pair_bounds: Certificate
    shifted_bounds: Certificate


@dataclass(frozen=True, eq=False)
class RealPartReport:
    """Entrywise-real-part comparison for a normal matrix, via two routes."""

    construction_route: MajorizationReport
    direct_route: MajorizationReport
    det_lhs: float
    det_rhs: float
    det_check: ScalarCheck

    @property
    def passed(self) -> bool:
        return (
            self.construction_route.passed
            and self.direct_route.passed
            and self.det_check.passed
        )


@dataclass(frozen=True, eq=False)
class RussoDyeReports:
    """Contraction bounds: arithmetic, geometric-mean and log-majorization forms."""

    arithmetic: Certificate
    geometric: Certificate
    log_majorization: MajorizationReport


@dataclass(frozen=True, eq=False)
class ReproResult:
    """Named reproduction of a worked example: computed vs expected quantities."""

    example_id: str
    computed: dict
    expected: dict
    max_abs_error: float
    tol: float
    notes: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_abs_error <= self.tol


def _eig_desc(x) -> np.ndarray:
    return np.sort(np.linalg.eigvalsh(hermitian_part(x)))[::-1]


def _certificate(statement_id, lhs, rhs, *, witness=None, beta=None, tol=DEFAULT_TOL) -> Certificate:
    lhs = hermitian_part(lhs)
    rhs = hermitian_part(rhs)
    passed, slack = _loewner_verdict(lhs, rhs, tol)
    return Certificate(
        statement_id=statement_id,
        lhs=lhs,
        rhs=rhs,
        slack_spectrum=slack,
        passed=passed,
        tol=tol,
        witness=witness,
        beta=beta,
    )


def _psd_certificate(statement_id, block, *, tol=DEFAULT_TOL) -> Certificate:
    zero = np.zeros_like(block)
    return _certificate(statement_id, zero, block, tol=tol)


def _require_normal(x, name="matrix", tol=1e-8) -> np.ndarray:
    x = as_matrix(x, square=True, name=name)
    if not is_normal(x, tol):
        raise ValueError(f"{name} must be normal")
    return x


def _require_contraction(z, name="z") -> np.ndarray:
    z = as_matrix(z, square=True, name=name)
    if not is_contraction(z):
        raise ValueError(f"{name} must be a contraction")
    return z


def witness_unitary(y) -> np.ndarray:
    """The unitary v with ``y = v* |y|``: the adjoint of the polar unitary factor.

    Singular inputs use the completed polar decomposition, so the zero matrix
    gives the identity.
    """
    return polar(y).unitary_factor.conj().T


class _Orbit(NamedTuple):
    """An image ``y`` and its comparison argument ``a``, with the polar data of ``y``.

    ``lhs`` is ``|y|``, ``witness`` is ``v = witness_unitary(y)`` and ``orbit``
    is ``v a v*``. Every orbit statement is the theorem on one such pair:
    ``|y| <= a # v a v* <= beta a + (1/(4 beta)) v a v*``.
    """

    image: np.ndarray
    arg: np.ndarray
    lhs: np.ndarray
    witness: np.ndarray
    orbit: np.ndarray


def _orbit(image, arg) -> _Orbit:
    """The orbit data of ``(image, arg)`` from one polar decomposition of ``image``."""
    unitary, lhs = polar(image)
    v = unitary.conj().T
    return _Orbit(image, arg, lhs, v, hermitian_part(v @ arg @ v.conj().T))


def _arith(statement_id, o: _Orbit, beta: float, tol: float, sign: float = 1.0) -> Certificate:
    """The arithmetic bound ``beta arg + sign orbit/(4 beta)``.

    ``sign = -1`` negates the orbit term: the fault the sweep injects on request.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    rhs = beta * o.arg + sign * o.orbit / (4.0 * beta)
    return _certificate(statement_id, o.lhs, rhs, witness=o.witness, beta=beta, tol=tol)


def _geom(statement_id, o: _Orbit, tol: float, beta: Optional[float] = None) -> Certificate:
    """The geometric-mean bound ``arg # orbit``; it has no weight, which ``beta`` only records."""
    rhs = geometric_mean(o.arg, o.orbit)
    return _certificate(statement_id, o.lhs, rhs, witness=o.witness, beta=beta, tol=tol)


def _logmaj(singular, spectrum) -> MajorizationReport:
    """Singular values weakly log-majorized by a spectrum clipped at zero."""
    return weak_log_majorize(singular, np.maximum(spectrum, 0.0), tol=1e-9)


class _NormalImage(NamedTuple):
    """Weight-independent data of a positive map applied to a normal matrix."""

    orbit: _Orbit
    singular_values: np.ndarray
    abs_spectrum: np.ndarray


def _normal_image(pmap: PositiveMapRep, nmat) -> _NormalImage:
    """``(map(n), map(|n|))`` as an orbit pair, with its two spectra, computed once."""
    nmat = _require_normal(nmat, "nmat")
    image = apply(pmap, nmat)
    image_abs = apply(pmap, mat_abs(nmat))
    return _NormalImage(_orbit(image, image_abs), singular_values(image), _eig_desc(image_abs))


def check_theorem_main(pmap: PositiveMapRep, nmat, beta: float, tol: float = DEFAULT_TOL):
    """Both orbit bounds for a normal matrix under a positive map at weight ``beta``.

    Returns the arithmetic certificate
    ``|map(n)| <= beta map(|n|) + (1/(4 beta)) v map(|n|) v*`` and the
    geometric-mean refinement ``|map(n)| <= map(|n|) # v map(|n|) v*``,
    both with the polar witness ``v`` of ``map(n)``.
    """
    o = _normal_image(pmap, nmat).orbit
    return _arith("main-arith", o, beta, tol), _geom("main-geom", o, tol, beta)


def chain_certificate(geom: Certificate, arith: Certificate, tol: float = DEFAULT_TOL) -> Certificate:
    """The geometric-mean bound never exceeds the arithmetic one (AM-GM chain)."""
    return _certificate("main-chain", geom.rhs, arith.rhs, beta=arith.beta, tol=tol)


def _block_psd(inst: _NormalImage, tol: float) -> Certificate:
    # A Kraus map commutes with the adjoint: map(n*) = map(n)*.
    o = inst.orbit
    block = np.block([[o.arg, o.image], [o.image.conj().T, o.arg]])
    return _psd_certificate("block-psd", block, tol=tol)


def check_block_certificate(pmap: PositiveMapRep, nmat, tol: float = DEFAULT_TOL) -> Certificate:
    """The 2x2 block matrix [[map(|n|), map(n)], [map(n*), map(|n|)]] is PSD."""
    return _block_psd(_normal_image(pmap, nmat), tol)


def _diagonal_certificate(statement_id, lhs, rhs, *, beta=None, tol=DEFAULT_TOL) -> Certificate:
    """``diag(lhs) <= diag(rhs)`` for real vectors, decided without a decomposition.

    The slack spectrum of two diagonal matrices is the entrywise difference
    sorted in descending order, and ``||diag(rhs)||`` is ``max |rhs|``, so the
    verdict is the ``core.loewner_leq`` rule on the diagonal matrices, which
    the certificate keeps as its two sides.
    """
    slack = np.sort(rhs - lhs)[::-1]
    passed = bool(slack[-1] >= _loewner_floor(tol, float(np.abs(rhs).max())))
    return Certificate(
        statement_id=statement_id,
        lhs=np.diag(lhs).astype(complex),
        rhs=np.diag(rhs).astype(complex),
        slack_spectrum=slack,
        passed=passed,
        tol=tol,
        beta=beta,
    )


def _eigen_fixed(inst: _NormalImage, tol: float):
    """The weight-independent eigenvalue reports: log-majorization and pair bounds."""
    s = inst.singular_values
    t_clip = np.maximum(inst.abs_spectrum, 0.0)
    logmaj = _logmaj(s, inst.abs_spectrum)
    # The pairs (j, k), 0-based, with j + k < m, in row-major order.
    m = s.size
    j, k = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) < m)
    pair_cert = _diagonal_certificate("eigen-pairs", s[j + k], np.sqrt(t_clip[j] * t_clip[k]), tol=tol)
    return logmaj, pair_cert


def _eigen_shift(inst: _NormalImage, beta: float, tol: float) -> Certificate:
    if not beta > 0:
        raise ValueError("beta must be positive")
    shifted = _eig_desc(inst.orbit.lhs - beta * inst.orbit.arg)
    return _diagonal_certificate(
        "eigen-shift", 4.0 * beta * shifted, inst.abs_spectrum, beta=beta, tol=tol
    )


def check_corollary_eigen(
    pmap: PositiveMapRep, nmat, beta: float, tol: float = DEFAULT_TOL
) -> EigenCorollaryReports:
    """Eigenvalue consequences of the orbit bound.

    (a) the singular values of ``map(n)`` are weakly log-majorized by the
    eigenvalues of ``map(|n|)``; (b) for every valid pair ``(j, k)`` the
    ``(j+k-1)``-th singular value is at most the geometric mean of the j-th
    and k-th eigenvalues; (c) the eigenvalues of ``|map(n)| - beta map(|n|)``
    scaled by ``4 beta`` stay below those of ``map(|n|)``.
    """
    inst = _normal_image(pmap, nmat)
    return EigenCorollaryReports(*_eigen_fixed(inst, tol), _eigen_shift(inst, beta, tol))


def check_real_part(a, tol: float = DEFAULT_TOL) -> RealPartReport:
    """Entrywise real part of a normal matrix against the real part of its absolute value.

    Route one runs the block construction: the direct sum with the conjugate
    matrix, averaged over the diagonal blocks. Route two compares singular
    values of the real part with the eigenvalues of the (PSD) real part of
    the absolute value directly. Both determinants are reported; the real
    part of a PSD matrix is again PSD, so the right-hand determinant is
    nonnegative.
    """
    a = _require_normal(a, "a")
    n = a.shape[0]
    doubled = direct_sum([a, np.conj(a)])
    averager = corner_block_map("diag_average", n)
    image = apply(averager, doubled)
    image_abs_arg = apply(averager, mat_abs(doubled))
    construction = _logmaj(singular_values(image), _eig_desc(image_abs_arg))

    real_a = conj_real_part(a)
    real_abs = conj_real_part(mat_abs(a))
    direct = _logmaj(singular_values(real_a), _eig_desc(real_abs))

    det_lhs = float(abs(np.linalg.det(real_a)))
    det_rhs = float(np.linalg.det(real_abs).real)
    margin = det_rhs - det_lhs
    # the real part of a PSD matrix is PSD, so the right determinant is >= 0
    det_ok = margin >= -tol * max(1.0, abs(det_rhs)) and det_rhs >= -tol
    return RealPartReport(construction, direct, det_lhs, det_rhs, ScalarCheck(bool(det_ok), margin))


def check_partial_trace(nmat, d: int, n: int, tol: float = DEFAULT_TOL) -> Certificate:
    """Geometric-mean orbit bound for the partial trace of a normal block matrix."""
    nmat = _require_normal(nmat, "nmat")
    if nmat.shape[0] != d * n:
        raise ValueError(f"matrix of dimension {nmat.shape[0]}, expected {d * n}")
    trace_map = partial_trace_first(d, n)
    o = _orbit(apply(trace_map, nmat), apply(trace_map, mat_abs(nmat)))
    return _geom("ptrace-geom", o, tol)


def check_sum_of_normals(mats: Sequence, tol: float = DEFAULT_TOL):
    """Orbit bounds for a sum of normal matrices, built through the partial trace.

    Returns the geometric-mean certificate and the weaker arithmetic one on
    ``sum |n_i|`` and its unitary conjugate.
    """
    mats = [_require_normal(m, f"mats[{i}]") for i, m in enumerate(mats)]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("all matrices must share one dimension")
    block = direct_sum(mats)
    trace_map = partial_trace_first(len(mats), n)
    o = _orbit(apply(trace_map, block), apply(trace_map, mat_abs(block)))
    return _geom("sum-normals-geom", o, tol), _arith("sum-normals-arith", o, 0.5, tol)


def check_russo_dye(pmap: PositiveMapRep, z, tol: float = DEFAULT_TOL) -> RussoDyeReports:
    """Norm-at-identity bounds for a contraction, bounded by the image of the identity.

    The statement runs through the unitary (Halmos) dilation of ``z``: the
    map composed with upper-left block extraction sends the dilation to
    ``map(z)``, factor by factor,
    ``apply(compose(pmap, upper_left), halmos_dilation(z)) == apply(pmap, z)``.
    So the image is computed as ``map(z)`` and the dilation is never formed.
    """
    z = _require_contraction(z)
    if z.shape[0] != pmap.input_dim:
        raise ValueError("dimension mismatch between map and contraction")
    image_id = hermitian_part(apply(pmap, np.eye(z.shape[0], dtype=complex)))
    o = _orbit(apply(pmap, z), image_id)
    return RussoDyeReports(
        _arith("contraction-arith", o, 0.5, tol),
        _geom("contraction-geom", o, tol),
        _logmaj(singular_values(o.image), _eig_desc(image_id)),
    )


def check_weighted_sum(xs: Sequence, zs: Sequence, tol: float = DEFAULT_TOL):
    """Weighted sums of contractions against the Gram sum.

    For factors ``x_i`` (all of one rectangular shape) and contractions
    ``z_i`` acting on their row space, the singular values of
    ``sum x_i* z_i x_i`` are weakly log-majorized by the eigenvalues of
    ``sum x_i* x_i``; the associated 2x2 block matrix is PSD, which carries
    the factorization through a contraction.
    """
    if len(xs) != len(zs):
        raise ValueError("xs and zs must have equal length")
    if not xs:
        raise ValueError("need at least one summand")
    xs = [as_matrix(x, name=f"xs[{i}]") for i, x in enumerate(xs)]
    rows, cols = xs[0].shape
    if any(x.shape != (rows, cols) for x in xs):
        raise ValueError("all xs must share one shape")
    zs = [_require_contraction(z, f"zs[{i}]") for i, z in enumerate(zs)]
    if any(z.shape != (rows, rows) for z in zs):
        raise ValueError("each z must act on the row space of the xs")

    weighted = sum(x.conj().T @ z @ x for x, z in zip(xs, zs))
    gram = hermitian_part(sum(x.conj().T @ x for x in xs))
    logmaj = _logmaj(singular_values(weighted), _eig_desc(gram))
    abs_zs, abs_adjoints = zip(*(_abs_pair(z) for z in zs))
    upper_left = sum(x.conj().T @ a @ x for x, a in zip(xs, abs_adjoints))
    lower_right = sum(x.conj().T @ a @ x for x, a in zip(xs, abs_zs))
    block = np.block([[upper_left, weighted], [weighted.conj().T, lower_right]])
    return logmaj, _psd_certificate("weighted-sum-block", block, tol=tol)


def check_schur_diagonal(a, z, tol: float = DEFAULT_TOL) -> Certificate:
    """Entrywise product of a PSD matrix with a contraction against the diagonal part."""
    a = as_matrix(a, square=True, name="a")
    w = np.linalg.eigvalsh(hermitian_part(a))
    if w.min() < -1e-9 * max(1.0, float(np.abs(w).max())):
        raise ValueError("a must be PSD")
    z = _require_contraction(z)
    if a.shape != z.shape:
        raise ValueError("a and z must share one dimension")
    o = _orbit(schur_prod(a, z), schur_prod(a, np.eye(a.shape[0], dtype=complex)))
    return _arith("schur-diagonal", o, 0.5, tol)


def _abs_pair(x: np.ndarray):
    """``(|x|, |x*|)`` from one SVD ``x = u s vh``: ``vh* s vh`` and ``u s u*``."""
    u, s, vh = np.linalg.svd(x)
    right = (vh.conj().T * s) @ vh
    left = (u * s) @ u.conj().T
    return (right + right.conj().T) / 2.0, (left + left.conj().T) / 2.0


def check_schur_normal(a, b, tol: float = DEFAULT_TOL) -> Certificate:
    """Entrywise product of two normal matrices with the sharp quarter constant.

    Certifies ``|a o b| <= |a| o |b| + (1/4) v (|a| o |b|) v*`` with the polar
    witness ``v`` of ``a o b``. This is the orbit bound with weights (1, 1/4)
    for the compression of ``a (x) b`` to its paired diagonal indices, which
    is ``a o b``, using ``|a (x) b| = |a| (x) |b|``; no tensor is formed.
    """
    a = _require_normal(a, "a")
    b = _require_normal(b, "b")
    if a.shape != b.shape:
        raise ValueError("a and b must share one dimension")
    o = _orbit(schur_prod(a, b), schur_prod(mat_abs(a), mat_abs(b)))
    return _arith("schur-normal", o, 1.0, tol)


def _map_input(pmap: PositiveMapRep, x) -> np.ndarray:
    """``x`` as a square matrix on the input space of ``pmap``."""
    x = as_matrix(x, square=True, name="x")
    if x.shape[0] != pmap.input_dim:
        raise ValueError("dimension mismatch between map and matrix")
    return x


def check_hermitian_sum(pmap: PositiveMapRep, x, tol: float = DEFAULT_TOL) -> Certificate:
    """Geometric-mean orbit bound for the image of ``x + x*``.

    ``x + x*`` is the block sum of the Hermitian carrier ``[[0, x], [x*, 0]]``,
    whose absolute value is ``|x*| (+) |x|``; the comparison argument is the
    image of its block sum, ``map(|x| + |x*|)``.
    """
    x = _map_input(pmap, x)
    return _hermitian_sum(pmap, x, _abs_pair(x), tol)


def _hermitian_sum(pmap: PositiveMapRep, x: np.ndarray, abs_pair, tol: float) -> Certificate:
    arg = hermitian_part(apply(pmap, abs_pair[0] + abs_pair[1]))
    return _geom("hermitian-sum-geom", _orbit(apply(pmap, x + x.conj().T), arg), tol)


def check_schur_square(pmap: PositiveMapRep, x, tol: float = DEFAULT_TOL) -> Certificate:
    """Geometric-mean orbit bound for the image of ``x o x*``.

    ``x o x* = x* o x`` is Hermitian. It is half the block sum of the paired
    diagonal compression of ``[[0, x*], [x, 0]] (x) [[0, x], [x*, 0]]``, and
    the absolute values of those carriers are ``|x| (+) |x*|`` and
    ``|x*| (+) |x|``, so the comparison argument is ``map(|x| o |x*|)``.
    """
    x = _map_input(pmap, x)
    return _schur_square(pmap, x, _abs_pair(x), tol)


def _schur_square(pmap: PositiveMapRep, x: np.ndarray, abs_pair, tol: float) -> Certificate:
    arg = hermitian_part(apply(pmap, schur_prod(*abs_pair)))
    return _geom("schur-square-geom", _orbit(apply(pmap, schur_prod(x, x.conj().T)), arg), tol)


def check_two_positive_unital(pmap: PositiveMapRep, z, tol: float = DEFAULT_TOL) -> Certificate:
    """For a unital map and a contraction: ``|map(z)| <= I/4 + map(|z|)``.

    No witness is needed; the statement requires unitality, so a non-unital
    map is rejected.
    """
    if not is_unital(pmap):
        raise ValueError("the quarter bound requires a unital map")
    z = _require_contraction(z)
    if z.shape[0] != pmap.input_dim:
        raise ValueError("dimension mismatch between map and contraction")
    image = apply(pmap, z)
    rhs = np.eye(pmap.output_dim, dtype=complex) / 4.0 + apply(pmap, mat_abs(z))
    return _certificate("two-positive-quarter", mat_abs(image), rhs, tol=tol)


# ---------------------------------------------------------------------------
# Worked sharpness examples and empirical searches.
# ---------------------------------------------------------------------------


def sharpness_family(beta: float):
    """The rank-one PSD multiplier and the flip reflexion of the sharpness family."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    a = np.array([[2.0 * beta, 1.0], [1.0, 1.0 / (2.0 * beta)]], dtype=complex)
    r = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return a, r


def repro_sharpness_beta(beta: float) -> ReproResult:
    """Sharpness of the ``1/(4 beta)`` constant on the 2x2 multiplier family.

    For weight ``beta >= 1/2`` the top eigenvalue of
    ``|a o r| - beta (a o |r|)`` equals one half while the top of the scaled
    orbit term is ``c/2``, which forces ``c >= 1``: no smaller constant can
    replace ``1/(4 beta)``. The second eigenvalue is ``1 - 2 beta^2``.
    """
    if beta < 0.5:
        raise ValueError("the sharpness family is stated for beta >= 1/2")
    a, r = sharpness_family(beta)
    pmap = schur_multiplier(a)
    product = apply(pmap, r)
    product_abs_arg = hermitian_part(apply(pmap, mat_abs(r)))
    gap = _eig_desc(mat_abs(product) - beta * product_abs_arg)
    orbit_spectrum = _eig_desc(product_abs_arg)
    bound_top = orbit_spectrum[0] / (4.0 * beta)
    bound_second = orbit_spectrum[1] / (4.0 * beta)
    forced_c = float(gap[0] / bound_top)
    computed = {
        "lambda1": float(gap[0]),
        "lambda2": float(gap[1]),
        "orbit_bound_top": float(bound_top),
        "orbit_bound_second": float(bound_second),
        "c_min_forced": forced_c,
    }
    expected = {
        "lambda1": 0.5,
        "lambda2": 1.0 - 2.0 * beta**2,
        "orbit_bound_top": 0.5,
        "orbit_bound_second": 1.0 / (8.0 * beta**2),
        "c_min_forced": 1.0,
    }
    err = max(abs(computed[k] - expected[k]) for k in expected)
    notes = {
        "c_min_forced": "comparing top eigenvalues forces the constant to be at least 1",
    }
    if beta == 0.5:
        notes["equality"] = "at weight 1/2 the arithmetic bound is attained with equality"
    return ReproResult(
        example_id=f"sharpness-beta-{beta:g}",
        computed=computed,
        expected=expected,
        max_abs_error=float(err),
        tol=1e-12,
        notes=notes,
    )


def repro_no_single_unitary(angles) -> ReproResult:
    """No single unitary conjugate can dominate: the trace-ratio collapses.

    For each angle the partial trace of the block-diagonal difference of two
    rank-one projections has second singular value ``sin(a)`` while the traced
    absolute value has second eigenvalue ``1 - cos(a)``; their ratio
    ``(1 - cos a)/sin a = tan(a/2)`` tends to zero, so no constant times a
    single unitary orbit element can give an upper bound.
    """
    if np.isscalar(angles):
        angles = [float(angles)]
    angles = [float(a) for a in angles]
    if not angles:
        raise ValueError("need at least one angle")
    for a in angles:
        if not (0.0 < a <= math.pi / 2.0):
            raise ValueError("angles must lie in (0, pi/2]")
    trace_map = partial_trace_first(2, 2)
    computed, expected = {}, {}
    ratios = []
    for a in angles:
        p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        q = np.array(
            [
                [math.cos(a) ** 2, math.sin(a) * math.cos(a)],
                [math.sin(a) * math.cos(a), math.sin(a) ** 2],
            ],
            dtype=complex,
        )
        block = direct_sum([p, -q])
        traced = apply(trace_map, block)
        traced_abs = apply(trace_map, mat_abs(block))
        lam2_abs = float(_eig_desc(traced_abs)[-1])
        lam2_image = float(singular_values(traced)[-1])
        ratio = lam2_abs / lam2_image
        key = f"ratio_a={a:g}"
        computed[key] = ratio
        expected[key] = math.tan(a / 2.0)
        ratios.append(ratio)
    decreasing = all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    computed["monotone_decreasing"] = 1.0 if decreasing else 0.0
    expected["monotone_decreasing"] = 1.0
    err = max(abs(computed[k] - expected[k]) for k in expected)
    return ReproResult(
        example_id="no-single-unitary",
        computed=computed,
        expected=expected,
        max_abs_error=float(err),
        tol=1e-9,
        notes={
            "limit": "the ratio equals tan(a/2) and collapses to zero with the angle",
        },
    )


def quarter_sharpness_map() -> PositiveMapRep:
    """The unital CP map from 3x3 to 2x2 matrices attaining the quarter constant.

    Sends ``t`` to ``[[t11, t12/2], [t21/2, t22/4 + 3 t33/4]]``.
    """
    k1 = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]], dtype=complex)
    k2 = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, math.sqrt(3.0) / 2.0]], dtype=complex)
    return PositiveMapRep(3, 2, (k1, k2), label="quarter-sharpness")


def quarter_sharpness_hermitian() -> np.ndarray:
    """The rank-two Hermitian contraction paired with the quarter-sharpness map."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    return h


def repro_psi_sharpness() -> ReproResult:
    """The quarter constant in the unital two-positive bound cannot be improved.

    With the 3-to-2 map and the paired Hermitian contraction, the top
    eigenvalue of ``|map(h)| - map(|h|)`` is exactly one quarter. The stronger
    entrywise identity ``|map(h)| == diag(0, 1)/4 + map(|h|)`` does not hold
    (the left side is I/2, the right side diag(1, 1/2)); only the extremal
    eigenvalue matches, and that is what the sharpness claim needs. The gap of
    the would-be identity is recorded alongside.
    """
    pmap = quarter_sharpness_map()
    h = quarter_sharpness_hermitian()
    image_abs = mat_abs(apply(pmap, h))
    abs_image = hermitian_part(apply(pmap, mat_abs(h)))
    c_min = float(_eig_desc(image_abs - abs_image)[0])
    stated_rhs = np.diag([0.0, 0.25]).astype(complex) + abs_image
    identity_gap = spectral_norm(image_abs - stated_rhs)
    computed = {
        "c_min": c_min,
        "abs_image_11": float(image_abs[0, 0].real),
        "abs_image_22": float(image_abs[1, 1].real),
        "image_abs_arg_11": float(abs_image[0, 0].real),
        "image_abs_arg_22": float(abs_image[1, 1].real),
        "stated_identity_gap": float(identity_gap),
    }
    expected = {
        "c_min": 0.25,
        "abs_image_11": 0.5,
        "abs_image_22": 0.5,
        "image_abs_arg_11": 1.0,
        "image_abs_arg_22": 0.25,
        "stated_identity_gap": 0.5,
    }
    err = max(abs(computed[k] - expected[k]) for k in expected)
    return ReproResult(
        example_id="psi-quarter",
        computed=computed,
        expected=expected,
        max_abs_error=float(err),
        tol=1e-12,
        notes={
            "stated_identity": (
                "the entrywise identity |map(h)| == diag(0,1)/4 + map(|h|) fails: "
                "the left side is I/2 and the right side diag(1, 1/2); the sharp "
                "constant only needs the top eigenvalue of |map(h)| - map(|h|) to "
                "equal 1/4, which holds exactly"
            ),
        },
        matrices={"abs_image": image_abs, "image_of_abs": abs_image},
    )


def _real_part_margin(a) -> float:
    real_a = conj_real_part(a)
    real_abs = conj_real_part(mat_abs(a))
    return float(abs(np.linalg.det(real_a)) - np.linalg.det(real_abs).real)


def search_nonnormal_counterexample(seed, trials: int, threshold: float = 1e-9) -> ReproResult:
    """Random search for a nonnormal 2x2 matrix breaking the determinant bound.

    The determinant comparison that holds for every normal matrix can fail
    off the normal cone; the first random matrix exceeding the threshold is
    reported. Exhausting the budget is a reported outcome, not an error.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for index in range(trials):
        candidate = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
        margin = _real_part_margin(candidate)
        if margin > threshold:
            real_abs = conj_real_part(mat_abs(candidate))
            return ReproResult(
                example_id="nonnormal-det",
                computed={
                    "found": 1.0,
                    "trial_index": float(index),
                    "margin": margin,
                    "det_real_part": float(abs(np.linalg.det(conj_real_part(candidate)))),
                    "det_abs_real_part": float(np.linalg.det(real_abs).real),
                },
                expected={"found": 1.0},
                max_abs_error=0.0,
                tol=0.5,
                notes={"margin": "violation of the normal-matrix determinant bound"},
                matrices={"matrix": candidate},
            )
    return ReproResult(
        example_id="nonnormal-det",
        computed={"found": 0.0, "trials": float(trials)},
        expected={"found": 1.0},
        max_abs_error=1.0,
        tol=0.5,
        notes={"outcome": "no violation found within the trial budget"},
    )


def minimal_orbit_constant(pmap: PositiveMapRep, nmat, beta: float) -> float:
    """Smallest c with ``|map(n)| <= beta map(|n|) + c v map(|n|) v*`` for the polar witness.

    With ``a = map(|n|)``, ``b = v a v*`` and ``hi = 1/(2 beta)`` (twice the
    guaranteed constant), the slack at c, shifted by the verdict floor, is
    ``d - (hi - c) b`` with ``d`` the shifted slack at ``hi``. When the
    guaranteed constant holds, ``d`` is positive definite and the value is
    ``max(0, hi - 1/mu)`` for the top eigenvalue ``mu`` of the pencil ``(b, d)``;
    a singular ``b`` is allowed there.
    """
    nmat = _require_normal(nmat, "nmat")
    if not beta > 0:
        raise ValueError("beta must be positive")
    o = _orbit(apply(pmap, nmat), hermitian_part(apply(pmap, mat_abs(nmat))))
    floor = _loewner_floor(1e-12, spectral_norm(o.arg))
    hi = 1.0 / (2.0 * beta)
    d = hermitian_part(beta * o.arg + hi * o.orbit - o.lhs) - floor * np.eye(len(o.arg))
    try:
        mu = scipy.linalg.eigh(o.orbit, d, eigvals_only=True)[-1]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("guaranteed constant infeasible; this indicates a bug") from exc
    return 0.0 if mu <= 1.0 / hi else float(hi - 1.0 / mu)


def estimate_constant(
    beta_grid: Sequence[float],
    seed=0,
    trials: int = 100,
    n: int = 2,
    m: int = 2,
):
    """Empirical best constants at small weights; exploratory data, no pass/fail.

    For each weight the pool holds the 2x2 sharpness-family instance (which
    attains the guaranteed constant with the polar witness) plus seeded random
    map/matrix pairs; rows report the observed maximum against the guaranteed
    bound ``1/(4 beta)``.
    """
    betas = [float(b) for b in beta_grid]
    if not betas:
        raise ValueError("beta grid must be nonempty")
    if any(not (0.0 < b <= 0.5 + 1e-12) for b in betas):
        raise ValueError("beta grid must lie in (0, 1/2]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for bi, beta in enumerate(betas):
        a, r = sharpness_family(beta)
        pool = [(schur_multiplier(a), r)] + [
            (random_cp_map([seed, bi, t, 0], n, m), random_normal([seed, bi, t, 1], n))
            for t in range(trials)
        ]
        best = max(minimal_orbit_constant(pmap, nm, beta) for pmap, nm in pool)
        bound = 1.0 / (4.0 * beta)
        rows.append(
            {
                "beta": beta,
                "empirical_c": float(best),
                "bound": bound,
                "ratio": float(best / bound),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Sweep assembly: every statement on fresh seeded instances for one trial.
# ---------------------------------------------------------------------------


class _Trial(NamedTuple):
    """The seeded instances of one sweep trial that several statements share."""

    master_seed: int
    trial_index: int
    n: int
    m: int
    tol: float
    inject_mutant: bool
    pmap: PositiveMapRep
    main: _NormalImage
    main_geom: Certificate

    def sub(self, k: int) -> list:
        return [self.master_seed, self.trial_index, k]


def _main_bounds(t: _Trial, beta: float):
    arith = _arith("main-arith", t.main.orbit, beta, t.tol, -1.0 if t.inject_mutant else 1.0)
    return arith, t.main_geom, chain_certificate(t.main_geom, arith, t.tol)


def _real_part(t: _Trial):
    report = check_real_part(random_normal(t.sub(2), t.n), t.tol)
    return report.construction_route, report.direct_route, report.det_check


def _russo_dye(t: _Trial):
    reports = check_russo_dye(t.pmap, random_contraction(t.sub(7), t.n), t.tol)
    return reports.arithmetic, reports.geometric, reports.log_majorization


def _weighted_sum(t: _Trial):
    xs = [random_matrix(t.sub(8 + i), t.m, t.n) for i in range(3)]
    zs = [random_contraction(t.sub(11 + i), t.m) for i in range(3)]
    return check_weighted_sum(xs, zs, t.tol)


def _symmetrized(t: _Trial):
    # Both statements on x + x* and x o x* share one SVD of x.
    x = random_matrix(t.sub(18), t.n)
    abs_pair = _abs_pair(x)
    return _hermitian_sum(t.pmap, x, abs_pair, t.tol), _schur_square(t.pmap, x, abs_pair, t.tol)


# The sweep's statements in run order, which fixes the order of a report's
# failures. Each row is (keys, per_weight, outcomes): outcomes(trial), or
# outcomes(trial, beta) once per weight, returns one outcome per key.
_STATEMENTS = (
    (("main-arith", "main-geom", "main-chain"), True, _main_bounds),
    (("block-psd",), False, lambda t: [_block_psd(t.main, t.tol)]),
    (("eigen-logmaj", "eigen-pairs"), False, lambda t: _eigen_fixed(t.main, t.tol)),
    (("eigen-shift",), True, lambda t, beta: [_eigen_shift(t.main, beta, t.tol)]),
    (("realpart-construction-logmaj", "realpart-direct-logmaj", "realpart-det"), False, _real_part),
    (
        ("ptrace-geom",),
        False,
        lambda t: [check_partial_trace(random_normal(t.sub(3), 2 * t.n), 2, t.n, t.tol)],
    ),
    (
        ("sum-normals-geom", "sum-normals-arith"),
        False,
        lambda t: check_sum_of_normals([random_normal(t.sub(4 + i), t.n) for i in range(3)], t.tol),
    ),
    (("contraction-arith", "contraction-geom", "contraction-logmaj"), False, _russo_dye),
    (("weighted-sum-logmaj", "weighted-sum-block"), False, _weighted_sum),
    (
        ("schur-diagonal",),
        False,
        lambda t: [
            check_schur_diagonal(random_psd(t.sub(14), t.n), random_contraction(t.sub(15), t.n), t.tol)
        ],
    ),
    (
        ("schur-normal",),
        False,
        lambda t: [
            check_schur_normal(random_normal(t.sub(16), t.n), random_normal(t.sub(17), t.n), t.tol)
        ],
    ),
    (("hermitian-sum-geom", "schur-square-geom"), False, _symmetrized),
    (
        ("two-positive-quarter",),
        False,
        lambda t: [
            check_two_positive_unital(
                random_unital_cp_map(t.sub(19), t.n, t.m), random_contraction(t.sub(20), t.n), t.tol
            )
        ],
    ),
)


def weight_tag(beta: float) -> str:
    """The weight part of a per-weight statement key; weights with one tag share keys."""
    return f"beta={beta:g}"


def _evaluations(keys: tuple, per_weight: bool, betas: Sequence[float]) -> list:
    """(keys, extra arguments) of each evaluation of one table row."""
    if per_weight:
        return [([f"{key}@{weight_tag(beta)}" for key in keys], (beta,)) for beta in betas]
    return [(list(keys), ())]


def run_trial(
    master_seed: int, trial_index: int, n: int, m: int, betas: Sequence[float],
    tol: float = DEFAULT_TOL, *, inject_mutant: bool = False,
) -> dict:
    """All statement checks for one trial; instances derive from (seed, index).

    Returns a mapping from statement keys to outcome objects exposing
    ``passed`` and ``min_slack``; weight-dependent statements carry the weight
    in their key. ``inject_mutant`` negates the orbit term on the right-hand
    side of the arithmetic bound, a fault the sweep must report.
    """
    pmap = random_cp_map([master_seed, trial_index, 0], n, m)
    main = _normal_image(pmap, random_normal([master_seed, trial_index, 1], n))
    geom = _geom("main-geom", main.orbit, tol)
    trial = _Trial(master_seed, trial_index, n, m, tol, inject_mutant, pmap, main, geom)
    out: dict = {}
    for keys, per_weight, outcomes in _STATEMENTS:
        for evaluated_keys, args in _evaluations(keys, per_weight, betas):
            out.update(zip(evaluated_keys, outcomes(trial, *args), strict=True))
    return out


def trial_statements(betas: Sequence[float]) -> list:
    """Statement keys run_trial produces for a given weight list, in run order."""
    return [
        key
        for keys, per_weight, _ in _STATEMENTS
        for evaluated_keys, _ in _evaluations(keys, per_weight, betas)
        for key in evaluated_keys
    ]
