"""Certificates for the operator inequalities this library implements.

Each checker constructs the witness unitary the corresponding statement
asserts to exist (always the adjoint of the polar unitary factor of the
relevant image matrix, never a searched one), assembles both sides of the
inequality, and returns a machine-checkable certificate with the full slack
spectrum. Worked sharpness examples and an empirical search for the best
constant at small weights round out the module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.linalg

from .core import (
    CONSTRUCTION_TOL,
    PSD_TOL,
    MajorizationReport,
    _CHECK_TOL,
    _abs_from_svd,
    _adjoint,
    _complex_gaussian,
    _contractions,
    _hermitian,
    _hermitian_verdict,
    _hermitian_within,
    _is_psd,
    _log_majorizations,
    _normals,
    _threshold,
    as_matrix,
    conj_real_part,
    direct_sum,
    geometric_mean,
    hermitian_part,
    is_contraction,
    is_normal,
    mat_abs,
    polar,
    random_matrix,
    random_normal,
    random_psd,
    schur_prod,
    singular_values,
    spectral_norm,
)
from .maps import (
    PositiveMapRep,
    _check_fit,
    _unital,
    apply,
    corner_block_map,
    partial_trace_first,
    random_cp_map,
    random_unital_cp_map,
    schur_multiplier,
)
from .staging import Ask, run as run_staged

__all__ = [
    "DEFAULT_TOL",
    "Certificate",
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
]

DEFAULT_TOL = _CHECK_TOL


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


class EigenCorollaryReports(NamedTuple):
    """Eigenvalue-level consequences in key order: log-majorization, pair bounds, shifted bounds."""

    log_majorization: MajorizationReport
    pair_bounds: Certificate
    shifted_bounds: Certificate


class RealPartReport(NamedTuple):
    """Entrywise-real-part comparison for a normal matrix in key order: two routes, then the determinants."""

    construction_route: MajorizationReport
    direct_route: MajorizationReport
    det_check: Certificate

    @property
    def passed(self) -> bool:
        return (
            self.construction_route.passed
            and self.direct_route.passed
            and self.det_check.passed
        )


class RussoDyeReports(NamedTuple):
    """Contraction bounds in key order: arithmetic, geometric-mean and log-majorization forms."""

    arithmetic: Certificate
    geometric: Certificate
    log_majorization: MajorizationReport


@dataclass(frozen=True, eq=False)
class ReproResult:
    """Named reproduction of a worked example: computed vs expected quantities.

    Each quantity passes when it is within ``core._threshold(tol, |expected|)``
    of its expected value, so large expected values are held to their scale.
    """

    example_id: str
    computed: dict
    expected: dict
    tol: float
    notes: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)

    @property
    def max_abs_error(self) -> float:
        return max(abs(self.computed[k] - self.expected[k]) for k in self.expected)

    @property
    def passed(self) -> bool:
        return all(
            abs(self.computed[k] - self.expected[k]) <= _threshold(self.tol, abs(self.expected[k]))
            for k in self.expected
        )


def _eig_desc(x) -> np.ndarray:
    """Descending eigenvalues of the Hermitian part, along the last axis for a stack."""
    return np.linalg.eigvalsh(_hermitian(x))[..., ::-1]


# ---------------------------------------------------------------------------
# Staged evaluation (see ``staging``). Each statement is a task that asks for
# primitives one matrix at a time; ``_run`` drives tasks together, so a sweep
# trial makes one call per stage and matrix shape. The sweep's table rows and
# the public checkers run the same tasks: a checker runs its row's task alone
# and picks its outcomes.
# ---------------------------------------------------------------------------


def _run(*tasks) -> list:
    """Run statement tasks together; returns their results."""
    # The primitives the tasks ask for, in the order their asks are served.
    stages = (
        "is_normal",
        "is_contraction",
        "mat_abs",
        "_abs_pair",
        "apply",
        "_orbit",
        "singular_values",
        "_eig_desc",
        "geometric_mean",
        "_hermitian_verdict",
        "_log_majorizations",
    )
    return run_staged(stages, tasks)


def _applied(pmap: PositiveMapRep, mats) -> list:
    """Asks for the images of ``mats`` under ``pmap``."""
    return [Ask(apply, (pmap, x)) for x in mats]


def _require(check, mats, names, what: str):
    """Task: raise ValueError naming the first of ``mats`` that fails ``check``."""
    passed = yield [Ask(check, (x,)) for x in mats]
    for ok, name in zip(passed, names):
        if not ok:
            raise ValueError(f"{name} must be {what}")


class _Claim(NamedTuple):
    """A Loewner certificate ``lhs <= rhs`` before its verdict."""

    statement_id: str
    lhs: np.ndarray
    rhs: np.ndarray
    tol: float
    witness: Optional[np.ndarray] = None
    beta: Optional[float] = None


def _decide(claims):
    """Task: the certificates of ``claims``, each side taken as its Hermitian part."""
    verdicts = yield [Ask(_hermitian_verdict, (c.lhs, c.rhs, c.tol)) for c in claims]
    return [
        Certificate(
            c.statement_id, v.lhs, v.rhs, v.slack_spectrum, bool(v.passed), c.tol,
            c.witness, c.beta,
        )
        for c, v in zip(claims, verdicts)
    ]


def witness_unitary(y) -> np.ndarray:
    """The unitary v with ``y = v* |y|``: the adjoint of the polar unitary factor.

    Singular inputs use the completed polar decomposition, so the zero matrix
    gives the identity.
    """
    return polar(y).unitary_factor.conj().T


class _Orbit(NamedTuple):
    """An image ``y`` and its comparison argument ``a``, with the polar data of ``y``.

    ``arg`` is ``a``, the Hermitian part of what ``_orbit`` is given; ``lhs`` is
    ``|y|``, ``witness`` is ``v = witness_unitary(y)`` and ``orbit`` is ``v a v*``.
    ``arg``, ``lhs`` and ``orbit`` are exactly Hermitian. Every orbit statement
    is the theorem on one such pair:
    ``|y| <= a # v a v* <= beta a + (1/(4 beta)) v a v*``.
    """

    image: np.ndarray
    arg: np.ndarray
    lhs: np.ndarray
    witness: np.ndarray
    orbit: np.ndarray


def _check_weights(betas: Sequence[float]) -> None:
    """Refuse a weight unless it is positive and ``4 beta^2`` and ``1/beta`` are finite.

    Then ``2 beta``, ``4 beta``, ``1/(2 beta)`` and ``1/(4 beta)`` are finite and
    nonzero, and so is ``4 beta`` times a ``beta``-sized side, as eigen-shift forms.
    """
    for beta in map(float, betas):
        if not (beta > 0 and math.isfinite(4.0 * beta * beta) and math.isfinite(1.0 / beta)):
            raise ValueError(f"beta must be positive and finite, and so must 4 beta^2 and 1/beta: {beta!r}")


def _orbit(image, arg) -> _Orbit:
    """The orbit data of ``(image, arg)`` from one polar decomposition of ``image``, per member."""
    arg = _hermitian(arg)
    unitary, lhs = polar(image)
    v = _adjoint(unitary)
    return _Orbit(image, arg, lhs, v, _hermitian(v @ arg @ _adjoint(v)))


class _AbsPair(NamedTuple):
    """``|x|`` and ``|x*|``."""

    right: np.ndarray
    left: np.ndarray


def _abs_pair(x) -> _AbsPair:
    """``(|x|, |x*|)`` from one SVD ``x = u s vh``: ``vh* s vh`` and ``u s u*``, per member."""
    u, s, vh = np.linalg.svd(x)
    return _AbsPair(_abs_from_svd(s, vh), _hermitian((u * s[..., None, :]) @ _adjoint(u)))


def _image_orbit(pmap: PositiveMapRep, x: np.ndarray):
    """Task: the orbit pair ``(map(x), map(|x|))``."""
    (abs_x,) = yield [Ask(mat_abs, (x,))]
    image, image_abs = yield _applied(pmap, [x, abs_x])
    (o,) = yield [Ask(_orbit, (image, image_abs))]
    return o


def _normal_orbit(pmap: PositiveMapRep, nmat):
    """Task: the orbit pair ``(map(n), map(|n|))`` of a normal matrix."""
    nmat = as_matrix(nmat, square=True, name="nmat")
    _check_fit(pmap, nmat, "nmat")
    yield from _require(is_normal, [nmat], ["nmat"], "normal")
    return (yield from _image_orbit(pmap, nmat))


def _mean(o: _Orbit) -> Ask:
    return Ask(geometric_mean, (o.arg, o.orbit))


def _arith(statement_id, o: _Orbit, beta: float, tol: float, sign: float = 1.0) -> _Claim:
    """The arithmetic bound ``beta arg + sign orbit/(4 beta)``.

    ``sign = -1`` negates the orbit term: the fault the sweep injects on request.
    """
    rhs = beta * o.arg + sign * o.orbit / (4.0 * beta)
    return _Claim(statement_id, o.lhs, rhs, tol, o.witness, beta)


def _geom(statement_id, o: _Orbit, mean: np.ndarray, tol: float) -> _Claim:
    """The geometric-mean bound ``arg # orbit``, which has no weight."""
    return _Claim(statement_id, o.lhs, mean, tol, o.witness)


def _chain(geom, arith, tol: float) -> _Claim:
    return _Claim("main-chain", geom.rhs, arith.rhs, tol, beta=arith.beta)


def _logmaj(singular, spectrum, tol: float) -> Ask:
    """Ask: singular values weakly log-majorized by a spectrum clipped at zero."""
    return Ask(_log_majorizations, (singular, np.maximum(spectrum, 0.0), tol))


def _diagonal_certificate(statement_id, lhs, rhs, *, beta=None, tol=DEFAULT_TOL) -> Certificate:
    """``diag(lhs) <= diag(rhs)`` for real vectors, decided without a decomposition.

    The slack spectrum of two diagonal matrices is the entrywise difference
    sorted in descending order, and ``||diag(rhs)||`` is ``max |rhs|``, so the
    verdict is the ``core.loewner_leq`` rule on the diagonal matrices, which
    the certificate keeps as its two sides. A side that is not finite, or a
    difference that overflows, is refused with a ValueError.
    """
    slack = np.sort(rhs - lhs)[::-1]
    if not np.isfinite(slack).all():
        raise ValueError(f"{statement_id} has non-finite sides")
    passed = bool(slack[-1] >= -_threshold(tol, float(np.abs(rhs).max())))
    return Certificate(
        statement_id=statement_id,
        lhs=np.diag(lhs).astype(complex),
        rhs=np.diag(rhs).astype(complex),
        slack_spectrum=slack,
        passed=passed,
        tol=tol,
        beta=beta,
    )


def _orbit_statements(
    pmap: PositiveMapRep, nmat, betas: Sequence[float], tol: float, sign: float = 1.0
):
    """Task: every statement on the orbit pair ``(map(n), map(|n|))`` of a normal ``n``.

    The outcomes come in key order: main-arith, main-geom and main-chain for
    each weight; then block-psd, eigen-logmaj and eigen-pairs; then
    eigen-shift for each weight. ``main-geom`` has no weight and records
    none. ``sign = -1`` negates the orbit term of the arithmetic bound: the
    fault the sweep injects on request.
    """
    _check_weights(betas)
    o = yield from _normal_orbit(pmap, nmat)
    mean, singular, spectrum, *shifted = yield [
        _mean(o),
        Ask(singular_values, (o.image,)),
        Ask(_eig_desc, (o.arg,)),
        *(Ask(_eig_desc, (o.lhs - beta * o.arg,)) for beta in betas),
    ]
    geom = _geom("main-geom", o, mean, tol)
    ariths = [_arith("main-arith", o, beta, tol, sign) for beta in betas]
    chains = [_chain(geom, arith, tol) for arith in ariths]
    # A Kraus map commutes with the adjoint: map(n*) = map(n)*.
    block = np.block([[o.arg, o.image], [o.image.conj().T, o.arg]])
    block = _Claim("block-psd", np.zeros_like(block), block, tol)
    geom, block, *certs = yield from _decide([geom, block, *ariths, *chains])
    k = len(betas)
    bounds = [cert for i in range(k) for cert in (certs[i], geom, certs[k + i])]
    # The pairs (j, i), 0-based, with j + i < m, in row-major order.
    m = singular.size
    j, i = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) < m)
    t_clip = np.maximum(spectrum, 0.0)
    pair_bound = np.sqrt(t_clip[j] * t_clip[i])
    pairs = _diagonal_certificate("eigen-pairs", singular[j + i], pair_bound, tol=tol)
    shifts = [
        _diagonal_certificate("eigen-shift", 4.0 * beta * s, spectrum, beta=beta, tol=tol)
        for s, beta in zip(shifted, betas)
    ]
    (logmaj,) = yield [_logmaj(singular, spectrum, tol)]
    return [*bounds, block, logmaj, pairs, *shifts]


def check_theorem_main(pmap: PositiveMapRep, nmat, beta: float, tol: float = DEFAULT_TOL):
    """Both orbit bounds for a normal matrix under a positive map at weight ``beta``.

    Returns the arithmetic certificate
    ``|map(n)| <= beta map(|n|) + (1/(4 beta)) v map(|n|) v*`` and the
    geometric-mean refinement ``|map(n)| <= map(|n|) # v map(|n|) v*``,
    both with the polar witness ``v`` of ``map(n)``.
    """
    arith, geom = _run(_orbit_statements(pmap, nmat, (beta,), tol))[0][:2]
    return arith, replace(geom, beta=beta)


def chain_certificate(geom: Certificate, arith: Certificate, tol: float = DEFAULT_TOL) -> Certificate:
    """The geometric-mean bound never exceeds the arithmetic one (AM-GM chain)."""
    return _run(_decide([_chain(geom, arith, tol)]))[0][0]


def check_block_certificate(pmap: PositiveMapRep, nmat, tol: float = DEFAULT_TOL) -> Certificate:
    """The 2x2 block matrix [[map(|n|), map(n)], [map(n*), map(|n|)]] is PSD."""
    return _run(_orbit_statements(pmap, nmat, (), tol))[0][0]


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
    return EigenCorollaryReports(*_run(_orbit_statements(pmap, nmat, (beta,), tol))[0][4:])


def _real_part(a, tol: float):
    a = as_matrix(a, square=True, name="a")
    yield from _require(is_normal, [a], ["a"], "normal")
    doubled = direct_sum([a, np.conj(a)])
    abs_doubled, abs_a = yield [Ask(mat_abs, (doubled,)), Ask(mat_abs, (a,))]
    averager = corner_block_map("diag_average", a.shape[0])
    image, image_abs_arg = yield _applied(averager, [doubled, abs_doubled])
    real_a = conj_real_part(a)
    real_abs = conj_real_part(abs_a)
    s_image, t_image, s_real, t_real = yield [
        Ask(singular_values, (image,)),
        Ask(_eig_desc, (image_abs_arg,)),
        Ask(singular_values, (real_a,)),
        Ask(_eig_desc, (real_abs,)),
    ]
    det_lhs, det_rhs, _ = _det_excess(real_a, real_abs)
    det_check = _diagonal_certificate("realpart-det", np.array([det_lhs]), np.array([det_rhs]), tol=tol)
    construction, direct = yield [_logmaj(s_image, t_image, tol), _logmaj(s_real, t_real, tol)]
    return RealPartReport(construction, direct, det_check)


def check_real_part(a, tol: float = DEFAULT_TOL) -> RealPartReport:
    """Entrywise real part of a normal matrix against the real part of its absolute value.

    Route one runs the block construction: the direct sum with the conjugate
    matrix, averaged over the diagonal blocks. Route two compares singular
    values of the real part with the eigenvalues of the (PSD) real part of
    the absolute value directly. ``det_check`` certifies ``|det Re a| <=
    det Re|a|``, the single entries of its two sides; the real part of a PSD
    matrix is again PSD, so the right-hand determinant is nonnegative.
    """
    return _run(_real_part(a, tol))[0]


def _partial_trace(nmat, d: int, n: int, tol: float):
    nmat = as_matrix(nmat, square=True, name="nmat")
    pmap = partial_trace_first(d, n)
    _check_fit(pmap, nmat, "nmat")
    yield from _require(is_normal, [nmat], ["nmat"], "normal")
    o = yield from _image_orbit(pmap, nmat)
    (mean,) = yield [_mean(o)]
    return (yield from _decide([_geom("ptrace-geom", o, mean, tol)]))


def check_partial_trace(nmat, d: int, n: int, tol: float = DEFAULT_TOL) -> Certificate:
    """Geometric-mean orbit bound for the partial trace of a normal block matrix."""
    return _run(_partial_trace(nmat, d, n, tol))[0][0]


def _sum_of_normals(mats: Sequence, tol: float):
    mats = [as_matrix(m, square=True, name=f"mats[{i}]") for i, m in enumerate(mats)]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("all matrices must share one dimension")
    yield from _require(is_normal, mats, [f"mats[{i}]" for i in range(len(mats))], "normal")
    o = yield from _image_orbit(partial_trace_first(len(mats), n), direct_sum(mats))
    (mean,) = yield [_mean(o)]
    claims = [_geom("sum-normals-geom", o, mean, tol), _arith("sum-normals-arith", o, 0.5, tol)]
    geom, arith = yield from _decide(claims)
    return geom, arith


def check_sum_of_normals(mats: Sequence, tol: float = DEFAULT_TOL):
    """Orbit bounds for a sum of normal matrices, built through the partial trace.

    Returns the geometric-mean certificate and the weaker arithmetic one on
    ``sum |n_i|`` and its unitary conjugate.
    """
    return _run(_sum_of_normals(mats, tol))[0]


def _russo_dye(pmap: PositiveMapRep, z, tol: float):
    z = as_matrix(z, square=True, name="z")
    _check_fit(pmap, z, "z")
    yield from _require(is_contraction, [z], ["z"], "a contraction")
    image_id, image = yield _applied(pmap, [np.eye(z.shape[0], dtype=complex), z])
    o, singular, spectrum = yield [
        Ask(_orbit, (image, image_id)),
        Ask(singular_values, (image,)),
        Ask(_eig_desc, (image_id,)),
    ]
    (mean,) = yield [_mean(o)]
    claims = [_arith("contraction-arith", o, 0.5, tol), _geom("contraction-geom", o, mean, tol)]
    arith, geom = yield from _decide(claims)
    (logmaj,) = yield [_logmaj(singular, spectrum, tol)]
    return RussoDyeReports(arith, geom, logmaj)


def check_russo_dye(pmap: PositiveMapRep, z, tol: float = DEFAULT_TOL) -> RussoDyeReports:
    """Norm-at-identity bounds for a contraction, bounded by the image of the identity.

    The statement runs through the unitary (Halmos) dilation of ``z``: the
    map composed with upper-left block extraction sends the dilation to
    ``map(z)``, factor by factor,
    ``apply(compose(pmap, upper_left), halmos_dilation(z)) == apply(pmap, z)``.
    So the image is computed as ``map(z)`` and the dilation is never formed.
    """
    return _run(_russo_dye(pmap, z, tol))[0]


def _weighted_sum(xs: Sequence, zs: Sequence, tol: float):
    if len(xs) != len(zs):
        raise ValueError("xs and zs must have equal length")
    if len(xs) == 0:
        raise ValueError("need at least one summand")
    xs = [as_matrix(x, name=f"xs[{i}]") for i, x in enumerate(xs)]
    rows, cols = xs[0].shape
    if any(x.shape != (rows, cols) for x in xs):
        raise ValueError("all xs must share one shape")
    zs = [as_matrix(z, square=True, name=f"zs[{i}]") for i, z in enumerate(zs)]
    if any(z.shape != (rows, rows) for z in zs):
        raise ValueError("each z must act on the row space of the xs")
    yield from _require(is_contraction, zs, [f"zs[{i}]" for i in range(len(zs))], "a contraction")

    weighted = sum(x.conj().T @ z @ x for x, z in zip(xs, zs))
    gram = hermitian_part(sum(x.conj().T @ x for x in xs))
    singular, spectrum, *pairs = yield [
        Ask(singular_values, (weighted,)),
        Ask(_eig_desc, (gram,)),
        *(Ask(_abs_pair, (z,)) for z in zs),
    ]
    upper_left = sum(x.conj().T @ pair.left @ x for x, pair in zip(xs, pairs))
    lower_right = sum(x.conj().T @ pair.right @ x for x, pair in zip(xs, pairs))
    block = np.block([[upper_left, weighted], [weighted.conj().T, lower_right]])
    (cert,) = yield from _decide([_Claim("weighted-sum-block", np.zeros_like(block), block, tol)])
    (logmaj,) = yield [_logmaj(singular, spectrum, tol)]
    return logmaj, cert


def check_weighted_sum(xs: Sequence, zs: Sequence, tol: float = DEFAULT_TOL):
    """Weighted sums of contractions against the Gram sum.

    For factors ``x_i`` (all of one rectangular shape) and contractions
    ``z_i`` acting on their row space, the singular values of
    ``sum x_i* z_i x_i`` are weakly log-majorized by the eigenvalues of
    ``sum x_i* x_i``; the associated 2x2 block matrix is PSD, which carries
    the factorization through a contraction.
    """
    return _run(_weighted_sum(xs, zs, tol))[0]


def _schur_diagonal(a, z, tol: float):
    a = as_matrix(a, square=True, name="a")
    z = as_matrix(z, square=True, name="z")
    if a.shape != z.shape:
        raise ValueError("a and z must share one dimension")
    if not _hermitian_within(a):
        raise ValueError("a is not Hermitian")
    # The checks are asked with the orbit, so that it joins the other orbits.
    w, contracting, o = yield [
        Ask(_eig_desc, (a,)),
        Ask(is_contraction, (z,)),
        Ask(_orbit, (schur_prod(a, z), schur_prod(a, np.eye(a.shape[0], dtype=complex)))),
    ]
    if not _is_psd(w, np.abs(w).max()):
        raise ValueError("a must be PSD")
    if not contracting:
        raise ValueError("z must be a contraction")
    return (yield from _decide([_arith("schur-diagonal", o, 0.5, tol)]))


def check_schur_diagonal(a, z, tol: float = DEFAULT_TOL) -> Certificate:
    """Entrywise product of a PSD matrix with a contraction against the diagonal part."""
    return _run(_schur_diagonal(a, z, tol))[0][0]


def _schur_normal(a, b, tol: float):
    a = as_matrix(a, square=True, name="a")
    b = as_matrix(b, square=True, name="b")
    if a.shape != b.shape:
        raise ValueError("a and b must share one dimension")
    yield from _require(is_normal, [a, b], ["a", "b"], "normal")
    abs_a, abs_b = yield [Ask(mat_abs, (a,)), Ask(mat_abs, (b,))]
    (o,) = yield [Ask(_orbit, (schur_prod(a, b), schur_prod(abs_a, abs_b)))]
    return (yield from _decide([_arith("schur-normal", o, 1.0, tol)]))


def check_schur_normal(a, b, tol: float = DEFAULT_TOL) -> Certificate:
    """Entrywise product of two normal matrices with the sharp quarter constant.

    Certifies ``|a o b| <= |a| o |b| + (1/4) v (|a| o |b|) v*`` with the polar
    witness ``v`` of ``a o b``. This is the orbit bound with weights (1, 1/4)
    for the compression of ``a (x) b`` to its paired diagonal indices, which
    is ``a o b``, using ``|a (x) b| = |a| (x) |b|``; no tensor is formed.
    """
    return _run(_schur_normal(a, b, tol))[0][0]


def _symmetrized(pmap: PositiveMapRep, x, tol: float):
    """Task: the hermitian-sum-geom and schur-square-geom certificates, from one SVD of ``x``."""
    x = as_matrix(x, square=True, name="x")
    _check_fit(pmap, x, "x")
    (pair,) = yield [Ask(_abs_pair, (x,))]
    herm_image, herm_arg, square_image, square_arg = yield _applied(
        pmap,
        [
            x + x.conj().T,
            pair.right + pair.left,
            schur_prod(x, x.conj().T),
            schur_prod(pair.right, pair.left),
        ],
    )
    herm, square = yield [Ask(_orbit, (herm_image, herm_arg)), Ask(_orbit, (square_image, square_arg))]
    herm_mean, square_mean = yield [_mean(herm), _mean(square)]
    herm_cert, square_cert = yield from _decide(
        [
            _geom("hermitian-sum-geom", herm, herm_mean, tol),
            _geom("schur-square-geom", square, square_mean, tol),
        ]
    )
    return herm_cert, square_cert


def check_hermitian_sum(pmap: PositiveMapRep, x, tol: float = DEFAULT_TOL) -> Certificate:
    """Geometric-mean orbit bound for the image of ``x + x*``.

    ``x + x*`` is the block sum of the Hermitian carrier ``[[0, x], [x*, 0]]``,
    whose absolute value is ``|x*| (+) |x|``; the comparison argument is the
    image of its block sum, ``map(|x| + |x*|)``.
    """
    return _run(_symmetrized(pmap, x, tol))[0][0]


def check_schur_square(pmap: PositiveMapRep, x, tol: float = DEFAULT_TOL) -> Certificate:
    """Geometric-mean orbit bound for the image of ``x o x*``.

    ``x o x* = x* o x`` is Hermitian. It is half the block sum of the paired
    diagonal compression of ``[[0, x*], [x, 0]] (x) [[0, x], [x*, 0]]``, and
    the absolute values of those carriers are ``|x| (+) |x*|`` and
    ``|x*| (+) |x|``, so the comparison argument is ``map(|x| o |x*|)``.
    """
    return _run(_symmetrized(pmap, x, tol))[0][1]


def _two_positive_unital(pmap: PositiveMapRep, z, tol: float):
    z = as_matrix(z, square=True, name="z")
    _check_fit(pmap, z, "z")
    yield from _require(is_contraction, [z], ["z"], "a contraction")
    (abs_z,) = yield [Ask(mat_abs, (z,))]
    eye = np.eye(pmap.output_dim, dtype=complex)
    # maps.is_unital, with map(I) and its defect asked in the stages of map(z).
    image, image_abs, image_id = yield _applied(pmap, [z, abs_z, np.eye(z.shape[0], dtype=complex)])
    o, defect = yield [Ask(_orbit, (image, image_abs)), Ask(singular_values, (image_id - eye,))]
    if not _unital(defect[0]):
        raise ValueError("the quarter bound requires a unital map")
    rhs = eye / 4.0 + o.arg
    return (yield from _decide([_Claim("two-positive-quarter", o.lhs, rhs, tol)]))


def check_two_positive_unital(pmap: PositiveMapRep, z, tol: float = DEFAULT_TOL) -> Certificate:
    """For a unital map and a contraction: ``|map(z)| <= I/4 + map(|z|)``.

    No witness is needed; the statement requires unitality, so a non-unital
    map is rejected.
    """
    return _run(_two_positive_unital(pmap, z, tol))[0][0]


# ---------------------------------------------------------------------------
# Worked sharpness examples and empirical searches.
# ---------------------------------------------------------------------------


def sharpness_family(beta: float):
    """The rank-one PSD multiplier and the flip reflexion of the sharpness family."""
    _check_weights([beta])
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
    (o,) = _run(_image_orbit(schur_multiplier(a), r))
    gap = _eig_desc(o.lhs - beta * o.arg)
    orbit_spectrum = _eig_desc(o.arg)
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
    notes = {
        "c_min_forced": "comparing top eigenvalues forces the constant to be at least 1",
    }
    if beta == 0.5:
        notes["equality"] = "at weight 1/2 the arithmetic bound is attained with equality"
    return ReproResult(
        example_id=f"sharpness-beta-{beta:g}",
        computed=computed,
        expected=expected,
        tol=1e-12,
        notes=notes,
    )


def repro_no_single_unitary(angles) -> ReproResult:
    """No single unitary conjugate can dominate: the trace-ratio collapses.

    For each angle the partial trace of the block-diagonal difference of two
    rank-one projections has second singular value ``sin(a)`` while the traced
    absolute value has second eigenvalue ``1 - cos(a)``; their ratio
    ``(1 - cos a)/sin a = tan(a/2)`` tends to zero, so no constant times a
    single unitary orbit element can give an upper bound. Angles may come in
    any order; angles that print alike under ``%g`` would share a key and are
    refused with a ValueError.
    """
    angles = [float(a) for a in angles]
    if not angles:
        raise ValueError("need at least one angle")
    for a in angles:
        if not (0.0 < a <= math.pi / 2.0):
            raise ValueError("angles must lie in (0, pi/2]")
    keys = _distinct_tags("ratio_a", angles, "angles")
    p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    blocks = []
    for a in angles:
        c, s = math.cos(a), math.sin(a)
        blocks.append(direct_sum([p, -np.array([[c**2, s * c], [s * c, s**2]], dtype=complex)]))
    trace_map = partial_trace_first(2, 2)
    orbits = _run(*(_image_orbit(trace_map, block) for block in blocks))
    lam2_abs = _eig_desc(np.array([o.arg for o in orbits]))[:, -1]
    lam2_image = singular_values(np.array([o.image for o in orbits]))[:, -1]
    ratios = [float(x) for x in lam2_abs / lam2_image]
    computed = dict(zip(keys, ratios))
    expected = {key: math.tan(a / 2.0) for key, a in zip(keys, angles)}
    # The ratio falls as the angle falls: compared in descending angle order.
    by_angle = [ratio for _, ratio in sorted(zip(angles, ratios), reverse=True)]
    decreasing = all(r1 > r2 for r1, r2 in zip(by_angle, by_angle[1:]))
    computed["monotone_decreasing"] = 1.0 if decreasing else 0.0
    expected["monotone_decreasing"] = 1.0
    return ReproResult(
        example_id="no-single-unitary",
        computed=computed,
        expected=expected,
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
    return PositiveMapRep((k1, k2), label="quarter-sharpness")


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
    (o,) = _run(_image_orbit(pmap, h))
    image_abs, abs_image = o.lhs, o.arg
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
    return ReproResult(
        example_id="psi-quarter",
        computed=computed,
        expected=expected,
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


def _det_excess(real_a, real_abs) -> tuple:
    """``|det Re a|``, ``det Re|a|`` and their difference, which is at most 0 for normal ``a``."""
    dets = np.linalg.det(np.stack([real_a, real_abs]))
    det_lhs, det_rhs = float(abs(dets[0])), float(dets[1].real)
    return det_lhs, det_rhs, det_lhs - det_rhs


def _real_part_margin(a) -> float:
    """``|det Re a| - det Re|a|``: by how much ``a`` breaks the normal-matrix bound."""
    return _det_excess(conj_real_part(a), conj_real_part(mat_abs(a)))[2]


def search_nonnormal_counterexample(seed, trials: int) -> ReproResult:
    """Random search for a nonnormal 2x2 matrix breaking the determinant bound.

    The determinant comparison that holds for every normal matrix can fail
    off the normal cone; the first random matrix whose margin exceeds
    ``PSD_TOL`` is reported. An exhausted budget is reported, not raised.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for index in range(trials):
        candidate = _complex_gaussian(rng, 1, 2, 2)[0]
        real_parts = conj_real_part(candidate), conj_real_part(mat_abs(candidate))
        det_lhs, det_rhs, margin = _det_excess(*real_parts)
        if margin > PSD_TOL:
            return ReproResult(
                example_id="nonnormal-det",
                computed={
                    "found": 1.0,
                    "trial_index": float(index),
                    "margin": margin,
                    "det_real_part": det_lhs,
                    "det_abs_real_part": det_rhs,
                },
                expected={"found": 1.0},
                tol=0.5,
                notes={"margin": "violation of the normal-matrix determinant bound"},
                matrices={"matrix": candidate},
            )
    return ReproResult(
        example_id="nonnormal-det",
        computed={"found": 0.0, "trials": float(trials)},
        expected={"found": 1.0},
        tol=0.5,
        notes={"outcome": "no violation found within the trial budget"},
    )


def minimal_orbit_constant(pmap: PositiveMapRep, nmat, beta: float) -> float:
    """Smallest c with ``|map(n)| <= beta map(|n|) + c v map(|n|) v*`` for the polar witness.

    With ``a = map(|n|)``, ``b = v a v*``, ``hi = 1/(2 beta)`` (twice the guaranteed
    constant) and ``s0``, ``d = s0 + hi b`` the slacks at 0 and ``hi`` shifted by the
    verdict floor, the slack at ``c = t hi`` is ``(1 - t) s0 + t d``. ``d`` is positive
    definite when the guaranteed constant holds, and the value is ``hi nu / (1 + nu)``
    for the top eigenvalue ``nu > 0`` of the pencil ``(-s0, d)``, else 0: nothing cancels.
    """
    _check_weights([beta])
    nmat = as_matrix(nmat, square=True, name="nmat")
    _check_fit(pmap, nmat, "nmat")
    if not is_normal(nmat):
        raise ValueError("nmat must be normal")
    # _image_orbit's pair, built directly: the staging engine costs more than it pools here.
    o = _orbit(*apply(pmap, np.stack([nmat, mat_abs(nmat)])))
    floor = -_threshold(CONSTRUCTION_TOL, spectral_norm(o.arg))
    hi = 1.0 / (2.0 * beta)
    s0 = beta * o.arg - o.lhs - floor * np.eye(len(o.arg))
    try:
        nu = scipy.linalg.eigh(-s0, s0 + hi * o.orbit, eigvals_only=True)[-1]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("guaranteed constant infeasible; this indicates a bug") from exc
    return 0.0 if nu <= 0.0 else float(hi * nu / (1.0 + nu))


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
    _check_weights(betas)
    if any(b > 0.5 + CONSTRUCTION_TOL for b in betas):
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
    """The sizes and settings of one sweep trial, and the instances drawn for it.

    Each instance field is named for the statements that read it; the normal
    matrices, Gaussian matrices and contractions are ``n x n`` unless noted.
    """

    n: int
    m: int
    betas: tuple
    tol: float
    inject_mutant: bool
    pmap: PositiveMapRep  # the sweep map, n -> m
    unital: PositiveMapRep  # two-positive-quarter's unital map, n -> m
    main: np.ndarray  # normal: main-*, block-psd and eigen-*
    real: np.ndarray  # normal: realpart-*
    summands: np.ndarray  # 3 normals: sum-normals-*
    schur_pair: np.ndarray  # 2 normals: schur-normal
    block: np.ndarray  # normal, 2n x 2n: ptrace-geom
    russo_z: np.ndarray  # contraction: contraction-*
    schur_z: np.ndarray  # contraction: schur-diagonal
    quarter_z: np.ndarray  # contraction: two-positive-quarter
    zs: np.ndarray  # 3 contractions, m x m: weighted-sum-*
    xs: np.ndarray  # 3 Gaussian matrices, m x n: weighted-sum-*
    x: np.ndarray  # Gaussian matrix: hermitian-sum-geom and schur-square-geom
    psd: np.ndarray  # PSD matrix: schur-diagonal


def _draw(
    master_seed: int, trial_index: int, n: int, m: int, betas, tol: float, inject_mutant: bool,
) -> _Trial:
    """One trial, every instance drawn up front from one generator seeded ``[seed, index]``.

    The order is fixed: the two maps, 8 normal matrices (7 of size n, then one
    of size 2n), 6 contractions (3 of size n, then 3 of size m), 4 Gaussian
    matrices (3 of shape m x n, then one of size n) and a PSD matrix. The
    unitaries of one size come from one stacked QR, and the contractions of
    one size are scaled by one stacked spectral norm.
    """
    rng = np.random.default_rng([master_seed, trial_index])
    pmaps = random_cp_map(rng, n, m), random_unital_cp_map(rng, n, m)
    normals, block = _normals(rng, 7, n), _normals(rng, 1, 2 * n)[0]
    g_n, g_m = _complex_gaussian(rng, 3, n, n), _complex_gaussian(rng, 3, m, m)
    # One SVD call when the sizes agree; each member's bits are the same either way.
    z_n, z_m = _contractions(np.stack([g_n, g_m])) if n == m else map(_contractions, (g_n, g_m))
    xs, x, psd = _complex_gaussian(rng, 3, m, n), random_matrix(rng, n), random_psd(rng, n)
    return _Trial(
        n, m, tuple(betas), tol, inject_mutant, *pmaps,
        normals[0], normals[1], normals[2:5], normals[5:7], block, *z_n, z_m, xs, x, psd,
    )


# The sweep's statements in run order, which fixes the order of a report's
# failures. Each row is (task, keys): task(trial) returns one outcome per
# key, and each run of keys ending in "@" repeats once per weight, as in
# main-arith@beta=0.25, main-geom@beta=0.25, main-chain@beta=0.25,
# main-arith@beta=0.5, ... The tasks of a trial run together.
_STATEMENTS = (
    (
        lambda t: _orbit_statements(t.pmap, t.main, t.betas, t.tol, -1.0 if t.inject_mutant else 1.0),
        (
            "main-arith@", "main-geom@", "main-chain@",
            "block-psd", "eigen-logmaj", "eigen-pairs",
            "eigen-shift@",
        ),
    ),
    (
        lambda t: _real_part(t.real, t.tol),
        ("realpart-construction-logmaj", "realpart-direct-logmaj", "realpart-det"),
    ),
    (lambda t: _partial_trace(t.block, 2, t.n, t.tol), ("ptrace-geom",)),
    (lambda t: _sum_of_normals(t.summands, t.tol), ("sum-normals-geom", "sum-normals-arith")),
    (
        lambda t: _russo_dye(t.pmap, t.russo_z, t.tol),
        ("contraction-arith", "contraction-geom", "contraction-logmaj"),
    ),
    (
        lambda t: _weighted_sum(list(t.xs), list(t.zs), t.tol),
        ("weighted-sum-logmaj", "weighted-sum-block"),
    ),
    (lambda t: _schur_diagonal(t.psd, t.schur_z, t.tol), ("schur-diagonal",)),
    (lambda t: _schur_normal(*t.schur_pair, t.tol), ("schur-normal",)),
    (
        lambda t: _symmetrized(t.pmap, t.x, t.tol),
        ("hermitian-sum-geom", "schur-square-geom"),
    ),
    (lambda t: _two_positive_unital(t.unital, t.quarter_z, t.tol), ("two-positive-quarter",)),
)


def _distinct_tags(name: str, values, what: str) -> list:
    """The tags ``name=value`` under ``%g``; a ValueError naming ``what`` if two print alike."""
    tags = [f"{name}={value:g}" for value in values]
    if len(set(tags)) < len(tags):
        raise ValueError(f"{what} that print alike share report keys: {', '.join(tags)}")
    return tags


def _weight_tags(betas: Sequence[float]) -> list:
    """The weight parts of per-weight statement keys; a ValueError for a bad weight or a shared key."""
    _check_weights(betas)
    return _distinct_tags("beta", betas, "weights")


def _expand(keys: tuple, tags: list) -> list:
    """The report keys of one table row, in run order."""
    out = []
    for per_weight, run in itertools.groupby(keys, key=lambda key: key.endswith("@")):
        run = list(run)
        out += [key + tag for tag in tags for key in run] if per_weight else run
    return out


def run_trial(
    master_seed: int, trial_index: int, n: int, m: int, betas: Sequence[float],
    tol: float = DEFAULT_TOL, *, inject_mutant: bool = False,
) -> dict:
    """All statement checks for one trial; instances derive from (seed, index).

    Returns a mapping from statement keys to outcome objects exposing
    ``passed`` and ``min_slack``; weight-dependent statements carry the weight
    in their key. ``inject_mutant`` negates the orbit term on the right-hand
    side of the arithmetic bound, a fault the sweep must report. Weights that
    print alike under ``%g`` would share keys and are refused with a ValueError.
    """
    tags = _weight_tags(betas)
    trial = _draw(master_seed, trial_index, n, m, betas, tol, inject_mutant)
    results = _run(*(task(trial) for task, _ in _STATEMENTS))
    out: dict = {}
    for (_, keys), outcomes in zip(_STATEMENTS, results):
        out.update(zip(_expand(keys, tags), outcomes, strict=True))
    return out


def trial_statements(betas: Sequence[float]) -> list:
    """Statement keys run_trial produces for a given weight list, in run order.

    Raises ValueError, as run_trial does, if two weights share a key.
    """
    tags = _weight_tags(betas)
    return [key for _, keys in _STATEMENTS for key in _expand(keys, tags)]
