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

from .core import (
    CONSTRUCTION_TOL,
    PSD_TOL,
    MajorizationReport,
    _CHECK_TOL,
    _adjoint,
    _as_stack,
    _check_index,
    _check_nonempty,
    _check_same_shape,
    _check_size,
    _check_tol,
    _complex_gaussian,
    _contractions,
    _gaussian_from,
    _gaussian_shapes,
    _hermitian,
    _hermitian_verdict,
    _hermitian_within,
    _is_psd,
    _item,
    _log_majorizations,
    _normal_shapes,
    _normals_from,
    _psd_from,
    _refuse,
    _rng,
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
    singular_values,
    spectral_norm,
)
from .maps import (
    PositiveMapRep,
    _Unit,
    _apply_stack,
    _calls,
    _check_fit,
    _check_unit_bytes,
    _cp_maps,
    _cp_shape,
    _kraus_stack,
    _unital,
    apply,
    corner_block_map,
    is_unital,
    partial_trace_first,
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
    least ``-tol * max(1, ||rhs||)``. A comparison of diagonal matrices
    (``eigen-pairs``, ``eigen-shift``, ``realpart-det``) keeps its sides as
    the real vectors of their diagonals, so ``det_check.lhs[0]`` is
    ``|det Re a|``.
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
    def min_slack(self):
        """The least slack: a float, or one per member of a decided stack."""
        return _item(self.slack_spectrum.min(axis=-1)) if self.slack_spectrum.size else 0.0


class EigenCorollaryReports(NamedTuple):
    """Eigenvalue-level consequences in key order: log-majorization, pair bounds, shifted bounds."""

    log_majorization: MajorizationReport
    pair_bounds: Certificate
    shifted_bounds: Certificate


class RealPartReport(NamedTuple):
    """Entrywise-real-part comparison for a normal matrix in key order: two routes, then the determinants.

    ``det_check.lhs[0]`` is ``|det Re a|`` and ``det_check.rhs[0]`` is ``det Re|a|``.
    """

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
# Staged evaluation (see ``staging``). Each statement is a task on a stack of
# ``k`` instances, a sweep batch or a checker's one: it asks for each primitive
# once, on a stack, and lists its claims for ``_decide``, the one step that
# decides them; ``_run`` drives tasks together, so a sweep batch makes one call
# per stage and matrix shape. A decided claim is a certificate or report whose
# array fields carry the member axis, ``passed`` and ``min_slack`` included.
# The sweep's table rows and the public checkers run the same tasks: a checker
# runs its row's task on a stack of one (``_alone``). A task does only
# mathematics: a checker refuses inputs that lack a hypothesis as they enter
# (``_entry``, ``_require``), and the sweep draws inputs that hold them.
# ---------------------------------------------------------------------------


def _run(*tasks) -> list:
    """Run statement tasks together; returns their results."""
    # The primitives the tasks ask for, in the order their asks are served.
    stages = (
        "mat_abs",
        "apply",
        "_apply_members",
        "_orbit",
        "singular_values",
        "_eig_desc",
        "_det_sides",
        "geometric_mean",
        "_hermitian_verdict",
        "_log_majorizations",
    )
    return run_staged(stages, tasks)


def _first(outcome):
    """Member 0 of a decided stack, as the certificate or report of its one inequality."""
    values = {name: value[0] if isinstance(value, np.ndarray) else value for name, value in vars(outcome).items()}
    return type(outcome)(**{**values, "passed": bool(values["passed"])})


def _alone(outcomes) -> list:
    """The outcomes of a task run on a stack of one, as its member's own; one listed twice stays one object."""
    firsts = {id(o): _first(o) for o in outcomes}
    return [firsts[id(o)] for o in outcomes]


@dataclass(frozen=True, eq=False)
class _MapBatch:
    """A batch's drawn maps as one Kraus stack ``(maps, terms, n, m)``.

    Asks carry it as an argument like any other, by identity, so the engine
    neither copies nor joins it, and asks on its maps share a call.
    """

    ops: np.ndarray


class _Drawn(NamedTuple):
    """Drawn maps for a stack: member ``i`` takes map ``index[i]`` of ``batch``."""

    batch: _MapBatch
    index: np.ndarray


def _apply_members(batch: _MapBatch, index, x) -> np.ndarray:
    """The image of each ``x[i]`` under map ``index[i]`` of ``batch``: one ``_apply_stack`` call."""
    return _apply_stack(batch.ops, x[:, None], index)[:, 0]


def _applied(pmap: PositiveMapRep | _Drawn, x):
    """Task: the images ``(k, r, m, m)`` of the ``(k, r, n, n)`` stack ``x`` under ``pmap``.

    A map serves every member, through ``maps.apply``; ``_Drawn`` maps are each
    member's own. The ask is one flat stack of matrices, so rows share a call.
    """
    k, r, n, _ = x.shape
    flat = x.reshape(k * r, n, n)
    if isinstance(pmap, PositiveMapRep):
        ask = Ask(apply, (pmap, flat))
    else:
        ask = Ask(_apply_members, (pmap.batch, np.repeat(pmap.index, r), flat))
    (images,) = yield [ask]
    return images.reshape((k, r) + images.shape[1:])


def _entry(x, name: str, pmap: Optional[PositiveMapRep] = None, check=None, what: str = "") -> np.ndarray:
    """``x`` as a finite square matrix, refused by ``name`` unless it fits ``pmap`` and ``check`` holds (is ``what``)."""
    x = as_matrix(x, square=True, name=name)
    if pmap is not None:
        _check_fit(pmap.kraus_ops, x, name)
    if check is not None:
        _refuse(check(x), name, what)
    return x


def _require(check, mats, names, what: str) -> None:
    """Refuse the first of ``mats`` that fails ``check``, by name, from one stacked call."""
    for ok, name in zip(check(np.array(mats)), names):
        _refuse(ok, name, what)


class _Claim(NamedTuple):
    """Certificates ``lhs <= rhs`` of a stack before their verdicts: of matrices, or of vectors as diagonals."""

    statement_id: str
    lhs: np.ndarray
    rhs: np.ndarray
    witness: Optional[np.ndarray] = None
    beta: Optional[float] = None


class _LogMaj(NamedTuple):
    """Singular values weakly log-majorized by a spectrum, for each member of a stack, before the verdicts."""

    singular: np.ndarray
    spectrum: np.ndarray


def _decide(claims, tol: float):
    """Task: the outcome of each of ``claims``, in order; a claim listed twice is decided once.

    A ``_Claim`` of vectors is decided by ``_diagonal_certificate`` before any ask, so a
    side that is not finite is refused first; a ``_LogMaj`` against its spectrum clipped at 0.
    Each claim is one ask on its whole stack.
    """
    unique = list({id(c): c for c in claims}.values())
    diagonal = [c for c in unique if isinstance(c, _Claim) and c.lhs.ndim == 2]
    decided = {id(c): _diagonal_certificate(*c[:3], beta=c.beta, tol=tol) for c in diagonal}
    staged = [c for c in unique if id(c) not in decided]
    answers = yield [
        Ask(_log_majorizations, (c.singular, np.maximum(c.spectrum, 0.0), tol)) if isinstance(c, _LogMaj)
        else Ask(_hermitian_verdict, (c.lhs, c.rhs, tol))
        for c in staged
    ]
    for c, a in zip(staged, answers):
        decided[id(c)] = MajorizationReport(*a[:5], tol, *a[5:]) if isinstance(c, _LogMaj) else Certificate(
            c.statement_id, a.lhs, a.rhs, a.slack_spectrum, a.passed, tol, c.witness, c.beta
        )
    return [decided[id(c)] for c in claims]


class _Orbit(NamedTuple):
    """An image ``y`` and its comparison argument ``a``, with the polar data of ``y``.

    ``arg`` is ``a``, the Hermitian part of what ``_orbit`` is given; ``lhs`` is
    ``|y|``, ``witness`` is the unitary ``v`` with ``y = v* |y|`` (the adjoint of
    the polar unitary factor, the identity for ``y = 0``) and ``orbit`` is ``v a v*``.
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


def _image_orbit(pmap: PositiveMapRep | _Drawn, blocks):
    """Task: the orbit pairs ``(map(x), map(|x|))`` of ``x = b_1 (+) b_2 (+) ...``, each member's.

    ``blocks`` is a ``(k, count, n, n)`` stack. ``|x|`` is taken block by block,
    ``|b_1 (+) b_2| = |b_1| (+) |b_2|``, so a direct sum costs no decomposition
    of its own size.
    """
    (abs_blocks,) = yield [Ask(mat_abs, (blocks.reshape((-1,) + blocks.shape[2:]),))]
    # Each member's (x, |x|), (k, 2, N, N): the direct sum of its (b_i, |b_i|) pairs.
    sums = direct_sum(list(np.stack([blocks, abs_blocks.reshape(blocks.shape)], axis=2).swapaxes(0, 1)))
    images = yield from _applied(pmap, sums)
    (o,) = yield [Ask(_orbit, (images[:, 0], images[:, 1]))]
    return o


def _mean(o: _Orbit) -> Ask:
    return Ask(geometric_mean, (o.arg, o.orbit))


def _arith(statement_id, o: _Orbit, beta: float, sign: float = 1.0) -> _Claim:
    """The arithmetic bound ``beta arg + sign orbit/(4 beta)``.

    ``sign = -1`` negates the orbit term: the fault the sweep injects on request.
    """
    rhs = beta * o.arg + sign * o.orbit / (4.0 * beta)
    return _Claim(statement_id, o.lhs, rhs, o.witness, beta)


def _geom(statement_id, o: _Orbit, mean: np.ndarray) -> _Claim:
    """The geometric-mean bound ``arg # orbit``, which has no weight."""
    return _Claim(statement_id, o.lhs, mean, o.witness)


def _chain(geom, arith) -> _Claim:
    return _Claim("main-chain", geom.rhs, arith.rhs, beta=arith.beta)


def _diagonal_certificate(statement_id, lhs, rhs, *, beta=None, tol=DEFAULT_TOL) -> Certificate:
    """``diag(lhs) <= diag(rhs)`` for real vectors, or per member of two stacks of them, without a decomposition.

    The slack spectrum of two diagonal matrices is the entrywise difference
    sorted in descending order, and ``||diag(rhs)||`` is ``max |rhs|``, so the
    verdict is the ``core.loewner_leq`` rule on the diagonal matrices. The
    certificate keeps the two vectors as its sides. A side of any member that
    is not finite, or a difference that overflows, is refused with a ValueError.
    """
    slack = np.sort(rhs - lhs, axis=-1)[..., ::-1]
    _refuse(np.isfinite(slack).all(), f"the sides of {statement_id}", "finite")
    passed = _item(slack[..., -1] >= -_threshold(tol, np.abs(rhs).max(axis=-1)))
    return Certificate(statement_id, lhs, rhs, slack, passed, tol, beta=beta)


def _orbit_statements(
    pmap: PositiveMapRep | _Drawn, nmat, betas: Sequence[float], tol: float, sign: float = 1.0
):
    """Task: every statement on the orbit pairs ``(map(n), map(|n|))`` of a ``(k, n, n)`` stack of normals.

    The outcomes come in key order: main-arith, main-geom and main-chain for
    each weight; then block-psd, eigen-logmaj and eigen-pairs; then
    eigen-shift for each weight. ``main-geom`` has no weight and records
    none. ``sign = -1`` negates the orbit term of the arithmetic bound: the
    fault the sweep injects on request.
    """
    o = yield from _image_orbit(pmap, nmat[:, None])
    mean, singular, spectrum, *shifted = yield [
        _mean(o),
        Ask(singular_values, (o.image,)),
        Ask(_eig_desc, (o.arg,)),
        *(Ask(_eig_desc, (o.lhs - beta * o.arg,)) for beta in betas),
    ]
    geom = _geom("main-geom", o, mean)
    ariths = [_arith("main-arith", o, beta, sign) for beta in betas]
    # A Kraus map commutes with the adjoint: map(n*) = map(n)*.
    block = np.block([[o.arg, o.image], [_adjoint(o.image), o.arg]])
    # The pairs (j, i), 0-based, with j + i < m, in row-major order.
    m = singular.shape[-1]
    j, i = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) < m)
    t_clip = np.maximum(spectrum, 0.0)
    claims = [
        *(claim for arith in ariths for claim in (arith, geom, _chain(geom, arith))),
        _Claim("block-psd", np.zeros_like(block), block),
        _LogMaj(singular, spectrum),
        _Claim("eigen-pairs", singular[:, j + i], np.sqrt(t_clip[:, j] * t_clip[:, i])),
        *(_Claim("eigen-shift", 4.0 * beta * s, spectrum, beta=beta) for s, beta in zip(shifted, betas)),
    ]
    return (yield from _decide(claims, tol))


def check_theorem_main(pmap: PositiveMapRep, nmat, beta: float, tol: float = DEFAULT_TOL):
    """Both orbit bounds for a normal matrix under a positive map at weight ``beta``.

    Returns the arithmetic certificate
    ``|map(n)| <= beta map(|n|) + (1/(4 beta)) v map(|n|) v*`` and the
    geometric-mean refinement ``|map(n)| <= map(|n|) # v map(|n|) v*``,
    both with the polar witness ``v`` of ``map(n)``.
    """
    _check_tol(tol)
    _check_weights([beta])
    nmat = _entry(nmat, "nmat", pmap, is_normal, "normal")
    arith, geom = _alone(*_run(_orbit_statements(pmap, nmat[None], (beta,), tol)))[:2]
    return arith, replace(geom, beta=beta)


def chain_certificate(geom: Certificate, arith: Certificate, tol: float = DEFAULT_TOL) -> Certificate:
    """The geometric-mean bound never exceeds the arithmetic one (AM-GM chain)."""
    _check_tol(tol)
    claim = _chain(*(replace(c, rhs=c.rhs[None]) for c in (geom, arith)))
    return _alone(*_run(_decide([claim], tol)))[0]


def check_block_certificate(pmap: PositiveMapRep, nmat, tol: float = DEFAULT_TOL) -> Certificate:
    """The 2x2 block matrix [[map(|n|), map(n)], [map(n*), map(|n|)]] is PSD."""
    _check_tol(tol)
    nmat = _entry(nmat, "nmat", pmap, is_normal, "normal")
    return _alone(*_run(_orbit_statements(pmap, nmat[None], (), tol)))[0]


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
    _check_tol(tol)
    _check_weights([beta])
    nmat = _entry(nmat, "nmat", pmap, is_normal, "normal")
    return EigenCorollaryReports(*_alone(*_run(_orbit_statements(pmap, nmat[None], (beta,), tol)))[4:])


def _real_part(averager: PositiveMapRep, a, tol: float):
    (abs_a,) = yield [Ask(mat_abs, (a,))]
    # |a (+) conj(a)| = |a| (+) |conj(a)|, and |conj(a)| = conj(|a|).
    pair = np.stack([a, abs_a], axis=1)
    images = yield from _applied(averager, direct_sum([pair, np.conj(pair)]))
    real_a = conj_real_part(a)
    real_abs = conj_real_part(abs_a)
    s_image, t_image, s_real, t_real, det_sides = yield [
        Ask(singular_values, (images[:, 0],)),
        Ask(_eig_desc, (images[:, 1],)),
        Ask(singular_values, (real_a,)),
        Ask(_eig_desc, (real_abs,)),
        Ask(_det_sides, (real_a, real_abs)),
    ]
    det = _Claim("realpart-det", det_sides[:, :1], det_sides[:, 1:])
    return (yield from _decide([_LogMaj(s_image, t_image), _LogMaj(s_real, t_real), det], tol))


def check_real_part(a, tol: float = DEFAULT_TOL) -> RealPartReport:
    """Entrywise real part of a normal matrix against the real part of its absolute value.

    Route one runs the block construction: the direct sum with the conjugate
    matrix, averaged over the diagonal blocks. Route two compares singular
    values of the real part with the eigenvalues of the (PSD) real part of
    the absolute value directly. ``det_check`` certifies ``|det Re a| <=
    det Re|a|``, the single entries of its two sides; the real part of a PSD
    matrix is again PSD, so the right-hand determinant is nonnegative.
    """
    _check_tol(tol)
    a = _entry(a, "a", check=is_normal, what="normal")
    return RealPartReport(*_alone(*_run(_real_part(corner_block_map(a.shape[0]), a[None], tol))))


def _partial_trace(trace: PositiveMapRep, nmat, tol: float):
    o = yield from _image_orbit(trace, nmat[:, None])
    (mean,) = yield [_mean(o)]
    return (yield from _decide([_geom("ptrace-geom", o, mean)], tol))


def check_partial_trace(nmat, d: int, n: int, tol: float = DEFAULT_TOL) -> Certificate:
    """Geometric-mean orbit bound for the partial trace of a normal block matrix."""
    _check_tol(tol)
    trace = partial_trace_first(d, n)
    return _alone(*_run(_partial_trace(trace, _entry(nmat, "nmat", trace, is_normal, "normal")[None], tol)))[0]


def _sum_of_normals(trace: PositiveMapRep, mats, tol: float):
    o = yield from _image_orbit(trace, mats)
    (mean,) = yield [_mean(o)]
    claims = [_geom("sum-normals-geom", o, mean), _arith("sum-normals-arith", o, 0.5)]
    return (yield from _decide(claims, tol))


def check_sum_of_normals(mats: Sequence, tol: float = DEFAULT_TOL):
    """Orbit bounds for a sum of normal matrices, built through the partial trace.

    Returns the geometric-mean certificate and the weaker arithmetic one on
    ``sum |n_i|`` and its unitary conjugate.
    """
    _check_tol(tol)
    names = [f"mats[{i}]" for i in range(len(mats))]
    mats = [_entry(m, name) for m, name in zip(mats, names)]
    _check_nonempty(mats, "mats")
    _check_same_shape(mats, names)
    _require(is_normal, mats, names, "normal")
    trace = partial_trace_first(len(mats), len(mats[0]))
    return tuple(_alone(*_run(_sum_of_normals(trace, np.array(mats)[None], tol))))


def _russo_dye(pmap: PositiveMapRep | _Drawn, z, tol: float):
    identity = np.broadcast_to(np.eye(z.shape[-1], dtype=complex), z.shape)
    images = yield from _applied(pmap, np.stack([identity, z], axis=1))
    image_id, image = images[:, 0], images[:, 1]
    o, singular, spectrum = yield [
        Ask(_orbit, (image, image_id)),
        Ask(singular_values, (image,)),
        Ask(_eig_desc, (image_id,)),
    ]
    (mean,) = yield [_mean(o)]
    claims = [_arith("contraction-arith", o, 0.5), _geom("contraction-geom", o, mean)]
    return (yield from _decide([*claims, _LogMaj(singular, spectrum)], tol))


def check_russo_dye(pmap: PositiveMapRep, z, tol: float = DEFAULT_TOL) -> RussoDyeReports:
    """Norm-at-identity bounds for a contraction, bounded by the image of the identity.

    The statement runs through the unitary (Halmos) dilation of ``z``: the
    map composed with upper-left block extraction sends the dilation to
    ``map(z)``, factor by factor. So the image is computed as ``map(z)`` and
    the dilation is never formed; the dilation and the extraction are test
    oracles (``tests/_oracles.py``), and a test checks the identity on them.
    """
    _check_tol(tol)
    z = _entry(z, "z", pmap, is_contraction, "a contraction")
    return RussoDyeReports(*_alone(*_run(_russo_dye(pmap, z[None], tol))))


def _summed(terms) -> np.ndarray:
    """``terms[:, 0] + terms[:, 1] + ...``, added left to right as Python's ``sum`` adds a list of matrices."""
    return sum(terms.swapaxes(0, 1))


def _weighted_sum(xs, zs, tol: float):
    """Task: the weighted-sum statements of ``(k, count, m, n)`` factors and ``(k, count, m, m)`` contractions."""
    xs_adj = _adjoint(xs)
    weighted = _summed(xs_adj @ zs @ xs)
    gram = hermitian_part(_summed(xs_adj @ xs))
    rows = zs.shape[-1]
    singular, spectrum, abs_zs = yield [
        Ask(singular_values, (weighted,)),
        Ask(_eig_desc, (gram,)),
        Ask(mat_abs, (np.stack([zs, _adjoint(zs)], axis=2).reshape(-1, rows, rows),)),
    ]
    abs_zs = abs_zs.reshape(zs.shape[:2] + (2, rows, rows))
    upper_left = _summed(xs_adj @ abs_zs[:, :, 1] @ xs)
    lower_right = _summed(xs_adj @ abs_zs[:, :, 0] @ xs)
    block = np.block([[upper_left, weighted], [_adjoint(weighted), lower_right]])
    # Both sums have rank at most count * rows: past it both prefix products are exactly 0.
    rank = min(weighted.shape[-1], xs.shape[1] * rows)
    claims = [
        _LogMaj(singular[:, :rank], spectrum[:, :rank]),
        _Claim("weighted-sum-block", np.zeros_like(block), block),
    ]
    return (yield from _decide(claims, tol))


def check_weighted_sum(xs: Sequence, zs: Sequence, tol: float = DEFAULT_TOL):
    """Weighted sums of contractions against the Gram sum.

    For factors ``x_i`` (all of one rectangular shape) and contractions
    ``z_i`` acting on their row space, the singular values of
    ``sum x_i* z_i x_i`` are weakly log-majorized by the eigenvalues of
    ``sum x_i* x_i``; the associated 2x2 block matrix is PSD, which carries
    the factorization through a contraction.
    """
    _check_tol(tol)
    if len(xs) != len(zs):
        raise ValueError("xs and zs must have equal length")
    _check_nonempty(xs, "xs")
    xs = [as_matrix(x, name=f"xs[{i}]") for i, x in enumerate(xs)]
    _check_same_shape(xs, [f"xs[{i}]" for i in range(len(xs))])
    rows = xs[0].shape[0]
    names = [f"zs[{i}]" for i in range(len(zs))]
    zs = [_entry(z, name) for z, name in zip(zs, names)]
    if any(z.shape != (rows, rows) for z in zs):
        raise ValueError("each z must act on the row space of the xs")
    _require(is_contraction, zs, names, "a contraction")
    return tuple(_alone(*_run(_weighted_sum(np.array(xs)[None], np.array(zs)[None], tol))))


def _schur_diagonal(a, z, tol: float):
    (o,) = yield [Ask(_orbit, (a * z, a * np.eye(a.shape[-1], dtype=complex)))]
    return (yield from _decide([_arith("schur-diagonal", o, 0.5)], tol))


def check_schur_diagonal(a, z, tol: float = DEFAULT_TOL) -> Certificate:
    """Entrywise product of a PSD matrix with a contraction against the diagonal part."""
    _check_tol(tol)
    a, z = _entry(a, "a"), _entry(z, "z")
    _check_same_shape((a, z), ("a", "z"))
    _refuse(_hermitian_within(a), "a", "Hermitian")
    w = _eig_desc(a)
    _refuse(_is_psd(w, np.abs(w).max()), "a", "positive semidefinite")
    _refuse(is_contraction(z), "z", "a contraction")
    return _alone(*_run(_schur_diagonal(a[None], z[None], tol)))[0]


def _schur_normal(a, b, tol: float):
    abs_a, abs_b = yield [Ask(mat_abs, (a,)), Ask(mat_abs, (b,))]
    (o,) = yield [Ask(_orbit, (a * b, abs_a * abs_b))]
    return (yield from _decide([_arith("schur-normal", o, 1.0)], tol))


def check_schur_normal(a, b, tol: float = DEFAULT_TOL) -> Certificate:
    """Entrywise product of two normal matrices with the sharp quarter constant.

    Certifies ``|a o b| <= |a| o |b| + (1/4) v (|a| o |b|) v*`` with the polar
    witness ``v`` of ``a o b``. This is the orbit bound with weights (1, 1/4)
    for the compression of ``a (x) b`` to its paired diagonal indices, which
    is ``a o b``, using ``|a (x) b| = |a| (x) |b|``; no tensor is formed.
    """
    _check_tol(tol)
    a, b = _entry(a, "a"), _entry(b, "b")
    _check_same_shape((a, b), ("a", "b"))
    _require(is_normal, [a, b], ["a", "b"], "normal")
    return _alone(*_run(_schur_normal(a[None], b[None], tol)))[0]


def _symmetrized(pmap: PositiveMapRep | _Drawn, x, tol: float):
    """Task: the hermitian-sum-geom and schur-square-geom certificates, from ``|x|`` and ``|x*|``."""
    x_adj = _adjoint(x)
    abs_x, abs_x_adj = yield [Ask(mat_abs, (x,)), Ask(mat_abs, (x_adj,))]
    images = yield from _applied(
        pmap, np.stack([x + x_adj, abs_x + abs_x_adj, x * x_adj, abs_x * abs_x_adj], axis=1)
    )
    herm, square = yield [Ask(_orbit, (images[:, 0], images[:, 1])), Ask(_orbit, (images[:, 2], images[:, 3]))]
    herm_mean, square_mean = yield [_mean(herm), _mean(square)]
    claims = [_geom("hermitian-sum-geom", herm, herm_mean), _geom("schur-square-geom", square, square_mean)]
    return (yield from _decide(claims, tol))


def check_hermitian_sum(pmap: PositiveMapRep, x, tol: float = DEFAULT_TOL) -> Certificate:
    """Geometric-mean orbit bound for the image of ``x + x*``.

    ``x + x*`` is the block sum of the Hermitian carrier ``[[0, x], [x*, 0]]``,
    whose absolute value is ``|x*| (+) |x|``; the comparison argument is the
    image of its block sum, ``map(|x| + |x*|)``.
    """
    _check_tol(tol)
    return _alone(*_run(_symmetrized(pmap, _entry(x, "x", pmap)[None], tol)))[0]


def check_schur_square(pmap: PositiveMapRep, x, tol: float = DEFAULT_TOL) -> Certificate:
    """Geometric-mean orbit bound for the image of ``x o x*``.

    ``x o x* = x* o x`` is Hermitian. It is half the block sum of the paired
    diagonal compression of ``[[0, x*], [x, 0]] (x) [[0, x], [x*, 0]]``, and
    the absolute values of those carriers are ``|x| (+) |x*|`` and
    ``|x*| (+) |x|``, so the comparison argument is ``map(|x| o |x*|)``.
    """
    _check_tol(tol)
    return _alone(*_run(_symmetrized(pmap, _entry(x, "x", pmap)[None], tol)))[1]


def _two_positive_unital(pmap: PositiveMapRep | _Drawn, z, tol: float):
    o = yield from _image_orbit(pmap, z[:, None])
    rhs = np.eye(o.arg.shape[-1], dtype=complex) / 4.0 + o.arg
    return (yield from _decide([_Claim("two-positive-quarter", o.lhs, rhs)], tol))


def check_two_positive_unital(pmap: PositiveMapRep, z, tol: float = DEFAULT_TOL) -> Certificate:
    """For a unital map and a contraction: ``|map(z)| <= I/4 + map(|z|)``.

    No witness is needed; the statement requires unitality, so a non-unital
    map is rejected.
    """
    _check_tol(tol)
    z = _entry(z, "z", pmap, is_contraction, "a contraction")
    _refuse(is_unital(pmap), "pmap", "unital")
    return _alone(*_run(_two_positive_unital(pmap, z[None], tol)))[0]


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
    (o,) = _run(_image_orbit(schur_multiplier(a), r[None, None]))
    gap = _eig_desc(o.lhs - beta * o.arg)[0]
    orbit_spectrum = _eig_desc(o.arg)[0]
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
    _check_nonempty(angles, "angles")
    for a in angles:
        if not (0.0 < a <= math.pi / 2.0):
            raise ValueError("angles must lie in (0, pi/2]")
    keys = _distinct_tags("ratio_a", angles, "angles")
    p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    qs = []
    for a in angles:
        c, s = math.cos(a), math.sin(a)
        qs.append(np.array([[c**2, s * c], [s * c, s**2]], dtype=complex))
    trace_map = partial_trace_first(2, 2)
    (o,) = _run(_image_orbit(trace_map, np.stack([np.broadcast_to(p, (len(qs), 2, 2)), -np.array(qs)], axis=1)))
    lam2_abs = _eig_desc(o.arg)[:, -1]
    lam2_image = singular_values(o.image)[:, -1]
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
    return PositiveMapRep((k1, k2))


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
    (o,) = _run(_image_orbit(pmap, h[None, None]))
    image_abs, abs_image = o.lhs[0], o.arg[0]
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


def _det_sides(real_a, real_abs) -> np.ndarray:
    """``[|det Re a|, det Re|a|]``, along the last axis for a stack: realpart-det's sides, ``lhs <= rhs`` for normal ``a``.

    One ``det`` call for the stack; LAPACK factors each member alone.
    """
    dets = np.linalg.det(np.stack([real_a, real_abs], axis=-3))
    return np.stack([np.abs(dets[..., 0]), dets[..., 1].real], axis=-1)


def _real_part_margin(a) -> tuple:
    """``|det Re a|``, ``det Re|a|`` and the margin by which ``a`` breaks the normal-matrix bound ``lhs <= rhs``."""
    det_lhs, det_rhs = map(float, _det_sides(conj_real_part(a), conj_real_part(mat_abs(a))))
    return det_lhs, det_rhs, det_lhs - det_rhs


def search_nonnormal_counterexample(seed, trials: int) -> ReproResult:
    """Random search for a nonnormal 2x2 matrix breaking the determinant bound.

    The determinant comparison that holds for every normal matrix can fail
    off the normal cone; the first random matrix that fails the sweep's
    realpart-det rule at ``PSD_TOL`` is reported. An exhausted budget is
    reported, not raised. A seed that is not a nonnegative integer is refused
    before any draw.
    """
    _check_index(seed, "seed")
    _check_size(trials, "trials")
    rng = _rng(seed)
    for index in range(trials):
        candidate = _complex_gaussian(rng, 1, 2, 2)[0]
        det_lhs, det_rhs, margin = _real_part_margin(candidate)
        sides = np.array([det_lhs]), np.array([det_rhs])
        if not _diagonal_certificate("realpart-det", *sides, tol=PSD_TOL).passed:
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


def minimal_orbit_constant(pmap: PositiveMapRep | np.ndarray, nmat, beta: float):
    """Smallest c with ``|map(n)| <= beta map(|n|) + c v map(|n|) v*`` for the polar witness.

    With ``a = map(|n|)``, ``b = v a v*``, ``hi = 1/(2 beta)`` (twice the guaranteed
    constant) and ``s0``, ``d = s0 + hi b`` the slacks at 0 and ``hi`` shifted by the
    verdict floor, the slack at ``c = t hi`` is ``(1 - t) s0 + t d``. ``d`` is positive
    definite when the guaranteed constant holds, and the value is ``hi nu / (1 + nu)``
    for the top eigenvalue ``nu > 0`` of the pencil ``(-s0, d)``, else 0: nothing cancels.

    Takes a map and one matrix and returns a float, or a chunk, a ``(k, terms, n, m)``
    stack of ``k`` maps' Kraus factors and a ``(k, n, n)`` stack of matrices, and
    returns ``k`` constants; a pair is a chunk of one. A chunk's Kraus stack meets
    the rule of a map's own, 4-d (``maps._kraus_stack``), and is applied where it
    lies, with no copy.
    A chunk is solved in one stacked call per decomposition; fit, normality, the
    floor and the value are each member's own, and each constant has the bits of
    its pair solved alone.
    """
    _check_weights([beta])
    single = isinstance(pmap, PositiveMapRep)
    if single:
        ops, nmats = pmap.kraus_ops[None], as_matrix(nmat, square=True, name="nmat")[None]
    else:
        ops, nmats = _kraus_stack(pmap, 4, "pmap"), _as_stack(nmat, "nmat")
        if nmats.ndim != 3 or len(nmats) != len(ops):
            k = len(ops)
            raise ValueError(f"a chunk of {k} maps needs nmat of shape ({k}, n, n), got {nmats.shape}")
    _check_fit(ops, nmats, "nmat")
    _refuse(np.all(is_normal(nmats)), "nmat", "normal")
    # _image_orbit's pair of every member, built directly: the chunk is one stack already.
    images = _apply_stack(ops, np.stack([nmats, mat_abs(nmats)], axis=1))
    o = _orbit(images[:, 0], images[:, 1])
    floor = -_threshold(CONSTRUCTION_TOL, spectral_norm(o.arg))
    hi = 1.0 / (2.0 * beta)
    s0 = beta * o.arg - o.lhs - floor[:, None, None] * np.eye(o.arg.shape[-1])
    try:
        low = np.linalg.cholesky(s0 + hi * o.orbit)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("guaranteed constant infeasible; this indicates a bug") from exc
    # The pencil (-s0, d) reduced by d = L L*, as LAPACK's hegv does: L^-1 (-s0) L^-*.
    inv = np.linalg.inv(low)
    nu = np.linalg.eigvalsh(_hermitian(inv @ -s0 @ _adjoint(inv)))[:, -1]
    positive = np.maximum(nu, 0.0)  # keeps 1 + nu away from 0 in the branch np.where drops
    c = np.where(nu <= 0.0, 0.0, hi * positive / (1.0 + positive))
    return float(c[0]) if single else c


# A drawn pair of a search chunk holds three arrays the size of its Kraus factors
# (its draws and factors while the chunk is built, its factors and _apply_stack's
# products while it is solved; the peaks read 2.01 of them at 8 x 8 and
# 16 x 16, so the third is margin), six n x n (the normal's draws, Haar factor and
# modulus) and twelve m x m (the images, polar factors, orbit and pencil of the
# solve). A chunk is a few stacks, so a pair holds no Python objects of its own.
# The peaks tracemalloc measures for a whole chunk at 1 x 1, 3 x 3, 8 x 8,
# 16 x 16, 1 x 32 and 32 x 1 are 0.53-0.87 of it.
_SEARCH_PAIR = _Unit("search pair", 3, 6, 12)
# A sweep trial holds seven arrays the size of one map's Kraus factors (the sweep and
# unital maps, the draws and scaling of the unital one, and _apply_stack's products),
# 144 n x n and 88 m x m (the drawn instances, their images, absolute values, orbits
# and certificate sides) and 53248 bytes of Python objects: run alone, its generator,
# its rows' asks and 19 weight-free outcomes. Each weight adds 14 m x m (the sides of
# its main-arith, main-chain and eigen-shift claims and their stacked verdicts) and
# 3072 bytes of their outcomes, asks and keys: at four weights, 144 m x m and 65536
# bytes over 35 outcomes. The counts bound the single-trial peaks tracemalloc
# measures with 1 to 40 weights on shapes from 2 x 2 up to 27 x 27, 1 x 166 and
# 166 x 1 by 1.0-2.4x, but at 1 x 1 (and 4 x 4 with one weight) a trial alone peaks
# at up to 1.16x of it, 0.22 MB. A batch runs one task per table row on its stacks,
# so its asks and outcomes do not grow with its trials: its peak is 0.23-0.47 of its
# trials' records at n = m <= 4. A batch gets 1/32 of the budget: 12 to 24
# four-weight trials at n = m <= 4, and one trial from 12 x 12 up.
def _sweep_trial(weights: int) -> _Unit:
    """The record of one sweep trial at ``weights`` weights."""
    return _Unit("sweep trial", 7, 144, 88 + 14 * weights, 53248 + 3072 * weights, 32)


def _drawn(rngs, k: int, *shapes) -> list:
    """One stack per shape of ``shapes``: row ``i`` holds generator ``i``'s next standard normals of that shape.

    The first ``k`` generators of ``rngs`` each draw every shape in turn into
    their own rows, so a sweep batch fills its stacks as each generator would
    draw alone. Given one generator ``k`` times, as a search chunk gives its
    pool's, the rows read its stream in row order.
    """
    stacks = [np.empty((k,) + shape) for shape in shapes]
    for row, rng in enumerate(itertools.islice(rngs, k)):
        for stack in stacks:
            rng.standard_normal(out=stack[row])
    return stacks


def _search_pairs(rng: np.random.Generator, k: int, n: int, m: int):
    """The next ``k`` drawn pairs of a weight's pool, as ``(ops, nmats)``: a chunk of ``minimal_orbit_constant``.

    ``ops`` is the ``(k, n m, n, m)`` Kraus stack ``maps._cp_maps`` builds of the
    maps' draws, passed on as built, and ``nmats`` the ``(k, n, n)`` normals
    ``core._normals_from`` builds. The pool is one stream, its generator ``rng``:
    pair by pair, a map's standard normals and then its matrix's, so how the
    pool is split into chunks does not change which pairs it holds. What
    follows the draws runs once a chunk.
    """
    kraus, *normal = _drawn(itertools.repeat(rng), k, _cp_shape(n * m, n, m), *_normal_shapes(1, n))
    return _cp_maps(kraus), _normals_from([d[:, 0] for d in normal])


def estimate_constant(
    beta_grid: Sequence[float],
    seed=0,
    trials: int = 100,
    n: int = 2,
    m: int = 2,
):
    """Empirical best constants at small weights; exploratory data, no pass/fail.

    For each weight the pool holds the 2x2 sharpness-family instance (which
    attains the guaranteed constant with the polar witness) plus ``trials``
    random map/matrix pairs, drawn in order from one generator seeded ``[seed,
    bi]`` for the weight at index ``bi``, and solved in as few even chunks as fit
    ``maps.MAX_KRAUS_BYTES``, one ``minimal_orbit_constant`` call a chunk; rows report
    the observed maximum against the guaranteed bound ``1/(4 beta)``. A seed
    that is not a nonnegative integer, and a shape whose one pair alone holds
    more than ``maps.MAX_KRAUS_BYTES``, are refused before any draw.
    """
    betas = [float(b) for b in beta_grid]
    _check_nonempty(betas, "beta_grid")
    _check_weights(betas)
    if any(b > 0.5 + CONSTRUCTION_TOL for b in betas):
        raise ValueError("beta grid must lie in (0, 1/2]")
    _check_index(seed, "seed")
    for value, name in ((trials, "trials"), (n, "n"), (m, "m")):
        _check_size(value, name)
    _check_unit_bytes(_SEARCH_PAIR, n, m)
    rows = []
    for bi, beta in enumerate(betas):
        a, r = sharpness_family(beta)
        best = minimal_orbit_constant(schur_multiplier(a), r, beta)
        rng = _rng([seed, bi])
        for ts in _calls(_SEARCH_PAIR, n, m, range(trials)):
            pairs = _search_pairs(rng, len(ts), n, m)
            best = max(best, float(minimal_orbit_constant(*pairs, beta).max()))
            del pairs  # freed before the next chunk is drawn, not after
        bound = 1.0 / (4.0 * beta)
        rows.append(
            {
                "beta": beta,
                "empirical_c": best,
                "bound": bound,
                "ratio": float(best / bound),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Sweep assembly: every statement on fresh seeded instances for a batch of trials.
# ---------------------------------------------------------------------------


class _Trials(NamedTuple):
    """The instances drawn for a batch of ``k`` sweep trials, as one record of stacks.

    Each field is named for the statements that read it and holds one row per
    trial: the normal matrices, Gaussian matrices and contractions are
    ``n x n`` unless noted. The maps are the batch's drawn maps.
    """

    pmap: _Drawn  # the sweep maps, n -> m
    unital: _Drawn  # two-positive-quarter's unital maps, n -> m
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


def _draw(master_seed: int, indices: Sequence[int], n: int, m: int) -> _Trials:
    """A batch's instances, row ``j`` for trial ``indices[j]``, drawn as one record of stacks.

    Trial ``index`` draws every instance from its own generator seeded ``[seed,
    index]``, in a fixed order: the two maps, 8 normal matrices (7 of size n,
    then one of size 2n), 6 contractions (3 of size n, then 3 of size m), 4
    Gaussian matrices (3 of shape m x n, then one of size n) and a PSD matrix.
    Its standard normals go to its row of the batch's stacks, in the shapes the
    public generators draw (``_cp_shape``, ``_normal_shapes``,
    ``_gaussian_shapes``), and then each kind is built once a batch by those
    generators' builders: one QR per unitary size, one SVD per contraction
    size, one ``_apply_stack`` and one ``eigh`` for the unital maps. The two
    maps are drawn and built in turn through one stack of draws. Each trial has
    the bits of the public generators drawing from its generator in that order.
    """
    k, terms = len(indices), n * m
    rngs = [_rng([master_seed, i]) for i in indices]

    def gaussians(count: int, rows: int, cols: int) -> np.ndarray:
        return _gaussian_from(*_drawn(rngs, k, *_gaussian_shapes(count, rows, cols)))

    def normals(count: int, size: int) -> np.ndarray:
        stacks = _drawn(rngs, k, *_normal_shapes(count, size))  # (k, count, ...): built as k count members
        return _normals_from([d.reshape((k * count,) + d.shape[2:]) for d in stacks]).reshape(k, count, size, size)

    maps = np.empty((2, k, terms, n, m), dtype=complex)
    for built in maps:  # the sweep maps, then the unital maps' Gaussian bases
        (draws,) = _drawn(rngs, k, _cp_shape(terms, n, m))
        _cp_maps(draws, out=built)
        del draws  # freed before the next map is drawn
    maps[1] = _unital(maps[1])
    small, block = normals(7, n), normals(1, 2 * n)[:, 0]
    g_n, g_m, xs, x, g_psd = (gaussians(*shape) for shape in ((3, n, n), (3, m, m), (3, m, n), (1, n, n), (1, n, n)))
    # One SVD call when the sizes agree; each member's bits are the same either way.
    if n == m:
        z_n, z_m = np.split(_contractions(np.concatenate([g_n, g_m], axis=1)), 2, axis=1)
    else:
        z_n, z_m = _contractions(g_n), _contractions(g_m)
    batch, index = _MapBatch(maps.reshape(2 * k, terms, n, m)), np.arange(k)
    return _Trials(
        _Drawn(batch, index), _Drawn(batch, k + index), small[:, 0], small[:, 1], small[:, 2:5],
        small[:, 5:7], block, *z_n.swapaxes(0, 1), z_m, xs, x[:, 0], _psd_from(g_psd)[:, 0],
    )


class _Shared(NamedTuple):
    """What the rows of one batch share: its settings, and its structural maps built once.

    ``staging`` answers a batch's asks to one map in one call; the trials'
    drawn maps are rows of one ``_MapBatch``, and their asks share one call too.
    """

    betas: tuple
    tol: float
    sign: float  # -1 negates the orbit term of the arithmetic bound: the injected fault
    averager: PositiveMapRep  # the diagonal-block average: realpart-*
    trace2: PositiveMapRep  # the partial trace over 2 blocks: ptrace-geom
    trace3: PositiveMapRep  # the partial trace over 3 blocks: sum-normals-*


# The sweep's statements in run order, which fixes the order of a report's
# failures. Each row is (task, keys): task(trials, shared) runs on the batch's
# stacks and returns one decided stack per key, and each run of keys ending in
# "@" repeats once per weight, as in main-arith@beta=0.25, main-geom@beta=0.25,
# main-chain@beta=0.25, main-arith@beta=0.5, ... The rows run together.
_STATEMENTS = (
    (
        lambda t, s: _orbit_statements(t.pmap, t.main, s.betas, s.tol, s.sign),
        (
            "main-arith@", "main-geom@", "main-chain@",
            "block-psd", "eigen-logmaj", "eigen-pairs",
            "eigen-shift@",
        ),
    ),
    (
        lambda t, s: _real_part(s.averager, t.real, s.tol),
        ("realpart-construction-logmaj", "realpart-direct-logmaj", "realpart-det"),
    ),
    (lambda t, s: _partial_trace(s.trace2, t.block, s.tol), ("ptrace-geom",)),
    (lambda t, s: _sum_of_normals(s.trace3, t.summands, s.tol), ("sum-normals-geom", "sum-normals-arith")),
    (
        lambda t, s: _russo_dye(t.pmap, t.russo_z, s.tol),
        ("contraction-arith", "contraction-geom", "contraction-logmaj"),
    ),
    (lambda t, s: _weighted_sum(t.xs, t.zs, s.tol), ("weighted-sum-logmaj", "weighted-sum-block")),
    (lambda t, s: _schur_diagonal(t.psd, t.schur_z, s.tol), ("schur-diagonal",)),
    (lambda t, s: _schur_normal(t.schur_pair[:, 0], t.schur_pair[:, 1], s.tol), ("schur-normal",)),
    (
        lambda t, s: _symmetrized(t.pmap, t.x, s.tol),
        ("hermitian-sum-geom", "schur-square-geom"),
    ),
    (lambda t, s: _two_positive_unital(t.unital, t.quarter_z, s.tol), ("two-positive-quarter",)),
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
    master_seed: int, trial_index: int | Sequence[int], n: int, m: int, betas: Sequence[float],
    tol: float = DEFAULT_TOL, *, inject_mutant: bool = False,
) -> dict:
    """All statement checks for one trial, or for a batch of trials of one shape.

    Each trial's instances derive from ``(seed, index)``. Returns, for one index,
    a mapping from statement keys to outcome objects (certificates and reports)
    exposing ``passed`` and ``min_slack``; weight-dependent statements carry the
    weight in their key. For a sequence of indices it returns one mapping from
    each key to the batch's outcome, whose array fields carry the trial axis:
    ``passed`` and ``min_slack`` are arrays with one entry per index, in order.
    Each table row runs once on the batch's stacks, one call per stage and
    shape for all rows, and each entry has the bits of its trial run alone.
    ``inject_mutant`` negates the orbit term on the right-hand side of the
    arithmetic bound, a fault the sweep must report. A ``tol`` outside
    ``[0, inf)``, weights that print alike under ``%g`` (they would share keys),
    a shape whose one trial holds more than ``maps.MAX_KRAUS_BYTES``, and a seed
    or index that is not a nonnegative integer, are refused with a ValueError
    before any draw.
    """
    _check_tol(tol)
    single = np.ndim(trial_index) == 0
    tags = _weight_tags(betas)
    _check_unit_bytes(_sweep_trial(len(tags)), n, m)
    _check_index(master_seed, "master_seed")
    indices = [trial_index] if single else list(trial_index)
    for j, i in enumerate(indices):
        _check_index(i, "trial_index" if single else f"trial_index[{j}]")
    trials = _draw(master_seed, indices, n, m)
    s = _Shared(
        tuple(betas), tol, -1.0 if inject_mutant else 1.0,
        corner_block_map(n), partial_trace_first(2, n), partial_trace_first(3, n),
    )
    rows = _run(*(task(trials, s) for task, _ in _STATEMENTS))
    rows = [_alone(row) for row in rows] if single else rows
    return {
        key: outcome
        for (_, keys), row in zip(_STATEMENTS, rows)
        for key, outcome in zip(_expand(keys, tags), row, strict=True)
    }


def trial_statements(betas: Sequence[float]) -> list:
    """Statement keys run_trial produces for a given weight list, in run order.

    Raises ValueError, as run_trial does, if two weights share a key.
    """
    tags = _weight_tags(betas)
    return [key for _, keys in _STATEMENTS for key in _expand(keys, tags)]
