"""A broken ingredient of a statement is caught by the sweep.

Each row breaks one ingredient through a patch of a private helper of
``certify`` and pins the smallest configuration in which its target
statements are reported as failed: one sweep trial, the first of seed 1, or
instances that attain their bounds (the sharpness family, and equality cases
of the corollaries). The same configuration passes with the ingredient
intact, and every base key of the sweep's table is the target of some row.
A row whose set is empty pins that its configuration cannot see the fault.
A fault that changes nothing a statement asserts, another completion of the
polar witness, must move no verdict.
"""

import functools

import numpy as np
import pytest

from matineq import certify
from matineq.certify import (
    DEFAULT_TOL,
    check_hermitian_sum,
    check_partial_trace,
    check_russo_dye,
    check_schur_square,
    check_sum_of_normals,
    check_theorem_main,
    check_two_positive_unital,
    check_weighted_sum,
    quarter_sharpness_hermitian,
    quarter_sharpness_map,
    run_trial,
    sharpness_family,
    trial_statements,
)
from matineq.core import haar_unitary, random_normal
from matineq.maps import random_cp_map, schur_multiplier

from _oracles import identity_map


def _adjoint(v):
    return v.conj().swapaxes(-1, -2)


def _identity(o):
    return np.zeros_like(o.witness) + np.eye(o.witness.shape[-1])


def _haar(rng):
    """A witness that replaces ``V`` by a Haar unitary drawn from ``rng``, one per member."""
    return lambda o: np.array([haar_unitary(rng, len(v)) for v in o.witness])


def _broken_witness(broken):
    """``certify._orbit`` with the witness ``V`` of every pair replaced by ``broken(o)``.

    ``o`` is the pair's intact orbit data. The orbit term ``V A V*`` is
    recomputed from the replaced witness, so both sides the certificates read
    agree with it.
    """
    orbit = certify._orbit

    @functools.wraps(orbit)  # the engine finds the stage by __name__
    def patched(image, arg):
        o = orbit(image, arg)
        v = broken(o)
        term = v @ o.arg @ _adjoint(v)
        return o._replace(witness=v, orbit=(term + _adjoint(term)) / 2)

    return patched


# fault: (key that must fail, broken witness, seed, trials), in a (2, 3) sweep at weight 1/2.
_FAULTS = {
    # The identity in place of V makes the bound beta A + A/(4 beta), which is A at beta = 1/2.
    "witness-identity": ("main-arith@beta=0.5", _identity, 1, 1),
    "witness-adjoint": ("main-arith@beta=0.5", lambda o: _adjoint(o.witness), 1, 1),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_a_broken_witness_is_caught(monkeypatch, fault):
    key, broken, seed, trials = _FAULTS[fault]

    def target_passes():
        return [run_trial(seed, i, 2, 3, (0.5,))[key].passed for i in range(trials)]

    assert all(target_passes())
    monkeypatch.setattr(certify, "_orbit", _broken_witness(broken))
    assert not all(target_passes())


def _patch(name, broken):
    """``(name, patched)``: ``certify.<name>`` replaced by ``broken(<the intact helper>)``.

    The patch keeps the helper's ``__name__``, by which the engine finds its stage.
    """
    intact = getattr(certify, name)
    return name, functools.wraps(intact)(broken(intact))


def _scaled_orbit_term(factor):
    """``certify._arith`` with the orbit term of every arithmetic bound scaled by ``factor``."""
    return _patch("_arith", lambda arith: lambda sid, o, beta, sign=1.0: arith(sid, o, beta, factor * sign))


def _swapped_sides():
    """``certify._diagonal_certificate`` deciding ``rhs <= lhs`` in place of ``lhs <= rhs``."""
    return _patch("_diagonal_certificate", lambda diagonal: lambda sid, lhs, rhs, **kw: diagonal(sid, rhs, lhs, **kw))


def _shrunk_quarter():
    """``certify._decide`` with ``1e-3 I/4`` taken off the right-hand side of two-positive-quarter."""

    def shrink(claim):
        if getattr(claim, "statement_id", None) != "two-positive-quarter":
            return claim
        return claim._replace(rhs=claim.rhs - 1e-3 * np.eye(claim.rhs.shape[-1]) / 4.0)

    return _patch("_decide", lambda decide: lambda claims, tol: decide([shrink(c) for c in claims], tol))


def _sweep():
    return run_trial(1, 0, 2, 3, (0.5,))


def _equality():
    """Instances that attain the corollaries' bounds: every Loewner min slack is exactly 0.0."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    out = {}
    out["contraction-arith"], out["contraction-geom"], out["contraction-logmaj"] = check_russo_dye(identity_map(2), x)
    out["hermitian-sum-geom"] = check_hermitian_sum(identity_map(2), np.array([[0, 1], [0, 0]], dtype=complex))
    out["schur-square-geom"] = check_schur_square(identity_map(2), eye)
    out["ptrace-geom"] = check_partial_trace(np.eye(4, dtype=complex), 2, 2)
    out["sum-normals-geom"], out["sum-normals-arith"] = check_sum_of_normals([eye, eye])
    out["weighted-sum-logmaj"], out["weighted-sum-block"] = check_weighted_sum([eye], [x])
    out["two-positive-quarter"] = check_two_positive_unital(quarter_sharpness_map(), quarter_sharpness_hermitian())
    return out


def _sharpness():
    """Both orbit certificates of the sharpness family, whose min slacks are 0.0 at each weight."""
    out = {}
    for beta in (0.5, 1.0, 2.0):
        a, r = sharpness_family(beta)
        arith, geom = check_theorem_main(schur_multiplier(a), r, beta)
        out[f"main-arith@beta={beta:g}"], out[f"main-geom@beta={beta:g}"] = arith, geom
    return out


def _harmonic_mean():
    """``certify.geometric_mean`` replaced by the Hermitian part of the harmonic mean ``2 a (a + b)^-1 b``."""

    def harmonic(a, b):
        h = 2.0 * a @ np.linalg.solve(a + b, b)
        return (h + _adjoint(h)) / 2.0

    return _patch("geometric_mean", lambda geometric_mean: harmonic)


# fault: (patch, configuration, the keys that then fail and no others).
_BOUND_FAULTS = {
    # main-chain compares the geometric mean with the arithmetic bound, so it fails too.
    "orbit-term-dropped": (
        lambda: _scaled_orbit_term(0.0),
        _sweep,
        {
            "main-arith@beta=0.5", "main-chain@beta=0.5", "contraction-arith", "sum-normals-arith",
            "schur-diagonal", "schur-normal",
        },
    ),
    "witness-haar": (
        lambda: ("_orbit", _broken_witness(_haar(np.random.default_rng(11)))),
        _sweep,
        {"main-arith@beta=0.5", "main-geom@beta=0.5", "schur-diagonal", "sum-normals-arith", "sum-normals-geom"},
    ),
    "diagonal-sides-swapped": (_swapped_sides, _sweep, {"eigen-pairs", "eigen-shift@beta=0.5", "realpart-det"}),
    # 1/(4 beta) shrunk by a factor 1 - 1e-3: the min slack falls to -5e-4 at each weight.
    "constant-shrunk": (
        lambda: _scaled_orbit_term(1.0 - 1e-3),
        _sharpness,
        {"main-arith@beta=0.5", "main-arith@beta=1", "main-arith@beta=2"},
    ),
    # The contraction and sum-normals constants, 1/2 each, shrunk by the same factor.
    "half-constants-shrunk": (
        lambda: _scaled_orbit_term(1.0 - 1e-3),
        _equality,
        {"contraction-arith", "sum-normals-arith"},
    ),
    # The quarter shrunk by a factor 1 - 1e-3: only the sharpness pair attains it,
    # and the sweep's drawn unital maps stay clear of it.
    "quarter-shrunk": (_shrunk_quarter, _equality, {"two-positive-quarter"}),
    "quarter-shrunk-in-the-sweep": (_shrunk_quarter, _sweep, set()),
    # The harmonic mean in place of #: it lies below the geometric mean, so only a
    # pair on which # is attained sees it. The sharpness family at beta = 1 and 2
    # (min slacks -0.2 and -0.529); at beta = 1/2 both means are the same.
    "harmonic-mean": (_harmonic_mean, _sharpness, {"main-geom@beta=1", "main-geom@beta=2"}),
    "harmonic-mean-in-the-sweep": (_harmonic_mean, _sweep, set()),
    # The singular values weakly log-majorize the spectrum, in place of the converse.
    "logmaj-sides-swapped": (
        lambda: _patch("_log_majorizations", lambda logmaj: lambda a, b, tol: logmaj(b, a, tol)),
        _sweep,
        {
            "contraction-logmaj", "eigen-logmaj", "realpart-construction-logmaj", "realpart-direct-logmaj",
            "weighted-sum-logmaj",
        },
    ),
    # Phi(N) doubled, with its polar data kept: the statements that read the image itself.
    "image-doubled": (
        lambda: _patch("_orbit", lambda orbit: lambda image, arg: orbit(image, arg)._replace(image=2 * image)),
        _sweep,
        {"block-psd", "eigen-logmaj", "eigen-pairs"},
    ),
    # arg # orbit replaced by arg: main-chain compares that mean with the arithmetic bound.
    "geom-orbit-term-dropped": (
        lambda: _patch("_geom", lambda geom: lambda statement_id, o, mean: geom(statement_id, o, o.arg)),
        _sweep,
        {"main-chain@beta=0.5", "main-geom@beta=0.5", "sum-normals-geom"},
    ),
    # Every comparison argument, and so its orbit, shrunk by a factor 1 - 1e-3.
    "argument-shrunk": (
        lambda: _patch("_orbit", lambda orbit: lambda image, arg: orbit(image, (1.0 - 1e-3) * arg)),
        _equality,
        {
            "contraction-arith", "contraction-geom", "hermitian-sum-geom", "ptrace-geom", "schur-square-geom",
            "sum-normals-arith", "sum-normals-geom", "two-positive-quarter",
        },
    ),
    # Every |x| shrunk by a factor 1 - 1e-3.
    "abs-shrunk": (
        lambda: _patch("mat_abs", lambda mat_abs: lambda x: (1.0 - 1e-3) * mat_abs(x)),
        _equality,
        {
            "hermitian-sum-geom", "ptrace-geom", "schur-square-geom", "sum-normals-arith", "sum-normals-geom",
            "two-positive-quarter", "weighted-sum-block",
        },
    ),
}


@pytest.mark.parametrize("fault", sorted(_BOUND_FAULTS))
def test_a_broken_bound_is_caught(monkeypatch, fault):
    patch, configuration, keys = _BOUND_FAULTS[fault]
    assert all(o.passed for o in configuration().values())
    monkeypatch.setattr(certify, *patch())
    assert {key for key, o in configuration().items() if not o.passed} == keys


def test_every_table_key_has_a_caught_fault():
    targets = {key for key, *_ in _FAULTS.values()}
    targets |= {key for *_, keys in _BOUND_FAULTS.values() for key in keys}
    base = {key.split("@")[0] for key in trial_statements((0.5,))}
    assert len(base) == 23
    assert {key.split("@")[0] for key in targets} == base


def _completed_witness(rng, kernels):
    """``V`` replaced by ``(I - Q Q* + Q W Q*) V``, with ``Q`` spanning the kernel of ``|y|``.

    ``W`` is a Haar unitary drawn from ``rng``. Since ``Q* |y| = 0`` this is
    again a witness, ``y = V* |y|``; the kernel size of each member goes to ``kernels``.
    """

    def complete(o):
        out = []
        for lhs, v in zip(o.lhs, o.witness):
            w, vectors = np.linalg.eigh(lhs)
            q = vectors[:, w <= 1e-12 * max(1.0, w[-1])]
            kernels.append(q.shape[1])
            if q.shape[1]:
                v = (np.eye(len(v)) - q @ _adjoint(q) + q @ haar_unitary(rng, q.shape[1]) @ _adjoint(q)) @ v
            out.append(v)
        return np.array(out)

    return complete


@pytest.mark.parametrize("n, m", [(2, 3), (1, 3), (2, 4)])
def test_another_completion_of_the_witness_moves_no_verdict(monkeypatch, n, m):
    # One Kraus factor of shape n x m makes every image singular, so the polar
    # witness is free on its kernel; the theorem holds for every such witness.
    betas = (0.25, 0.5, 1.0, 2.0)

    def verdicts(seed):
        pmap = random_cp_map([seed, 0], n, m, terms=1)
        outcomes = certify._alone(
            *certify._run(certify._orbit_statements(pmap, random_normal([seed, 1], n)[None], betas, DEFAULT_TOL))
        )
        return [o.passed for o in outcomes]

    intact = [verdicts(seed) for seed in range(4)]
    kernels = []
    monkeypatch.setattr(certify, "_orbit", _broken_witness(_completed_witness(np.random.default_rng(7), kernels)))
    assert [verdicts(seed) for seed in range(4)] == intact
    assert len(kernels) == 4 and min(kernels) >= 1
