"""A broken ingredient of a statement is caught by the sweep.

Each row breaks one ingredient through a patch of a private helper of
``certify`` and pins the smallest configuration in which its target
statements are reported as failed: one sweep trial, the first of seed 1, or
for the constant the sharpness family, which attains the bound. The same
configuration passes with the ingredient intact.
"""

import functools

import numpy as np
import pytest

from matineq import certify
from matineq.certify import check_theorem_main, run_trial, sharpness_family
from matineq.maps import schur_multiplier


def _adjoint(v):
    return v.conj().swapaxes(-1, -2)


def _identity(v):
    return np.zeros_like(v) + np.eye(v.shape[-1])


def _broken_witness(broken):
    """``certify._orbit`` with the witness ``V`` of every pair replaced by ``broken(V)``.

    The orbit term ``V A V*`` is recomputed from the replaced witness, so both
    sides the certificates read agree with it.
    """
    orbit = certify._orbit

    @functools.wraps(orbit)  # the engine finds the stage by __name__
    def patched(image, arg):
        o = orbit(image, arg)
        v = broken(o.witness)
        term = v @ o.arg @ _adjoint(v)
        return o._replace(witness=v, orbit=(term + _adjoint(term)) / 2)

    return patched


# fault: (key that must fail, broken witness, seed, trials), in a (2, 3) sweep at weight 1/2.
_FAULTS = {
    # The identity in place of V makes the bound beta A + A/(4 beta), which is A at beta = 1/2.
    "witness-identity": ("main-arith@beta=0.5", _identity, 1, 1),
    "witness-adjoint": ("main-arith@beta=0.5", _adjoint, 1, 1),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_a_broken_witness_is_caught(monkeypatch, fault):
    key, broken, seed, trials = _FAULTS[fault]

    def target_passes():
        return [run_trial(seed, i, 2, 3, (0.5,))[key].passed for i in range(trials)]

    assert all(target_passes())
    monkeypatch.setattr(certify, "_orbit", _broken_witness(broken))
    assert not all(target_passes())


def _scaled_orbit_term(factor):
    """``certify._arith`` with the orbit term of every arithmetic bound scaled by ``factor``."""
    arith = certify._arith

    def patched(statement_id, o, beta, sign=1.0):
        return arith(statement_id, o, beta, factor * sign)

    return "_arith", patched


def _swapped_sides():
    """``certify._diagonal_certificate`` deciding ``rhs <= lhs`` in place of ``lhs <= rhs``."""
    diagonal = certify._diagonal_certificate

    def patched(statement_id, lhs, rhs, **kwargs):
        return diagonal(statement_id, rhs, lhs, **kwargs)

    return "_diagonal_certificate", patched


def _sweep():
    return run_trial(1, 0, 2, 3, (0.5,))


def _sharpness():
    """The arithmetic certificate of the sharpness family, whose min slack is 0.0 at each weight."""
    out = {}
    for beta in (0.5, 1.0, 2.0):
        a, r = sharpness_family(beta)
        out[f"main-arith@beta={beta:g}"] = check_theorem_main(schur_multiplier(a), r, beta)[0]
    return out


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
    "diagonal-sides-swapped": (_swapped_sides, _sweep, {"eigen-pairs", "eigen-shift@beta=0.5", "realpart-det"}),
    # 1/(4 beta) shrunk by a factor 1 - 1e-3: the min slack falls to -5e-4 at each weight.
    "constant-shrunk": (
        lambda: _scaled_orbit_term(1.0 - 1e-3),
        _sharpness,
        {"main-arith@beta=0.5", "main-arith@beta=1", "main-arith@beta=2"},
    ),
}


@pytest.mark.parametrize("fault", sorted(_BOUND_FAULTS))
def test_a_broken_bound_is_caught(monkeypatch, fault):
    patch, configuration, keys = _BOUND_FAULTS[fault]
    assert all(o.passed for o in configuration().values())
    monkeypatch.setattr(certify, *patch())
    assert {key for key, o in configuration().items() if not o.passed} == keys
