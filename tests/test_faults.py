"""A broken ingredient of a statement is caught by the sweep.

Each row breaks one ingredient through a patch of a private helper of
``certify`` and pins the smallest seeded configuration in which the sweep
reports its target statement as failed: one trial, the first of seed 1. The
same configuration passes with the ingredient intact.
"""

import functools

import numpy as np
import pytest

from matineq import certify
from matineq.certify import run_trial


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
