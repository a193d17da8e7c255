"""Metamorphic tests: relations that must hold between two runs of a checker.

The orbit bounds are positively homogeneous and unitarily covariant, so the
slack spectra of ``check_theorem_main`` (both certificates),
``check_block_certificate`` and eigen-pairs scale with ``N`` and do not move
when the map and ``N`` are conjugated together. These tests pin slack
spectra only; pass flags across scales depend on the verdict floor.

Each slack may move by ``1e-10`` times the largest ``|slack|`` of the
instance, plus ``1e-13`` times the larger side norm. The second term is the
rounding of ``rhs - lhs`` itself: where a bound is nearly attained the
slacks are far smaller than the sides, and their rounding is set by the
sides (main-geom at seed 229, ``n = m = 2``, weight 0.5: a covariance
deviation of 2.6e-8 times the largest ``|slack|``, but 1.1e-15 times the
sides). Over 1500 seeded instances at ``n, m = 2..4``, the largest deviation
is 6.4e-15 times the sides and 4.3e-2 of this bound.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matineq.certify import check_block_certificate, check_corollary_eigen, check_theorem_main
from matineq.core import haar_unitary, random_normal, spectral_norm
from matineq.maps import PositiveMapRep, random_cp_map

_instances = st.tuples(
    st.integers(0, 2**16), st.sampled_from([2, 3, 4]), st.sampled_from([2, 3, 4]),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)


def _certificates(pmap, nmat, beta) -> dict:
    arith, geom = check_theorem_main(pmap, nmat, beta)
    return {
        "main-arith": arith,
        "main-geom": geom,
        "block-psd": check_block_certificate(pmap, nmat),
        "eigen-pairs": check_corollary_eigen(pmap, nmat, beta).pair_bounds,
    }


def _assert_slacks(got: dict, want: dict, c: float = 1.0) -> None:
    """Each slack spectrum of ``got`` is ``c`` times that of ``want``, within the bound above."""
    for key, cert in want.items():
        sides = max(spectral_norm(cert.lhs), spectral_norm(cert.rhs))
        bound = c * (1e-10 * np.abs(cert.slack_spectrum).max() + 1e-13 * sides)
        np.testing.assert_allclose(
            got[key].slack_spectrum, c * cert.slack_spectrum, rtol=0, atol=bound, err_msg=key
        )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_instances, st.sampled_from([1e-6, 2.0**-20, 2.0**20, 1e6]))
def test_slack_spectra_scale_with_the_matrix(instance, c):
    # |Phi(cN)| = c |Phi(N)|, Phi(|cN|) = c Phi(|N|) and the witness is the
    # same, so every slack spectrum of cN is c times that of N.
    seed, n, m, beta = instance
    pmap, nmat = random_cp_map([seed, 0], n, m), random_normal([seed, 1], n)
    _assert_slacks(_certificates(pmap, c * nmat, beta), _certificates(pmap, nmat, beta), c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_instances)
def test_slack_spectra_are_unitarily_covariant(instance):
    # The map with factors W K_t U sends W N W* to U* Phi(N) U, and |W N W*|
    # to U* Phi(|N|) U, so each slack matrix is conjugated by U (or by U (+) U
    # for the block) and its spectrum is unchanged.
    seed, n, m, beta = instance
    pmap, nmat = random_cp_map([seed, 0], n, m), random_normal([seed, 1], n)
    w, u = haar_unitary([seed, 2], n), haar_unitary([seed, 3], m)
    moved = PositiveMapRep(w @ pmap.kraus_ops @ u)
    _assert_slacks(_certificates(moved, w @ nmat @ w.conj().T, beta), _certificates(pmap, nmat, beta))
