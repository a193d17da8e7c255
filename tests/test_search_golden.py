"""Exact replay of the search for the best orbit constant.

``golden/search_constants.json`` holds ``repr(minimal_orbit_constant(...))``
for seeded map/matrix pairs at three shapes and three weights, and the rows of
one ``estimate_constant`` call. The rows alone would not show drift: the
sharpness-family member of each pool attains the guaranteed constant, so the
random pairs never set a row. A change that means to move a constant rewrites
the file with ``python tests/test_search_golden.py``; any other change must
replay it bit for bit. The same pairs check the closed form against scipy's
generalized eigensolve of its pencil, and solved as one chunk they give the
constants of their members solved alone, bit for bit.
"""

import json
import os
import sys

import numpy as np

from matineq.certify import estimate_constant, minimal_orbit_constant, sharpness_family
from matineq.core import random_normal
from matineq.maps import random_cp_map, schur_multiplier

from _oracles import minimal_orbit_constant_by_pencil

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "search_constants.json")
SEED = 42
DIMS = ((2, 2), (3, 3), (2, 3))
BETAS = (0.1, 0.25, 0.5)
PAIRS = 40


def _pairs(k, n, m):
    """The seeded map/matrix pairs of the k-th shape."""
    return [
        (random_cp_map([SEED, k, t, 0], n, m), random_normal([SEED, k, t, 1], n))
        for t in range(PAIRS)
    ]


def _constants():
    """One record per (shape, weight): the constants of the shape's seeded pairs, as reprs."""
    records = []
    for k, (n, m) in enumerate(DIMS):
        pairs = _pairs(k, n, m)
        for beta in BETAS:
            constants = [repr(minimal_orbit_constant(pmap, nmat, beta)) for pmap, nmat in pairs]
            records.append({"n": n, "m": m, "beta": beta, "constants": constants})
    return records


def _rows():
    rows = estimate_constant(list(BETAS), seed=SEED, trials=200, n=3, m=3)
    return [{key: repr(value) for key, value in row.items()} for row in rows]


def _golden() -> dict:
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert golden["seed"] == SEED and golden["betas"] == list(BETAS)
    return golden


def test_minimal_orbit_constant_replays_every_recorded_constant():
    assert _golden()["constants"] == _constants()


def test_estimate_constant_replays_its_rows():
    assert _golden()["rows"] == _rows()


def test_minimal_orbit_constant_matches_scipys_pencil():
    # The Cholesky reduction against scipy's generalized eigensolve of the same
    # pencil, down to weights where the constant is far below 1/(2 beta).
    for k, (n, m) in enumerate(DIMS):
        pairs = _pairs(k, n, m)
        for beta in BETAS + (1e-8, 1e-16):
            for pmap, nmat in pairs:
                c = minimal_orbit_constant(pmap, nmat, beta)
                reference = minimal_orbit_constant_by_pencil(pmap, nmat, beta)
                assert abs(c - reference) <= 1e-14 * max(1.0, c), (n, m, beta, c, reference)
                assert (c == 0.0) == (reference == 0.0), (n, m, beta, c, reference)


def test_a_chunk_has_the_bits_of_its_members_solved_alone():
    # Each shape's seeded pairs as one chunk, at the recorded weights and far
    # below them; (3, 2) is not recorded and is drawn like the others.
    recorded = {(r["n"], r["m"], r["beta"]): r["constants"] for r in _golden()["constants"]}
    small = (1e-8, 1e-16)
    for k, (n, m) in enumerate(DIMS + ((3, 2),)):
        pairs = _pairs(k, n, m)
        ops, nmats = np.stack([pmap.kraus_ops for pmap, _ in pairs]), np.stack([nmat for _, nmat in pairs])
        for beta in BETAS + small:
            chunk = list(map(repr, minimal_orbit_constant(ops, nmats, beta).tolist()))
            assert chunk == [repr(minimal_orbit_constant(pmap, nmat, beta)) for pmap, nmat in pairs]
            assert chunk == recorded.get((n, m, beta), chunk), (n, m, beta)
    # The sharpness-family members of every weight, as one chunk at each weight.
    family = [sharpness_family(beta) for beta in BETAS + small]
    pmaps, nmats = [schur_multiplier(a) for a, _ in family], np.stack([r for _, r in family])
    ops = np.stack([pmap.kraus_ops for pmap in pmaps])
    for beta in BETAS + small:
        chunk = minimal_orbit_constant(ops, nmats, beta).tolist()
        assert chunk == [minimal_orbit_constant(pmap, nmat, beta) for pmap, nmat in zip(pmaps, nmats)]


if __name__ == "__main__":
    header = json.dumps({"seed": SEED, "betas": list(BETAS)})[:-1]
    constants = ",\n".join(json.dumps(record) for record in _constants())
    rows = ",\n".join(json.dumps(row) for row in _rows())
    with open(GOLDEN, "w") as fh:
        fh.write(f'{header}, "constants": [\n{constants}\n], "rows": [\n{rows}\n]}}\n')
    sys.exit(0)
