"""Exact replay of the search for the best orbit constant.

``golden/search_constants.json`` holds ``repr(minimal_orbit_constant(...))``
for seeded map/matrix pairs at three shapes and three weights, and the rows of
one ``estimate_constant`` call. The rows alone would not show drift: the
sharpness-family member of each pool attains the guaranteed constant, so the
random pairs never set a row. A change that means to move a constant rewrites
the file with ``python tests/test_search_golden.py``; any other change must
replay it bit for bit.
"""

import json
import os
import sys

from matineq.certify import estimate_constant, minimal_orbit_constant
from matineq.core import random_normal
from matineq.maps import random_cp_map

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "search_constants.json")
SEED = 42
DIMS = ((2, 2), (3, 3), (2, 3))
BETAS = (0.1, 0.25, 0.5)
PAIRS = 40


def _constants():
    """One record per (shape, weight): the constants of the shape's seeded pairs, as reprs."""
    records = []
    for k, (n, m) in enumerate(DIMS):
        pairs = [
            (random_cp_map([SEED, k, t, 0], n, m), random_normal([SEED, k, t, 1], n))
            for t in range(PAIRS)
        ]
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


if __name__ == "__main__":
    header = json.dumps({"seed": SEED, "betas": list(BETAS)})[:-1]
    constants = ",\n".join(json.dumps(record) for record in _constants())
    rows = ",\n".join(json.dumps(row) for row in _rows())
    with open(GOLDEN, "w") as fh:
        fh.write(f'{header}, "constants": [\n{constants}\n], "rows": [\n{rows}\n]}}\n')
    sys.exit(0)
