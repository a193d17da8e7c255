"""Exact replay of the public seeded generators.

``golden/seeded_generators.json`` holds a SHA-256 of the output bits (shape,
then the complex128 buffer) of every public generator for a few int and list
seeds and sizes; for the two map generators it is the Kraus stack. ``search``,
``repro`` and the acceptance tests draw through these functions, so their
bits must not move when the sweep's own draw changes. A change that means to
move them rewrites the file with ``python tests/test_generators_golden.py``.
"""

import hashlib
import json
import os
import sys

import numpy as np

from matineq.core import haar_unitary, random_contraction, random_matrix, random_normal, random_psd
from matineq.maps import random_cp_map, random_unital_cp_map

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "seeded_generators.json")
SEEDS = (0, 7, [3, 1], [42, 5, 18])
SQUARE = (1, 2, 3, 8)
PAIRS = ((2, 3), (3, 2), (4, 4))

_SQUARE_GENERATORS = {
    "random_normal": random_normal,
    "random_contraction": random_contraction,
    "random_psd": random_psd,
    "haar_unitary": haar_unitary,
    "random_matrix": random_matrix,
}
_PAIR_GENERATORS = {
    "random_matrix": random_matrix,
    "random_cp_map": lambda seed, n, m: random_cp_map(seed, n, m).kraus_ops,
    "random_unital_cp_map": lambda seed, n, m: random_unital_cp_map(seed, n, m).kraus_ops,
}


def _digest(a) -> str:
    a = np.ascontiguousarray(a, dtype=complex)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _records():
    """One record per (generator, seed, size): its call and the digest of its output."""
    records = []
    for seed in SEEDS:
        for name, fn in _SQUARE_GENERATORS.items():
            for n in SQUARE:
                records.append([name, seed, [n], _digest(fn(seed, n))])
        for name, fn in _PAIR_GENERATORS.items():
            for n, m in PAIRS:
                records.append([name, seed, [n, m], _digest(fn(seed, n, m))])
    return records


def test_public_generators_replay_their_bits():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert golden["records"] == _records()


if __name__ == "__main__":
    body = ",\n".join(json.dumps(record) for record in _records())
    with open(GOLDEN, "w") as fh:
        fh.write(f'{{"records": [\n{body}\n]}}\n')
    sys.exit(0)
