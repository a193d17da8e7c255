"""Exact replay of every sweep outcome on a fixed set of trials.

``golden/run_trial_slacks.json`` holds, for each recorded trial, every
statement's pass flag and min slack (as the float's ``repr``), with and
without the injected fault. The dims include ``n != m`` pairs, which put
matrices of two sizes in one trial, and 12 x 12. A change that means to move
an outcome rewrites the file with ``python tests/test_sweep_golden.py``; any
other change must replay it bit for bit.
"""

import json
import os
import sys

from matineq.certify import run_trial

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "run_trial_slacks.json")
SEED = 42
DIMS = ((2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (12, 12))
BETAS = (0.25, 0.5, 1.0, 2.0)
TRIALS = 2 * len(DIMS)


def _records():
    """One record per (trial, mutant): the trial's place and its outcomes in run order."""
    records = []
    for trial in range(TRIALS):
        n, m = DIMS[trial % len(DIMS)]
        for mutant in (False, True):
            out = run_trial(SEED, trial, n, m, BETAS, inject_mutant=mutant)
            outcomes = [[key, bool(o.passed), repr(float(o.min_slack))] for key, o in out.items()]
            records.append(
                {"trialIndex": trial, "n": n, "m": m, "injectMutant": mutant, "outcomes": outcomes}
            )
    return records


def test_run_trial_replays_every_recorded_slack():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert golden["seed"] == SEED and golden["betas"] == list(BETAS)
    assert golden["records"] == _records()


if __name__ == "__main__":
    header = json.dumps({"seed": SEED, "betas": list(BETAS)})[:-1]
    body = ",\n".join(json.dumps(record) for record in _records())
    with open(GOLDEN, "w") as fh:
        fh.write(f'{header}, "records": [\n{body}\n]}}\n')
    sys.exit(0)
