"""Exact replay of every sweep outcome on a fixed set of trials.

``golden/run_trial_slacks.json`` holds, for each recorded trial, every
statement's pass flag and min slack (as the float's ``repr``), with and
without the injected fault. The dims include ``n != m`` pairs, which put
matrices of two sizes in one trial, and 12 x 12. A change that means to move
an outcome rewrites the file with ``python tests/test_sweep_golden.py``; any
other change must replay it bit for bit. A batch of trials, as ``verify``
runs them, gives each trial, in arrays of outcomes, the outcomes it has alone.
"""

import json
import os
import sys

import pytest

from matineq.certify import run_trial

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "run_trial_slacks.json")
SEED = 42
DIMS = ((2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (12, 12))
BETAS = (0.25, 0.5, 1.0, 2.0)
TRIALS = 2 * len(DIMS)


def _bits(outcomes: dict) -> list:
    """``[key, passed, repr(min_slack)]`` for each outcome of one trial, in run order."""
    return [[key, bool(o.passed), repr(float(o.min_slack))] for key, o in outcomes.items()]


def _records():
    """One record per (trial, mutant): the trial's place and its outcomes in run order."""
    records = []
    for trial in range(TRIALS):
        n, m = DIMS[trial % len(DIMS)]
        for mutant in (False, True):
            outcomes = _bits(run_trial(SEED, trial, n, m, BETAS, inject_mutant=mutant))
            records.append(
                {"trialIndex": trial, "n": n, "m": m, "injectMutant": mutant, "outcomes": outcomes}
            )
    return records


def _batch_bits(outcomes: dict, k: int) -> list:
    """``_bits`` of each of a batch's ``k`` trials, read from its arrays of outcomes."""
    return [[[key, bool(o.passed[j]), repr(float(o.min_slack[j]))] for key, o in outcomes.items()] for j in range(k)]


@pytest.mark.parametrize("mutant", [False, True], ids=["clean", "mutant"])
@pytest.mark.parametrize("n, m", DIMS + ((1, 1), (1, 2), (2, 1)))
def test_a_batch_gives_each_trial_its_outcomes_alone(n, m, mutant):
    # Out of order and repeating: a batch is any list of indices, and its
    # outcomes are split back by member. At (2, 2) also the largest default
    # batch, 24 trials.
    batches = [[5, 0, 3], [5, 0, 5]] + ([list(range(24))] if (n, m) == (2, 2) else [])
    for indices in batches:
        batch = run_trial(SEED, indices, n, m, BETAS, inject_mutant=mutant)
        alone = [run_trial(SEED, i, n, m, BETAS, inject_mutant=mutant) for i in indices]
        assert _batch_bits(batch, len(indices)) == [_bits(out) for out in alone], indices


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
