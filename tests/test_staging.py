"""Tests for the staged evaluation engine."""

import functools

import numpy as np

from matineq.core import polar, random_matrix, singular_values
from matineq.staging import Ask, run


def _asking(fn, *args):
    """Task: ``fn(*args)``, asked as one member."""
    (answer,) = yield [Ask(fn, args)]
    return answer


def test_groups_answer_each_member_with_its_own_bits():
    # Like asks share one stacked call; an ask with no like one is a group of
    # one. A named tuple's answer is split into rows of its fields, an array's
    # into its rows, and each row has the bits of the call on its member alone.
    stacked = []

    @functools.wraps(polar)
    def counted_polar(x):
        stacked.append(x.shape)
        return polar(x)

    mats = [random_matrix(k, 3) for k in range(3)]
    lone = random_matrix(9, 2)
    tasks = [_asking(counted_polar, x) for x in mats + [lone]]
    tasks += [_asking(singular_values, x) for x in mats]
    results = run(("singular_values", "polar"), tasks)
    assert stacked == [(3, 3, 3), (1, 2, 2)]
    for got, x in zip(results, mats + [lone]):
        want = polar(x)
        assert type(got) is type(want)
        for field_got, field_want in zip(got, want):
            np.testing.assert_array_equal(field_got, field_want)
    for got, x in zip(results[4:], mats):
        np.testing.assert_array_equal(got, singular_values(x))
