"""Tests for the staged evaluation engine."""

import ast
import functools

import numpy as np

from matineq import staging
from matineq.core import polar, random_matrix, singular_values
from matineq.staging import Ask, run


def _asking(fn, *args):
    """Task: ``fn(*args)`` on stacks of members, asked once."""
    (answer,) = yield [Ask(fn, args)]
    return answer


def test_groups_answer_each_member_with_its_own_bits():
    # An ask carries a stack of members. Like asks share one call on their
    # stacks joined along the member axis; an ask with no like one is a group of
    # one. Each ask gets its own members' rows: of each field of a named tuple,
    # of an array, and each row has the bits of the call on its member alone.
    stacked = []

    @functools.wraps(polar)
    def counted_polar(x):
        stacked.append(x.shape)
        return polar(x)

    mats = np.array([random_matrix(k, 3) for k in range(3)])
    stacks = [mats[:2], mats[2:], random_matrix(9, 2)[None]]  # 2, 1 and 1 members
    tasks = [_asking(counted_polar, x) for x in stacks]
    tasks += [_asking(singular_values, x) for x in stacks[:2]]
    results = run(("singular_values", "polar"), tasks)
    assert stacked == [(3, 3, 3), (1, 2, 2)]
    for got, x in zip(results, stacks):
        assert type(got) is type(polar(x)) and len(got.unitary_factor) == len(x)
        for member, row in zip(x, zip(*got)):
            for field_got, field_want in zip(row, polar(member)):
                np.testing.assert_array_equal(field_got, field_want)
    for got, x in zip(results[3:], stacks):
        np.testing.assert_array_equal(got, [singular_values(member) for member in x])


def test_the_engine_knows_no_caller():
    # The engine is generic: it imports nothing of the library, and reads a
    # function's __name__ only to find its stage, so no function (such as a
    # batch's map application) can be a special case in it.
    with open(staging.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("matineq"), ast.unparse(node)
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("matineq") for alias in node.names), ast.unparse(node)
        if isinstance(node, ast.Compare):
            assert "__name__" not in ast.unparse(node), ast.unparse(node)
    lookups = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "stage_of"
        and isinstance(node.slice, ast.Attribute)
        and node.slice.attr == "__name__"
    ]
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "__name__"]
    assert len(lookups) == 1 and names == [lookups[0].slice], [ast.unparse(node) for node in names]
    assert "__name__" not in [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
