"""Staged evaluation: run many small computations together, pooling their calls.

A task is a generator that yields a nonempty list of asks and is sent the list
of their answers; its return value is its result. An ask is a call of a
primitive that takes stacks, such as ``core.polar``, on a stack of members:
each array argument has one row per member along its first axis, and the
answer holds the members' rows of the result: of an array, or of each field
of a named tuple. A one-matrix ask is a stack of one.
``run`` drives tasks together: each round answers the open asks of the
earliest stage, and asks to one function whose array arguments share member
shapes and whose other arguments are equal are answered by one call on their
arrays joined along the member axis. So tasks make one call per stage and
shape between them, and a task run alone makes the calls it would make
anyway.
"""

from __future__ import annotations

from itertools import accumulate, pairwise
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["Ask", "run"]


class Ask(NamedTuple):
    """``fn(*args)`` on a stack of members; array arguments are joined with like asks along their first axis."""

    fn: Callable
    args: tuple

    def key(self) -> tuple:
        """Asks with one key share a call: same function, member shapes and other arguments."""
        return (self.fn,) + tuple(a.shape[1:] if isinstance(a, np.ndarray) else a for a in self.args)

    def members(self) -> int:
        """The length of the stack: the first axis of the first array argument."""
        for a in self.args:
            if isinstance(a, np.ndarray):
                return len(a)


def _answer(asks: list) -> list:
    """Answer like asks with one call on their joined arrays; each ask gets its members' rows."""
    fn, first = asks[0].fn, asks[0].args
    args = [
        np.concatenate([ask.args[p] for ask in asks]) if isinstance(arg, np.ndarray) else arg
        for p, arg in enumerate(first)
    ]
    out = fn(*args)
    rows = list(pairwise(accumulate((ask.members() for ask in asks), initial=0)))
    if isinstance(out, tuple):
        return [type(out)._make(field[a:b] for field in out) for a, b in rows]
    return [out[a:b] for a, b in rows]


def run(stages: Sequence[str], tasks: Sequence) -> list:
    """Drive ``tasks`` to completion together; returns their return values.

    ``stages`` names every function asked for, in the order its asks are
    served: while any task waits on an earlier function, asks to later ones
    wait too, so that tasks at different points pool their calls. Names, not
    function objects, so that a wrapped function keeps its place.
    """
    results = [None] * len(tasks)
    stage_of = {name: k for k, name in enumerate(stages)}
    answers, missing = {}, {}
    waiting = [[] for _ in stages]  # open (task, slot, ask) entries by stage

    def advance(i: int, sent) -> None:
        try:
            asks = tasks[i].send(sent)
        except StopIteration as done:
            results[i] = done.value
            return
        answers[i], missing[i] = [None] * len(asks), len(asks)
        for slot, ask in enumerate(asks):
            waiting[stage_of[ask.fn.__name__]].append((i, slot, ask))

    for i in range(len(tasks)):
        advance(i, None)
    while any(waiting):
        stage = next(k for k, entries in enumerate(waiting) if entries)
        now, waiting[stage] = waiting[stage], []
        groups: dict = {}
        for entry in now:
            groups.setdefault(entry[2].key(), []).append(entry)
        for group in groups.values():
            for (i, slot, _), value in zip(group, _answer([ask for _, _, ask in group])):
                answers[i][slot] = value
                missing[i] -= 1
        for i in sorted({i for i, _, _ in now}):
            if missing[i] == 0:
                del missing[i]
                advance(i, answers.pop(i))
    return results
