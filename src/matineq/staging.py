"""Staged evaluation: run many small computations together, pooling their calls.

A task is a generator that yields a nonempty list of asks and is sent the list
of their answers; its return value is its result. An ask is one member's call
of a primitive that takes stacks, such as ``core.polar`` on one matrix.
``run`` drives tasks together: each round answers the open asks of the
earliest stage, and asks to one function whose array arguments share shapes
and whose other arguments are equal are answered by one call on their stacked
arrays. So tasks written one matrix at a time make one call per stage and
shape between them, and a task run alone makes the calls it would make
anyway.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["Ask", "run"]


class Ask(NamedTuple):
    """``fn(*args)`` for one member; array arguments are stacked with like asks."""

    fn: Callable
    args: tuple

    def key(self) -> tuple:
        """Asks with one key share a call: same function, shapes and other arguments."""
        return (self.fn,) + tuple(a.shape if isinstance(a, np.ndarray) else a for a in self.args)


def _member(out, k: int):
    """Member ``k`` of a stacked answer: an array's row, or the rows of a named tuple's fields."""
    return type(out)._make(field[k] for field in out) if isinstance(out, tuple) else out[k]


def _answer(asks: list) -> list:
    """Answer like asks with one call on their stacked arrays."""
    fn, first = asks[0].fn, asks[0].args
    args = [
        np.stack([ask.args[p] for ask in asks]) if isinstance(arg, np.ndarray) else arg
        for p, arg in enumerate(first)
    ]
    out = fn(*args)
    return [_member(out, k) for k in range(len(asks))]


def run(stages: Sequence[str], tasks: Sequence) -> list:
    """Drive ``tasks`` to completion together; returns their return values.

    ``stages`` names every function asked for, in the order its asks are
    served: while any task waits on an earlier function, asks to later ones
    wait too, so that tasks at different points pool their calls. Names, not
    function objects, so that a wrapped function keeps its place.
    """
    results = [None] * len(tasks)
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
            waiting[stages.index(ask.fn.__name__)].append((i, slot, ask))

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
