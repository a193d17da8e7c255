"""In-memory span recorder for the traced benchmark run.

A span is one call through a wrapped function: its name, start, end and the
index of the span that was open when it began (its parent, -1 at the root).
Spans are kept in flat arrays while the run lasts and written out once at the
end. A span's self time is its duration minus the durations of its child
spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Values that hooks derive from arguments or results at a boundary.
        self.counters = defaultdict(float)
        self._open: list = []  # indices of the spans not yet ended
        self._patched: list = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` recording a span per call; ``hook(counters, args, kwargs, result)``
        runs after a call that returns."""
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self._open.append(index)
            t0 = perf_counter()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper, undone by ``restore``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def patch_everywhere(self, fn, name: str, package: str, hook=None) -> int:
        """Wrap ``fn`` in every module of ``package`` that binds it; returns the count.

        Modules that import a name with ``from .core import f`` hold their own
        reference, so wrapping the defining module alone would miss those calls.
        """
        wrapped = self.wrap(name, fn, hook)
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapped)
                    bound += 1
        return bound

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def columns(self):
        """(name id, parent index, duration in seconds) of every span, as arrays."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            end - start,
        )

    def totals(self) -> dict:
        """``{name: (calls, total seconds, self seconds)}`` for every span name."""
        name, parent, duration = self.columns()
        child = parent >= 0
        children_s = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=duration, minlength=k)
        own = np.bincount(name, weights=duration - children_s, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span named ``name``, in start order."""
        ids, _, duration = self.columns()
        return duration[ids == self._ids.get(name, -1)]

    def within(self, name: str) -> np.ndarray:
        """Mask of the spans that have a span named ``name`` among their ancestors."""
        ids, parent, _ = self.columns()
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        inside = has_parent & (ids[up] == self._ids.get(name, -1))
        # A parent always precedes its child, so one step per nesting level suffices.
        while True:
            grown = inside | (has_parent & inside[up])
            if np.array_equal(grown, inside):
                return inside
            inside = grown

    def dump(self, path) -> None:
        """Write every span as columns of one ``.npz`` file."""
        name, parent, _ = self.columns()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
