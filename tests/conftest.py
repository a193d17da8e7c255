"""Shared fixtures."""

import collections

import numpy as np
import pytest


def _counting(name, original, counts):
    def counted(*args, **kwargs):
        # Only the spectral norm is a decomposition (an SVD inside numpy).
        if name != "norm" or kwargs.get("ord", args[1] if len(args) > 1 else None) == 2:
            counts[name] += 1
        return original(*args, **kwargs)

    return counted


@pytest.fixture
def linalg_calls(monkeypatch):
    """A Counter of the decompositions made while the test runs.

    Keys are ``svd``, ``eigh``, ``eigvalsh``, ``det``, ``norm``, ``cholesky``
    and ``inv`` for calls through ``np.linalg``, ``norm`` counting ``norm(x, 2)``
    calls only.
    """
    counts = collections.Counter()
    for name in ("svd", "eigh", "eigvalsh", "det", "norm", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, _counting(name, getattr(np.linalg, name), counts))
    return counts
