"""JSON interchange for matrices, maps and reproduction reports.

Matrix literals are ``{"rows": n, "cols": m, "re": [...], "im": [...]}`` with
integer dimensions and both arrays flat lists of ``n * m`` numbers in
row-major order. A map literal ``{"kraus": [...]}`` holds its Kraus factors'
literals and no other key, so its sizes are theirs. A malformed literal raises ValueError.
"""

from __future__ import annotations

import numpy as np

from .certify import ReproResult
from .core import _check_size, as_matrix
from .maps import PositiveMapRep

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "map_to_json",
    "map_from_json",
    "repro_to_json",
]


def matrix_to_json(x) -> dict:
    x = as_matrix(x)
    return {
        "rows": int(x.shape[0]),
        "cols": int(x.shape[1]),
        "re": x.real.ravel().tolist(),
        "im": x.imag.ravel().tolist(),
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def matrix_from_json(data: dict) -> np.ndarray:
    try:
        rows, cols, re, im = data["rows"], data["cols"], data["re"], data["im"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix literal: {exc}") from exc
    _check_size(rows, "rows")
    _check_size(cols, "cols")
    for array in (re, im):
        if not (isinstance(array, list) and all(_is_int(v) or isinstance(v, float) for v in array)):
            raise ValueError("matrix literal arrays must be flat lists of numbers")
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ValueError("matrix literal arrays must have length rows * cols")
    try:
        values = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"matrix literal must be finite: {exc}") from exc
    return as_matrix(values.reshape(rows, cols), name="matrix literal")


def map_to_json(pmap: PositiveMapRep) -> dict:
    return {"kraus": [matrix_to_json(k) for k in pmap.kraus_ops]}


def map_from_json(data: dict) -> PositiveMapRep:
    keys = list(data) if isinstance(data, dict) else type(data).__name__
    if keys != ["kraus"]:
        raise ValueError(f"malformed map literal: its one key is kraus, got {keys}")
    try:
        return PositiveMapRep(tuple(matrix_from_json(k) for k in data["kraus"]))
    except TypeError as exc:
        raise ValueError(f"malformed map literal: {exc}") from exc


def repro_to_json(result: ReproResult) -> dict:
    return {
        "exampleId": result.example_id,
        "computed": dict(result.computed),
        "expected": dict(result.expected),
        "notes": dict(result.notes),
        "maxAbsError": result.max_abs_error,
        "tol": result.tol,
        "pass": result.passed,
        "matrices": {k: matrix_to_json(v) for k, v in result.matrices.items()},
    }
