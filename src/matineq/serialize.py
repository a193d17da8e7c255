"""JSON interchange for matrices, maps, certificates and reproduction reports.

Matrix literals are ``{"rows": n, "cols": m, "re": [...], "im": [...]}`` with
integer dimensions and both arrays flat lists of ``n * m`` numbers in
row-major order; the other schemas embed these literals. A malformed literal
raises ValueError.
"""

from __future__ import annotations

import numpy as np

from .certify import Certificate, ReproResult
from .core import MajorizationReport, as_matrix
from .maps import PositiveMapRep

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "map_to_json",
    "map_from_json",
    "majorization_to_json",
    "certificate_to_json",
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
    if not (_is_int(rows) and _is_int(cols)):
        raise ValueError("matrix literal dimensions must be integers")
    if rows < 1 or cols < 1:
        raise ValueError("matrix literal dimensions must be positive")
    for array in (re, im):
        if not (isinstance(array, list) and all(_is_int(v) or isinstance(v, float) for v in array)):
            raise ValueError("matrix literal arrays must be flat lists of numbers")
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ValueError("matrix literal arrays must have length rows * cols")
    try:
        values = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"matrix literal has non-finite entries: {exc}") from exc
    return as_matrix(values.reshape(rows, cols), name="matrix literal")


def map_to_json(pmap: PositiveMapRep) -> dict:
    return {
        "label": pmap.label,
        "inputDim": pmap.input_dim,
        "outputDim": pmap.output_dim,
        "kraus": [matrix_to_json(k) for k in pmap.kraus_ops],
    }


def map_from_json(data: dict) -> PositiveMapRep:
    try:
        ops = tuple(matrix_from_json(k) for k in data["kraus"])
        dims, label = (data["inputDim"], data["outputDim"]), data.get("label", "")
        if not (all(_is_int(d) for d in dims) and isinstance(label, str)):
            raise ValueError("map literal dimensions must be integers and its label a string")
        pmap = PositiveMapRep(ops, label=label)
        if (pmap.input_dim, pmap.output_dim) != dims:
            raise ValueError(f"map literal dimensions {dims} disagree with its factors")
        return pmap
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed map literal: {exc}") from exc


def majorization_to_json(report: MajorizationReport) -> dict:
    return {
        "a": report.a.tolist(),
        "b": report.b.tolist(),
        "prefixProductsA": report.prefix_a.tolist(),
        "prefixProductsB": report.prefix_b.tolist(),
        "margins": report.margins.tolist(),
        "tol": report.tol,
        "pass": report.passed,
        "firstViolation": report.first_violation,
    }


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "statementId": cert.statement_id,
        "pass": cert.passed,
        "tol": cert.tol,
        "beta": cert.beta,
        "slackSpectrum": cert.slack_spectrum.tolist(),
        "witness": matrix_to_json(cert.witness) if cert.witness is not None else None,
        "lhs": matrix_to_json(cert.lhs),
        "rhs": matrix_to_json(cert.rhs),
    }


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
