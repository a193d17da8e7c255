"""Round-trip and schema tests for the JSON interchange formats."""

import json

import numpy as np
import pytest

from matineq.core import random_matrix, random_normal, spectral_norm
from matineq.maps import apply, random_cp_map
from matineq.certify import check_theorem_main, repro_psi_sharpness
from matineq.serialize import (
    certificate_to_json,
    majorization_to_json,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    repro_to_json,
)


def test_matrix_round_trip():
    x = random_matrix(0, 3, 2)
    data = matrix_to_json(x)
    assert data["rows"] == 3 and data["cols"] == 2
    assert len(data["re"]) == 6 and len(data["im"]) == 6
    np.testing.assert_array_equal(matrix_from_json(data), x)


def test_matrix_literal_is_json_serializable():
    x = random_matrix(1, 2)
    text = json.dumps(matrix_to_json(x))
    np.testing.assert_array_equal(matrix_from_json(json.loads(text)), x)


def test_matrix_literal_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 0, "cols": 2, "re": [], "im": []})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "re": [float("nan")], "im": [0.0]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1})


def test_map_round_trip_preserves_action():
    pmap = random_cp_map(2, 3, 2)
    data = map_to_json(pmap)
    assert set(data) == {"label", "inputDim", "outputDim", "kraus"}
    back = map_from_json(json.loads(json.dumps(data)))
    x = random_matrix(3, 3)
    assert spectral_norm(apply(back, x) - apply(pmap, x)) <= 1e-14
    assert back.label == pmap.label


def test_map_literal_validation():
    with pytest.raises(ValueError):
        map_from_json({"inputDim": 2, "outputDim": 2})


ONE = {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}
MAP = {"inputDim": 1, "outputDim": 1, "kraus": [ONE]}


@pytest.mark.parametrize(
    "parse,literal",
    [
        pytest.param(matrix_from_json, {**ONE, "re": None}, id="re-null"),
        pytest.param(matrix_from_json, {**ONE, "re": "1"}, id="re-string"),
        pytest.param(matrix_from_json, {**ONE, "re": ["1"]}, id="re-string-entry"),
        pytest.param(matrix_from_json, {**ONE, "re": [[1.0]]}, id="re-nested"),
        pytest.param(matrix_from_json, {**ONE, "im": [True]}, id="im-bool"),
        pytest.param(matrix_from_json, {**ONE, "re": [10**400]}, id="re-int-overflow"),
        pytest.param(matrix_from_json, {**ONE, "rows": 1.7}, id="rows-float"),
        pytest.param(matrix_from_json, {**ONE, "cols": True}, id="cols-bool"),
        pytest.param(matrix_from_json, {**ONE, "rows": "1"}, id="rows-string"),
        pytest.param(matrix_from_json, [ONE], id="matrix-not-object"),
        pytest.param(map_from_json, {**MAP, "inputDim": 1.5}, id="input-dim-float"),
        pytest.param(map_from_json, {**MAP, "outputDim": None}, id="output-dim-null"),
        pytest.param(map_from_json, {**MAP, "label": None}, id="label-null"),
        pytest.param(map_from_json, {**MAP, "inputDim": 2}, id="input-dim-not-the-factors"),
        pytest.param(map_from_json, {**MAP, "outputDim": 2}, id="output-dim-not-the-factors"),
        pytest.param(map_from_json, {**MAP, "kraus": [{**ONE, "im": None}]}, id="kraus-im-null"),
    ],
)
def test_malformed_literals_raise_value_error(parse, literal):
    with pytest.raises(ValueError):
        parse(literal)


def test_certificate_schema():
    pmap = random_cp_map(0, 2, 2)
    arith, _ = check_theorem_main(pmap, random_normal(1, 2), 1.0)
    data = certificate_to_json(arith)
    assert set(data) == {
        "statementId",
        "pass",
        "tol",
        "beta",
        "slackSpectrum",
        "witness",
        "lhs",
        "rhs",
    }
    assert data["pass"] is True
    assert data["beta"] == 1.0
    assert len(data["slackSpectrum"]) == 2
    json.dumps(data)  # must be serializable as-is
    np.testing.assert_array_equal(matrix_from_json(data["witness"]), arith.witness)


def test_majorization_schema():
    from matineq.core import weak_log_majorize

    report = weak_log_majorize([2.0, 1.0], [2.0, 1.0])
    data = majorization_to_json(report)
    assert data["pass"] is True
    assert data["firstViolation"] is None
    json.dumps(data)


def test_repro_schema_carries_matrices_and_notes():
    data = repro_to_json(repro_psi_sharpness())
    assert data["exampleId"] == "psi-quarter"
    assert data["pass"] is True
    assert "stated_identity" in data["notes"]
    assert set(data["matrices"]) == {"abs_image", "image_of_abs"}
    json.dumps(data)
