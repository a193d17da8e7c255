"""Every exported name resolves, so a stale export fails the suite."""

import ast
import glob
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

import matineq
from matineq import certify, core, maps, serialize, staging

MODULES = (core, maps, certify, serialize, staging)
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _project() -> str:
    """The ``[project]`` table of pyproject.toml, as text."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        return re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", fh.read(), re.M | re.S).group(1)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_are_listed_names():
    listed = {name: getattr(module, name) for module in MODULES for name in module.__all__}
    exported = {
        name: value
        for name, value in vars(matineq).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(exported) <= set(listed), sorted(set(exported) - set(listed))
    for name, value in exported.items():
        assert value is listed[name], name


def test_export_inventory():
    # Every module's __all__ and the package's public names, sorted: adding or
    # dropping an export must show up here.
    expected = {
        "matineq.core": [
            "CONSTRUCTION_TOL", "LoewnerCheck", "MajorizationReport", "PSD_TOL", "PolarFactors",
            "SpectralData", "as_matrix", "conj_real_part", "direct_sum", "geometric_mean",
            "haar_unitary", "herm_eig", "hermitian_part", "is_contraction", "is_hermitian",
            "is_normal", "loewner_leq", "mat_abs", "polar", "random_contraction", "random_matrix",
            "random_normal", "random_psd", "schur_prod", "singular_values", "spectral_norm",
            "weak_log_majorize",
        ],
        "matineq.maps": [
            "MAX_KRAUS_BYTES", "PositiveMapRep", "apply", "compose", "corner_block_map", "is_unital",
            "partial_trace_first", "random_cp_map", "random_unital_cp_map", "schur_multiplier",
        ],
        "matineq.certify": [
            "Certificate", "DEFAULT_TOL", "EigenCorollaryReports", "RealPartReport", "ReproResult",
            "RussoDyeReports", "chain_certificate", "check_block_certificate", "check_corollary_eigen",
            "check_hermitian_sum", "check_partial_trace", "check_real_part", "check_russo_dye",
            "check_schur_diagonal", "check_schur_normal", "check_schur_square", "check_sum_of_normals",
            "check_theorem_main", "check_two_positive_unital", "check_weighted_sum", "estimate_constant",
            "minimal_orbit_constant", "quarter_sharpness_hermitian", "quarter_sharpness_map",
            "repro_no_single_unitary", "repro_psi_sharpness", "repro_sharpness_beta", "run_trial",
            "search_nonnormal_counterexample", "sharpness_family", "trial_statements",
        ],
        "matineq.serialize": ["map_from_json", "map_to_json", "matrix_from_json", "matrix_to_json", "repro_to_json"],
        "matineq.staging": ["Ask", "run"],
        "matineq": [
            "Certificate", "LoewnerCheck", "MajorizationReport", "PolarFactors", "PositiveMapRep",
            "ReproResult", "SpectralData", "apply", "check_block_certificate", "check_corollary_eigen",
            "check_hermitian_sum", "check_partial_trace", "check_real_part", "check_russo_dye",
            "check_schur_diagonal", "check_schur_normal", "check_schur_square", "check_sum_of_normals",
            "check_theorem_main", "check_two_positive_unital", "check_weighted_sum", "compose",
            "conj_real_part", "corner_block_map", "direct_sum", "estimate_constant", "geometric_mean",
            "haar_unitary", "herm_eig", "is_unital", "loewner_leq", "mat_abs", "minimal_orbit_constant",
            "partial_trace_first", "polar", "random_contraction", "random_cp_map", "random_matrix",
            "random_normal", "random_psd", "random_unital_cp_map", "repro_no_single_unitary",
            "repro_psi_sharpness", "repro_sharpness_beta", "schur_multiplier", "schur_prod",
            "search_nonnormal_counterexample", "weak_log_majorize",
        ],
    }
    found = {module.__name__: sorted(module.__all__) for module in MODULES}
    found["matineq"] = sorted(
        name for name, value in vars(matineq).items() if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert found == expected


def test_package_version_matches_pyproject():
    # The report's artifactVersion reads __version__, so the two must not drift.
    assert re.search(r'^version = "([^"]+)"$', _project(), re.M).group(1) == matineq.__version__


def test_package_depends_on_numpy_alone():
    # Every import in the package is of the standard library, numpy or the
    # package itself, and numpy is the one declared runtime dependency.
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "matineq", "*.py")))
    assert len(paths) > 5
    foreign = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ("numpy", "matineq"):
                    foreign.append((os.path.basename(path), name))
    assert foreign == []
    block = re.search(r"^dependencies = \[(.*?)\]", _project(), re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', block) == ["numpy"]


def test_cli_import_loads_no_scipy():
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    # Any scipy submodule loads the top-level package too.
    probe = "import sys, matineq.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_sources_parse_at_the_declared_python_floor():
    # requires-python names the oldest supported interpreter; every module of
    # the package and of the tests must at least parse with its grammar.
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', _project(), re.M).groups()
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "matineq", "*.py")))
    paths += sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))
    assert len(paths) > 10
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=tuple(map(int, floor)))


def test_benchmark_times_every_public_checker():
    # The benchmark names one per-layer metric after each check_* export, so
    # renaming or merging a public checker must be mirrored in BENCHMARK.json.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [entry["name"] for entry in json.load(fh)["per_layer"]]
    pattern = re.compile(r"certify\.(check_\w+)\.ms_per_unit")
    timed = {m.group(1) for m in map(pattern.fullmatch, names) if m}
    assert timed == {name for name in certify.__all__ if name.startswith("check_")}
