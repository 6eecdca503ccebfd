"""Spec and bank JSON validation: spec_from_json_dict and the CLI's exits.

A damaged measure or bank file given to ``spectrum --spec`` or
``fit --spec`` must fail with exit code 1 and a one-line message, never
with a traceback.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_rff import cli, data, measures
from spectral_rff.errors import InvalidSpec
from spectral_rff.linalg import seeded_rng

# each of these once escaped as an exception other than InvalidSpec, or
# built a measure that failed only when sampled
BAD_SPECS = {
    "missing key": {"family": "gaussian_se"},
    "not an object": [1, 2],
    "string smoothness": {"family": "matern_t", "smoothness": "x"},
    "number as a product part": {"family": "per_dim_product", "parts": [3]},
    "parts not a list": {"family": "per_dim_product", "parts": 3},
    "boolean scale": {"family": "matern_t", "smoothness": 1.5, "scale": True},
    "string in lengthscales": {"family": "gaussian_se", "lengthscales": [1.0, "a"]},
    "ragged means": {"family": "mixture_of_gaussians", "weights": [0.5, 0.5],
                     "means": [[0.0], [1.0, 2.0]], "covariances": [[[1.0]], [[1.0]]]},
    "huge integer": {"family": "laplacian_cauchy", "scales": [10 ** 400]},
    "indefinite covariance": {"family": "mixture_of_gaussians", "weights": [1.0],
                              "means": [[0.0]], "covariances": [[[-1.0]]]},
}


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


def assert_one_line_error(code, err):
    """Exit 1 and one error line, after at most the command's progress lines."""
    assert code == 1
    lines = [line for line in err.strip().splitlines()
             if not line.startswith(("fit: ", "spectrum: "))]
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_spec_from_json_dict_rejects_malformed_specs(name):
    with pytest.raises(InvalidSpec):
        measures.spec_from_json_dict(BAD_SPECS[name])


@pytest.fixture()
def sine_csv(tmp_path):
    rng = seeded_rng(0)
    t = np.sort(rng.uniform(0.0, 1.0, 40)).reshape(-1, 1)
    y = np.sin(8.0 * t[:, 0]) + 0.1 * rng.standard_normal(40)
    path = tmp_path / "sine.csv"
    data.save_dataset_csv(path, data.Dataset(t, y, ["t"], "y"))
    return str(path)


def fit_argv(csv_path, spec_path, out_dir):
    return ["fit", "--data", csv_path, "--spec", spec_path, "--m", "4",
            "--max-steps", "3", "--eval-every", "1", "--out-dir", out_dir]


@pytest.mark.parametrize("name", ["missing key", "not an object",
                                  "string smoothness", "number as a product part"])
def test_bad_spec_file_exits_1_with_one_line(name, sine_csv, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(BAD_SPECS[name]))
    out = tmp_path / "out"
    assert_one_line_error(*run_cli(["spectrum", "--spec", str(spec_path),
                                    "--out-dir", str(out)], capsys))
    assert_one_line_error(*run_cli(fit_argv(sine_csv, str(spec_path), str(out)),
                                   capsys))
    assert not out.exists()


def test_bank_of_the_wrong_dimension_is_a_dimension_mismatch(sine_csv, tmp_path,
                                                             capsys):
    banks = tmp_path / "banks"
    assert cli.main(["spectrum", "--spec", "matern:1.5", "--dim", "2", "--pairs",
                     "--m", "4", "--out-dir", str(banks)]) == 0
    capsys.readouterr()
    code, err = run_cli(fit_argv(sine_csv, str(banks / "bank.json"),
                                 str(tmp_path / "out")), capsys)
    assert_one_line_error(code, err)
    assert err.strip().endswith("\nerror: inputs have dimension 1, bank has 2")


# each is finite but draws frequencies that overflow to inf or nan
EXTREME_SPECS = ["matern:1e-300", "se:1e-310", "student-t:1e-300", "laplacian:1e308"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", EXTREME_SPECS)
def test_extreme_measure_parameters_fail_in_one_line(spec, sine_csv, tmp_path,
                                                     capsys):
    # numpy used to print a two-line RuntimeWarning before the error; with
    # warnings raised as errors, that warning would escape as an exception
    out = tmp_path / "out"
    code, err = run_cli(["spectrum", "--spec", spec, "--out-dir", str(out)], capsys)
    assert_one_line_error(code, err)
    assert err.strip() == "error: frequencies must be finite"
    code, err = run_cli(fit_argv(sine_csv, spec, str(out)), capsys)
    assert_one_line_error(code, err)
    assert err.strip().endswith("\nerror: frequencies must be finite")
    assert not out.exists()


# --- fuzzing -------------------------------------------------------------

VALID_DOCS = [
    measures.spec_to_json_dict(measures.GaussianSE([0.5, 2.0])),
    measures.spec_to_json_dict(measures.LaplacianCauchy([1.0, 1.5])),
    measures.spec_to_json_dict(measures.MaternT(1.5, 0.5)),
    measures.spec_to_json_dict(measures.MixtureOfGaussians(
        [0.5, 0.5], [[0.0, 0.0], [3.0, 1.0]],
        [np.eye(2), np.array([[2.0, 0.3], [0.3, 1.0]])])),
    measures.spec_to_json_dict(measures.GaussianCopula(
        np.array([[1.0, 0.3], [0.3, 1.0]]),
        (measures.GaussianSE([1.0]), measures.MaternT(1.5)))),
    measures.spec_to_json_dict(measures.PerDimProduct(
        (measures.GaussianSE([1.0]), measures.LaplacianCauchy([2.0])))),
    measures.bank_to_json_dict(measures.sample_stationary(
        measures.GaussianSE([1.0, 1.0]), 4, 2, seeded_rng(1))),
    measures.bank_to_json_dict(measures.sample_nonstationary(
        measures.GaussianSE([1.0, 1.0]), measures.GaussianSE([1.0, 1.0]),
        4, 2, seeded_rng(2))),
]


def node_paths(node, prefix=()):
    """Paths (key and index tuples) to every node below the root."""
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(node_paths(child, prefix + (key,)))
    return paths


def mutate(doc, draw):
    """One random structural damage to a JSON document, in place."""
    paths = node_paths(doc)
    kind = draw(st.sampled_from(["drop", "resize", "retype"]))
    if kind == "drop":
        paths = [p for p in paths if isinstance(parent_of(doc, p), dict)]
    elif kind == "resize":
        paths = [p for p in paths if isinstance(parent_of(doc, p)[p[-1]], list)]
    if not paths:
        return
    path = draw(st.sampled_from(paths))
    parent = parent_of(doc, path)
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "resize":
        items = parent[path[-1]]
        size = draw(st.integers(0, len(items) + 2))
        filler = items[-1] if items else 1.0
        parent[path[-1]] = (items + [filler] * size)[:size]
    else:
        parent[path[-1]] = draw(st.sampled_from(
            ["x", {}, [], None, True, -1, 0.0, float("nan"), 10 ** 400]))


def parent_of(doc, path):
    node = doc
    for key in path[:-1]:
        node = node[key]
    return node


@pytest.fixture(scope="module")
def field_csv(tmp_path_factory):
    rng = seeded_rng(3)
    x = rng.uniform(0.0, 1.0, size=(30, 2))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1]
    path = tmp_path_factory.mktemp("fuzz") / "field.csv"
    data.save_dataset_csv(path, data.Dataset(x, y, ["x1", "x2"], "y"))
    return str(path)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_spec_and_bank_files_only_ever_exit_0_or_1(field_csv, fuzz):
    doc = copy.deepcopy(fuzz.draw(st.sampled_from(VALID_DOCS)))
    if fuzz.draw(st.booleans()):
        mutate(doc, fuzz.draw)
    command = fuzz.draw(st.sampled_from(["spectrum", "fit"]))
    with tempfile.TemporaryDirectory() as work:
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(work, "out")
        if command == "spectrum":
            argv = ["spectrum", "--spec", spec_path, "--dim", "2", "--m", "4",
                    "--out-dir", out]
        else:
            argv = fit_argv(field_csv, spec_path, out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1)
    if code == 1:
        assert_one_line_error(code, err.getvalue())
