"""CSV validation: the data readers' errors and the CLI's exits.

A malformed data CSV given to ``fit --data``, or a malformed query CSV
given to ``predict --data``, must fail with exit code 1 and a one-line
message, never with a traceback.
"""

import contextlib
import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_rff import cli, data
from spectral_rff.errors import MalformedCsv
from spectral_rff.linalg import seeded_rng

# one character more than the csv module's default field size limit
LONG_FIELD = "1" * (csv.field_size_limit() + 1)


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_one_line_error(code, err):
    """Exit 1 and one error line, after at most the command's progress lines."""
    assert code == 1
    lines = [line for line in err.strip().splitlines() if not line.startswith("fit: ")]
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def fit_argv(csv_path, out_dir):
    return ["fit", "--data", str(csv_path), "--m", "4", "--max-steps", "3",
            "--eval-every", "1", "--out-dir", str(out_dir)]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """A small 1-d model trained on a column named t."""
    base = tmp_path_factory.mktemp("model")
    rng = seeded_rng(0)
    t = np.sort(rng.uniform(0.0, 1.0, 30)).reshape(-1, 1)
    y = np.sin(6.0 * t[:, 0]) + 0.1 * rng.standard_normal(30)
    data.save_dataset_csv(base / "sine.csv", data.Dataset(t, y, ["t"], "y"))
    assert cli.main(fit_argv(base / "sine.csv", base)) == 0
    return str(base / "model.json")


def test_an_oversized_field_is_one_malformed_csv_line(tmp_path):
    in_header = tmp_path / "header.csv"
    in_header.write_text(f"t,{LONG_FIELD}\n1,2\n")
    in_row = tmp_path / "row.csv"
    in_row.write_text(f"t,y\n1,2\n3,{LONG_FIELD}\n")
    for read in (data.csv_header, lambda path: data.read_table(path, ["t"])):
        with pytest.raises(MalformedCsv, match="header.csv: field larger"):
            read(in_header)
    assert data.csv_header(in_row) == ["t", "y"]
    with pytest.raises(MalformedCsv, match="row.csv: field larger"):
        data.read_table(in_row, ["t", "y"])


def test_fit_with_an_oversized_field_exits_1_with_one_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(f"t,y\n0.1,0.5\n{LONG_FIELD},1\n0.3,0.2\n")
    code, err = run_cli(fit_argv(path, tmp_path / "out"))
    assert_one_line_error(code, err)
    assert not (tmp_path / "out").exists()


def test_predict_with_an_oversized_field_exits_1_with_one_line(model_path, tmp_path):
    path = tmp_path / "query.csv"
    path.write_text(f"t\n0.5\n{LONG_FIELD}\n")
    out = tmp_path / "out"
    code, err = run_cli(["predict", "--model", model_path, "--data", str(path),
                         "--out-dir", str(out)])
    assert_one_line_error(code, err)
    assert not (out / "predictions.csv").exists()


# --- fuzzing -------------------------------------------------------------

# pieces of CSV text: separators, quotes, numbers that do not parse or
# overflow, a NUL, a non-ASCII letter and a field past the size limit
TOKENS = ["t", "y", ",", "\n", "\r\n", "\r", '"', " ", "-", ".", "e", "0",
          "1", "0.25", "nan", "inf", "1e999", "1e-320", "\x00", "é",
          LONG_FIELD]


@st.composite
def csv_text(draw, headers):
    """A header and numeric rows, then a few tokens spliced in anywhere."""
    rows = draw(st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
                         max_size=12))
    text = draw(st.sampled_from(headers)) + "".join(
        f"{a!r},{b!r}\n" for a, b in rows)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
    return text


def run_on_text(argv, text):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return run_cli(argv(path, os.path.join(work, "out")))


@settings(max_examples=60, deadline=None)
@given(csv_text(["t,y\n", "y,t\n", "t,t,y\n", "t\n", ""]))
def test_fuzzed_data_csv_only_ever_exits_0_or_1(text):
    code, err = run_on_text(fit_argv, text)
    assert code in (0, 1), err
    if code == 1:
        assert_one_line_error(code, err)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzed_query_csv_only_ever_exits_0_or_1(model_path, fuzz):
    text = fuzz.draw(csv_text(["t\n", "t,y\n", "x\n", ""]))
    code, err = run_on_text(lambda path, out: ["predict", "--model", model_path,
                                               "--data", path, "--out-dir", out],
                            text)
    assert code in (0, 1), err
    if code == 1:
        assert_one_line_error(code, err)
