"""CSV validation: the data readers' errors and the CLI's exits.

A malformed data CSV given to ``fit --data``, or a malformed query CSV
given to ``predict --data``, must fail with exit code 1 and a one-line
message, never with a traceback.
"""

import contextlib
import csv
import io
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_rff import cli, data
from spectral_rff.errors import (EmptyFile, MalformedCsv, MissingColumn,
                                 NonNumericCell)
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


# --- the block reader against a per-cell reference ------------------------

def per_cell_reference(path, columns, rows):
    """The reader as it was before blocks went through np.loadtxt: one
    csv.reader over the whole file and float() of each stripped cell."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise EmptyFile(f"{path} has no header row")
            header = [h.strip() for h in header]
            repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
            if repeated is not None:
                raise MalformedCsv(f"{path}: column {repeated!r} appears more "
                                   f"than once in the header")
            idx = []
            for name in columns:
                if name not in header:
                    raise MissingColumn(f"column {name!r} not in header {header}")
                idx.append(header.index(name))
            blocks, values = [], []
            for r, record in enumerate(reader, start=1):
                for name, j in zip(columns, idx):
                    text = record[j].strip() if j < len(record) else ""
                    try:
                        value = float(text)
                    except ValueError:
                        raise NonNumericCell(r, name) from None
                    if not math.isfinite(value):
                        raise NonNumericCell(r, name)
                    values.append(value)
                if r % rows == 0:
                    blocks.append(np.array(values).reshape(-1, len(columns)))
                    values = []
            if values:
                blocks.append(np.array(values).reshape(-1, len(columns)))
            return blocks
        except csv.Error as exc:
            raise MalformedCsv(f"{path}: {exc}") from None


def read_outcome(read, path, columns, rows):
    """(shape, bytes) of every block, or the exception's type and message;
    any warning fails the read."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return [(b.shape, b.dtype, b.tobytes()) for b in read(path, columns, rows)]
    except Exception as exc:
        return type(exc), str(exc)


# cells both readers parse; then cells only float() accepts, cells
# neither accepts, and cells that split lines or fields differently in
# the csv module than in np.loadtxt
GOOD_CELLS = ["0", "1", "-2.5", "0.1", "1e-320", "5e-324", "1.7976931348623157e308",
              " 3 ", "\t4", "+.5", "7.", " 8", "9\x0c"]
ODD_CELLS = ["1_000", "\u0661\u0662", "\uff11", "", " ", "#", "1#2", "nan", "-inf",
             "inf", "1e400", "abc", "0x10", '"5"', '"1,2"', '",5,"', '"3\n4"',
             '"1\n2,3,"', '"6\r\n"', "\x00", "1\x002", LONG_FIELD]
ENDS = ["\n", "\r\n", "\r"]
SPLICES = ['"', ",", "\n", "\r", "\r\n", " ", "\x00", "#", "_", "\u00e9", "\n\n",
           LONG_FIELD]


@st.composite
def table_text(draw):
    """A three-column header and rows of 0-4 parseable cells, some rows
    ragged; then up to two cells swapped for odd ones and up to two
    characters spliced in anywhere after the header."""
    cell = st.one_of(st.sampled_from(GOOD_CELLS),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr))
    table = [[draw(cell) for _ in range(draw(st.sampled_from([3, 3, 3, 3, 0, 1, 2, 4])))]
             for _ in range(draw(st.integers(0, 9)))]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(table)) if table else []
        if row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
    body = "".join(",".join(row) + draw(st.sampled_from(ENDS)) for row in table)
    if body and draw(st.booleans()):
        body = body.rstrip("\r\n")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from(SPLICES)) + body[at:]
    return "a,b,c" + draw(st.sampled_from(ENDS)) + body


@settings(max_examples=400, deadline=None)
@given(table_text(), st.sampled_from([["a"], ["b"], ["c", "a"], ["a", "b", "c"]]),
       st.integers(1, 5))
# texts np.loadtxt alone would read otherwise (the first four in a column
# not read) or would warn about
@example('a,b,c\n9,",5,",7\n', ["c", "a"], 4)              # a quoted comma
@example('a,b,c\n0,"1\n2,3,",4\n5,6,7\n', ["a"], 2)       # a quoted newline
@example(f"a,b,c\n1,{LONG_FIELD},2\n", ["c", "a"], 1)      # an oversized field
@example("a,b,c\n1,\x00,2\n3,4,5\n", ["a"], 3)              # a NUL
@example("a,b,c\n1,2,3\n\n4,5,6\n", ["a"], 3)               # a blank line
@example("a,b,c\n\r\n\n", ["b"], 2)                          # only blank lines
@example("a,b,c\r1,2,3\r4,1_000,5\r", ["b"], 5)             # a cell only float() reads
# a quoted field across a block's end, and an error past the first block
@example('a,b,c\n1,"2\r\n",3\n4,5,6\n7,8,9\n', ["b", "a"], 1)
@example("a,b,c\n1,2,3\n4,5,6\n7,oops,9\n", ["b"], 2)
def test_block_reader_matches_the_per_cell_reference(text, columns, rows):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert (read_outcome(data.read_blocks, path, columns, rows)
                == read_outcome(per_cell_reference, path, columns, rows))

