"""CSV/grid/split plumbing, including the 17-digit round-trip contract."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_rff import data
from spectral_rff.data import (Dataset, GridSpec, StandardizationStats,
                               destandardize_predictions, grid_blocks, load_csv,
                               read_table, save_dataset_csv, split,
                               standardize, standardize_inputs,
                               write_matrix_csv, write_pgm,
                               write_predictions_csv)
from spectral_rff.errors import (ConstantColumn, DegenerateSplit, EmptyFile,
                                 MissingColumn, NonNumericCell)


def toy_dataset(n=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    y = rng.standard_normal(n)
    return Dataset(x, y, [f"x{i}" for i in range(d)], "y")


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.zeros(2), ["a"], "y")
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 1)), np.zeros(1), ["a"], "y")
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan], [1.0]]), np.zeros(2), ["a"], "y")
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(3), ["a"], "y")
    ds = toy_dataset(5, 3)
    assert ds.n == 5 and ds.dim == 3


def test_csv_round_trip_is_bit_exact(tmp_path):
    ds = toy_dataset(40, 3, seed=4)
    # throw in awkward magnitudes on purpose
    ds.x[0, 0] = 1.0 / 3.0
    ds.x[1, 1] = 1e-17
    ds.y[2] = np.pi * 1e8
    path = tmp_path / "t.csv"
    save_dataset_csv(path, ds)
    back = load_csv(path, ds.input_columns, "y")
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.y, ds.y)


@settings(max_examples=60, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_seventeen_digit_format_round_trips(v):
    assert float(format(v, ".17g")) == v


def test_read_table_column_order_and_subset(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    out = read_table(path, ["c", "a"])
    np.testing.assert_array_equal(out, [[3.0, 1.0], [6.0, 4.0]])


def test_read_table_header_only_gives_zero_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    out = read_table(path, ["b"])
    assert out.shape == (0, 1)


def test_read_table_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptyFile):
        read_table(empty, ["a"])
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(MissingColumn):
        read_table(path, ["z"])
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(NonNumericCell) as err:
        read_table(bad, ["a", "b"])
    assert err.value.row == 2 and err.value.column == "b"
    short = tmp_path / "short.csv"
    short.write_text("a,b\n1\n")
    with pytest.raises(NonNumericCell):
        read_table(short, ["a", "b"])
    inf = tmp_path / "inf.csv"
    inf.write_text("a\ninf\n")
    with pytest.raises(NonNumericCell):
        read_table(inf, ["a"])


def test_load_csv_needs_two_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1,2\n")
    with pytest.raises(EmptyFile):
        load_csv(path, ["a"], "y")


def test_standardize_moments_and_round_trip():
    ds = toy_dataset(50, 2, seed=1)
    out, stats = standardize(ds)
    assert out.standardized
    np.testing.assert_allclose(out.x.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.x.std(axis=0), 1.0, rtol=1e-12)
    assert out.y.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.y.std() == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(standardize_inputs(ds.x, stats), out.x)
    mean, var = destandardize_predictions(out.y, np.ones(ds.n), stats)
    np.testing.assert_allclose(mean, ds.y, atol=1e-12)
    np.testing.assert_allclose(var, stats.output_std ** 2)


def test_standardize_rejects_constant_columns():
    x = np.ones((5, 1))
    with pytest.raises(ConstantColumn):
        standardize(Dataset(x, np.arange(5.0), ["a"], "y"))
    with pytest.raises(ConstantColumn):
        standardize(Dataset(np.arange(5.0)[:, None], np.ones(5), ["a"], "y"))


def test_split_is_a_partition_and_deterministic():
    ds = toy_dataset(23, 2, seed=2)
    tr, te = split(ds, 0.7, seed=11)
    assert tr.n == round(0.7 * 23) and tr.n + te.n == 23
    again_tr, again_te = split(ds, 0.7, seed=11)
    np.testing.assert_array_equal(tr.x, again_tr.x)
    np.testing.assert_array_equal(te.y, again_te.y)
    # every original row lands exactly once, pairing intact
    rows = {tuple(r) + (v,) for r, v in zip(ds.x, ds.y)}
    got = {tuple(r) + (v,) for part in (tr, te) for r, v in zip(part.x, part.y)}
    assert rows == got


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=5, max_value=60),
       st.floats(min_value=0.3, max_value=0.9),
       st.integers(min_value=0, max_value=2 ** 31))
def test_split_partition_property(n, frac, seed):
    ds = toy_dataset(n, 1, seed=3)
    try:
        tr, te = split(ds, frac, seed)
    except DegenerateSplit:
        return
    assert tr.n + te.n == n
    merged = np.sort(np.concatenate([tr.y, te.y]))
    np.testing.assert_array_equal(merged, np.sort(ds.y))


def test_split_degenerate_cases():
    ds = toy_dataset(10, 1)
    with pytest.raises(DegenerateSplit):
        split(ds, 0.0, 0)
    with pytest.raises(DegenerateSplit):
        split(ds, 1.0, 0)
    with pytest.raises(DegenerateSplit):
        split(ds, 0.05, 0)   # one-row train side
    with pytest.raises(DegenerateSplit):
        split(ds, 0.99, 0)   # empty test side
    with pytest.raises(DegenerateSplit):
        split(ds, 0.9, 0)    # one-row test side


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0,), (1.0,), (1,))
    with pytest.raises(ValueError):
        GridSpec((0.0,), (0.0,), (3,))
    with pytest.raises(ValueError):
        GridSpec((0.0, 0.0), (1.0,), (3, 3))
    for lo, hi in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec((lo,), (hi,), (3,))
    assert GridSpec((0.0, 1.0), (1.0, 2.0), (3, 4)).dim == 2


def meshgrid_rows(spec):
    """The whole grid as one meshgrid, the transcription grid_blocks replaced."""
    axes = [np.linspace(lo, hi, c) for lo, hi, c in zip(spec.mins, spec.maxs, spec.counts)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def test_grid_blocks_are_row_major():
    spec = GridSpec((0.0, 10.0), (1.0, 11.0), (2, 3))
    expected = np.array([[0.0, 10.0], [0.0, 10.5], [0.0, 11.0],
                         [1.0, 10.0], [1.0, 10.5], [1.0, 11.0]])
    np.testing.assert_allclose(np.concatenate(list(grid_blocks(spec, 4))), expected)
    for spec in (GridSpec((2.0,), (3.0,), (5,)), spec,
                 GridSpec((-1.0, 0.0, 5.0), (1.0, 3.0, 6.0), (4, 3, 7))):
        whole = meshgrid_rows(spec)
        total = len(whole)
        # total - 1 leaves one point over, as does 2 for the 5-point line
        for rows in (2, 3, 5, total, total + 1, total - 1):
            blocks = list(grid_blocks(spec, rows))
            np.testing.assert_array_equal(np.concatenate(blocks), whole)
            assert all(len(b) == rows for b in blocks[:-1]), (rows, total)
            assert 2 <= len(blocks[-1]) <= rows + 1, (rows, total)


def test_matrix_csv_round_trip(tmp_path):
    m = np.random.default_rng(5).standard_normal((3, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    back = np.array([[float(c) for c in line.split(",")]
                     for line in path.read_text().splitlines()])
    np.testing.assert_array_equal(back, m)


def test_predictions_csv_layout(tmp_path):
    path = tmp_path / "p.csv"
    write_predictions_csv(path, [(np.array([[1.0, 2.0]]), [0.5], [0.25])],
                          ["a", "b"])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,mean,variance"
    assert lines[1] == "1,2,0.5,0.25"


def per_cell_table(path, header, rows):
    """Reference writer: csv.writer with one format() call per cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") for v in row])


def test_table_writers_match_the_per_cell_reference(tmp_path):
    # two full chunks and a ragged third, awkward magnitudes, signed zero
    # and column names that csv.writer has to quote
    n = 2 * data.CHUNK_ROWS + 5
    rng = np.random.default_rng(6)
    x = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    x[0] = [-0.0, 5e-324]
    x[1] = [1.7976931348623157e308, 1.0 / 3.0]
    y = rng.standard_normal(n)
    names = ["a,b", 'q"x']
    save_dataset_csv(tmp_path / "data.csv", Dataset(x, y, names, "y z"))
    per_cell_table(tmp_path / "data_ref.csv", names + ["y z"],
                   np.column_stack([x, y]))
    assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "data_ref.csv").read_bytes()
    var = np.abs(y)
    var[2] = np.inf
    # blocks of one write chunk and a ragged rest, as predict streams them
    cut = data.CHUNK_ROWS
    write_predictions_csv(tmp_path / "pred.csv",
                          [(x[:cut], y[:cut], var[:cut]), (x[cut:], y[cut:], var[cut:])],
                          names)
    per_cell_table(tmp_path / "pred_ref.csv", names + ["mean", "variance"],
                   np.column_stack([x, y, var]))
    assert (tmp_path / "pred.csv").read_bytes() == (tmp_path / "pred_ref.csv").read_bytes()


def test_pgm_bytes_golden(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.0, 1.0], [0.5, 1.0]]))
    content = path.read_bytes()
    assert content == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 255])
    write_pgm(path, np.full((2, 3), 7.0))
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)
