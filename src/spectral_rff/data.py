"""Dataset ingestion, standardization, splitting, grids and file formats.

CSV files are comma-separated with a mandatory header row, UTF-8, '.'
decimal. Floats are written with 17 significant digits so that a write
followed by a read is bit-exact.
"""

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (ConstantColumn, DegenerateSplit, EmptyFile,
                     MalformedCsv, MissingColumn, NonNumericCell)

# rows the table writers format per write, which bounds their working memory
WRITE_CHUNK_ROWS = 4096


def _fmt(v):
    return format(float(v), ".17g")


@dataclass(eq=False)
class Dataset:
    x: np.ndarray                 # (n, D)
    y: np.ndarray                 # (n,)
    input_columns: list
    output_column: str
    standardized: bool = False

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y row counts disagree")
        if self.x.shape[0] < 2:
            raise ValueError("a dataset needs at least 2 rows")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset values must be finite")
        if len(self.input_columns) != self.x.shape[1]:
            raise ValueError("one input column name per input dimension required")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class StandardizationStats:
    input_mean: np.ndarray
    input_std: np.ndarray
    output_mean: float
    output_std: float


@dataclass(frozen=True, eq=False)
class GridSpec:
    mins: tuple
    maxs: tuple
    counts: tuple

    def __post_init__(self):
        mins = tuple(float(v) for v in np.atleast_1d(self.mins))
        maxs = tuple(float(v) for v in np.atleast_1d(self.maxs))
        counts = tuple(int(v) for v in np.atleast_1d(self.counts))
        if not (len(mins) == len(maxs) == len(counts)) or not mins:
            raise ValueError("mins, maxs and counts must share a nonzero length")
        for lo, hi, c in zip(mins, maxs, counts):
            if c < 2:
                raise ValueError("grid needs at least 2 points per dimension")
            if not math.isfinite(hi - lo):
                raise ValueError("grid bounds and their span must be finite")
            if not hi > lo:
                raise ValueError("grid max must exceed min in every dimension")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self):
        return len(self.counts)


def _parse_cell(cell, row_idx, column):
    text = cell.strip() if cell is not None else ""
    if not text:
        raise NonNumericCell(row_idx, column)
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(row_idx, column) from None
    if not math.isfinite(value):
        raise NonNumericCell(row_idx, column)
    return value


def _csv_records(fh, path):
    """The stripped header row of an open CSV file, then its records; a
    parser error, such as an oversized field, becomes one MalformedCsv line."""
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise EmptyFile(f"{path} has no header row")
        yield [h.strip() for h in header]
        yield from reader
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: {exc}") from None


def read_table(path, columns):
    """Read the named numeric columns; returns an (n, len(columns)) array.

    Rows are kept in file order; any missing or non-numeric field raises
    NonNumericCell with the 1-based data row index. Values are gathered
    in one flat float64 buffer, 8 bytes a cell, and reshaped once.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv_records(fh, path)
        header = next(reader)
        idx = []
        for name in columns:
            if name not in header:
                raise MissingColumn(f"column {name!r} not in header {header}")
            idx.append(header.index(name))
        wanted = list(zip(columns, idx))
        values = array("d")
        for r, record in enumerate(reader, start=1):
            for name, j in wanted:
                cell = record[j] if j < len(record) else None
                values.append(_parse_cell(cell, r, name))
    if values:
        return np.frombuffer(values, dtype=float).reshape(-1, len(columns))
    return np.empty((0, len(columns)), dtype=float)


def csv_header(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return next(_csv_records(fh, path))


def load_csv(path, input_columns, output_column):
    """Load a training table into a Dataset (needs at least 2 rows)."""
    table = read_table(path, list(input_columns) + [output_column])
    if table.shape[0] == 0:
        raise EmptyFile(f"{path} has a header but no data rows")
    if table.shape[0] < 2:
        raise EmptyFile(f"{path} has fewer than 2 data rows")
    return Dataset(table[:, :-1], table[:, -1], list(input_columns), output_column)


def _write_table(path, header, columns):
    """``columns``, (n,) or (n, k) arrays side by side, under a csv.writer
    header; rows are formatted WRITE_CHUNK_ROWS at a time, so the whole
    table is never stacked or turned into Python floats at once."""
    n = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n, WRITE_CHUNK_ROWS):
            chunk = np.column_stack([c[lo:lo + WRITE_CHUNK_ROWS] for c in columns])
            row = ",".join(["%.17g"] * chunk.shape[1]) + "\r\n"
            fh.write((row * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def save_dataset_csv(path, dataset):
    _write_table(path, list(dataset.input_columns) + [dataset.output_column],
                 [dataset.x, dataset.y])


def standardize(dataset):
    """Shift/scale every column to zero mean and unit variance.

    Returns (standardized dataset, stats). Population (ddof=0) standard
    deviations are used. A zero-variance column raises ConstantColumn.
    """
    mu_x = dataset.x.mean(axis=0)
    sd_x = dataset.x.std(axis=0)
    mu_y = float(dataset.y.mean())
    sd_y = float(dataset.y.std())
    if np.any(sd_x == 0.0):
        bad = dataset.input_columns[int(np.argmax(sd_x == 0.0))]
        raise ConstantColumn(f"input column {bad!r} has zero variance")
    if sd_y == 0.0:
        raise ConstantColumn(f"output column {dataset.output_column!r} has zero variance")
    stats = StandardizationStats(mu_x, sd_x, mu_y, sd_y)
    out = Dataset((dataset.x - mu_x) / sd_x, (dataset.y - mu_y) / sd_y,
                  list(dataset.input_columns), dataset.output_column,
                  standardized=True)
    return out, stats


def standardize_inputs(x, stats):
    return (np.atleast_2d(np.asarray(x, dtype=float)) - stats.input_mean) / stats.input_std


def destandardize_predictions(mean, variance, stats):
    """Map standardized predictive moments back to original units."""
    return (np.asarray(mean) * stats.output_std + stats.output_mean,
            np.asarray(variance) * stats.output_std ** 2)


def split(dataset, train_fraction, seed):
    """Seeded uniform partition into (train, test) datasets."""
    if not 0.0 < train_fraction < 1.0:
        raise DegenerateSplit(f"train fraction {train_fraction} not in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    n_train = int(round(train_fraction * dataset.n))
    # both sides must be datasets in their own right (>= 2 rows)
    if n_train < 2 or dataset.n - n_train < 2:
        raise DegenerateSplit(
            f"fraction {train_fraction} leaves a degenerate side for n={dataset.n}")
    tr, te = perm[:n_train], perm[n_train:]
    make = lambda rows: Dataset(dataset.x[rows], dataset.y[rows],
                                list(dataset.input_columns), dataset.output_column,
                                standardized=dataset.standardized)
    return make(tr), make(te)


def make_grid(spec):
    """Row-major Cartesian grid: first dimension varies slowest."""
    axes = [np.linspace(lo, hi, c)
            for lo, hi, c in zip(spec.mins, spec.maxs, spec.counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def write_matrix_csv(path, matrix):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in matrix:
            fh.write(",".join(_fmt(v) for v in row))
            fh.write("\n")


def write_predictions_csv(path, x, mean, variance, input_columns):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _write_table(path, list(input_columns) + ["mean", "variance"], [x, mean, variance])


def write_pgm(path, matrix):
    """8-bit grayscale PGM of a 2-d array, min-max scaled; rows top down."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lo, hi = float(matrix.min()), float(matrix.max())
    if hi > lo:
        scaled = np.rint((matrix - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(matrix.shape, dtype=np.uint8)
    h, w = matrix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())
