"""Dataset ingestion, standardization, splitting, grids and file formats.

CSV files are comma-separated with a mandatory header row, UTF-8, '.'
decimal. Floats are written with 17 significant digits so that a write
followed by a read is bit-exact.

Tables are read a block of lines at a time (read_blocks). Each block
goes through one np.loadtxt call, numpy's C tokenizer, and is kept only
if it gives one finite value per line and column. A block that holds a
quote, a NUL (which the csv module of Python 3.10 refuses) or a line
longer than the csv field limit could read differently in the csv
module, and skips that call. Any block not kept is read again cell by
cell with the csv module and float(), which is also the only path that
raises: every error keeps its type, its message and its data row number
in the whole file. On a 200,000-row, one-column query the block reader
took 69 ms where the per-cell reader alone took 168 ms (best of 9, one
AVX-512 Xeon core).
"""

import csv
import math
from array import array
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import (ConstantColumn, DegenerateSplit, EmptyFile,
                     MalformedCsv, MissingColumn, NonNumericCell)

# rows the table writers format per write, which bounds their working
# memory; read_table parses blocks of as many rows, and predict streams
# blocks of at most this many rows unless one predict chunk is longer
CHUNK_ROWS = 4096


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


def _records(lines, path):
    """csv records of an iterable of lines; a parser error, such as an
    oversized field, becomes one MalformedCsv line."""
    try:
        yield from csv.reader(lines)
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: {exc}") from None


def _csv_header(fh, path):
    """The stripped header row of an open CSV file, which is left at its
    first data line; a column named twice is one MalformedCsv line."""
    header = next(_records(fh, path), None)
    if not header:
        raise EmptyFile(f"{path} has no header row")
    header = [h.strip() for h in header]
    repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if repeated is not None:
        raise MalformedCsv(f"{path}: column {repeated!r} appears more than "
                           f"once in the header")
    return header


def _parsed_block(lines, usecols):
    """The block's lines through numpy's C tokenizer, or None where the
    csv module and _parse_cell might read them otherwise: a quote, a NUL,
    a line longer than the csv field limit, a blank line, a value that
    does not parse or is not finite, or a row count that is not one per
    line."""
    text = "".join(lines)
    if ('"' in text or "\0" in text or not text.strip("\r\n")
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None,
                           usecols=usecols, ndmin=2)
    except ValueError:
        return None
    if block.shape != (len(lines), len(usecols)) or not np.isfinite(block).all():
        return None
    return block


def _per_cell_block(records, wanted, rows, first_row):
    """Up to ``rows`` records through _parse_cell, one cell at a time,
    gathered in one flat float64 buffer and reshaped once; the first is
    data row ``first_row`` + 1."""
    values = array("d")
    for r, record in enumerate(islice(records, rows), start=first_row + 1):
        for name, j in wanted:
            cell = record[j] if j < len(record) else None
            values.append(_parse_cell(cell, r, name))
    return np.frombuffer(values, dtype=float).reshape(-1, len(wanted))


def read_blocks(path, columns, rows):
    """Yield the named numeric columns, ``rows`` data rows at a time, as
    (rows, len(columns)) arrays; the last block may be shorter, and a
    header-only file yields none.

    Each block of ``rows`` lines is parsed by one np.loadtxt call, and
    kept if that gives one finite row per line. Any other block is read
    again by the csv module and float(), cell by cell, from its first
    line on; that path gives the values float() accepts and loadtxt does
    not (such as 1_000), follows quoted fields across lines, and raises
    every error: MalformedCsv from the csv module, NonNumericCell for a
    missing or non-numeric field, with the 1-based data row index in the
    whole file.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = _csv_header(fh, path)
        idx = []
        for name in columns:
            if name not in header:
                raise MissingColumn(f"column {name!r} not in header {header}")
            idx.append(header.index(name))
        first_row = 0
        lines = []
        while True:
            lines.extend(islice(fh, rows))
            if not lines:
                return
            block = _parsed_block(lines, idx)
            if block is None:
                records = _records(chain(lines, fh), path)
                block = _per_cell_block(records, list(zip(columns, idx)), rows, first_row)
            lines.clear()
            first_row += len(block)
            yield block


def read_table(path, columns):
    """Read the named numeric columns; returns an (n, len(columns)) array,
    the blocks of read_blocks joined in file order."""
    blocks = list(read_blocks(path, columns, CHUNK_ROWS))
    if blocks:
        return np.concatenate(blocks)
    return np.empty((0, len(columns)), dtype=float)


def csv_header(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _csv_header(fh, path)


def load_csv(path, input_columns, output_column):
    """Load a training table into a Dataset (needs at least 2 rows)."""
    table = read_table(path, list(input_columns) + [output_column])
    if table.shape[0] == 0:
        raise EmptyFile(f"{path} has a header but no data rows")
    if table.shape[0] < 2:
        raise EmptyFile(f"{path} has fewer than 2 data rows")
    return Dataset(table[:, :-1], table[:, -1], list(input_columns), output_column)


def _write_table(path, header, blocks):
    """Each block, a list of (n,) or (n, k) arrays side by side, under a
    csv.writer header; rows are formatted CHUNK_ROWS at a time, so
    no block is stacked or turned into Python floats at once, and blocks
    are written as they come. Returns the number of rows written."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for columns in blocks:
            n = len(columns[0])
            for lo in range(0, n, CHUNK_ROWS):
                chunk = np.column_stack([c[lo:lo + CHUNK_ROWS] for c in columns])
                row = ",".join(["%.17g"] * chunk.shape[1]) + "\r\n"
                fh.write((row * chunk.shape[0]) % tuple(chunk.ravel().tolist()))
            rows += n
    return rows


def save_dataset_csv(path, dataset):
    _write_table(path, list(dataset.input_columns) + [dataset.output_column],
                 [(dataset.x, dataset.y)])


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


def split_rows(n, train_fraction):
    """Training rows of a split of n rows, refusing a fraction outside (0, 1)
    or one that leaves either side fewer than the 2 rows of a dataset."""
    if not 0.0 < train_fraction < 1.0:
        raise DegenerateSplit(f"train fraction {train_fraction} not in (0, 1)")
    n_train = int(round(train_fraction * n))
    if n_train < 2 or n - n_train < 2:
        raise DegenerateSplit(f"fraction {train_fraction} leaves a degenerate side for n={n}")
    return n_train


def validation_rows(n, validation_fraction):
    """Rows held out for validation from n training rows (at least one),
    refusing a fraction that leaves fewer than 2 rows to train on."""
    n_val = max(1, int(round(validation_fraction * n)))
    if n - n_val < 2:
        raise DegenerateSplit(f"validation fraction {validation_fraction} "
                              f"leaves {n - n_val} training rows")
    return n_val


def split(dataset, train_fraction, seed):
    """Seeded uniform partition into (train, test) datasets."""
    n_train = split_rows(dataset.n, train_fraction)
    perm = np.random.default_rng(seed).permutation(dataset.n)
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


def write_predictions_csv(path, blocks, input_columns):
    """Write (x, mean, variance) blocks under the input columns, ``mean`` and
    ``variance``, each block as it comes; returns the number of rows."""
    return _write_table(path, list(input_columns) + ["mean", "variance"],
                        ((np.atleast_2d(np.asarray(x, dtype=float)), mean, variance)
                         for x, mean, variance in blocks))


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
