"""Command line interface: fit, predict, grid, kernel-dump, spectrum, benchmark.

Exit codes: 0 success, 1 validation problem (bad flags, bad files, shape
mismatches), 2 numerical failure (factorization breakdown, diverged
optimization). The machine-readable result goes to stdout; progress and
diagnostics go to stderr.

The numeric stack is imported inside the command handlers, not at module
level: BLAS pools size themselves when numpy first loads, so the
SPECTRAL_RFF_THREADS cap has to reach the environment before that. That
stack is numpy and scipy.linalg; scipy.stats loads only on the first
copula or quantile call, so no fit or predict pays for it unless it
uses one.

The query commands stream. predict and grid share one block pipeline
(_write_predictions): blocks of whole predict chunks, read from the CSV
or made from the grid's axes, are standardized, predicted and written
with running row numbers to a partial file that is renamed into place,
or removed on any error with the --out-dir the call made. kernel-dump
maps each anchor's window a chunk at a time, with the anchor at the
head of every block. Each size guard counts what its command holds.
"""

import argparse
import math
import os
import sys

from .errors import InvalidSpec, NumericalError, SchemaMismatch, SpectralRffError

EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# benchmark defaults: (rows, --m, --max-steps); stock-csv rows come from --data
_BENCHMARK_DEFAULTS = {"chirp": (600, 600, 450), "step-lengthscale": (700, 100, 300),
                       "stock-csv": (None, 600, 450)}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; route that to the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _finite_float(text):
    """argparse type for a float flag that must be a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _log(message):
    print(message, file=sys.stderr)


def _check_memory(nbytes, what):
    """Refuse ``nbytes`` beyond physical memory, before anything is allocated."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        gib = nbytes / 2 ** 30 if nbytes < 2 ** 1000 else math.inf   # no float overflow
        raise InvalidSpec(f"{what} needs about {gib:.3g} GiB, more than "
                          f"the {total / 2 ** 30:.3g} GiB of physical memory")


def _check_fit_memory(n, m, what):
    """Size guard for training m frequencies on n rows. It counts one
    step's four n x 2m arrays (two cos/sin pairs, phi and the outer
    product) plus fit_state's 2m x 2m system and factor, plus (2m)^2 / 2
    doubles for the block copies of a step's recursive inverse. A fit
    holds the larger of the step, which adds two k x k arrays and at
    most k^2 / 2 doubles of copies with k = min(n, 2m), and fit_state,
    so this sum is the conservative bound. It also counts the median
    heuristic's r(r - 1)/2 pairwise differences of r <= min(n, 1000) rows."""
    r = min(n, 1000)   # median_heuristic_lengthscales' max_rows
    _check_memory(16 * m * (4 * n + 5 * m) + 4 * r * (r - 1), what)


def apply_thread_cap(environ=os.environ):
    """Copy SPECTRAL_RFF_THREADS into the BLAS thread-count variables."""
    cap = environ.get("SPECTRAL_RFF_THREADS")
    if cap is None or cap == "":
        return
    try:
        value = int(cap)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidSpec(f"SPECTRAL_RFF_THREADS must be a positive integer, "
                          f"got {cap!r}")
    for var in _THREAD_VARS:
        environ[var] = str(value)


def _split_names(token):
    names = [part.strip() for part in token.split(",") if part.strip()]
    if not names:
        raise InvalidSpec(f"no column names in {token!r}")
    repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if repeated is not None:
        raise InvalidSpec(f"column {repeated!r} is named more than once in {token!r}")
    return names


def _resolve_columns(path, inputs, output_col):
    """Pick input/output columns from flags, defaulting from the header."""
    from .data import csv_header
    from .errors import MissingColumn

    header = csv_header(path)
    out = output_col if output_col is not None else header[-1]
    if out not in header:
        raise MissingColumn(f"output column {out!r} not in {header}")
    if inputs is not None:
        cols = _split_names(inputs)
        if out in cols:
            raise InvalidSpec(f"output column {out!r} is also listed as an input")
    else:
        cols = [c for c in header if c != out]
    if not cols:
        raise InvalidSpec("no input columns left after removing the output")
    return cols, out


def _load_dataset(args):
    from .data import load_csv

    cols, out = _resolve_columns(args.data, args.inputs, args.output_col)
    return load_csv(args.data, cols, out)


def _flag_number(kind, text, flag, token):
    """``kind(text)`` for one field of a flag's value, refused by the flag
    and the field rather than by Python's conversion message."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InvalidSpec(f"{flag} {token!r}: {text.strip()!r} is not {noun}") from None


def _parse_named_measure(token, dim):
    from . import measures

    name, _, rest = token.partition(":")
    values = [_flag_number(float, v, "--spec", token)
              for v in rest.split(",") if v.strip()] if rest else []

    def per_dim(vals, default):
        if not vals:
            return (default,) * dim
        if len(vals) == 1:
            return (vals[0],) * dim
        return tuple(vals)

    if name == "se":
        return measures.GaussianSE(per_dim(values, 1.0))
    if name == "laplacian":
        return measures.LaplacianCauchy(per_dim(values, 1.0))
    if name == "matern":
        if not values:
            raise InvalidSpec("matern needs a smoothness value, e.g. matern:1.5")
        return measures.MaternT(values[0], values[1] if len(values) > 1 else 1.0)
    if name == "student-t":
        if not values:
            raise InvalidSpec("student-t needs degrees of freedom, e.g. student-t:0.5")
        return measures.student_t_spec(values[0], values[1] if len(values) > 1 else 1.0)
    raise InvalidSpec(f"unknown spectral measure {token!r}; expected "
                      f"se[:l1,..], laplacian[:s1,..], matern:lam[,scale], "
                      f"student-t:dof[,scale] or a JSON file")


def _resolve_spec(token, dim):
    """Map a --spec value to a measure, a frequency bank, or None."""
    from .measures import load_spec

    if token is None:
        return None
    if os.path.exists(token) or token.endswith(".json"):
        return load_spec(token)
    return _parse_named_measure(token, dim)


def _outdir(args):
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _out(args, name):
    return os.path.join(args.out_dir, name)


def _metrics_line(mse, corr):
    return f"mse={format(mse, '.17g')} corr={format(corr, '.17g')}"


def cmd_fit(args):
    from . import model
    from .benchmarks import fit_and_score
    from .data import split_rows, validation_rows
    from .measures import FrequencyBank
    from .training import MODES, TrainConfig, check_spec_init

    dataset = _load_dataset(args)
    n_train = split_rows(dataset.n, args.split)
    mode = next(name for name, m in MODES.items() if m.token == args.mode)
    spec_init = _resolve_spec(args.spec, dataset.dim)
    # a bank fixes m; without one an omitted --m means 100
    m = 100 if args.m is None else args.m
    what = f"fit with --m {m}"
    if isinstance(spec_init, FrequencyBank):
        if args.m not in (None, spec_init.m):
            raise InvalidSpec(f"--m {args.m} differs from the --spec bank's m {spec_init.m}")
        m = spec_init.m
        what = f"fit with the --spec bank's m {m}"
    config = TrainConfig(mode=mode, m=m,
                         learning_rate=args.lr, max_steps=args.max_steps,
                         patience=args.patience, eval_every=args.eval_every,
                         validation_fraction=args.val_frac,
                         dropout_sigma_p=args.sigma_p, seed=args.seed)
    validation_rows(n_train, config.validation_fraction)
    check_spec_init(spec_init, dataset.dim, mode)
    _check_fit_memory(dataset.n, m, what)
    _log(f"fit: {dataset.n} rows, dim {dataset.dim}, mode {args.mode}, m {m}")
    state, trace, mse, corr, _ = fit_and_score(dataset, config, args.split, spec_init)
    _outdir(args)
    model.save_model(_out(args, "model.json"), state)
    trace.to_csv(_out(args, "trace.csv"))
    _log(f"fit: stopped after {len(trace.train_neg_lml)} steps ({trace.stop_reason})")
    print(_metrics_line(mse, corr))
    return 0


def _refuse_first(bad, first_row, row, why):
    """Refuse the first row flagged in ``bad`` by its 1-based number,
    counted from ``first_row`` and named ``row``."""
    import numpy as np

    if bad.any():
        raise InvalidSpec(f"{row} {first_row + int(np.argmax(bad)) + 1} {why}")


_OVERFLOWS_ANGLE = "overflows its feature angles x . omega with the model's frequencies"


def _standardized(x, st, first_row=0, row="data row"):
    """Inputs in the model's standardized units; a finite row far outside
    the training range can overflow there, and is refused by its 1-based
    number, counted from ``first_row`` and named ``row``, rather than
    predicted as nan."""
    import numpy as np

    from . import data

    with np.errstate(over="ignore", invalid="ignore"):
        z = data.standardize_inputs(x, st)
    _refuse_first(~np.isfinite(z).all(axis=1), first_row, row,
                  "is not finite after standardizing with the model's input statistics")
    return z


def _predict_data_units(state, x, work=None, first_row=0, row="data row"):
    """Predictive mean and variance at raw inputs, in the data's units;
    ``x`` starts at ``row`` ``first_row`` + 1. A row whose angle x . omega
    overflows maps to nan features, and so to a nan mean, and is refused
    like a row that overflows when standardized."""
    import numpy as np

    from . import data, model

    st = state.standardization
    if st is not None:
        x = _standardized(x, st, first_row, row)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = model.predict(state, x, work)
    _refuse_first(~(np.isfinite(mean) & np.isfinite(var)), first_row, row, _OVERFLOWS_ANGLE)
    if st is None:
        return mean, var
    return data.destandardize_predictions(mean, var, st)


def _write_predictions(args, name, state, blocks, cols, row="data row", fields=()):
    """Predict each block of ``blocks(rows)`` and write it with its means
    and variances to ``name`` in --out-dir, a block at a time, so memory
    stays flat in the row count; ``fields``, if given, are filled with
    every mean and variance. The rows go to a partial file that becomes
    the output only once all are written. On any error it is removed,
    and --out-dir too if this call made it. Returns the rows written."""
    from . import data, model

    work = model.PredictWorkspace(state)
    # blocks of whole chunks, so each row is computed as in one call over
    # all rows; as many chunks as one write chunk holds, as 256-row blocks
    # were about 5% slower at m = 150
    rows = work.rows * max(1, data.CHUNK_ROWS // work.rows)

    def predicted():
        for i, x in enumerate(blocks(rows)):
            mean, var = _predict_data_units(state, x, work, i * rows, row)
            for field, values in zip(fields, (mean, var)):
                field[i * rows:i * rows + len(x)] = values
            yield x, mean, var

    made = not os.path.isdir(args.out_dir)
    path = os.path.join(_outdir(args), name)
    partial = f"{path}.{os.getpid()}.partial"
    try:
        written = data.write_predictions_csv(partial, predicted(), cols)
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        if made:
            os.rmdir(args.out_dir)
        raise
    return written


def cmd_predict(args):
    from . import data, model

    state = model.load_model(args.model)
    header = data.csv_header(args.data)
    if args.inputs is not None:
        cols = _split_names(args.inputs)
    elif state.input_columns and all(c in header for c in state.input_columns):
        cols = list(state.input_columns)
    else:
        cols = list(header)
    if len(cols) != state.bank.dim:
        raise SchemaMismatch(f"model expects {state.bank.dim} input columns, "
                             f"file provides {len(cols)}")
    written = _write_predictions(args, "predictions.csv", state,
                                 lambda rows: data.read_blocks(args.data, cols, rows), cols)
    _log(f"predict: wrote {written} rows")
    return 0


def _parse_grid(token):
    from .data import GridSpec

    mins, maxs, counts = [], [], []
    for part in token.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise InvalidSpec(f"grid axis {part!r} is not min:max:count")
        mins.append(_flag_number(float, bits[0], "--grid", token))
        maxs.append(_flag_number(float, bits[1], "--grid", token))
        counts.append(_flag_number(int, bits[2], "--grid", token))
    return GridSpec(tuple(mins), tuple(maxs), tuple(counts))


def cmd_grid(args):
    import numpy as np

    from . import data, model

    state = model.load_model(args.model)
    spec = _parse_grid(args.grid)
    if len(spec.counts) != state.bank.dim:
        raise SchemaMismatch(f"model expects {state.bank.dim} grid axes, "
                             f"got {len(spec.counts)}")
    # the axes; R and R^-1 with its recursion's block copies; a 2-d grid's
    # mean and variance fields and write_pgm's temporaries, two doubles
    # and two bytes a point; one chunk's (cos, sin) pair and feature block,
    # 4m doubles a row; and 12 doubles per input and output column of a
    # block's points (whole chunks of at most CHUNK_ROWS rows or one
    # chunk, and a merged point) for their indices, copies and written
    # text. The request is named by its flag, as a count past 4,300
    # digits has no str()
    m, chunk, total = state.bank.m, model._chunk_rows(state.bank.m), math.prod(spec.counts)
    _check_memory(8 * sum(spec.counts) + 20 * (2 * m) ** 2 + 34 * total * (spec.dim == 2)
                  + 32 * m * chunk + 96 * (spec.dim + 2) * (max(data.CHUNK_ROWS, chunk) + 1),
                  f"--grid {args.grid}")
    fields = (np.empty(total), np.empty(total)) if spec.dim == 2 else ()
    cols = state.input_columns or [f"x{i + 1}" for i in range(state.bank.dim)]
    written = _write_predictions(args, "grid.csv", state,
                                 lambda rows: data.grid_blocks(spec, rows), cols,
                                 f"--grid {args.grid!r}: grid point", fields)
    for name, field in zip(("mean.pgm", "variance.pgm"), fields):
        data.write_pgm(_out(args, name), field.reshape(spec.counts))
    _log(f"grid: wrote {written} rows")
    return 0


def _parse_anchors(token):
    points = [[_flag_number(float, v, "--anchors", token) for v in part.split(",")]
              for part in token.split(";") if part.strip()]
    if not points:
        raise InvalidSpec("no anchor points given")
    if not all(math.isfinite(v) for p in points for v in p):
        raise InvalidSpec(f"--anchors {token!r}: coordinates must be finite")
    width = len(points[0])
    if any(len(p) != width for p in points):
        raise InvalidSpec("anchor points disagree in dimension")
    return points


def cmd_kernel_dump(args):
    import numpy as np

    from . import data, model
    from .data import GridSpec
    from .features import FeatureBuffers, features_for_mode, kernel_cross

    state = model.load_model(args.model)
    d, m = state.bank.dim, state.bank.m
    if d > 2:
        raise InvalidSpec(f"kernel-dump writes 1-d or 2-d fields; the model has {d} inputs")
    anchors = _parse_anchors(args.anchors)
    if len(anchors[0]) != d:
        raise SchemaMismatch(f"model expects {d}-dimensional anchors, "
                             f"got {len(anchors[0])}")
    if args.count < 2:
        raise InvalidSpec("count must be at least 2")
    w = args.window
    names = [",".join(map(repr, anchor)) for anchor in anchors]
    for anchor, name in zip(anchors, names):
        # a window that is not positive, rounds away (a - w == a + w) or
        # overflows spans no finite grid around the anchor
        if not all(a - w < a + w and math.isfinite((a + w) - (a - w)) for a in anchor):
            raise InvalidSpec(f"--window {w!r} around anchor {name}: a - w and "
                              f"a + w must differ and lie a finite span apart")
    # every anchor's field, as none is written before all are checked,
    # and write_pgm's temporaries, two doubles and two bytes a point; one
    # window's axes; R; and a block of the anchor, a chunk and a merged
    # point, counted as grid's and with the feature block's finite test,
    # 34m bytes a row, which also covers the matrix writer's text
    total, chunk = args.count ** d, model._chunk_rows(m)
    _check_memory(8 * total * len(anchors) + 18 * total + 8 * d * args.count + 8 * (2 * m) ** 2
                  + (chunk + 2) * (34 * m + 96 * (d + 2)),
                  f"kernel-dump with --count {args.count}")
    buffers = FeatureBuffers(chunk + 2, m, 1)
    fields = []
    for anchor, name in zip(anchors, names):
        a = np.asarray(anchor, dtype=float)
        spec = GridSpec(a - w, a + w, (args.count,) * d)
        row = f"--anchors {name} with --window {w!r}: point"
        field = np.empty(total)
        # the anchor heads every block, so no map is of one row, and the
        # window's rows, from a multiple of the chunk on, follow it
        for lo, block in zip(range(0, total, chunk), data.grid_blocks(spec, chunk)):
            pts = np.vstack([a.reshape(1, -1), block])
            if state.standardization is not None:
                pts = _standardized(pts, state.standardization, lo, row)
            with np.errstate(over="ignore", invalid="ignore"):
                phi = features_for_mode(pts, state.bank, buffers)
            _refuse_first(~np.isfinite(phi.phi).all(axis=1), lo, row, _OVERFLOWS_ANGLE)
            phi_a = type(phi)(phi.phi[:1], phi.m, phi.banks)
            phi_g = type(phi)(phi.phi[1:], phi.m, phi.banks)
            field[lo:lo + len(block)] = kernel_cross(phi_a, phi_g, state.hyper.sigma_f2)[0]
        fields.append(field.reshape(spec.counts) if d > 1 else field.reshape(1, -1))
    _outdir(args)
    for idx, mat in enumerate(fields):
        data.write_matrix_csv(_out(args, f"kernel_anchor{idx}.csv"), mat)
        data.write_pgm(_out(args, f"kernel_anchor{idx}.pgm"), mat)
    _log(f"kernel-dump: wrote {len(anchors)} anchor fields")
    return 0


def cmd_spectrum(args):
    from . import data, measures
    from .linalg import seeded_rng

    # two frequency sets and the draws they are scaled from
    _check_memory(32 * args.m * args.dim, f"spectrum with --m {args.m}")
    spec = _resolve_spec(args.spec, args.dim)
    if spec is None or isinstance(spec, measures.FrequencyBank):
        raise InvalidSpec("spectrum needs a named measure or a measure JSON file")
    rng = seeded_rng(args.seed)
    if args.pairs:
        bank = measures.sample_nonstationary(spec, spec, args.m, args.dim, rng)
    else:
        bank = measures.sample_stationary(spec, args.m, args.dim, rng)
    _outdir(args)
    measures.save_bank(_out(args, "bank.json"), bank)
    data.write_matrix_csv(_out(args, "omega1.csv"), bank.omega1)
    if not bank.stationary:
        data.write_matrix_csv(_out(args, "omega2.csv"), bank.omega2)
    _log(f"spectrum: sampled {bank.m} frequencies in dimension {bank.dim}")
    return 0


def cmd_benchmark(args):
    from . import benchmarks
    from .data import split_rows

    if args.runs < 1:
        raise InvalidSpec("runs must be >= 1")
    # a flag given as 0 reaches the checks; only an omitted one takes the default
    n, m, max_steps = _BENCHMARK_DEFAULTS[args.name]
    m = m if args.m is None else args.m
    max_steps = max_steps if args.max_steps is None else args.max_steps
    arm_configs = (benchmarks.step_field_arm_configs if args.name == "step-lengthscale"
                   else benchmarks.chirp_arm_configs)
    configs = arm_configs(m, max_steps=max_steps, sigma_p=args.sigma_p)
    generator = {"n": n if args.n is None else args.n, "noise": args.noise, "seed": args.seed}
    if args.name == "stock-csv":
        if args.data is None:
            raise InvalidSpec("benchmark stock-csv needs --data with a local CSV")
        flag = next((f"--{k}" for k, v in generator.items() if v is not None), None)
        if flag is not None:
            raise InvalidSpec(f"benchmark stock-csv takes its rows from --data, not {flag}")
        bench = _load_dataset(args)
        n = bench.n
    else:
        spec = benchmarks.SyntheticSpec(
            args.name, **{k: v for k, v in generator.items() if v is not None})
        n = spec.n
    split_rows(n, args.split)
    _check_fit_memory(n, max(cfg.m for cfg in configs.values()), f"benchmark with --m {m}")
    if args.name == "chirp":
        bench = benchmarks.gen_chirp(spec)
    elif args.name == "step-lengthscale":
        bench = benchmarks.gen_step_lengthscale(spec)
    _log(f"benchmark {args.name}: {bench.n} rows, {args.runs} runs")
    report = benchmarks.compare(bench, args.runs, configs,
                                train_fraction=args.split)
    _outdir(args)
    report.to_csv(_out(args, "report.csv"))
    for arm in report.arms:
        print(f"mode={arm} " + _metrics_line(report.mean_mse(arm),
                                             report.mean_corr(arm)))
    return 0


def _add_out_dir(p):
    p.add_argument("--out-dir", default=".", help="directory for output files")


def _add_data_flags(p, required):
    p.add_argument("--data", required=required, help="CSV data file")
    p.add_argument("--inputs", default=None,
                   help="comma-separated input columns (default: every "
                        "column except the output)")
    p.add_argument("--output-col", default=None,
                   help="output column (default: last column)")


def build_parser():
    from .training import MODES

    parser = _Parser(prog="spectral-rff",
                     description="Reduced-rank Gaussian process regression "
                                 "with trainable random Fourier features.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("fit", help="train a model and score a held-out split")
    _add_data_flags(p, required=True)
    p.add_argument("--mode", default="nonstationary",
                   choices=sorted(mode.token for mode in MODES.values()))
    p.add_argument("--m", type=int, default=None,
                   help="frequencies per bank (pairs count once); default 100, "
                        "or the m of a --spec bank")
    p.add_argument("--spec", default=None,
                   help="initial measure, e.g. se:0.3 or matern:1.5, a "
                        "measure JSON file, or a bank JSON from spectrum "
                        "used as the initial bank; default: Gaussian with "
                        "median-heuristic lengthscales")
    p.add_argument("--sigma-p", type=_finite_float, default=0.05,
                   help="Gaussian dropout level on frequencies")
    p.add_argument("--lr", type=_finite_float, default=1e-3)
    p.add_argument("--max-steps", type=int, default=500)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--eval-every", type=int, default=10)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--split", type=float, default=0.7,
                   help="training fraction of the train/test split")
    p.add_argument("--seed", type=int, default=0)
    _add_out_dir(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict mean and variance for a CSV")
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--data", required=True, help="CSV with input columns")
    p.add_argument("--inputs", default=None,
                   help="comma-separated input columns (default: the "
                        "model's training columns)")
    _add_out_dir(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("grid", help="predict over a dense axis-aligned grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True,
                   help="per-axis min:max:count, comma separated, "
                        "e.g. 0:1:100,0:1:100")
    _add_out_dir(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("kernel-dump",
                       help="export the learned covariance around anchor points")
    p.add_argument("--model", required=True)
    p.add_argument("--anchors", required=True,
                   help="semicolon-separated points, e.g. 0.2,0.2;0.8,0.5")
    p.add_argument("--window", type=float, default=0.5,
                   help="half-width of the window around each anchor")
    p.add_argument("--count", type=int, default=33, help="grid points per axis")
    _add_out_dir(p)
    p.set_defaults(func=cmd_kernel_dump)

    p = sub.add_parser("spectrum", help="sample a frequency bank from a measure")
    p.add_argument("--spec", required=True,
                   help="named measure or measure JSON file")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--pairs", action="store_true",
                   help="sample an independent second set for the "
                        "nonstationary map")
    p.add_argument("--seed", type=int, default=0)
    _add_out_dir(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("benchmark",
                       help="stationary vs nonstationary comparison report")
    p.add_argument("name", choices=tuple(_BENCHMARK_DEFAULTS))
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--n", type=int, default=None,
                   help="synthetic dataset size (generator default if omitted)")
    p.add_argument("--noise", type=_finite_float, default=None,
                   help="synthetic noise level (generator default 0.05 if omitted)")
    p.add_argument("--m", type=int, default=None,
                   help="stationary bank size; the learned arm gets m/2 pairs")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--sigma-p", type=_finite_float, default=0.05)
    p.add_argument("--split", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=None,
                   help="synthetic data seed (0 if omitted)")
    _add_data_flags(p, required=False)
    _add_out_dir(p)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None):
    try:
        apply_thread_cap()
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise InvalidSpec(f"--seed {args.seed} is negative; a seed is a "
                              f"non-negative integer")
        return args.func(args)
    except NumericalError as exc:
        _log(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except (SpectralRffError, OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_VALIDATION
    except MemoryError:
        _log("error: out of memory; ask for fewer rows, frequencies or grid points")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
