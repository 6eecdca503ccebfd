"""End-to-end command line coverage through main(argv)."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from spectral_rff import cli, data, measures, model, training
from spectral_rff.errors import InvalidSpec
from spectral_rff.linalg import seeded_rng, spawn_rngs
from spectral_rff.model import load_model
from spectral_rff.training import (MODES, NONSTATIONARY_LEARNED, STATIONARY_FIXED,
                                   STATIONARY_LEARNED)


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:   # argparse error/help paths
        return int(exc.code)


@pytest.fixture()
def sine_csv(tmp_path):
    rng = seeded_rng(0)
    t = np.sort(rng.uniform(0.0, 1.0, 60)).reshape(-1, 1)
    y = np.sin(8.0 * t[:, 0]) + 0.1 * rng.standard_normal(60)
    path = tmp_path / "sine.csv"
    data.save_dataset_csv(path, data.Dataset(t, y, ["t"], "y"))
    return str(path)


def fit_args(sine_csv, out_dir, extra=()):
    return ["fit", "--data", sine_csv, "--mode", "stationary",
            "--m", "8", "--lr", "0.05", "--max-steps", "15",
            "--eval-every", "5", "--patience", "10", "--sigma-p", "0",
            "--seed", "3", "--out-dir", str(out_dir), *extra]


def read_masked_trace(path):
    """Trace rows with the wall-clock column stripped."""
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_fit_writes_model_trace_and_metrics(sine_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(fit_args(sine_csv, out)) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("mse=") and " corr=" in line
    mse = float(line.split()[0].split("=")[1])
    corr = float(line.split()[1].split("=")[1])
    assert np.isfinite(mse) and -1.0 <= corr <= 1.0
    assert (out / "model.json").exists()
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "step,train_neg_lml,val_neg_lml,wall_ms"
    assert len(trace_lines) == 1 + 15


@pytest.mark.parametrize("name", sorted(MODES))
def test_every_mode_token_fits_its_feature_map(name, sine_csv, tmp_path):
    mode = MODES[name]
    out = tmp_path / "run"
    assert run_cli(fit_args(sine_csv, out, extra=["--mode", mode.token,
                                                  "--spec", "se:0.3"])) == 0
    # the bank alone picks the map: model.json (format 2) stores no mode
    # and no alpha1
    doc = json.loads((out / "model.json").read_text())
    assert doc["format_version"] == 2
    assert "mode" not in doc and "alpha1" not in doc["fit"]
    stationary = {STATIONARY_FIXED: True, STATIONARY_LEARNED: True,
                  NONSTATIONARY_LEARNED: False}[name]
    assert doc["bank"]["stationary"] == stationary
    assert load_model(out / "model.json").bank.stationary == stationary
    if not mode.trained:
        # the bank is the seed's initial draw; train's second stream draws it
        init = measures.sample_stationary(measures.GaussianSE([0.3]), 8, 1,
                                          spawn_rngs(3, 3)[1])
        np.testing.assert_array_equal(load_model(out / "model.json").bank.omega1,
                                      init.omega1)


def test_fit_is_deterministic_up_to_wall_clock(sine_csv, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(fit_args(sine_csv, out_a)) == 0
    assert run_cli(fit_args(sine_csv, out_b)) == 0
    assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
    assert read_masked_trace(out_a / "trace.csv") == \
        read_masked_trace(out_b / "trace.csv")


def test_fit_missing_file_leaves_no_partial_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(fit_args(str(tmp_path / "absent.csv"), out))
    assert code == 1
    assert not out.exists()


def test_fit_accepts_named_spec_and_explicit_columns(sine_csv, tmp_path):
    out = tmp_path / "run"
    code = run_cli(fit_args(sine_csv, out,
                            extra=["--spec", "se:0.3", "--inputs", "t",
                                   "--output-col", "y"]))
    assert code == 0


def test_fit_rejects_unknown_output_column(sine_csv, tmp_path):
    assert run_cli(fit_args(sine_csv, tmp_path,
                            extra=["--output-col", "z"])) == 1


def assert_one_error_line(capsys, *words):
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert all(w in err[0] for w in words), err
    assert captured.out == ""


def test_fit_refuses_the_output_column_as_an_input(sine_csv, tmp_path, capsys):
    # --inputs y --output-col y used to train y on itself (corr 0.9999)
    out = tmp_path / "run"
    argv = fit_args(sine_csv, out, extra=["--inputs", "y", "--output-col", "y"])
    assert run_cli(argv) == 1
    assert_one_error_line(capsys, "'y'", "input")
    assert not out.exists()


def test_fit_refuses_a_repeated_input_column(sine_csv, tmp_path, capsys):
    # --inputs t,t used to fit a 2-d model on two copies of one column
    out = tmp_path / "run"
    assert run_cli(fit_args(sine_csv, out, extra=["--inputs", "t,t"])) == 1
    assert_one_error_line(capsys, "'t'", "more than once")
    assert not out.exists()


def fitted_model(sine_csv, tmp_path):
    out = tmp_path / "fit"
    assert run_cli(fit_args(sine_csv, out)) == 0
    return out / "model.json"


def test_predict_round_trip_uses_model_columns(sine_csv, tmp_path):
    model_path = fitted_model(sine_csv, tmp_path)
    # column order reversed relative to training; the model's recorded
    # input column must win over file position
    swapped = tmp_path / "swapped.csv"
    table = data.read_table(sine_csv, ["y", "t"])
    with open(swapped, "w", encoding="utf-8") as fh:
        fh.write("y,t\n")
        for r in table:
            fh.write(f"{format(r[0], '.17g')},{format(r[1], '.17g')}\n")
    out_a = tmp_path / "by_model_cols"
    out_b = tmp_path / "by_flag"
    assert run_cli(["predict", "--model", str(model_path), "--data",
                    str(swapped), "--out-dir", str(out_a)]) == 0
    assert run_cli(["predict", "--model", str(model_path), "--data",
                    str(swapped), "--inputs", "t",
                    "--out-dir", str(out_b)]) == 0
    assert (out_a / "predictions.csv").read_bytes() == \
        (out_b / "predictions.csv").read_bytes()
    lines = (out_a / "predictions.csv").read_text().splitlines()
    assert lines[0] == "t,mean,variance"
    assert len(lines) == 1 + 60


def test_predict_dimension_mismatch_fails_cleanly(sine_csv, tmp_path):
    model_path = fitted_model(sine_csv, tmp_path)
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n3,4\n")
    out = tmp_path / "out"
    assert run_cli(["predict", "--model", str(model_path), "--data",
                    str(wide), "--inputs", "a,b",
                    "--out-dir", str(out)]) == 1
    assert not (out / "predictions.csv").exists()


def test_predict_refuses_a_header_that_repeats_a_column(sine_csv, tmp_path, capsys):
    # a header t,t used to predict from whichever column came first
    model_path = fitted_model(sine_csv, tmp_path)
    capsys.readouterr()
    twice = tmp_path / "twice.csv"
    twice.write_text("t,t\n0.1,0.9\n0.2,0.8\n")
    out = tmp_path / "out"
    assert run_cli(["predict", "--model", str(model_path), "--data",
                    str(twice), "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, "twice.csv", "'t'", "more than once")
    assert not (out / "predictions.csv").exists()


def test_predict_header_only_input_gives_header_only_output(sine_csv, tmp_path):
    model_path = fitted_model(sine_csv, tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("t\n")
    out = tmp_path / "out"
    assert run_cli(["predict", "--model", str(model_path), "--data",
                    str(empty), "--out-dir", str(out)]) == 0
    assert (out / "predictions.csv").read_text() == "t,mean,variance\n"


def stream_bound(m):
    """Rows that no predict block exceeds: blocks are whole chunks, as many
    as one write chunk holds, or one chunk when that is larger."""
    return max(data.CHUNK_ROWS, model._chunk_rows(m))


def write_query(path, t):
    np.savetxt(path, np.reshape(t, (-1, 1)), fmt="%.17g", header="t", comments="")


@pytest.mark.parametrize("mode", ["stationary", "nonstationary"])
def test_streamed_predictions_match_one_whole_array_pass_byte_for_byte(
        sine_csv, tmp_path, mode):
    # 100 frequencies give 256-row chunks, so a block holds 16 of them and
    # stream_bound is the block length: three full blocks and a ragged fourth
    fit = tmp_path / "fit"
    argv = fit_args(sine_csv, fit)
    argv[argv.index("--mode") + 1] = mode
    argv[argv.index("--m") + 1] = "100"
    assert run_cli(argv) == 0
    state = load_model(fit / "model.json")
    assert state.bank.stationary == (mode == "stationary")
    x = seeded_rng(8).uniform(-0.5, 1.5, (3 * stream_bound(100) + 123, 1))
    write_query(tmp_path / "query.csv", x)
    out = tmp_path / "out"
    assert run_cli(["predict", "--model", str(fit / "model.json"), "--data",
                    str(tmp_path / "query.csv"), "--out-dir", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["predictions.csv"]
    st = state.standardization
    mean, var = model.predict(state, data.standardize_inputs(x, st))
    data.write_predictions_csv(tmp_path / "whole.csv",
                               [(x, *data.destandardize_predictions(mean, var, st))], ["t"])
    assert (out / "predictions.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("cell,words", [
    ("abc", ("non-numeric", "'t'")),
    ("1e308", ("not finite after standardizing",)),
], ids=["non-numeric", "overflow"])
def test_a_bad_row_past_the_first_block_is_named_and_leaves_no_file(
        sine_csv, tmp_path, capsys, cell, words):
    # blocks before the bad one are already written to the partial file
    model_path = fitted_model(sine_csv, tmp_path)
    bound = stream_bound(load_model(model_path).bank.m)
    lines = ["t", *(format(v, ".17g") for v in np.linspace(0.0, 1.0, 3 * bound + 100))]
    bad = 2 * bound + 17            # 1-based data row, in the third block or later
    lines[bad] = cell
    query = tmp_path / "query.csv"
    query.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["predict", "--model", str(model_path), "--data", str(query),
                        "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, f"data row {bad}", *words)
    assert list(out.glob("*")) == []


def test_predict_memory_is_flat_in_the_query_rows(sine_csv, tmp_path):
    # the tracemalloc peak of a whole predict command moves by a few KB
    # with the interpreter's caches and the collector's timing; one
    # float64 column of the larger query's extra rows would add 720 KB
    model_path = fitted_model(sine_csv, tmp_path)

    def peak(n):
        write_query(tmp_path / f"q{n}.csv", np.linspace(-0.5, 1.5, n))
        tracemalloc.start()
        try:
            assert run_cli(["predict", "--model", str(model_path), "--data",
                            str(tmp_path / f"q{n}.csv"), "--out-dir", str(tmp_path / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10_000)                    # first-use caches
    small, large = peak(10_000), peak(100_000)
    assert large <= small + 16 * 2 ** 10, (small, large)


def test_a_fits_memory_peak_is_one_steps_workspace(sine_csv, tmp_path):
    # the chirp benchmark's shape, 600 rows and 300 pairs with 378
    # gradient rows (n < 2m): the traced peak of a whole fit command is
    # set by one step's workspace or fit_state's A and its factor, not by
    # the features fit_state factors or by writing model.json, which
    # together took it to 1.5 times the workspace
    m = 300
    rng = seeded_rng(15)
    t = np.sort(rng.uniform(0.0, 1.0, 600)).reshape(-1, 1)
    y = np.sin(40.0 * t[:, 0] ** 2) + 0.1 * rng.standard_normal(600)
    csv_path = tmp_path / "chirp.csv"
    data.save_dataset_csv(csv_path, data.Dataset(t, y, ["t"], "y"))
    argv = ["fit", "--data", str(csv_path), "--mode", "nonstationary",
            "--m", str(m), "--max-steps", "2", "--seed", "1",
            "--out-dir", str(tmp_path / "fit")]
    assert run_cli(fit_args(sine_csv, tmp_path / "warm")) == 0   # first-use caches
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_fit = data.split_rows(600, 0.7)
    n_step = n_fit - data.validation_rows(n_fit, 0.1)
    work = training.StepWorkspace(n_step, m)
    workspace = sum(a.nbytes for a in (*work.pairs, work.phi, work.gram,
                                       work.chol, work.outer))
    bound = 1.2 * max(workspace, 16 * (2 * m) ** 2)
    assert peak <= bound, (peak, workspace, bound)


@pytest.mark.parametrize("command,words", [
    (["grid", "--grid", "0:1:abc"], ["--grid", "'abc'"]),
    (["grid", "--grid", "0:1:3.5"], ["--grid", "'3.5'"]),
    (["spectrum", "--spec", "se:abc"], ["--spec", "'abc'"]),
    (["fit", "--spec", "se:abc"], ["--spec", "'abc'"]),
    (["kernel-dump", "--anchors", "0.2;abc"], ["--anchors", "'abc'"]),
    (["kernel-dump", "--anchors", "nan"], ["--anchors", "finite"]),
    (["kernel-dump", "--anchors", "0.2;1e400"], ["--anchors", "finite"]),
    (["fit", "--seed", "-1"], ["--seed", "-1"]),
    (["spectrum", "--spec", "se:1", "--seed", "-3"], ["--seed", "-3"]),
    (["kernel-dump", "--anchors", "0.5", "--window", "1e308"], ["--window", "0.5"]),
    (["kernel-dump", "--anchors", "1e300", "--window", "1"], ["--window", "1e+300"]),
    (["kernel-dump", "--anchors", "0.5", "--window", "1e-320"], ["--window", "1e-320"]),
    (["grid", "--grid", "0:1e308:3"], ["--grid", "grid point 3"]),
    (["kernel-dump", "--anchors", "5e307", "--window", "1e307", "--count", "3"],
     ["--anchors 5e+307", "--window", "point 4"]),
], ids=["grid-word", "grid-fraction", "spectrum-spec", "fit-spec",
        "anchors-word", "anchors-nan", "anchors-overflow", "fit-seed", "spectrum-seed",
        "window-overflow", "window-rounds-away-big-anchor", "window-rounds-away-tiny",
        "grid-overflow", "window-standardized-overflow"])
def test_unreadable_numbers_in_a_flag_name_the_flag(sine_csv, tmp_path, capsys,
                                                    command, words):
    # each printed Python's own int() or float() message, naming no flag;
    # a nan or overflowing anchor was refused as a bad grid bound, a
    # negative seed by numpy's "expected non-negative integer", a window
    # that overflows or rounds away by GridSpec's bound checks, and a grid
    # or window point that overflows when standardized as a data row
    if command[0] in ("grid", "kernel-dump"):
        extra = ["--model", str(fitted_model(sine_csv, tmp_path))]
    else:
        extra = {"fit": ["--data", sine_csv], "spectrum": []}[command[0]]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli([*command, *extra, "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, *words)
    assert not out.exists()


def test_grid_one_dimensional(sine_csv, tmp_path):
    model_path = fitted_model(sine_csv, tmp_path)
    out = tmp_path / "grid"
    assert run_cli(["grid", "--model", str(model_path), "--grid", "0:1:7",
                    "--out-dir", str(out)]) == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 7
    assert not (out / "mean.pgm").exists()


def field_model(tmp_path):
    """A two-input stationary-fixed model, fitted on 60 rows."""
    rng = seeded_rng(1)
    x = rng.uniform(0.0, 1.0, size=(60, 2))
    y = np.sin(4.0 * x[:, 0]) + x[:, 1] + 0.05 * rng.standard_normal(60)
    csv_path = tmp_path / "field.csv"
    data.save_dataset_csv(csv_path, data.Dataset(x, y, ["x1", "x2"], "y"))
    out = tmp_path / "fit"
    assert run_cli(["fit", "--data", str(csv_path), "--mode",
                    "stationary-fixed", "--m", "16", "--lr", "0.05",
                    "--max-steps", "10", "--eval-every", "5", "--sigma-p",
                    "0", "--out-dir", str(out)]) == 0
    return out / "model.json"


def test_grid_two_dimensional_writes_images(tmp_path):
    model_path = field_model(tmp_path)
    grid_out = tmp_path / "grid"
    assert run_cli(["grid", "--model", str(model_path), "--grid",
                    "0:1:6,0:1:5", "--out-dir", str(grid_out)]) == 0
    assert len((grid_out / "grid.csv").read_text().splitlines()) == 1 + 30
    header = (grid_out / "mean.pgm").read_bytes().split(b"\n", 2)
    assert header[0] == b"P5" and header[1] == b"5 6"
    assert (grid_out / "variance.pgm").exists()
    # axis count must match the model dimension
    assert run_cli(["grid", "--model", str(model_path), "--grid",
                    "0:1:6", "--out-dir", str(grid_out)]) == 1


def test_grid_flag_validation(sine_csv, tmp_path):
    model_path = fitted_model(sine_csv, tmp_path)
    for bad in ("0:1", "0:1:1", "1:0:5", "a:b:c"):
        assert run_cli(["grid", "--model", str(model_path), "--grid", bad,
                        "--out-dir", str(tmp_path / "g")]) == 1


def test_kernel_dump_writes_one_field_per_anchor(sine_csv, tmp_path):
    model_path = fitted_model(sine_csv, tmp_path)
    out = tmp_path / "dump"
    assert run_cli(["kernel-dump", "--model", str(model_path), "--anchors",
                    "0.2;0.5;0.8", "--window", "0.1", "--count", "9",
                    "--out-dir", str(out)]) == 0
    for i in range(3):
        field = (out / f"kernel_anchor{i}.csv").read_text().splitlines()
        assert len(field) == 1 and len(field[0].split(",")) == 9
        assert (out / f"kernel_anchor{i}.pgm").exists()
    assert not (out / "kernel_anchor3.csv").exists()


def test_kernel_dump_flag_validation(sine_csv, tmp_path):
    model_path = fitted_model(sine_csv, tmp_path)
    base = ["kernel-dump", "--model", str(model_path),
            "--out-dir", str(tmp_path / "d")]
    assert run_cli(base + ["--anchors", "0.2", "--count", "1"]) == 1
    assert run_cli(base + ["--anchors", "0.2", "--window", "0"]) == 1
    assert run_cli(base + ["--anchors", "0.2,0.4"]) == 1    # 2-d anchor, 1-d model
    assert run_cli(base + ["--anchors", ";"]) == 1
    assert run_cli(base + ["--anchors", "0.2,0.3;0.4"]) == 1


@pytest.mark.parametrize("command,output", [
    (["predict", "--data", "far.csv"], "predictions.csv"),
    (["grid", "--grid", "0:inf:5"], "grid.csv"),
    (["kernel-dump", "--anchors", "0.2", "--window", "inf"], "kernel_anchor0.csv"),
], ids=["predict", "grid", "kernel-dump"])
def test_non_finite_inputs_fail_with_one_line_and_no_output(
        sine_csv, tmp_path, capsys, command, output):
    # a finite 1e308 overflows when standardized; an infinite grid bound
    # or window spans no finite grid. Each used to exit 0 writing nan
    # fields, with numpy warnings on stderr.
    model_path = fitted_model(sine_csv, tmp_path)
    (tmp_path / "far.csv").write_text("t\n0.5\n1e308\n")
    argv = [tmp_path / a if a == "far.csv" else a for a in command]
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*map(str, argv), "--model", str(model_path),
                        "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not (out / output).exists()
    if command[0] == "predict":
        assert "data row 2" in err[0]


@pytest.mark.parametrize("flag", ["--lr", "--sigma-p"])
def test_fit_refuses_non_finite_flag_values_by_name(sine_csv, tmp_path, capsys, flag):
    # --lr inf used to pass TrainConfig and end as exit 2, "numerical
    # failure: log_sigma_f2 diverged to inf"
    argv = fit_args(sine_csv, tmp_path / "run")
    argv[argv.index(flag) + 1] = "inf"
    assert run_cli(argv) == 1
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.json").exists()


def test_benchmark_refuses_a_non_finite_noise(tmp_path, capsys):
    # --noise nan used to exit 0 with a report on noiseless data: nan > 0
    # is False, so the generator skipped the noise
    out = tmp_path / "out"
    argv = ["benchmark", "chirp", "--runs", "1", "--n", "60", "--m", "4",
            "--max-steps", "2", "--noise", "nan", "--out-dir", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "argument --noise:" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flag", ["--m", "--n", "--max-steps"])
def test_benchmark_refuses_a_zero_size(flag, tmp_path, capsys):
    # a 0 used to fall back to the default: --m 0 trained 600 frequencies
    argv = {"--m": "4", "--n": "60", "--max-steps": "1", flag: "0"}
    out = tmp_path / "out"
    assert run_cli(["benchmark", "chirp", "--runs", "1", *sum(argv.items(), ()),
                    "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("name", ["chirp", "step-lengthscale"])
def test_benchmark_overflowing_noise_is_one_error_line(name, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy warning would escape main
        assert run_cli(["benchmark", name, "--runs", "1", "--n", "60", "--m", "4",
                        "--max-steps", "1", "--noise", "1e308",
                        "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, "finite")
    assert not out.exists()


@pytest.mark.parametrize("argv,code,words", [
    (["fit", "--lr", "1000", "--max-steps", "1", "--eval-every", "10"], 2,
     "numerical failure: log_sigma_f2 diverged"),
    (["fit", "--lr", "1e308", "--max-steps", "3"], 2,
     "numerical failure: log_sigma_f2 diverged"),
    (["fit", "--sigma-p", "1e308", "--max-steps", "3"], 1,
     "error: frequencies must be finite"),
    (["benchmark", "chirp", "--runs", "1", "--n", "60", "--max-steps", "1",
      "--sigma-p", "1e308"], 1, "error: frequencies must be finite"),
], ids=["fit-diverged-last-step", "fit-huge-lr", "fit-huge-sigma-p",
        "benchmark-huge-sigma-p"])
def test_an_overflowing_fit_prints_one_line_after_its_progress_line(
        sine_csv, tmp_path, capsys, argv, code, words):
    # parameters that diverged at the last step reached fit_state unchecked,
    # and a huge ADAM step or dropout draw overflowed; each printed numpy
    # warnings before the error line
    if argv[0] == "fit":
        argv = [*argv, "--data", sine_csv]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*argv, "--m", "4", "--out-dir", str(out)]) == code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 2 and err[0].startswith(argv[0]) and " rows" in err[0], err
    assert err[1].startswith(words), err
    assert captured.out == ""
    assert not (out / "model.json").exists() and not (out / "report.csv").exists()


@pytest.mark.parametrize("argv,words", [
    (["fit", "--split", "nan"], []),
    (["fit", "--split", "0.999"], []),
    (["fit", "--val-frac", "0.999"], []),
    (["benchmark", "chirp", "--n", "60", "--split", "nan"], []),
    (["benchmark", "chirp", "--n", "60", "--split", "0.999"], []),
    (["benchmark", "chirp", "--n", "60", "--runs", "0"], []),
    (["benchmark", "chirp", "--n", "60", "--seed", "-1"], ["--seed", "-1"]),
], ids=["fit-nan", "fit-0.999", "fit-val-frac-0.999", "benchmark-nan", "benchmark-0.999",
        "benchmark-runs-0", "benchmark-seed"])
def test_a_bad_split_or_run_count_is_refused_before_the_progress_line(
        argv, words, sine_csv, tmp_path, capsys):
    # each used to log "fit: 60 rows ..." or "benchmark chirp: ..." first,
    # or, for a negative seed, numpy's message naming no flag
    out = tmp_path / "out"
    extra = ["--data", sine_csv] if argv[0] == "fit" else ["--m", "4", "--max-steps", "1"]
    assert run_cli([*argv, *extra, "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, *words)
    assert not out.exists()


def test_huge_size_requests_are_one_line_without_float_overflow(
        monkeypatch, sine_csv, tmp_path, capsys):
    # a count of 10**400 used to end the size guard in an OverflowError,
    # and a 2-d grid of two 2,201-digit counts, whose product passes the
    # 4,300 digits str() takes, in Python's integer-conversion error
    model_path = fitted_model(sine_csv, tmp_path)
    (tmp_path / "planar").mkdir()
    planar_path = field_model(tmp_path / "planar")
    capsys.readouterr()
    huge = "1" + "0" * 400
    wide = "1" + "0" * 2200
    for argv in (["grid", "--model", model_path, "--grid", f"0:1:{huge}"],
                 ["kernel-dump", "--model", model_path, "--anchors", "0.5", "--count", huge],
                 ["grid", "--model", planar_path, "--grid", f"0:1:{wide},0:1:{wide}"]):
        assert run_cli([*map(str, argv), "--out-dir", str(tmp_path / "big")]) == 1
        assert_one_error_line(capsys, "physical memory")


def test_memory_error_is_one_error_line(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_spectrum", out_of_memory)
    assert run_cli(["spectrum", "--spec", "se:1.0", "--m", "4"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command,output,words", [
    (["predict", "--data", "far.csv"], "predictions.csv", ["data row 2"]),
    (["grid", "--grid=-1e307:1e307:3"], "grid.csv", ["--grid '-1e307:1e307:3': grid point 1"]),
    (["kernel-dump", "--anchors", "0.5", "--window", "1e307", "--count", "3"],
     "kernel_anchor0.csv", ["--anchors 0.5 with --window 1e+307: point 2"]),
], ids=["predict", "grid", "kernel-dump"])
def test_an_overflowing_angle_fails_with_one_line_and_no_output(
        sine_csv, tmp_path, capsys, command, output, words):
    # 3e307 standardizes to a finite value, but with frequencies near 100
    # x . omega overflows: each command printed two numpy warnings and
    # exited 0 writing nan fields
    assert run_cli(fit_args(sine_csv, tmp_path / "fit", ["--spec", "se:0.01"])) == 0
    model_path = tmp_path / "fit" / "model.json"
    (tmp_path / "far.csv").write_text("t\n0.5\n3e307\n")
    argv = [str(tmp_path / a) if a == "far.csv" else a for a in command]
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*argv, "--model", str(model_path), "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, *words, "overflows its feature angles")
    assert not out.exists() or list(out.glob("*")) == []


def test_kernel_dump_checks_every_anchor_before_writing_any_file(tmp_path, capsys):
    # frequencies near 1e-3 keep the first anchor's angles finite at a
    # window of 1e307, while the second anchor overflows when standardized;
    # the first anchor's files used to be left behind
    rng = seeded_rng(0)
    t = np.sort(rng.uniform(0.0, 1.0, 60)).reshape(-1, 1)
    y = np.sin(8.0 * t[:, 0]) + 0.1 * rng.standard_normal(60)
    data.save_dataset_csv(tmp_path / "sine.csv", data.Dataset(t, y, ["t"], "y"))
    fit = tmp_path / "fit"
    assert run_cli(["fit", "--data", str(tmp_path / "sine.csv"), "--mode", "stationary-fixed",
                    "--spec", "se:1000", "--m", "8", "--out-dir", str(fit)]) == 0
    base = ["kernel-dump", "--model", str(fit / "model.json"), "--window", "1e307",
            "--count", "3"]
    assert run_cli(base + ["--anchors", "0.5", "--out-dir", str(tmp_path / "one")]) == 0
    assert len(list((tmp_path / "one").glob("kernel_anchor0.*"))) == 2
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(base + ["--anchors", "0.5;5e307", "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, "--anchors 5e+307", "point 4", "not finite")
    assert not out.exists()


def small_machine(monkeypatch, pages=1024):
    """Report a machine of ``pages`` 4 KiB pages to the size guard."""
    real = cli.os.sysconf
    fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(cli.os, "sysconf", lambda name: fake.get(name) or real(name))


def test_size_guard_compares_against_physical_memory(monkeypatch):
    small_machine(monkeypatch)
    cli._check_memory(4096 * 1024, "a request that fits")
    with pytest.raises(InvalidSpec, match="physical memory"):
        cli._check_memory(4096 * 1024 + 1, "one byte more")


def test_oversized_requests_fail_in_one_line_before_allocating(
        monkeypatch, sine_csv, tmp_path, capsys):
    # on a 4 MiB machine each request below is refused; without the guard
    # none would allocate more than a few tens of MB
    model_path = fitted_model(sine_csv, tmp_path)
    small_machine(monkeypatch)
    capsys.readouterr()
    out = tmp_path / "big"
    for argv in (["fit", "--data", sine_csv, "--m", "1024"],
                 ["grid", "--model", str(model_path), "--grid", "0:1:200000"],
                 ["spectrum", "--spec", "se", "--m", "300000"],
                 ["kernel-dump", "--model", str(model_path), "--anchors", "0.5",
                  "--count", "100000"]):
        assert run_cli(argv + ["--out-dir", str(out)]) == 1, argv
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "physical memory" in err[0] and captured.out == ""
        assert not out.exists()


def test_oversized_benchmark_fails_before_generating_data(monkeypatch, tmp_path, capsys):
    from spectral_rff import benchmarks

    def generated(spec):
        raise AssertionError("data generated before the size guard")

    monkeypatch.setattr(benchmarks, "gen_chirp", generated)
    monkeypatch.setattr(benchmarks, "gen_step_lengthscale", generated)
    small_machine(monkeypatch, pages=256)
    out = tmp_path / "big"
    # the stationary arm holds all --m frequencies, the learned arm half
    for name in ("chirp", "step-lengthscale"):
        assert run_cli(["benchmark", name, "--runs", "1", "--n", "60", "--m", "400",
                        "--max-steps", "1", "--out-dir", str(out)]) == 1
        assert_one_error_line(capsys, "physical memory", "--m 400")
        assert not out.exists()


def test_spectrum_outputs_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["spectrum", "--spec", "laplacian:2.0", "--m", "6", "--dim", "2",
            "--seed", "4"]
    assert run_cli(args + ["--out-dir", str(out_a)]) == 0
    assert run_cli(args + ["--out-dir", str(out_b)]) == 0
    assert (out_a / "bank.json").read_bytes() == (out_b / "bank.json").read_bytes()
    assert len((out_a / "omega1.csv").read_text().splitlines()) == 6
    assert not (out_a / "omega2.csv").exists()
    bank = measures.load_spec(out_a / "bank.json")
    assert bank.stationary and bank.m == 6 and bank.dim == 2


def test_spectrum_pairs_mode_and_json_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    measures.save_spec(spec_path, measures.MaternT(1.5, 0.5))
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--spec", str(spec_path), "--m", "5",
                    "--dim", "1", "--pairs", "--out-dir", str(out)]) == 0
    bank = measures.load_spec(out / "bank.json")
    assert not bank.stationary
    assert (out / "omega2.csv").exists()


def test_spectrum_rejects_banks_and_unknown_names(tmp_path):
    bank = measures.FrequencyBank(np.ones((2, 1)), stationary=True)
    bank_path = tmp_path / "bank.json"
    measures.save_bank(bank_path, bank)
    out = str(tmp_path / "o")
    assert run_cli(["spectrum", "--spec", str(bank_path), "--out-dir", out]) == 1
    assert run_cli(["spectrum", "--spec", "sinc", "--out-dir", out]) == 1
    assert run_cli(["spectrum", "--spec", "matern", "--out-dir", out]) == 1


def test_benchmark_chirp_smoke(tmp_path, capsys):
    out = tmp_path / "bench"
    assert run_cli(["benchmark", "chirp", "--runs", "1", "--n", "80",
                    "--m", "16", "--max-steps", "10",
                    "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("mode=stationary_fixed mse=")
    assert lines[1].startswith("mode=nonstationary_learned mse=")
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("# frequency budget")
    assert len(report) == 2 + 2 + 2


def test_benchmark_stock_csv_needs_data(sine_csv, tmp_path):
    out = str(tmp_path / "b")
    assert run_cli(["benchmark", "stock-csv", "--runs", "1",
                    "--out-dir", out]) == 1
    assert run_cli(["benchmark", "stock-csv", "--runs", "1",
                    "--m", "8", "--max-steps", "5", "--data", sine_csv,
                    "--out-dir", out]) == 0


@pytest.mark.parametrize("flag,value", [("--n", "5"), ("--noise", "7"), ("--seed", "3")])
def test_benchmark_stock_csv_refuses_the_generator_flags(flag, value, sine_csv,
                                                         tmp_path, capsys):
    # the rows come from --data; these flags used to be ignored without a word
    out = tmp_path / "b"
    assert run_cli(["benchmark", "stock-csv", "--runs", "1", "--m", "8",
                    "--max-steps", "5", "--data", sine_csv, flag, value,
                    "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, flag)
    assert not out.exists()


def test_unknown_subcommand_and_benchmark_name(tmp_path):
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["benchmark", "mystery", "--out-dir", str(tmp_path)]) == 1


def test_help_exits_zero():
    assert run_cli(["--help"]) == 0
    for sub in ("fit", "predict", "grid", "kernel-dump", "spectrum",
                "benchmark"):
        assert run_cli([sub, "--help"]) == 0


def test_thread_cap_mirrors_into_blas_variables():
    env = {"SPECTRAL_RFF_THREADS": "2"}
    cli.apply_thread_cap(env)
    for var in cli._THREAD_VARS:
        assert env[var] == "2"
    cli.apply_thread_cap({})    # absent: no-op
    for bad in ("0", "-3", "abc"):
        with pytest.raises(InvalidSpec):
            cli.apply_thread_cap({"SPECTRAL_RFF_THREADS": bad})


def test_thread_cap_failure_surfaces_as_validation_exit(monkeypatch, tmp_path):
    monkeypatch.setenv("SPECTRAL_RFF_THREADS", "zero")
    assert run_cli(["spectrum", "--spec", "se", "--m", "2",
                    "--out-dir", str(tmp_path)]) == 1


def test_named_measure_parsing():
    spec = cli._parse_named_measure("se:0.5", 3)
    np.testing.assert_array_equal(spec.lengthscales, [0.5, 0.5, 0.5])
    spec = cli._parse_named_measure("se:0.5,1.0,2.0", 3)
    np.testing.assert_array_equal(spec.lengthscales, [0.5, 1.0, 2.0])
    spec = cli._parse_named_measure("matern:1.5,2.0", 1)
    assert spec.smoothness == 1.5 and spec.scale == 2.0
    spec = cli._parse_named_measure("student-t:1.0", 1)
    assert spec.smoothness == 0.5
    with pytest.raises(InvalidSpec):
        cli._parse_named_measure("student-t", 1)
