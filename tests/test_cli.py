"""End-to-end command line coverage through main(argv)."""

import json
import warnings

import numpy as np
import pytest

from spectral_rff import cli, data, measures
from spectral_rff.errors import InvalidSpec
from spectral_rff.features import STATIONARY
from spectral_rff.linalg import seeded_rng, spawn_rngs
from spectral_rff.model import load_model
from spectral_rff.training import MODES


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
    doc = json.loads((out / "model.json").read_text())
    assert doc["mode"] == mode.features
    assert doc["bank"]["stationary"] == (mode.features == STATIONARY)
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


def test_predict_header_only_input_gives_header_only_output(sine_csv, tmp_path):
    model_path = fitted_model(sine_csv, tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("t\n")
    out = tmp_path / "out"
    assert run_cli(["predict", "--model", str(model_path), "--data",
                    str(empty), "--out-dir", str(out)]) == 0
    assert (out / "predictions.csv").read_text() == "t,mean,variance\n"


def test_grid_one_dimensional(sine_csv, tmp_path):
    model_path = fitted_model(sine_csv, tmp_path)
    out = tmp_path / "grid"
    assert run_cli(["grid", "--model", str(model_path), "--grid", "0:1:7",
                    "--out-dir", str(out)]) == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 7
    assert not (out / "mean.pgm").exists()


def test_grid_two_dimensional_writes_images(tmp_path):
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
    grid_out = tmp_path / "grid"
    assert run_cli(["grid", "--model", str(out / "model.json"), "--grid",
                    "0:1:6,0:1:5", "--out-dir", str(grid_out)]) == 0
    assert len((grid_out / "grid.csv").read_text().splitlines()) == 1 + 30
    header = (grid_out / "mean.pgm").read_bytes().split(b"\n", 2)
    assert header[0] == b"P5" and header[1] == b"5 6"
    assert (grid_out / "variance.pgm").exists()
    # axis count must match the model dimension
    assert run_cli(["grid", "--model", str(out / "model.json"), "--grid",
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


def test_memory_error_is_one_error_line(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_spectrum", out_of_memory)
    assert run_cli(["spectrum", "--spec", "se:1.0", "--m", "4"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "Traceback" not in captured.err and captured.out == ""


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
    assert run_cli(["benchmark", "stock-csv", "--runs", "1", "--n", "60",
                    "--m", "8", "--max-steps", "5", "--data", sine_csv,
                    "--out-dir", out]) == 0


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
