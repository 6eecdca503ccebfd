"""Synthetic generators, metrics and the arm-comparison report."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spectral_rff import benchmarks, cli
from spectral_rff.benchmarks import (ComparisonReport, RunRecord,
                                     SyntheticSpec, chirp_arm_configs,
                                     compare, fit_and_score, gen_chirp,
                                     gen_step_lengthscale, metrics,
                                     step_field_arm_configs,
                                     step_field_covariance)
from spectral_rff.errors import (ConstantVector, DimensionMismatch,
                                 InvalidSpec)
from spectral_rff.training import (MODES, NONSTATIONARY_LEARNED,
                                   STATIONARY_FIXED, TrainConfig)


def test_chirp_is_the_documented_function_of_time():
    spec = SyntheticSpec("chirp", n=101, noise=0.0)
    ds = gen_chirp(spec)
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(ds.x[:, 0], t)
    np.testing.assert_allclose(
        ds.y, np.sin(2.0 * np.pi * (2.0 * t + 8.0 * t * t)), atol=1e-12)
    assert ds.y[0] == 0.0
    assert list(ds.input_columns) == ["t"] and ds.output_column == "y"


def test_chirp_accel_zero_gives_a_plain_sinusoid():
    spec = SyntheticSpec("chirp", n=64, noise=0.0, chirp_rate=3.0,
                         chirp_accel=0.0)
    ds = gen_chirp(spec)
    np.testing.assert_allclose(
        ds.y, np.sin(6.0 * np.pi * ds.x[:, 0]), atol=1e-12)


def test_chirp_noise_is_seeded():
    a = gen_chirp(SyntheticSpec("chirp", n=80, seed=5))
    b = gen_chirp(SyntheticSpec("chirp", n=80, seed=5))
    c = gen_chirp(SyntheticSpec("chirp", n=80, seed=6))
    np.testing.assert_array_equal(a.y, b.y)
    assert np.any(a.y != c.y)


def test_synthetic_spec_validation():
    with pytest.raises(InvalidSpec):
        SyntheticSpec("chirp", n=49)
    with pytest.raises(InvalidSpec):
        SyntheticSpec("chirp", noise=-0.1)
    with pytest.raises(InvalidSpec):
        SyntheticSpec("chirp", lengthscale_left=0.0)


def test_constant_lengthscale_field_collapses_exactly():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(15, 2))
    ell = 0.3
    k = step_field_covariance(x, np.full(15, ell))
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(k, np.exp(-sq / ell ** 2))


def test_step_field_covariance_is_a_valid_kernel():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, size=(40, 2))
    ell = np.where(x[:, 0] < 0.5, 0.06, 0.4)
    k = step_field_covariance(x, ell)
    np.testing.assert_allclose(k, k.T, atol=0)
    np.testing.assert_array_equal(np.diag(k), np.ones(40))
    assert float(np.linalg.eigvalsh(k).min()) > -1e-10
    with pytest.raises(DimensionMismatch):
        step_field_covariance(x, ell[:-1])


def test_step_field_is_rough_left_of_the_changepoint():
    ds = gen_step_lengthscale(SyntheticSpec("step-lengthscale", n=300, seed=0))

    def roughness(mask):
        x, y = ds.x[mask], ds.y[mask]
        d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        close = (d > 0) & (d < 0.05)
        return float(((y[:, None] - y[None, :]) ** 2)[close].mean())

    left = roughness(ds.x[:, 0] < 0.5)
    right = roughness(ds.x[:, 0] >= 0.5)
    assert left > 5.0 * right


def test_step_field_seeded_and_capped():
    a = gen_step_lengthscale(SyntheticSpec("step-lengthscale", n=60, seed=2))
    b = gen_step_lengthscale(SyntheticSpec("step-lengthscale", n=60, seed=2))
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.x, b.x)
    with pytest.raises(InvalidSpec):
        gen_step_lengthscale(SyntheticSpec("step-lengthscale", n=1501))


def test_metrics_hand_case():
    mse, corr = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert mse == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert corr == pytest.approx(9.0 / (2.0 * np.sqrt(21.0)), rel=1e-12)
    mse, corr = metrics([1.0, 2.0], [1.0, 2.0])
    assert mse == 0.0 and corr == pytest.approx(1.0)


def test_metrics_rejects_bad_inputs():
    with pytest.raises(DimensionMismatch):
        metrics([1.0, 2.0], [1.0])
    with pytest.raises(DimensionMismatch):
        metrics([1.0], [1.0])
    with pytest.raises(ConstantVector):
        metrics([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ConstantVector):
        metrics([1.0, 2.0], [3.0, 3.0])


def tiny_config(mode, seed=0):
    return TrainConfig(mode=mode, m=8, learning_rate=0.05, max_steps=10,
                       eval_every=5, patience=5, dropout_sigma_p=0.0,
                       seed=seed)


def test_fit_and_score_is_seeded_and_compare_overrides_the_seed():
    ds = gen_chirp(SyntheticSpec("chirp", n=80))
    cfg = tiny_config(STATIONARY_FIXED, seed=99)
    state, trace, mse, corr, seconds = fit_and_score(ds, replace(cfg, seed=3))
    again = fit_and_score(ds, replace(cfg, seed=3))
    assert again[2:4] == (mse, corr)
    assert np.isfinite(mse) and -1.0 <= corr <= 1.0 and seconds >= 0.0
    assert state.standardization is not None
    assert len(trace.train_neg_lml) == cfg.max_steps
    # run r of compare scores the config with its seed replaced by 1000 r
    rows = compare(ds, 2, {"a": cfg}).records
    assert (rows[1].mse, rows[1].corr) == \
        fit_and_score(ds, replace(cfg, seed=1000))[2:4]


def test_compare_gives_identical_rows_for_identical_arms(tmp_path):
    ds = gen_chirp(SyntheticSpec("chirp", n=80))
    configs = {"a": tiny_config(STATIONARY_FIXED),
               "b": tiny_config(STATIONARY_FIXED)}
    report = compare(ds, 2, configs)
    assert [r.run for r in report.records] == [0, 0, 1, 1]
    assert [r.seed for r in report.records] == [0, 0, 1000, 1000]
    for run in (0, 1):
        rows = [r for r in report.records if r.run == run]
        assert rows[0].mse == rows[1].mse
        assert rows[0].corr == rows[1].corr
    assert report.mean_mse("a") == report.mean_mse("b")

    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# frequency budget -- ")
    assert lines[1] == "run,seed,mode,mse,corr,train_seconds"
    assert len(lines) == 2 + 4 + 2
    assert lines[-2].startswith("mean,,a,") and lines[-1].startswith("mean,,b,")


def test_compare_validation():
    ds = gen_chirp(SyntheticSpec("chirp", n=80))
    with pytest.raises(InvalidSpec):
        compare(ds, 0, {"a": tiny_config(STATIONARY_FIXED)})
    with pytest.raises(InvalidSpec):
        compare(ds, 1, {})


def test_report_means_aggregate_per_arm():
    report = ComparisonReport("note", ("x",))
    report.records = [RunRecord(0, 0, "x", 1.0, 0.5, 0.1),
                      RunRecord(1, 1000, "x", 3.0, 0.7, 0.1)]
    assert report.mean_mse("x") == pytest.approx(2.0)
    assert report.mean_corr("x") == pytest.approx(0.6)


@pytest.mark.parametrize("builder,m_total", [
    (chirp_arm_configs, 600),
    (step_field_arm_configs, 100),
])
def test_arm_builders_split_a_common_frequency_budget(builder, m_total):
    configs = builder(m_total)
    fixed = configs[STATIONARY_FIXED]
    learned = configs[NONSTATIONARY_LEARNED]
    assert fixed.mode == STATIONARY_FIXED and fixed.m == m_total
    assert fixed.dropout_sigma_p == 0.0
    assert learned.mode == NONSTATIONARY_LEARNED and learned.m == m_total // 2
    assert learned.dropout_sigma_p == 0.05
    note = benchmarks._budget_note(configs, 1)
    assert "row budget factor 1.00" in note
    assert f"m={m_total}" in note and "trainable_entries=0" in note


def test_step_field_script_refits_each_arm_with_its_frozen_config():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_step_field_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_step_field_benchmark", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for cfg in step_field_arm_configs().values():
        args = cli.build_parser().parse_args(script.refit_argv(cfg, "f.csv", "out"))
        assert args.mode == MODES[cfg.mode].token
        assert (args.m, args.lr, args.max_steps, args.patience, args.eval_every,
                args.val_frac, args.sigma_p, args.seed) == \
            (cfg.m, cfg.learning_rate, cfg.max_steps, cfg.patience, cfg.eval_every,
             cfg.validation_fraction, cfg.dropout_sigma_p, cfg.seed)
