"""Eleven release gates, one per test, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the full set takes a few minutes because the chirp comparison
trains forty models. Tolerances and frozen constants were calibrated
once against the dense oracles and then pinned here.
"""

import time
import tracemalloc

import numpy as np
import pytest

from spectral_rff import benchmarks, cli, data, model, training
from spectral_rff.features import (features_for_mode, forbid_dense_kernel,
                                   kernel_cross, kernel_estimate, kernel_matrix)
from spectral_rff.linalg import seeded_rng
from spectral_rff.measures import (FrequencyBank, GaussianSE, LaplacianCauchy,
                                   MaternT, sample_nonstationary,
                                   sample_stationary)
from spectral_rff.model import (Hyperparams, dense_conditioning, fit_state,
                                log_marginal_likelihood_direct,
                                log_marginal_likelihood_reduced, predict)
from spectral_rff.training import (NONSTATIONARY_LEARNED, STATIONARY_FIXED,
                                   STATIONARY_LEARNED, TrainConfig,
                                   apply_gaussian_dropout, lml_gradient,
                                   train)
from tests.conftest import random_instance


def report(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{num:>2}] {status} {label}: {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))
                        / np.maximum(1.0, np.abs(np.asarray(b)))))


def test_criterion_01_reduced_lml_equals_dense():
    rng = seeded_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for mode in ("stationary", "nonstationary"):
        for _ in range(100):
            x, y, bank, hyper = random_instance(rng, mode)
            phi = features_for_mode(x, bank)
            reduced = log_marginal_likelihood_reduced(phi, y, hyper)
            k = kernel_estimate(phi, hyper.sigma_f2)
            direct = log_marginal_likelihood_direct(k, y, hyper.sigma_n2)
            worst = max(worst, abs(reduced - direct) / max(1.0, abs(direct)))
    elapsed = time.perf_counter() - t0
    report(1, "reduced marginal likelihood equals dense evaluation",
           worst < 1e-8 and elapsed < 10.0,
           f"worst rel err {worst:.3e} over 200 instances in {elapsed:.2f}s")


def test_criterion_02_prediction_equals_dense_conditioning():
    rng = seeded_rng(0)
    worst_mean = worst_var = 0.0
    for mode in ("stationary", "nonstationary"):
        for _ in range(100):
            x, y, bank, hyper = random_instance(rng, mode)
            x_star = rng.uniform(-2.0, 2.0, size=(5, x.shape[1]))
            phi = features_for_mode(x, bank)
            mean, var = predict(fit_state(phi, y, hyper, bank), x_star)
            phi_star = features_for_mode(x_star, bank)
            mean_o, var_o = dense_conditioning(
                kernel_estimate(phi, hyper.sigma_f2),
                kernel_cross(phi, phi_star, hyper.sigma_f2),
                np.diag(kernel_estimate(phi_star, hyper.sigma_f2)),
                y, hyper.sigma_n2)
            worst_mean = max(worst_mean, rel(mean, mean_o))
            worst_var = max(worst_var, rel(var, var_o))
    report(2, "predictive moments equal dense conditioning",
           worst_mean < 1e-8 and worst_var < 1e-8,
           f"worst rel err mean {worst_mean:.3e}, variance {worst_var:.3e}")


def test_criterion_03_monte_carlo_error_shrinks_with_bank_size():
    t0 = time.perf_counter()
    grid = np.linspace(-3.0, 3.0, 61).reshape(-1, 1)
    anchor = np.zeros((1, 1))
    factors = {}
    for label, spec in (("se", GaussianSE([1.0])),
                        ("laplacian", LaplacianCauchy([1.0])),
                        ("matern", MaternT(1.5))):
        k_true = kernel_matrix(spec, anchor, grid)[0]
        medians = {}
        for m in (100, 400):
            errs = []
            for seed in range(20):
                bank = sample_stationary(spec, m, 1, seeded_rng(3_500_000 + seed))
                k_hat = kernel_cross(features_for_mode(anchor, bank),
                                     features_for_mode(grid, bank), 1.0)[0]
                errs.append(float(np.max(np.abs(k_hat - k_true))))
            medians[m] = float(np.median(errs))
        factors[label] = medians[100] / medians[400]
    elapsed = time.perf_counter() - t0
    ok = all(1.6 <= f <= 2.6 for f in factors.values()) and elapsed < 30.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in factors.items())
    report(3, "kernel error shrinks with 4x more frequencies",
           ok, f"error factors m=100/m=400: {detail}; {elapsed:.2f}s")


def test_criterion_04_tied_banks_reduce_to_stationary():
    rng = seeded_rng(4)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 11))
        bank = sample_stationary(GaussianSE([1.0] * d), m, d, rng)
        tied = FrequencyBank(bank.omega1, bank.omega1.copy(), stationary=False)
        x = rng.uniform(-2.0, 2.0, size=(int(rng.integers(5, 30)), d))
        k_st = kernel_estimate(features_for_mode(x, bank), 1.0)
        k_ns = kernel_estimate(features_for_mode(x, tied), 1.0)
        worst = max(worst, float(np.max(np.abs(k_st - k_ns))))
    report(4, "tied frequency pairs reproduce the stationary kernel",
           worst <= 1e-12, f"worst entrywise gap {worst:.3e}")


def test_criterion_05_kernel_estimates_are_psd():
    rng = seeded_rng(11)
    worst = np.inf
    for mode in ("stationary", "nonstationary"):
        for _ in range(50):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(2, 16))
            spec = GaussianSE(list(rng.uniform(0.3, 2.0, d)))
            if mode == "stationary":
                bank = sample_stationary(spec, m, d, rng)
            else:
                bank = sample_nonstationary(spec, GaussianSE([1.0] * d), m, d, rng)
            x = rng.uniform(-2.0, 2.0, size=(int(rng.integers(5, 40)), d))
            k = kernel_estimate(features_for_mode(x, bank), 1.0)
            worst = min(worst, float(np.linalg.eigvalsh(k).min()))
    report(5, "kernel estimates are positive semidefinite",
           worst >= -1e-9, f"min eigenvalue over 100 banks {worst:.3e}")


def test_criterion_06_analytic_gradients_match_finite_differences():
    rng = seeded_rng(7)
    h = 1e-5
    worst = 0.0
    checked = 0

    def value(x, y, bank, hyper):
        return log_marginal_likelihood_reduced(
            features_for_mode(x, bank), y, hyper)

    for mode, kind in ((STATIONARY_LEARNED, "stationary"),
                       (NONSTATIONARY_LEARNED, "nonstationary")):
        for _ in range(30):
            x, y, bank, hyper = random_instance(rng, kind, max_n=30, max_m=6)
            _, grad, _ = lml_gradient(x, y, bank, hyper)
            grads = dict(zip(("log_sigma_f2", "log_sigma_n2"), grad))
            for key in ("log_sigma_f2", "log_sigma_n2"):
                hi = Hyperparams(hyper.log_sigma_f2, hyper.log_sigma_n2)
                lo = Hyperparams(hyper.log_sigma_f2, hyper.log_sigma_n2)
                setattr(hi, key, getattr(hyper, key) + h)
                setattr(lo, key, getattr(hyper, key) - h)
                fd = (value(x, y, bank, hi)
                      - value(x, y, bank, lo)) / (2.0 * h)
                worst = max(worst, abs(grads[key] - fd) / max(1.0, abs(fd)))
            keys = ["omega"] if mode == STATIONARY_LEARNED else ["omega1", "omega2"]
            grads.update(zip(keys, grad[2:].reshape(len(keys), *bank.omega1.shape)))
            for key in keys:
                base = bank.omega1 if key != "omega2" else bank.omega2
                for i in range(base.shape[0]):
                    for j in range(base.shape[1]):
                        def shifted(sign):
                            o1 = bank.omega1.copy()
                            if bank.stationary:
                                o1[i, j] += sign * h
                                return FrequencyBank(o1, stationary=True)
                            o2 = bank.omega2.copy()
                            (o1 if key == "omega1" else o2)[i, j] += sign * h
                            return FrequencyBank(o1, o2, stationary=False)
                        fd = (value(x, y, shifted(+1), hyper)
                              - value(x, y, shifted(-1), hyper)) / (2.0 * h)
                        worst = max(worst, abs(grads[key][i, j] - fd)
                                    / max(1.0, abs(fd)))
            checked += 1
    report(6, "analytic gradients match central differences",
           checked >= 50 and worst < 1e-4,
           f"worst rel err {worst:.3e} over {checked} instances")


def test_criterion_07_dropout_contract():
    sigma_p = 0.05
    bank = FrequencyBank(np.ones((100, 100)), stationary=True)
    noisy = apply_gaussian_dropout(bank, sigma_p, seeded_rng(1))
    mean_gap = abs(float(noisy.omega1.mean()) - 1.0)
    mean_ok = mean_gap <= 4.0 * sigma_p / 100.0

    sample = sample_stationary(GaussianSE([1.0]), 8, 1, seeded_rng(2))
    identity_ok = apply_gaussian_dropout(sample, 0.0, seeded_rng(3)) is sample

    # heavy dropout during training must leave no trace in the fit:
    # the stored bank is the clean one and regenerates the fit bitwise
    rng = seeded_rng(4)
    x = np.sort(rng.uniform(-2.0, 2.0, 50)).reshape(-1, 1)
    y = np.sin(5.0 * x[:, 0]) + 0.1 * rng.standard_normal(50)
    ds, _ = data.standardize(data.Dataset(x, y, ["x"], "y"))
    init = sample_stationary(GaussianSE([0.5]), 12, 1, seeded_rng(5))
    cfg = TrainConfig(mode=STATIONARY_FIXED, m=12, learning_rate=0.05,
                      max_steps=20, eval_every=5, patience=20,
                      dropout_sigma_p=0.4, seed=6)
    state, _ = train(ds, cfg, spec_init=init)
    clean_bank = bool(np.array_equal(state.bank.omega1, init.omega1))
    rebuilt = fit_state(features_for_mode(ds.x, state.bank),
                        ds.y, state.hyper, state.bank)
    rebuild_ok = (np.array_equal(rebuilt.alpha2, state.alpha2)
                  and np.array_equal(rebuilt.r, state.r))

    report(7, "dropout multipliers sound and fits dropout-free",
           mean_ok and identity_ok and clean_bank and rebuild_ok,
           f"multiplier mean gap {mean_gap:.2e} (tol {4 * sigma_p / 100:.0e}), "
           f"zero-level identity {identity_ok}, clean bank {clean_bank}, "
           f"bitwise rebuild {rebuild_ok}")


def test_criterion_08_learned_pairs_beat_fixed_bank_on_chirp():
    bench = benchmarks.gen_chirp(benchmarks.SyntheticSpec("chirp"))
    reportobj = benchmarks.compare(bench, 20, benchmarks.chirp_arm_configs())
    mse_fixed = reportobj.mean_mse(STATIONARY_FIXED)
    mse_learned = reportobj.mean_mse(NONSTATIONARY_LEARNED)
    corr_fixed = reportobj.mean_corr(STATIONARY_FIXED)
    corr_learned = reportobj.mean_corr(NONSTATIONARY_LEARNED)
    ratio = mse_learned / mse_fixed
    report(8, "learned frequency pairs beat a fixed bank on the chirp",
           ratio <= 0.8 and corr_learned > corr_fixed,
           f"mse ratio {ratio:.3f} (need <= 0.8), corr {corr_learned:.3f} "
           f"vs {corr_fixed:.3f} over 20 runs")


def test_criterion_09_step_field_benefit_and_anchor_dependence(tmp_path):
    bench = benchmarks.gen_step_lengthscale(
        benchmarks.SyntheticSpec("step-lengthscale", n=700, seed=0))
    reportobj = benchmarks.compare(bench, 10,
                                   benchmarks.step_field_arm_configs())
    mse_fixed = reportobj.mean_mse(STATIONARY_FIXED)
    mse_learned = reportobj.mean_mse(NONSTATIONARY_LEARNED)

    csv_path = tmp_path / "field.csv"
    data.save_dataset_csv(csv_path, bench)
    anchors = "0.25,0.5;0.5,0.5;0.75,0.5"

    def dump_fields(mode_flag, extra, out):
        assert cli.main(["fit", "--data", str(csv_path), "--mode", mode_flag,
                         *extra, "--patience", "10", "--eval-every", "25",
                         "--seed", "0", "--out-dir", str(out)]) == 0
        assert cli.main(["kernel-dump", "--model", str(out / "model.json"),
                         "--anchors", anchors, "--window", "0.2",
                         "--count", "21", "--out-dir", str(out)]) == 0
        fields = []
        for i in range(3):
            rows = (out / f"kernel_anchor{i}.csv").read_text().splitlines()
            fields.append(np.array([[float(v) for v in row.split(",")]
                                    for row in rows]))
        return fields

    ns_fields = dump_fields("nonstationary",
                            ["--m", "50", "--lr", "0.1", "--max-steps", "300"],
                            tmp_path / "ns")
    st_fields = dump_fields("stationary-fixed",
                            ["--m", "100", "--lr", "0.05", "--max-steps", "300"],
                            tmp_path / "st")

    def max_pairwise_gap(fields):
        gap = 0.0
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                gap = max(gap, float(np.max(np.abs(fields[i] - fields[j]))))
        return gap

    ns_gap = max_pairwise_gap(ns_fields)
    st_gap = max_pairwise_gap(st_fields)
    report(9, "input-dependent lengthscales learned on the step field",
           mse_learned < mse_fixed and ns_gap > 0.01 and st_gap <= 1e-10,
           f"mse {mse_learned:.3f} vs {mse_fixed:.3f} over 10 runs; anchor "
           f"field spread {ns_gap:.2e} (learned) vs {st_gap:.2e} (fixed)")


def test_criterion_10_near_linear_scaling_without_dense_kernels():
    def make_ds(n, seed=0):
        rng = seeded_rng(seed)
        x = np.sort(rng.uniform(0.0, 1.0, n)).reshape(-1, 1)
        y = np.sin(12.0 * x[:, 0]) + 0.1 * rng.standard_normal(n)
        ds, _ = data.standardize(data.Dataset(x, y, ["x"], "y"))
        return ds

    def cfg(seed=1, m=100):
        return TrainConfig(mode=NONSTATIONARY_LEARNED, m=m, learning_rate=0.05,
                           max_steps=30, patience=1000, eval_every=1000,
                           seed=seed)

    def timed_fit(n):
        ds = make_ds(n)
        t0 = time.perf_counter()
        with forbid_dense_kernel():
            state, _ = train(ds, cfg())
            predict(state, ds.x[:16])
        return time.perf_counter() - t0

    timed_fit(500)   # warm the BLAS and allocator before timing
    # min over repeats filters scheduler noise out of each wall time
    t_small = min(timed_fit(1000) for _ in range(3))
    t_big = min(timed_fit(2000) for _ in range(3))
    ratio = t_big / t_small

    # allocation side: the peak traced footprint of a fit must stay
    # below the size of a single n x n double matrix
    n_guard = 1200
    ds = make_ds(n_guard)
    tracemalloc.start()
    with forbid_dense_kernel():
        train(ds, cfg(m=50))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    budget = n_guard * n_guard * 8
    report(10, "doubling n at fixed m stays near-linear, no dense kernel",
           ratio <= 2.5 and peak < budget,
           f"median time ratio n=2000/n=1000 {ratio:.2f} (need <= 2.5); "
           f"peak alloc {peak / 1e6:.1f} MB < n^2 budget {budget / 1e6:.1f} MB")


def test_criterion_11_identical_invocations_are_byte_identical(tmp_path):
    rng = seeded_rng(0)
    t = np.sort(rng.uniform(0.0, 1.0, 120)).reshape(-1, 1)
    y = np.sin(9.0 * t[:, 0]) + 0.1 * rng.standard_normal(120)
    csv_path = tmp_path / "series.csv"
    data.save_dataset_csv(csv_path, data.Dataset(t, y, ["t"], "y"))

    def strip_last_column(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    fit_outs = []
    for name in ("fa", "fb"):
        out = tmp_path / name
        assert cli.main(["fit", "--data", str(csv_path), "--mode",
                         "nonstationary", "--m", "16", "--lr", "0.05",
                         "--max-steps", "20", "--eval-every", "5",
                         "--patience", "10", "--seed", "5",
                         "--out-dir", str(out)]) == 0
        fit_outs.append(out)
    models_equal = ((fit_outs[0] / "model.json").read_bytes()
                    == (fit_outs[1] / "model.json").read_bytes())
    # wall-clock columns are genuine measurements, so they are masked;
    # every other byte must agree
    traces_equal = (strip_last_column(fit_outs[0] / "trace.csv")
                    == strip_last_column(fit_outs[1] / "trace.csv"))

    bench_outs = []
    for name in ("ba", "bb"):
        out = tmp_path / name
        assert cli.main(["benchmark", "chirp", "--runs", "2", "--n", "120",
                         "--m", "16", "--max-steps", "20",
                         "--out-dir", str(out)]) == 0
        bench_outs.append(out)
    reports_equal = (strip_last_column(bench_outs[0] / "report.csv")
                     == strip_last_column(bench_outs[1] / "report.csv"))

    report(11, "identical invocations give identical artifacts",
           models_equal and traces_equal and reports_equal,
           f"model bytes {models_equal}, trace (timing masked) {traces_equal}, "
           f"report (timing masked) {reports_equal}")
