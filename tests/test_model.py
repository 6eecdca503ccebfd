"""Reduced-system inference checked against the dense O(n^3) oracle."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrmm

from spectral_rff import linalg, model
from spectral_rff.data import StandardizationStats
from spectral_rff.errors import (DimensionMismatch, InvalidParams,
                                 SchemaMismatch)
from spectral_rff.features import (FeatureMatrix, features_for_mode,
                                   forbid_dense_kernel, kernel_cross, kernel_estimate)
from spectral_rff.linalg import JITTER_LADDER, seeded_rng, solve_lower
from spectral_rff.measures import FrequencyBank, GaussianSE, sample_stationary
from spectral_rff.model import (Hyperparams, dense_conditioning, fit_state,
                                load_model, log_marginal_likelihood_direct,
                                log_marginal_likelihood_reduced, predict,
                                reduced_core, ridge_term, save_model)
from tests.conftest import random_instance


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("mode", ["stationary", "nonstationary"])
def test_reduced_lml_matches_dense_oracle(mode):
    rng = seeded_rng(101)
    worst = 0.0
    for _ in range(30):
        x, y, bank, hyper = random_instance(rng, mode)
        phi = features_for_mode(x, bank)
        reduced = log_marginal_likelihood_reduced(phi, y, hyper)
        k = kernel_estimate(phi, hyper.sigma_f2)
        direct = log_marginal_likelihood_direct(k, y, hyper.sigma_n2)
        worst = max(worst, abs(reduced - direct) / max(1.0, abs(direct)))
    assert worst < 1e-10


@pytest.mark.parametrize("mode", ["stationary", "nonstationary"])
def test_predict_matches_dense_conditioning(mode):
    rng = seeded_rng(202)
    worst_mean = worst_var = 0.0
    for _ in range(30):
        x, y, bank, hyper = random_instance(rng, mode)
        x_star = rng.uniform(-2.0, 2.0, size=(6, x.shape[1]))
        phi = features_for_mode(x, bank)
        state = fit_state(phi, y, hyper, bank)
        mean, var = predict(state, x_star)
        phi_star = features_for_mode(x_star, bank)
        k = kernel_estimate(phi, hyper.sigma_f2)
        k_cross = kernel_cross(phi, phi_star, hyper.sigma_f2)
        k_diag = np.diag(kernel_estimate(phi_star, hyper.sigma_f2))
        mean_o, var_o = dense_conditioning(k, k_cross, k_diag, y,
                                           hyper.sigma_n2)
        worst_mean = max(worst_mean, rel_err(mean, mean_o))
        worst_var = max(worst_var, rel_err(var, var_o))
    assert worst_mean < 1e-10
    assert worst_var < 1e-10


def test_single_point_lml_is_the_scalar_gaussian():
    x = np.array([[0.3]])
    bank = sample_stationary(GaussianSE([1.0]), 4, 1, seeded_rng(5))
    hyper = Hyperparams.from_variances(1.5, 0.2)
    phi = features_for_mode(x, bank)
    k = kernel_estimate(phi, 1.5)[0, 0]
    y = np.array([0.7])
    expected = -0.5 * (np.log(2.0 * np.pi * (k + 0.2)) + 0.7 ** 2 / (k + 0.2))
    assert log_marginal_likelihood_reduced(phi, y, hyper) == \
        pytest.approx(expected, rel=1e-12)
    assert log_marginal_likelihood_direct(np.array([[k]]), y, 0.2) == \
        pytest.approx(expected, rel=1e-12)


def test_direct_lml_standard_normal_case():
    val = log_marginal_likelihood_direct(np.zeros((1, 1)), np.zeros(1), 1.0)
    assert val == pytest.approx(-0.5 * np.log(2.0 * np.pi), rel=1e-14)


def test_direct_lml_guards():
    with pytest.raises(InvalidParams):
        log_marginal_likelihood_direct(np.zeros((1, 1)), np.zeros(1), 1e-13)
    with pytest.raises(DimensionMismatch):
        log_marginal_likelihood_direct(np.zeros((2, 2)), np.zeros(3), 1.0)
    n = 2001
    with pytest.raises(InvalidParams):
        log_marginal_likelihood_direct(np.zeros((n, n)), np.zeros(n), 1.0)


def test_dense_paths_respect_the_kernel_guard():
    with forbid_dense_kernel():
        with pytest.raises(RuntimeError):
            log_marginal_likelihood_direct(np.eye(2), np.zeros(2), 1.0)
        with pytest.raises(RuntimeError):
            dense_conditioning(np.eye(2), np.eye(2), np.ones(2),
                               np.zeros(2), 1.0)


def test_normal_equations_residual():
    rng = seeded_rng(303)
    x, y, bank, hyper = random_instance(rng, "nonstationary")
    phi = features_for_mode(x, bank)
    state = fit_state(phi, y, hyper, bank)
    a = phi.phi.T @ phi.phi + ridge_term(phi, hyper) * np.eye(2 * bank.m)
    np.testing.assert_allclose(a @ state.alpha2, phi.phi.T @ y,
                               rtol=1e-8, atol=1e-10)
    # R' alpha2 = R^-1 b with R the saved factor of A
    np.testing.assert_allclose(state.r.T @ state.alpha2, solve_lower(state.r, phi.phi.T @ y),
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("mode", ["stationary", "nonstationary"])
@pytest.mark.parametrize("n,m", [(40, 60), (900, 12)])   # 2m > n and n >> 2m
def test_reduced_core_matches_the_two_solve_formula(mode, n, m):
    # the reference factors with numpy and takes alpha1 = R^-1 b, then
    # alpha2 = R^-T alpha1 and L from |alpha1|^2
    rng = seeded_rng(808)
    omega = [2.0 * rng.standard_normal((m, 2)) for _ in range(2)]
    bank = (FrequencyBank(omega[0], stationary=True) if mode == "stationary"
            else FrequencyBank(*omega, stationary=False))
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = np.sin(3.0 * x[:, 0]) * x[:, 1] + 0.1 * rng.standard_normal(n)
    hyper = Hyperparams.from_variances(1.3, 0.05)
    phi = features_for_mode(x, bank)

    ridge = ridge_term(phi, hyper)
    r_ref = np.linalg.cholesky(phi.phi.T @ phi.phi + ridge * np.eye(2 * m))
    alpha1_ref = solve_triangular(r_ref, phi.phi.T @ y, lower=True)
    alpha2_ref = solve_triangular(r_ref.T, alpha1_ref, lower=False)
    lml_ref = (-(y @ y - alpha1_ref @ alpha1_ref) / (2.0 * hyper.sigma_n2)
               - np.sum(np.log(np.diagonal(r_ref))) + m * np.log(ridge)
               - 0.5 * n * np.log(2.0 * np.pi * hyper.sigma_n2))

    core = reduced_core(phi, y, hyper)
    state = fit_state(phi, y, hyper, bank)
    assert core["jitter"] == 0.0
    np.testing.assert_allclose(core["lml"], lml_ref, rtol=1e-10, atol=0)
    np.testing.assert_allclose(core["alpha2"], alpha2_ref, rtol=1e-10, atol=0)
    # the saved factor of A gives the reference's R^-1 b
    np.testing.assert_allclose(solve_lower(state.r, phi.phi.T @ y), alpha1_ref,
                               rtol=1e-10, atol=0)
    if n >= 2 * m:
        np.testing.assert_array_equal(state.alpha2, core["alpha2"])
    else:
        # reduced_core takes alpha2 from the n x n system, fit_state from A
        np.testing.assert_allclose(state.alpha2, alpha2_ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("mode", ["stationary", "nonstationary"])
def test_reduced_core_matches_the_dense_oracle_where_the_orientation_turns(mode):
    # n = 2m - 1 factors the n x n system, n = 2m and 2m + 1 the 2m x 2m one
    rng = seeded_rng(909)
    m = 12
    for n in (2 * m - 1, 2 * m, 2 * m + 1):
        omega = [2.0 * rng.standard_normal((m, 2)) for _ in range(2)]
        bank = (FrequencyBank(omega[0], stationary=True) if mode == "stationary"
                else FrequencyBank(*omega, stationary=False))
        x = rng.uniform(-1.0, 1.0, size=(n, 2))
        y = np.sin(3.0 * x[:, 0]) * x[:, 1] + 0.1 * rng.standard_normal(n)
        hyper = Hyperparams.from_variances(1.3, 0.05)
        phi = features_for_mode(x, bank)
        core = reduced_core(phi, y, hyper)
        assert core["chol"].shape == (min(n, 2 * m),) * 2
        k = kernel_estimate(phi, hyper.sigma_f2)
        direct = log_marginal_likelihood_direct(k, y, hyper.sigma_n2)
        assert core["lml"] == pytest.approx(direct, rel=1e-10)
        # the posterior mean at the training rows is phi alpha2
        mean_o, _ = dense_conditioning(k, k, np.diag(k), y, hyper.sigma_n2)
        assert rel_err(phi.phi @ core["alpha2"], mean_o) < 1e-10


@pytest.mark.parametrize("mode", ["stationary", "nonstationary"])
def test_reduced_core_factors_into_its_buffers_bit_for_bit(mode):
    rng = seeded_rng(131)
    for n, m in ((40, 9), (12, 20)):   # n >= 2m and n < 2m
        omega = [rng.standard_normal((m, 2)) for _ in range(2)]
        bank = (FrequencyBank(omega[0], stationary=True) if mode == "stationary"
                else FrequencyBank(*omega, stationary=False))
        phi = features_for_mode(rng.standard_normal((n, 2)), bank)
        y = rng.standard_normal(n)
        hyper = Hyperparams.from_variances(1.5, 0.2)
        k = min(n, 2 * m)
        buffers = SimpleNamespace(gram=np.empty((k, k)), chol=np.empty((k, k), order="F"))
        core = reduced_core(phi, y, hyper, buffers)
        ref = reduced_core(phi, y, hyper)
        assert np.shares_memory(core["chol"], buffers.chol)
        np.testing.assert_array_equal(core["chol"], ref["chol"])
        np.testing.assert_array_equal(core["alpha2"], ref["alpha2"])
        for key in ("ridge", "jitter", "lml", "yy", "a1_sq", "a2_sq"):
            assert core[key] == ref[key], key


def test_reduced_core_jitter_scales_by_the_n_by_n_diagonal():
    # six identical rows and eight pairs: B = phi phi' + r I is the
    # rank-one 8 J to working precision, so dpotrf needs a jitter rung,
    # scaled by B's mean diagonal 8 rather than A's 3
    n, m = 6, 8
    bank = FrequencyBank(np.arange(1.0, m + 1).reshape(-1, 1), stationary=True)
    phi = features_for_mode(np.full((n, 1), 0.3), bank)
    hyper = Hyperparams.from_variances(1.0, 1e-30)
    core = reduced_core(phi, np.ones(n), hyper)
    b = phi.phi @ phi.phi.T + ridge_term(phi, hyper) * np.eye(n)
    scale = float(np.mean(np.diagonal(b)))
    assert scale == pytest.approx(8.0, rel=1e-12)
    assert core["chol"].shape == (n, n)
    assert core["jitter"] > 0.0
    assert any(core["jitter"] == pytest.approx(rung * scale, rel=1e-12)
               for rung in JITTER_LADDER[1:])
    chol = core["chol"]
    np.testing.assert_allclose(chol @ chol.T, b + core["jitter"] * np.eye(n), atol=1e-12)


def test_zero_targets_give_zero_mean_and_noise_floor_variance(rng):
    x = rng.uniform(-1.0, 1.0, size=(8, 1))
    bank = sample_stationary(GaussianSE([1.0]), 10, 1, seeded_rng(7))
    hyper = Hyperparams.from_variances(1.0, 0.3)
    phi = features_for_mode(x, bank)
    state = fit_state(phi, np.zeros(8), hyper, bank)
    mean, var = predict(state, x)
    np.testing.assert_array_equal(mean, np.zeros(8))
    assert np.all(var >= hyper.sigma_n2)


def test_predictive_variance_never_below_noise(rng):
    for mode in ("stationary", "nonstationary"):
        x, y, bank, hyper = random_instance(rng, mode)
        state = fit_state(features_for_mode(x, bank), y, hyper, bank)
        _, var = predict(state, rng.uniform(-3.0, 3.0, size=(20, x.shape[1])))
        assert np.all(var >= hyper.sigma_n2 - 1e-12)


def test_near_interpolation_at_tiny_noise():
    rng = seeded_rng(0)
    x = np.sort(rng.uniform(-2.0, 2.0, 10)).reshape(-1, 1)
    y = np.sin(3.0 * x[:, 0])
    bank = sample_stationary(GaussianSE([0.5]), 60, 1, seeded_rng(1))
    hyper = Hyperparams.from_variances(1.0, 1e-8)
    state = fit_state(features_for_mode(x, bank), y, hyper, bank)
    mean, _ = predict(state, x)
    assert float(np.max(np.abs(mean - y))) < 1e-4


def test_predict_empty_input_returns_empty():
    rng = seeded_rng(9)
    x, y, bank, hyper = random_instance(rng, "stationary")
    state = fit_state(features_for_mode(x, bank), y, hyper, bank)
    mean, var = predict(state, np.empty((0, x.shape[1])))
    assert mean.shape == (0,) and var.shape == (0,)
    with pytest.raises(DimensionMismatch):
        predict(state, np.zeros((2, x.shape[1] + 1)))


def wide_state(mode, m=150, d=2, seed=707):
    rng = seeded_rng(seed)
    omega1 = 3.0 * rng.standard_normal((m, d))
    if mode == "stationary":
        bank = FrequencyBank(omega1, stationary=True)
    else:
        bank = FrequencyBank(omega1, 3.0 * rng.standard_normal((m, d)),
                             stationary=False)
    x = rng.uniform(-1.0, 1.0, size=(200, d))
    y = np.sin(3.0 * x[:, 0]) + 0.1 * rng.standard_normal(200)
    hyper = Hyperparams.from_variances(1.0, 0.01)
    return fit_state(features_for_mode(x, bank), y, hyper, bank), rng


def test_chunk_rows_are_aligned_and_fill_the_budget():
    for m in (1, 7, 150, 600, 5000):
        rows = model._chunk_rows(m)
        assert rows % model.PREDICT_CHUNK_ALIGN == 0 and rows >= model.PREDICT_CHUNK_ALIGN
        if rows > model.PREDICT_CHUNK_ALIGN:
            assert rows * 2 * m * 8 <= model.PREDICT_CHUNK_BYTES
            assert (rows + model.PREDICT_CHUNK_ALIGN) * 2 * m * 8 > model.PREDICT_CHUNK_BYTES


@pytest.mark.parametrize("mode", ["stationary", "nonstationary"])
def test_chunked_predict_matches_one_whole_block_pass(mode):
    state, rng = wide_state(mode)
    rows = model._chunk_rows(state.bank.m)
    n_star = 3 * rows + rows // 3 + 5   # three full chunks and a ragged fourth
    x_star = rng.uniform(-1.5, 1.5, size=(n_star, state.bank.dim))
    mean, var = predict(state, x_star)
    # the predictor written out on all rows at once
    phi = features_for_mode(x_star, state.bank).phi
    v = solve_lower(state.r, phi.T)
    mean_ref = phi @ state.alpha2
    var_ref = state.hyper.sigma_n2 * (1.0 + np.sum(v * v, axis=0))
    np.testing.assert_allclose(mean, mean_ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(mean_ref)))
    np.testing.assert_allclose(var, var_ref, rtol=1e-12, atol=0.0)
    # bit for bit: the mean equals the whole-block pass, and the variance
    # the same kernels run chunk by chunk on fresh arrays (dtrmm on the
    # whole block rounds a row differently), so the reused chunk buffers
    # and the last chunk's leading-row views change no bit
    np.testing.assert_array_equal(mean, mean_ref)
    rinv = linalg.inverse_lower(state.r)
    sq = [np.sum(w * w, axis=0) for w in
          (dtrmm(1.0, rinv, phi[lo:lo + rows].T, lower=1) for lo in range(0, n_star, rows))]
    np.testing.assert_array_equal(var, state.hyper.sigma_n2 * (1.0 + np.concatenate(sq)))
    # blocks of whole chunks through one workspace, as predict streams a
    # file, give the same bits
    work = model.PredictWorkspace(state)
    blocks = [predict(state, x_star[lo:lo + 2 * rows], work) for lo in range(0, n_star, 2 * rows)]
    np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), mean)
    np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), var)


def test_predict_peak_memory_is_a_chunk_not_the_whole_feature_block():
    state, rng = wide_state("nonstationary", d=1)
    n_star = 50_000
    x_star = rng.uniform(-1.5, 1.5, size=(n_star, 1))
    tracemalloc.start()
    try:
        predict(state, x_star)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = n_star * 2 * state.bank.m * 8
    assert peak < block / 4, f"peak {peak / 1e6:.1f} MB, block {block / 1e6:.1f} MB"


def test_model_round_trip_reproduces_predictions_bitwise(tmp_path):
    rng = seeded_rng(404)
    x, y, bank, hyper = random_instance(rng, "nonstationary")
    stats = StandardizationStats(np.zeros(x.shape[1]), np.ones(x.shape[1]),
                                 0.5, 2.0)
    state = fit_state(features_for_mode(x, bank), y, hyper,
                      bank, standardization=stats,
                      input_columns=[f"x{i}" for i in range(x.shape[1])])
    assert not np.any(np.triu(state.r, 1))
    path = tmp_path / "model.json"
    save_model(path, state)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.r, state.r)
    x_star = rng.uniform(-2.0, 2.0, size=(5, x.shape[1]))
    mean_a, var_a = predict(state, x_star)
    mean_b, var_b = predict(loaded, x_star)
    np.testing.assert_array_equal(mean_a, mean_b)
    np.testing.assert_array_equal(var_a, var_b)
    assert loaded.input_columns == state.input_columns
    np.testing.assert_array_equal(loaded.standardization.input_mean,
                                  stats.input_mean)
    assert loaded.standardization.output_std == 2.0
    assert loaded.jitter == state.jitter


def test_model_load_rejects_foreign_documents(tmp_path):
    rng = seeded_rng(505)
    x, y, bank, hyper = random_instance(rng, "stationary")
    state = fit_state(features_for_mode(x, bank), y, hyper, bank)
    path = tmp_path / "model.json"
    save_model(path, state)
    import json
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatch):
        load_model(path)
    # version 1 stored the feature mode and alpha1; the bank now picks the map
    doc.update(format_version=1, mode="stationary")
    doc["fit"]["alpha1"] = doc["fit"]["alpha2"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatch, match="version 1"):
        load_model(path)


def test_hyperparams_validation_and_inversion():
    h = Hyperparams.from_variances(2.0, 0.5)
    assert h.sigma_f2 == pytest.approx(2.0, rel=1e-14)
    assert h.sigma_n2 == pytest.approx(0.5, rel=1e-14)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidParams):
            Hyperparams.from_variances(bad, 1.0)
        with pytest.raises(InvalidParams):
            Hyperparams.from_variances(1.0, bad)


def test_ridge_term_hand_value():
    hyper = Hyperparams.from_variances(2.0, 0.5)
    one, two = (FeatureMatrix(np.empty((3, 20)), 10, banks) for banks in (1, 2))
    assert ridge_term(one, hyper) == pytest.approx(2.5, rel=1e-12)
    assert ridge_term(two, hyper) == pytest.approx(10.0, rel=1e-12)


def test_reduced_core_rejects_length_mismatch():
    rng = seeded_rng(606)
    x, y, bank, hyper = random_instance(rng, "stationary")
    phi = features_for_mode(x, bank)
    with pytest.raises(DimensionMismatch):
        log_marginal_likelihood_reduced(phi, y[:-1], hyper)
