"""Gradient correctness, dropout semantics, optimizer loop behavior."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spectral_rff import data, features, linalg, model, training
from spectral_rff.data import Dataset
from spectral_rff.errors import DegenerateSplit, NonFiniteLoss
from spectral_rff.features import features_for_mode
from spectral_rff.linalg import seeded_rng
from spectral_rff.measures import (FrequencyBank, GaussianSE,
                                   sample_nonstationary, sample_stationary)
from spectral_rff.model import (Hyperparams, log_marginal_likelihood_reduced,
                                predict)
from spectral_rff.training import (MODES, NONSTATIONARY_LEARNED,
                                   STATIONARY_FIXED, STATIONARY_LEARNED,
                                   ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                                   TrainConfig, TrainTrace,
                                   _FixedBankObjective, _initial_bank, adam_step,
                                   apply_gaussian_dropout, lml_gradient,
                                   median_heuristic_lengthscales, train)
from tests.conftest import random_instance
from oracles import dense_conditioning, kernel_matrix


def sine_dataset(n=40, seed=0, standardized=True):
    rng = seeded_rng(seed)
    x = np.sort(rng.uniform(-2.0, 2.0, n)).reshape(-1, 1)
    y = np.sin(4.0 * x[:, 0]) + 0.1 * rng.standard_normal(n)
    ds = Dataset(x, y, ["x0"], "y")
    if standardized:
        ds, _ = data.standardize(ds)
    return ds


# --- dropout ----------------------------------------------------------------

def test_dropout_multipliers_have_unit_mean():
    sigma_p = 0.05
    bank = FrequencyBank(np.ones((100, 100)), stationary=True)
    noisy = apply_gaussian_dropout(bank, sigma_p, seeded_rng(100))
    mult = noisy.omega1
    assert abs(float(mult.mean()) - 1.0) <= 4.0 * sigma_p / 100.0
    assert float(mult.std()) == pytest.approx(sigma_p, rel=0.05)


def test_zero_dropout_returns_the_same_object():
    bank = sample_stationary(GaussianSE([1.0]), 5, 1, seeded_rng(1))
    assert apply_gaussian_dropout(bank, 0.0, seeded_rng(2)) is bank


def test_dropout_keeps_stationary_banks_tied():
    bank = sample_stationary(GaussianSE([1.0]), 5, 1, seeded_rng(1))
    noisy = apply_gaussian_dropout(bank, 0.2, seeded_rng(2))
    assert noisy.stationary
    assert noisy.omega2 is noisy.omega1
    assert np.any(noisy.omega1 != bank.omega1)


def test_dropout_draws_independent_noise_per_bank():
    bank = sample_nonstationary(GaussianSE([1.0]), GaussianSE([1.0]),
                                40, 1, seeded_rng(3))
    noisy = apply_gaussian_dropout(bank, 0.3, seeded_rng(4))
    mult1 = noisy.omega1 / bank.omega1
    mult2 = noisy.omega2 / bank.omega2
    assert np.any(np.abs(mult1 - mult2) > 1e-6)


# --- analytic gradients -----------------------------------------------------

def fd_lml(x, y, bank, hyper):
    phi = features_for_mode(x, bank)
    return log_marginal_likelihood_reduced(phi, y, hyper)


@pytest.mark.parametrize("mode,kind", [
    (STATIONARY_LEARNED, "stationary"),
    (NONSTATIONARY_LEARNED, "nonstationary"),
])
def test_gradients_match_central_differences(mode, kind):
    rng = seeded_rng(77)
    h = 1e-5
    worst = 0.0
    for _ in range(6):
        x, y, bank, hyper = random_instance(rng, kind, max_n=30, max_m=6)
        _, grad, _ = lml_gradient(x, y, bank, hyper)
        grads = dict(zip(("log_sigma_f2", "log_sigma_n2"), grad))

        for key in ("log_sigma_f2", "log_sigma_n2"):
            up = Hyperparams(hyper.log_sigma_f2, hyper.log_sigma_n2)
            dn = Hyperparams(hyper.log_sigma_f2, hyper.log_sigma_n2)
            setattr(up, key, getattr(hyper, key) + h)
            setattr(dn, key, getattr(hyper, key) - h)
            fd = (fd_lml(x, y, bank, up) - fd_lml(x, y, bank, dn)) / (2 * h)
            worst = max(worst, abs(grads[key] - fd) / max(1.0, abs(fd)))

        freq_keys = ["omega"] if mode == STATIONARY_LEARNED else ["omega1", "omega2"]
        grads.update(zip(freq_keys, grad[2:].reshape(len(freq_keys), *bank.omega1.shape)))
        for key in freq_keys:
            target = bank.omega1 if key in ("omega", "omega1") else bank.omega2
            for i in range(target.shape[0]):
                for j in range(target.shape[1]):
                    def perturbed(sign):
                        o1 = bank.omega1.copy()
                        o2 = None if bank.stationary else bank.omega2.copy()
                        ref = o1 if key in ("omega", "omega1") else o2
                        ref[i, j] += sign * h
                        if bank.stationary:
                            return FrequencyBank(o1, stationary=True)
                        return FrequencyBank(o1, o2, stationary=False)
                    fd = (fd_lml(x, y, perturbed(+1), hyper)
                          - fd_lml(x, y, perturbed(-1), hyper)) / (2 * h)
                    worst = max(worst, abs(grads[key][i, j] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-6


def two_solve_lml_gradient(x, y, bank, hyper):
    """Reference for lml_gradient's dlauum/dsymm core, whichever system it
    factors: A = phi' phi + r I factored by numpy, alpha2 and L from that
    factor, tr(G) as |R^-1|_F^2 and phi G from two triangular solves with
    n right-hand sides. The gradient is laid out as lml_gradient's."""
    m = bank.m
    buffers = features.FeatureBuffers(x.shape[0], m, 2)
    phi = features.features_for_mode(x, bank, buffers)
    n = y.shape[0]
    ridge = model.ridge_term(phi, hyper)
    r_chol = np.linalg.cholesky(phi.phi.T @ phi.phi + ridge * np.eye(2 * m))
    b = phi.phi.T @ y
    alpha1 = linalg.solve_lower(r_chol, b)
    alpha2 = linalg.solve_upper(r_chol.T, alpha1)
    lml = (-(y @ y - alpha1 @ alpha1) / (2.0 * hyper.sigma_n2)
           - np.sum(np.log(np.diagonal(r_chol))) + m * np.log(ridge)
           - 0.5 * n * np.log(2.0 * np.pi * hyper.sigma_n2))
    rinv = linalg.solve_lower(r_chol, np.eye(2 * m))
    grads = [*training.log_variance_grads(ridge, hyper.sigma_n2, float(y @ y),
                                          float(alpha1 @ alpha1), float(alpha2 @ alpha2),
                                          float(np.sum(rinv * rinv)), m, n)]
    w = linalg.solve_lower(r_chol, phi.phi.T)
    phi_g = linalg.solve_upper(r_chol.T, w).T
    resid = y - phi.phi @ alpha2
    phibar = np.outer(resid, alpha2) / hyper.sigma_n2 - phi_g
    cbar, sbar = phibar[:, :m], phibar[:, m:]
    for c, s in buffers.pairs[:bank.banks]:
        grads.extend(np.ravel((sbar * c - cbar * s).T @ x))
    return float(lml), np.array(grads)


@pytest.mark.parametrize("mode", [STATIONARY_LEARNED, NONSTATIONARY_LEARNED])
@pytest.mark.parametrize("regime", ["2m > n", "n >> 2m", "n near 2m"])
def test_gradient_core_matches_the_two_solve_reference(mode, regime):
    rng = seeded_rng(81)
    for _ in range(4):
        if regime == "2m > n":
            n = int(rng.integers(5, 40))
            m = int(rng.integers(n, 2 * n))
        elif regime == "n >> 2m":
            m = int(rng.integers(1, 9))
            n = int(rng.integers(200, 400))
        else:
            m = int(rng.integers(5, 30))
            n = 2 * m + int(rng.integers(-1, 2))
        d = int(rng.integers(1, 4))
        omega1 = 3.0 * rng.standard_normal((m, d))
        bank = (FrequencyBank(omega1, stationary=True) if mode == STATIONARY_LEARNED
                else FrequencyBank(omega1, 3.0 * rng.standard_normal((m, d)),
                                   stationary=False))
        x = rng.uniform(-1.0, 1.0, (n, d))
        y = np.sin(3.0 * x[:, 0]) + 0.1 * rng.standard_normal(n)
        hyper = Hyperparams.from_variances(float(np.exp(rng.uniform(-1.0, 1.0))),
                                           float(np.exp(rng.uniform(-4.0, 0.0))))
        value, grad, _ = lml_gradient(x, y, bank, hyper)
        ref_value, ref_grad = two_solve_lml_gradient(x, y, bank, hyper)
        assert value == pytest.approx(ref_value, rel=1e-10)
        assert grad.shape == ref_grad.shape == (2 + bank.banks * m * d,)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=0.0)


# --- the step workspace -----------------------------------------------------

def workspace_arrays(work):
    return [*work.pairs, work.phi, work.gram, work.chol, work.outer]


def workspace_instance(mode, n, m, seed=83, d=2):
    rng = seeded_rng(seed)
    omega = [3.0 * rng.standard_normal((m, d)) for _ in range(2)]
    bank = (FrequencyBank(*omega, stationary=False) if mode == NONSTATIONARY_LEARNED
            else FrequencyBank(omega[0], stationary=True))
    x = rng.uniform(-1.0, 1.0, (n, d))
    y = np.sin(3.0 * x[:, 0]) + 0.1 * rng.standard_normal(n)
    return x, y, bank, Hyperparams.from_variances(1.3, 0.05), rng


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("n,m", [(60, 12), (20, 15)])   # n >= 2m and n < 2m
def test_a_reused_workspace_gives_the_fresh_step_bit_for_bit(mode, n, m):
    x, y, bank, hyper, rng = workspace_instance(mode, n, m)
    work = training.StepWorkspace(n, m)
    frequencies = MODES[mode].trained > 0
    for _ in range(5):
        noisy = apply_gaussian_dropout(bank, 0.05, rng)
        value, grad, jitter = lml_gradient(x, y, noisy, hyper, frequencies, work)
        ref_value, ref_grad, ref_jitter = lml_gradient(x, y, noisy, hyper, frequencies)
        assert value == ref_value and jitter == ref_jitter
        assert grad.shape == ref_grad.shape == (2 + MODES[mode].trained * m * x.shape[1],)
        np.testing.assert_array_equal(grad, ref_grad)
        assert not any(np.shares_memory(grad, a) for a in workspace_arrays(work))


@pytest.mark.parametrize("n,m", [(60, 12), (20, 15)])
def test_the_step_overwrites_its_factor_and_outer_product_in_place(n, m):
    # f2py copies an array of the wrong order without a word: an inverse,
    # dlauum or dsymm that stopped writing in place would leave the
    # workspace holding the factor and the plain outer product
    mode = NONSTATIONARY_LEARNED
    x, y, bank, hyper, _ = workspace_instance(mode, n, m)
    work = training.StepWorkspace(n, m)
    _, grad, _ = lml_gradient(x, y, bank, hyper, work=work)
    # the Gram buffer keeps C, and C^-1 is written over its spent factor
    cinv = work.chol
    np.testing.assert_allclose(np.tril(cinv), np.tril(np.linalg.inv(work.gram)),
                               rtol=1e-8, atol=1e-8 * np.max(np.abs(cinv)))
    assert not np.any(np.triu(cinv, 1))
    # the outer-product buffer holds phibar: the chain rule gives the
    # returned gradients from it bit for bit
    cbar, sbar = work.outer[:, :m], work.outer[:, m:]
    buffers = features.FeatureBuffers(n, m, 2)
    features_for_mode(x, bank, buffers)
    for (c, s), dw in zip(buffers.pairs, grad[2:].reshape(2, m, -1)):
        np.testing.assert_array_equal((sbar * c - cbar * s).T @ x, dw)


@pytest.mark.parametrize("n,m", [(700, 300), (300, 300)])   # n >= 2m and n < 2m
def test_a_step_allocates_at_most_half_a_gram_system_beyond_its_workspace(n, m):
    # the recursive inverse's f2py block copies are the one allocation of
    # order k^2 a step makes; cli._check_fit_memory counts (2m)^2 / 2
    # doubles for them
    x, y, bank, hyper, _ = workspace_instance(NONSTATIONARY_LEARNED, n, m)
    work = training.StepWorkspace(n, m)
    lml_gradient(x, y, bank, hyper, work=work)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lml_gradient(x, y, bank, hyper, work=work)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    k = min(n, 2 * m)
    assert peak <= 8 * (k * k // 2 + 16 * (n + 2 * m))


def test_fixed_mode_reports_no_frequency_gradients():
    rng = seeded_rng(78)
    x, y, bank, hyper = random_instance(rng, "stationary")
    _, grad, _ = lml_gradient(x, y, bank, hyper, frequencies=False)
    assert grad.shape == (2,)


def test_duplicate_frequency_rows_get_equal_gradients():
    rng = seeded_rng(79)
    x, y, bank, hyper = random_instance(rng, "stationary", max_m=5)
    om = bank.omega1.copy()
    om[1] = om[0]
    dup = FrequencyBank(om, stationary=True)
    _, grad, _ = lml_gradient(x, y, dup, hyper)
    omega_grad = grad[2:].reshape(om.shape)
    np.testing.assert_allclose(omega_grad[0], omega_grad[1], rtol=1e-9, atol=1e-12)


def test_fixed_bank_objective_agrees_with_general_path():
    rng = seeded_rng(80)
    for n, m in ((30, 8), (12, 40)):   # n >= 2m and n < 2m
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        bank = FrequencyBank(rng.standard_normal((m, 2)), stationary=True)
        obj = _FixedBankObjective(x, y, bank)
        assert obj.lam.shape == obj.btilde.shape == (2 * m,)
        for sf2, sn2 in ((1.0, 0.1), (3.0, 0.5), (0.2, 0.01), (1.0, 1e-4)):
            hyper = Hyperparams.from_variances(sf2, sn2)
            fast_val, fast_grad = obj.value_and_grads(hyper)
            slow_val, slow_grad, _ = lml_gradient(x, y, bank, hyper, frequencies=False)
            assert fast_val == pytest.approx(slow_val, rel=1e-9)
            assert fast_grad.shape == slow_grad.shape == (2,)
            for fast, slow in zip(fast_grad, slow_grad):
                assert fast == pytest.approx(slow, rel=1e-8)


# --- optimizer pieces -------------------------------------------------------

def test_adam_zero_gradient_leaves_params_untouched():
    theta = np.array([1.0, -2.0, 3.0])
    moments = np.zeros((2, 3))
    new = adam_step(theta, np.zeros(3), moments, 1, 0.1)
    np.testing.assert_array_equal(new, theta)
    np.testing.assert_array_equal(moments, 0.0)


def test_adam_first_step_is_signed_learning_rate():
    new = adam_step(np.zeros(2), np.array([2.5, -7.0]), np.zeros((2, 2)), 1, 0.1)
    np.testing.assert_allclose(new, [-0.1, 0.1], rtol=1e-6)


def test_adam_steps_equal_kingma_ba_element_by_element():
    # Algorithm 1 of Kingma and Ba (2015), one float at a time; the moments
    # carry between calls only through adam_step's in-place update
    rng = seeded_rng(9)
    grads = rng.standard_normal((5, 4)) * [1e-3, 1.0, 10.0, 1e4]
    theta, moments = rng.standard_normal(4), np.zeros((2, 4))
    ref, m1, m2 = [float(v) for v in theta], [0.0] * 4, [0.0] * 4
    for t, g in enumerate(grads, start=1):
        theta = adam_step(theta, g, moments, t, 0.05)
        for i, gi in enumerate(map(float, g)):
            m1[i] = ADAM_BETA1 * m1[i] + (1.0 - ADAM_BETA1) * gi
            m2[i] = ADAM_BETA2 * m2[i] + (1.0 - ADAM_BETA2) * (gi * gi)
            m1_hat = m1[i] / (1.0 - ADAM_BETA1 ** t)
            m2_hat = m2[i] / (1.0 - ADAM_BETA2 ** t)
            ref[i] -= 0.05 * m1_hat / (math.sqrt(m2_hat) + ADAM_EPS)
        assert theta.tolist() == ref
        assert moments.tolist() == [m1, m2]


@pytest.mark.parametrize("scores,stop_round,best_round", [
    ((5.0, 6.0, 5.0), 3, 1),             # a tie counts as flat
    ((5.0, 6.0, 4.0, 7.0, 8.0), 5, 3),   # an improvement resets the count
], ids=["tie-is-flat", "improvement-resets"])
def test_early_stopping_keeps_the_best_round(monkeypatch, scores, stop_round, best_round):
    # validation rounds score what the script says, in order
    def scripted_train(config):
        script = iter(scores)
        monkeypatch.setattr(model, "log_marginal_likelihood_reduced",
                            lambda phi, y, hyper: -next(script))
        return train(sine_dataset(), config)

    every = 4
    config = TrainConfig(mode=STATIONARY_LEARNED, m=6, learning_rate=0.05,
                         max_steps=100, eval_every=every, patience=2,
                         dropout_sigma_p=0.1, seed=11)
    state, trace = scripted_train(config)
    assert trace.stop_reason == "patience"
    assert trace.val_history == [(every * r, s) for r, s in enumerate(scores, start=1)]
    assert len(trace.train_neg_lml) == every * stop_round
    # the fit is the best round's parameters: a run that ends there gives it
    rerun, rerun_trace = scripted_train(replace(config, max_steps=every * best_round))
    assert rerun_trace.stop_reason == "max_steps"
    np.testing.assert_array_equal(rerun.r, state.r)
    np.testing.assert_array_equal(rerun.alpha2, state.alpha2)
    np.testing.assert_array_equal(rerun.bank.omega1, state.bank.omega1)
    assert rerun.hyper.log_sigma_f2 == state.hyper.log_sigma_f2
    assert rerun.hyper.log_sigma_n2 == state.hyper.log_sigma_n2


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="other")
    with pytest.raises(ValueError):
        TrainConfig(m=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(dropout_sigma_p=-0.1)
    for field in ("learning_rate", "dropout_sigma_p"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: value})
    assert set(MODES) == {STATIONARY_FIXED, STATIONARY_LEARNED, NONSTATIONARY_LEARNED}


def test_median_heuristic_hand_values():
    x = np.array([[0.0], [1.0], [3.0]])
    assert median_heuristic_lengthscales(x)[0] == 2.0
    const = np.ones((4, 1))
    assert median_heuristic_lengthscales(const)[0] == 1.0
    big = np.arange(2000.0).reshape(-1, 1)
    np.testing.assert_array_equal(median_heuristic_lengthscales(big),
                                  median_heuristic_lengthscales(big[::2]))


def test_initial_bank_semantics():
    cfg_ns = TrainConfig(mode=NONSTATIONARY_LEARNED, m=4)
    cfg_st = TrainConfig(mode=STATIONARY_LEARNED, m=4)
    x = np.zeros((3, 2))
    st_bank = sample_stationary(GaussianSE([1.0, 1.0]), 4, 2, seeded_rng(5))
    pair = _initial_bank(st_bank, x, cfg_ns, seeded_rng(6))
    assert not pair.stationary
    np.testing.assert_array_equal(pair.omega1, pair.omega2)
    assert pair.omega1 is not pair.omega2
    np.testing.assert_array_equal(pair.omega1, st_bank.omega1)

    copied = _initial_bank(st_bank, x, cfg_st, seeded_rng(6))
    copied.omega1[0, 0] += 1.0
    assert st_bank.omega1[0, 0] != copied.omega1[0, 0]

    ns_bank = sample_nonstationary(GaussianSE([1.0, 1.0]), GaussianSE([1.0, 1.0]),
                                   4, 2, seeded_rng(7))
    with pytest.raises(ValueError):
        _initial_bank(ns_bank, x, cfg_st, seeded_rng(8))


def test_trace_csv_layout(tmp_path):
    trace = TrainTrace(train_neg_lml=[1.5, 1.25], wall_ms=[1.0, 2.3456],
                       val_history=[(2, 3.5)], stop_reason="max_steps")
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,train_neg_lml,val_neg_lml,wall_ms"
    assert lines[1] == "1,1.5,,1.000"
    assert lines[2] == "2,1.25,3.5,2.346"


# --- the training loop ------------------------------------------------------

def test_train_requires_standardized_dataset():
    with pytest.raises(ValueError):
        train(sine_dataset(standardized=False), TrainConfig(m=4, max_steps=2))


def test_train_rejects_degenerate_validation_split():
    ds, _ = data.standardize(Dataset(np.array([[0.0], [1.0]]),
                                     np.array([0.0, 1.0]), ["x0"], "y"))
    with pytest.raises(DegenerateSplit):
        train(ds, TrainConfig(m=2, max_steps=2, validation_fraction=0.5))


def test_train_is_deterministic_bitwise():
    ds = sine_dataset()
    cfg = TrainConfig(mode=NONSTATIONARY_LEARNED, m=8, learning_rate=0.05,
                      max_steps=30, eval_every=10, patience=10,
                      dropout_sigma_p=0.1, seed=5)
    state_a, trace_a = train(ds, cfg)
    state_b, trace_b = train(ds, cfg)
    np.testing.assert_array_equal(state_a.r, state_b.r)
    np.testing.assert_array_equal(state_a.alpha2, state_b.alpha2)
    np.testing.assert_array_equal(state_a.bank.omega1, state_b.bank.omega1)
    assert state_a.hyper.log_sigma_f2 == state_b.hyper.log_sigma_f2
    assert trace_a.train_neg_lml == trace_b.train_neg_lml
    assert trace_a.val_history == trace_b.val_history


def test_trace_bookkeeping_and_stop_reasons():
    ds = sine_dataset()
    cfg = TrainConfig(mode=STATIONARY_LEARNED, m=8, learning_rate=0.05,
                      max_steps=17, eval_every=5, patience=50,
                      dropout_sigma_p=0.0, seed=3)
    _, trace = train(ds, cfg)
    assert trace.stop_reason == "max_steps"
    assert len(trace.train_neg_lml) == len(trace.wall_ms) == 17
    assert [s for s, _ in trace.val_history] == [5, 10, 15]

    cfg = TrainConfig(mode=STATIONARY_LEARNED, m=8, learning_rate=0.5,
                      max_steps=300, eval_every=5, patience=3,
                      dropout_sigma_p=0.0, seed=2)
    _, trace = train(ds, cfg)
    assert trace.stop_reason == "patience"
    assert len(trace.train_neg_lml) < 300
    assert len(trace.train_neg_lml) == len(trace.wall_ms)


def test_diverging_run_raises_with_consistent_trace():
    ds = sine_dataset()
    cfg = TrainConfig(mode=STATIONARY_LEARNED, m=8, learning_rate=300.0,
                      max_steps=50, eval_every=10, patience=50,
                      dropout_sigma_p=0.0, seed=1)
    with pytest.raises(NonFiniteLoss) as err:
        train(ds, cfg)
    trace = err.value.trace
    assert trace is not None
    assert len(trace.train_neg_lml) == len(trace.wall_ms)


def test_fit_state_is_rebuilt_from_the_clean_bank():
    ds = sine_dataset()
    bank = sample_stationary(GaussianSE([0.5]), 16, 1, seeded_rng(21))
    cfg = TrainConfig(mode=STATIONARY_FIXED, m=16, learning_rate=0.05,
                      max_steps=25, eval_every=10, patience=20,
                      dropout_sigma_p=0.4, seed=9)
    state, _ = train(ds, cfg, spec_init=bank)
    # dropout perturbed every step, yet the stored bank is the input bank
    np.testing.assert_array_equal(state.bank.omega1, bank.omega1)
    rebuilt = model.fit_state(
        features_for_mode(ds.x, state.bank),
        ds.y, state.hyper, state.bank)
    np.testing.assert_array_equal(rebuilt.alpha2, state.alpha2)
    np.testing.assert_array_equal(rebuilt.r, state.r)


def test_learned_state_reproducible_from_stored_pieces():
    ds = sine_dataset()
    cfg = TrainConfig(mode=NONSTATIONARY_LEARNED, m=6, learning_rate=0.05,
                      max_steps=20, eval_every=5, patience=20,
                      dropout_sigma_p=0.1, seed=13)
    state, _ = train(ds, cfg)
    rebuilt = model.fit_state(
        features_for_mode(ds.x, state.bank),
        ds.y, state.hyper, state.bank)
    np.testing.assert_array_equal(rebuilt.r, state.r)
    np.testing.assert_array_equal(rebuilt.alpha2, state.alpha2)


def test_training_improves_the_objective():
    ds = sine_dataset(n=60, seed=4)
    cfg = TrainConfig(mode=STATIONARY_LEARNED, m=12, learning_rate=0.05,
                      max_steps=120, eval_every=20, patience=50,
                      dropout_sigma_p=0.0, seed=6)
    _, trace = train(ds, cfg)
    assert trace.train_neg_lml[-1] < trace.train_neg_lml[0]


def test_learned_stationary_model_recovers_known_se_data():
    # squared-exponential ground truth with known hyperparameters; the
    # reduced model with a big fixed bank should land within 10% of the
    # exact dense GP's test error
    rng = seeded_rng(42)
    x = np.sort(rng.uniform(-3.0, 3.0, 200)).reshape(-1, 1)
    spec = GaussianSE([0.7])
    k = 1.5 * kernel_matrix(spec, x, x)
    root = np.linalg.cholesky(k + 1e-10 * np.eye(200))
    f = root @ rng.standard_normal(200)
    y = f + np.sqrt(0.01) * rng.standard_normal(200)
    full = Dataset(x, y, ["x0"], "y")
    tr_ds, te_ds = data.split(full, 0.7, 1)

    sds, stats = data.standardize(tr_ds)
    spec_std = GaussianSE([0.7 / float(stats.input_std[0])])
    cfg = TrainConfig(mode=STATIONARY_FIXED, m=1024, learning_rate=0.05,
                      max_steps=600, patience=30, eval_every=20,
                      dropout_sigma_p=0.0, seed=7)
    state, _ = train(sds, cfg, spec_init=spec_std)
    mean_s, _ = predict(state, data.standardize_inputs(te_ds.x, stats))
    mean, _ = data.destandardize_predictions(mean_s, np.zeros_like(mean_s), stats)
    mse_reduced = float(np.mean((mean - te_ds.y) ** 2))

    k_train = 1.5 * kernel_matrix(spec, tr_ds.x, tr_ds.x)
    k_cross = 1.5 * kernel_matrix(spec, tr_ds.x, te_ds.x)
    mean_o, _ = dense_conditioning(k_train, k_cross, 1.5 * np.ones(te_ds.n),
                                   tr_ds.y, 0.01)
    mse_dense = float(np.mean((mean_o - te_ds.y) ** 2))
    assert mse_reduced <= 1.10 * mse_dense
