"""Marginal-likelihood training of frequencies and hyperparameters.

The objective is the reduced log marginal likelihood L from the model
module, maximized by ADAM (as descent on -L) over log sigma_f^2,
log sigma_n^2 and, depending on the mode, the frequency banks.

Gradients are analytic. Writing b = phi' y, A = phi' phi + r I and
G = A^-1, the derivative of L with respect to the feature matrix is

    phibar = (y - phi alpha2) alpha2' / sigma_n^2 - phi G

and chains through the trig maps to the frequencies; the two
log-variance derivatives are

    dL/du = r |alpha2|^2 / (2 sigma_n^2) + r tr(G) / 2 - m
    dL/dv = (|y|^2 - |alpha1|^2) / (2 sigma_n^2)
            - r |alpha2|^2 / (2 sigma_n^2) - r tr(G) / 2 + m - n / 2

with u = log sigma_f^2, v = log sigma_n^2 (r depends on u and v, which
is where the trace and |alpha2| terms come from), and |alpha1|^2 = b' alpha2
as the model module computes it. Every formula is checked against
central finite differences in the test suite.

The model core factors the smaller Gram system C = R R' of order
k = min(n, 2m): A when n >= 2m, else B = phi phi' + r I. With
e = 2m - k, tr(G) = tr(C^-1) + e / r and phi G = C^-1 phi when C = B
(the model module's docstring says why). C^-1 is formed once per step
with level-3 kernels, never by triangular solves against phi: one
triangular solve against an identity it overwrites gives R^-1, LAPACK
dlauum turns it in place into R^-T R^-1 = C^-1 (lower triangle),
tr(C^-1) is read off its diagonal, and one BLAS dsymm adds -phi G onto
the outer-product term of phibar. Each step is O(n 2m min(n, 2m)).
LAPACK dpotri would form C^-1 in one call, but the solve is kept
because the benchmark's tracer measures it by the name
training.solve_triangular; dropping that name is a change to the
benchmark first.

Gaussian dropout multiplies each frequency entry by an independent
N(1, sigma_p^2) draw, fresh at every step; the noisy bank is used for
the forward value and the gradient, the clean bank receives the update,
and nothing noisy ever reaches validation scoring or the returned fit.
"""

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsymm
from scipy.linalg.lapack import dlauum

from . import linalg, model
from .data import Dataset
from .errors import DegenerateSplit, FactorizationFailed, NonFiniteLoss
from .features import (NONSTATIONARY, STATIONARY, features_for_mode,
                       ridge_multiplier, sum_blocks, trig_blocks)
from .measures import (FrequencyBank, GaussianSE, sample_nonstationary,
                       sample_stationary)


class Mode(NamedTuple):
    token: str       # command line spelling
    features: str    # feature map, as saved in model.json
    trained: tuple   # frequency parameters ADAM updates, one per bank


STATIONARY_FIXED = "stationary_fixed"
STATIONARY_LEARNED = "stationary_learned"
NONSTATIONARY_LEARNED = "nonstationary_learned"
MODES = {
    STATIONARY_FIXED: Mode("stationary-fixed", STATIONARY, ()),
    STATIONARY_LEARNED: Mode("stationary", STATIONARY, ("omega",)),
    NONSTATIONARY_LEARNED: Mode("nonstationary", NONSTATIONARY, ("omega1", "omega2")),
}

@dataclass
class TrainConfig:
    mode: str = NONSTATIONARY_LEARNED
    m: int = 100
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    max_steps: int = 500
    patience: int = 5
    eval_every: int = 10
    validation_fraction: float = 0.1
    dropout_sigma_p: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("adam betas must lie in [0, 1)")
        if not 0 < self.adam_eps < math.inf:
            raise ValueError("adam_eps must be positive and finite")
        if self.max_steps < 1 or self.patience < 1 or self.eval_every < 1:
            raise ValueError("max_steps, patience and eval_every must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")
        if not 0 <= self.dropout_sigma_p < math.inf:
            raise ValueError("dropout_sigma_p must be nonnegative and finite")

    @property
    def feature_mode(self):
        return MODES[self.mode].features


@dataclass
class TrainTrace:
    train_neg_lml: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    val_history: list = field(default_factory=list)    # (step, val_neg_lml)
    jitter_events: list = field(default_factory=list)  # (step, jitter)
    stop_reason: str = None

    def to_csv(self, path):
        val_at = dict(self.val_history)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("step,train_neg_lml,val_neg_lml,wall_ms\n")
            for i, (tr, ms) in enumerate(zip(self.train_neg_lml, self.wall_ms), start=1):
                val = format(val_at[i], ".17g") if i in val_at else ""
                fh.write(f"{i},{format(tr, '.17g')},{val},{ms:.3f}\n")


class EarlyStopper:
    """Track a to-be-minimized score; stop after `patience` flat evals."""

    def __init__(self, patience):
        self.patience = patience
        self.best = math.inf
        self.bad_evals = 0

    def update(self, score):
        """Record one evaluation; returns True when it improved the best."""
        if score < self.best:
            self.best = score
            self.bad_evals = 0
            return True
        self.bad_evals += 1
        return False

    @property
    def should_stop(self):
        return self.bad_evals >= self.patience


def apply_gaussian_dropout(bank, sigma_p, rng):
    """Multiply every frequency entry by an independent N(1, sigma_p^2) draw.

    sigma_p = 0 returns the input bank unchanged (bitwise). A stationary
    bank stays stationary: its single frequency set gets a single draw.
    """
    if sigma_p == 0.0:
        return bank
    noise1 = 1.0 + sigma_p * rng.standard_normal(bank.omega1.shape)
    if bank.stationary:
        return FrequencyBank(bank.omega1 * noise1, stationary=True)
    noise2 = 1.0 + sigma_p * rng.standard_normal(bank.omega2.shape)
    return FrequencyBank(bank.omega1 * noise1, bank.omega2 * noise2,
                         stationary=False)


def median_heuristic_lengthscales(x, max_rows=1000):
    """Per-dimension median of pairwise absolute differences.

    Rows are subsampled with an even stride above ``max_rows`` so the
    estimate stays deterministic and O(max_rows^2).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] > max_rows:
        stride = int(np.ceil(x.shape[0] / max_rows))
        x = x[::stride]
    out = np.empty(x.shape[1])
    for d in range(x.shape[1]):
        col = x[:, d]
        dist = np.abs(col[:, None] - col[None, :])
        dist = dist[np.triu_indices_from(dist, k=1)]
        med = float(np.median(dist)) if dist.size else 0.0
        out[d] = med if med > 0 else 1.0
    return out


def log_variance_grads(ridge, sigma_n2, yy, a1_sq, a2_sq, tr_g, m, n):
    """dL/du and dL/dv of the module docstring, keyed by parameter name."""
    fit = ridge * a2_sq / (2.0 * sigma_n2)
    trace = 0.5 * ridge * tr_g
    return {"log_sigma_f2": fit + trace - m,
            "log_sigma_n2": (yy - a1_sq) / (2.0 * sigma_n2) - fit - trace + m - 0.5 * n}


def lml_gradient(x, y, bank, hyper, mode):
    """Reduced log marginal likelihood and its analytic gradients.

    Returns (lml, grads, info). ``grads`` has log_sigma_f2 and
    log_sigma_n2 entries always, plus one per key of the mode's
    ``trained`` tuple; stationary_fixed carries no frequency gradients
    at all. ``info`` reports the jitter used.
    """
    if mode not in MODES:
        raise ValueError(f"unknown training mode {mode!r}")
    fmode, trained = MODES[mode].features, MODES[mode].trained
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    m = bank.m
    blocks = list(trig_blocks(x, bank, fmode))
    phi = sum_blocks(blocks, m, fmode)
    core = model.reduced_core(phi, y, hyper)
    chol, alpha2 = core["chol"], core["alpha2"]
    k = chol.shape[0]
    # the identity is Fortran-ordered, so the solve overwrites it in place
    rinv = solve_triangular(chol, np.eye(k, order="F"), lower=True,
                            check_finite=False, overwrite_b=True)
    # rinv is Fortran-ordered, so dlauum overwrites it with the lower
    # triangle of C^-1; its upper triangle stays zero and dsymm never reads it
    cinv, info = dlauum(rinv, lower=1, overwrite_c=1)
    if info != 0:
        raise FactorizationFailed(f"dlauum failed with info={info}")
    tr_g = float(np.trace(cinv)) + (2 * m - k) / core["ridge"]
    grads = log_variance_grads(core["ridge"], hyper.sigma_n2, core["yy"], core["a1_sq"],
                               core["a2_sq"], tr_g, m, y.shape[0])
    if trained:
        resid = y - phi.phi @ alpha2
        # phibar' = alpha2 resid' / sigma_n^2 - (phi G)' in one dsymm, written
        # into the outer product through its Fortran-ordered transpose:
        # (phi G)' is C^-1 phi' when C = A (side 0) and phi' C^-1 when C = B
        # (side 1); phi.T is a Fortran view too, so f2py copies neither
        phibar = dsymm(-1.0, cinv, phi.phi.T, beta=1.0,
                       c=np.outer(resid / hyper.sigma_n2, alpha2).T,
                       side=int(k < 2 * m), lower=1, overwrite_c=1).T
        cbar, sbar = phibar[:, :m], phibar[:, m:]
        for key, (c, s) in zip(trained, blocks):
            grads[key] = (sbar * c - cbar * s).T @ x
    return core["lml"], grads, {"jitter": core["jitter"]}


class _FixedBankObjective:
    """Hyperparameter-only objective for a frozen feature matrix.

    One eigendecomposition phi' phi = Q diag(lam) Q' makes each step
    O(m): with btilde = Q' phi' y and d = lam + r,

        |alpha1|^2 = sum btilde^2 / d     log|A| = sum log d
        |alpha2|^2 = sum btilde^2 / d^2   tr A^-1 = sum 1 / d.

    When n < 2m the n x n phi phi' = U diag(lam) U' is decomposed
    instead; Q = phi' U diag(lam)^-1/2 gives btilde = sqrt(lam) U' y,
    and the other 2m - n eigenvalues are zero, so both are zero-padded.
    """

    def __init__(self, x, y, bank, fmode):
        phi = features_for_mode(x, bank, fmode).phi
        n, k = phi.shape
        if n < k:
            lam, u = np.linalg.eigh(linalg.gram(phi.T))
            lam = np.clip(lam, 0.0, None)
            pad = np.zeros(k - n)
            self.lam = np.concatenate([lam, pad])
            self.btilde = np.concatenate([np.sqrt(lam) * (u.T @ y), pad])
        else:
            lam, q = np.linalg.eigh(linalg.gram(phi))
            self.lam = np.clip(lam, 0.0, None)
            self.btilde = q.T @ (phi.T @ y)
        self.yy = float(y @ y)
        self.n = n
        self.m = bank.m
        self.mult = ridge_multiplier(bank.m, fmode)

    def value_and_grads(self, hyper):
        sigma_n2 = hyper.sigma_n2
        ridge = self.mult * sigma_n2 / hyper.sigma_f2
        d = self.lam + ridge
        if np.any(d <= 0.0):
            return -math.inf, None
        b2 = self.btilde * self.btilde
        a1_sq = float(np.sum(b2 / d))
        lml = (-(self.yy - a1_sq) / (2.0 * sigma_n2)
               - 0.5 * float(np.sum(np.log(d)))
               + self.m * math.log(ridge)
               - 0.5 * self.n * math.log(2.0 * math.pi * sigma_n2))
        return lml, log_variance_grads(ridge, sigma_n2, self.yy, a1_sq,
                                       float(np.sum(b2 / (d * d))),
                                       float(np.sum(1.0 / d)), self.m, self.n)

    def value(self, hyper):
        return self.value_and_grads(hyper)[0]


@dataclass
class AdamState:
    t: int
    m1: dict
    m2: dict


def adam_init(params):
    return AdamState(0,
                     {k: np.zeros_like(np.asarray(v, dtype=float)) for k, v in params.items()},
                     {k: np.zeros_like(np.asarray(v, dtype=float)) for k, v in params.items()})


def adam_step(params, loss_grads, state, config):
    """One bias-corrected ADAM descent step on the given loss gradients."""
    t = state.t + 1
    c1 = 1.0 - config.adam_beta1 ** t
    c2 = 1.0 - config.adam_beta2 ** t
    new_params, m1, m2 = {}, {}, {}
    for key, p in params.items():
        g = np.asarray(loss_grads[key], dtype=float)
        m1[key] = config.adam_beta1 * state.m1[key] + (1.0 - config.adam_beta1) * g
        m2[key] = config.adam_beta2 * state.m2[key] + (1.0 - config.adam_beta2) * (g * g)
        step = config.learning_rate * (m1[key] / c1) / (np.sqrt(m2[key] / c2) + config.adam_eps)
        new_params[key] = np.asarray(p, dtype=float) - step
    return new_params, AdamState(t, m1, m2)


def _initial_bank(spec_init, x, config, rng):
    d = x.shape[1]
    pairs = config.feature_mode == NONSTATIONARY
    if isinstance(spec_init, FrequencyBank):
        bank = spec_init
        if pairs and bank.stationary:
            return FrequencyBank(bank.omega1.copy(), bank.omega1.copy(),
                                 stationary=False)
        if not pairs and not bank.stationary:
            raise ValueError("stationary modes need a stationary initial bank")
        return bank.copy()
    spec = spec_init
    if spec is None:
        spec = GaussianSE(median_heuristic_lengthscales(x))
    if pairs:
        return sample_nonstationary(spec, spec, config.m, d, rng)
    return sample_stationary(spec, config.m, d, rng)


def _bank_from_params(params, template, mode):
    keys = MODES[mode].trained
    if not keys:
        return template
    return FrequencyBank(*(np.array(params[k]) for k in keys),
                         stationary=len(keys) == 1)


def _check_hyper_params(params, trace):
    for key in ("log_sigma_f2", "log_sigma_n2"):
        v = float(params[key])
        if not math.isfinite(v) or abs(v) > model.LOG_VARIANCE_BOUND:
            raise NonFiniteLoss(f"{key} diverged to {v}", trace)
    # the ridge is exp(v - u) up to the feature count; its exponent must
    # stay representable too, or the factorization sees inf
    gap = float(params["log_sigma_n2"]) - float(params["log_sigma_f2"])
    if abs(gap) > model.LOG_VARIANCE_BOUND:
        raise NonFiniteLoss(f"noise-to-signal log ratio diverged to {gap}", trace)


def train(dataset, config, spec_init=None):
    """Fit frequencies and hyperparameters on a standardized dataset.

    A validation fraction of the rows is held out for early stopping on
    the validation negative log marginal likelihood, scored every
    ``eval_every`` steps with dropout disabled. The returned FitState is
    rebuilt from the best-scoring (not the last) parameters over all
    rows of ``dataset``; the trace records per-step objective values,
    wall time, validation history, jitter events and the stop reason.

    Deterministic given (dataset, config, spec_init).
    """
    if not isinstance(dataset, Dataset) or not dataset.standardized:
        raise ValueError("train expects a standardized Dataset")
    rng_split, rng_init, rng_noise = linalg.spawn_rngs(config.seed, 3)
    n = dataset.n
    n_val = max(1, int(round(config.validation_fraction * n)))
    if n - n_val < 2:
        raise DegenerateSplit(f"validation fraction {config.validation_fraction} "
                              f"leaves {n - n_val} training rows")
    perm = rng_split.permutation(n)
    val_rows, train_rows = perm[:n_val], perm[n_val:]
    x_tr, y_tr = dataset.x[train_rows], dataset.y[train_rows]
    x_val, y_val = dataset.x[val_rows], dataset.y[val_rows]

    bank0 = _initial_bank(spec_init, x_tr, config, rng_init)
    var_y = float(y_tr.var())
    if not var_y > 0:
        var_y = 1.0
    hyper = model.Hyperparams.from_variances(var_y, 0.1 * var_y)

    params = {"log_sigma_f2": hyper.log_sigma_f2,
              "log_sigma_n2": hyper.log_sigma_n2}
    for key, omega in zip(MODES[config.mode].trained, (bank0.omega1, bank0.omega2)):
        params[key] = omega.copy()
    adam_state = adam_init(params)

    fixed_fast = not MODES[config.mode].trained and config.dropout_sigma_p == 0.0
    if fixed_fast:
        train_obj = _FixedBankObjective(x_tr, y_tr, bank0, config.feature_mode)
        val_obj = _FixedBankObjective(x_val, y_val, bank0, config.feature_mode)

    trace = TrainTrace()
    stopper = EarlyStopper(config.patience)
    best_params = None
    log_floor = math.log(model.SIGMA_N2_FLOOR)
    trace.stop_reason = "max_steps"

    for step in range(1, config.max_steps + 1):
        t0 = time.perf_counter()
        _check_hyper_params(params, trace)
        hyper = model.Hyperparams(float(params["log_sigma_f2"]),
                                  float(params["log_sigma_n2"]))
        bank = _bank_from_params(params, bank0, config.mode)
        if fixed_fast:
            value, lml_grads = train_obj.value_and_grads(hyper)
            jitter = 0.0
        else:
            noisy = apply_gaussian_dropout(bank, config.dropout_sigma_p, rng_noise)
            value, lml_grads, info = lml_gradient(x_tr, y_tr, noisy, hyper, config.mode)
            jitter = info["jitter"]
        neg_lml = -value if math.isfinite(value) else math.inf
        # one record per step on every exit path keeps the lists aligned
        try:
            if not math.isfinite(value):
                raise NonFiniteLoss(f"objective became non-finite at step {step}", trace)
            if any(not np.all(np.isfinite(g)) for g in lml_grads.values()):
                raise NonFiniteLoss(f"gradient became non-finite at step {step}", trace)
            if jitter > 0.0:
                trace.jitter_events.append((step, jitter))

            loss_grads = {k: -np.asarray(g, dtype=float) for k, g in lml_grads.items()}
            params, adam_state = adam_step(params, loss_grads, adam_state, config)
            params["log_sigma_f2"] = float(params["log_sigma_f2"])
            params["log_sigma_n2"] = max(float(params["log_sigma_n2"]), log_floor)

            if step % config.eval_every == 0:
                _check_hyper_params(params, trace)
                hyper_now = model.Hyperparams(float(params["log_sigma_f2"]),
                                              float(params["log_sigma_n2"]))
                bank_now = _bank_from_params(params, bank0, config.mode)
                if fixed_fast:
                    val_lml = val_obj.value(hyper_now)
                else:
                    phi_val = features_for_mode(x_val, bank_now, config.feature_mode)
                    val_lml = model.log_marginal_likelihood_reduced(phi_val, y_val, hyper_now)
                if not math.isfinite(val_lml):
                    raise NonFiniteLoss(f"validation objective non-finite at step {step}", trace)
                trace.val_history.append((step, -val_lml))
                if stopper.update(-val_lml):
                    best_params = {k: np.array(v) if isinstance(v, np.ndarray) else v
                                   for k, v in params.items()}
                if stopper.should_stop:
                    trace.stop_reason = "patience"
                    break
        finally:
            trace.train_neg_lml.append(neg_lml)
            trace.wall_ms.append((time.perf_counter() - t0) * 1e3)

    chosen = best_params if best_params is not None else params
    hyper_best = model.Hyperparams(float(chosen["log_sigma_f2"]),
                                   float(chosen["log_sigma_n2"]))
    bank_best = _bank_from_params(chosen, bank0, config.mode)
    phi_full = features_for_mode(dataset.x, bank_best, config.feature_mode)
    state = model.fit_state(phi_full, dataset.y, hyper_best, bank_best,
                            input_columns=list(dataset.input_columns))
    return state, trace
