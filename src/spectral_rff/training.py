"""Marginal-likelihood training of frequencies and hyperparameters.

The objective is the reduced log marginal likelihood L from the model
module, maximized by ADAM (as descent on -L) over log sigma_f^2,
log sigma_n^2 and the mode's ``trained`` frequency sets: none, or one
per bank.

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
with level-3 kernels, never by triangular solves against phi, over the
factor R, which is spent once alpha2 and log|C| are taken:
linalg.inverse_factored inverts R in place by the recursive dtrmm
inverse and turns R^-1 in place into the lower triangle of
R^-T R^-1 = C^-1 by LAPACK dlauum. tr(C^-1) is read off its diagonal,
and one BLAS dsymm adds -phi G onto the outer-product term of phibar.
Each step is O(n 2m min(n, 2m)). The module still imports scipy's
solve_triangular, uncalled, because the benchmark's tracer wraps it by
the name training.solve_triangular; that span reads 0 calls until the
benchmark drops it.

train owns one StepWorkspace for all its steps, so no step allocates a
large array or faults freed pages back in: lml_gradient writes into it
the trig pairs (one feature-map call leaves each set's pair in
work.pairs for the chain rule), phi, C (which gram keeps), its factor
(which becomes C^-1) and the outer product that becomes phibar, so a
step holds two k x k arrays, plus the inverse's block copies of about
k^2 / 2 doubles while it runs. Nothing returned aliases it, and train
drops it before fit_state and keeps no name for the features it passes
there, so a fit's peak is the larger of one step and fit_state's A and
its factor.

train holds the parameters as one vector theta = [log sigma_f^2,
log sigma_n^2, the trained frequency sets raveled in bank order], and
lml_gradient returns dL/dtheta in that layout, so a step's ADAM update
reads it as is. ADAM's two moments are one (2, len theta) array, with
Kingma and Ba's constants ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9,
0.999, 1e-8. Each step makes a new theta, so the banks that view it and
the best-step snapshot (theta itself) are never written after it. The
run stops once ``patience`` validation rounds in a row fail to lower
the best score strictly.

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
# not called: perfbench/tracer.py wraps training.solve_triangular by name
# when a traced run starts, and its selftest checks the wrap, so the name
# stays until the benchmark drops that span
from scipy.linalg import solve_triangular  # noqa: F401
from scipy.linalg.blas import dsymm

from . import linalg, model
from .data import Dataset, validation_rows
from .errors import NonFiniteLoss
from .features import (FeatureBuffers, check_input_dim, features_for_mode,
                       ridge_multiplier)
from .measures import (FrequencyBank, GaussianSE, check_spec_dim,
                       sample_nonstationary, sample_stationary)


class Mode(NamedTuple):
    token: str       # command line spelling
    trained: int     # frequency sets ADAM updates: 0, or one per bank


STATIONARY_FIXED = "stationary_fixed"
STATIONARY_LEARNED = "stationary_learned"
NONSTATIONARY_LEARNED = "nonstationary_learned"
MODES = {
    STATIONARY_FIXED: Mode("stationary-fixed", 0),
    STATIONARY_LEARNED: Mode("stationary", 1),
    NONSTATIONARY_LEARNED: Mode("nonstationary", 2),
}
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

@dataclass
class TrainConfig:
    mode: str = NONSTATIONARY_LEARNED
    m: int = 100
    learning_rate: float = 1e-3
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
        if self.max_steps < 1 or self.patience < 1 or self.eval_every < 1:
            raise ValueError("max_steps, patience and eval_every must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")
        if not 0 <= self.dropout_sigma_p < math.inf:
            raise ValueError("dropout_sigma_p must be nonnegative and finite")


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


def apply_gaussian_dropout(bank, sigma_p, rng):
    """Multiply every frequency entry by an independent N(1, sigma_p^2) draw.

    sigma_p = 0 returns the input bank unchanged (bitwise). A stationary
    bank stays stationary: its single frequency set gets a single draw.
    A huge sigma_p overflows to inf, which FrequencyBank refuses.
    """
    if sigma_p == 0.0:
        return bank
    with np.errstate(all="ignore"):
        omegas = [w * (1.0 + sigma_p * rng.standard_normal(w.shape))
                  for w in (bank.omega1, bank.omega2)[:bank.banks]]
    return FrequencyBank(*omegas, stationary=bank.stationary)


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
    """The pair (dL/du, dL/dv) of the module docstring."""
    fit = ridge * a2_sq / (2.0 * sigma_n2)
    trace = 0.5 * ridge * tr_g
    return (fit + trace - m,
            (yy - a1_sq) / (2.0 * sigma_n2) - fit - trace + m - 0.5 * n)


class StepWorkspace(FeatureBuffers):
    """lml_gradient's buffers for n rows and m frequencies, whatever the
    mode: a pair for each of up to two banks, so no mode can share one.
    ``gram`` keeps the k x k system C; ``chol`` holds its factor, then
    the lower triangle of C^-1."""

    def __init__(self, n, m):
        super().__init__(n, m, 2)
        k = min(n, 2 * m)
        self.gram = np.empty((k, k))
        self.chol = np.empty((k, k), order="F")
        self.outer = np.empty((n, 2 * m))


def lml_gradient(x, y, bank, hyper, frequencies=True, work=None):
    """Reduced log marginal likelihood and its analytic gradient.

    Returns (lml, grad, jitter). ``grad`` is laid out as train's theta:
    dL/du, dL/dv, then with ``frequencies`` dL/dW for each of the bank's
    ``banks`` sets, raveled; without them it holds the two log-variance
    derivatives only. ``jitter`` is what the factorization added.
    ``work`` defaults to a fresh StepWorkspace.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, m = y.shape[0], bank.m
    if work is None:
        work = StepWorkspace(x.shape[0], m)
    phi = features_for_mode(x, bank, work)
    core = model.reduced_core(phi, y, hyper, work)
    chol, alpha2 = core["chol"], core["alpha2"]
    k = chol.shape[0]
    # the factor is spent once alpha2 and log|C| are taken, so C^-1 is
    # formed over it; its upper triangle stays zero and dsymm never reads it
    cinv = linalg.inverse_factored(chol)
    tr_g = float(np.trace(cinv)) + (2 * m - k) / core["ridge"]
    grad = np.empty(2 + frequencies * bank.banks * bank.omega1.size)
    grad[:2] = log_variance_grads(core["ridge"], hyper.sigma_n2, core["yy"],
                                  core["a1_sq"], core["a2_sq"], tr_g, m, n)
    if frequencies:
        resid = y - phi.phi @ alpha2
        # phibar' = alpha2 resid' / sigma_n^2 - (phi G)' in one dsymm, written
        # into the outer product through its Fortran-ordered transpose:
        # (phi G)' is C^-1 phi' when C = A (side 0) and phi' C^-1 when C = B
        # (side 1); phi.T is a Fortran view too, so f2py copies neither
        np.multiply.outer(resid / hyper.sigma_n2, alpha2, out=work.outer)
        phibar = dsymm(-1.0, cinv, phi.phi.T, beta=1.0, c=work.outer.T,
                       side=int(k < 2 * m), lower=1, overwrite_c=1).T
        cbar, sbar = phibar[:, :m], phibar[:, m:]
        # the map left set i's pair in work.pairs[i]; the chain rule's
        # products overwrite it, and each set's dL/dW lands in grad
        for pair, out in zip(work.pairs, grad[2:].reshape(-1, m, x.shape[1])):
            c, s = pair[:, :n]
            np.multiply(sbar, c, out=c)
            np.multiply(cbar, s, out=s)
            np.matmul(np.subtract(c, s, out=c).T, x, out=out)
    return core["lml"], grad, core["jitter"]


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

    def __init__(self, x, y, bank):
        block = features_for_mode(x, bank)
        phi = block.phi
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
        self.mult = ridge_multiplier(block)

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
        return lml, np.array(log_variance_grads(ridge, sigma_n2, self.yy, a1_sq,
                                                float(np.sum(b2 / (d * d))),
                                                float(np.sum(1.0 / d)), self.m, self.n))


def adam_step(theta, loss_grad, moments, t, learning_rate):
    """Step t (from 1) of bias-corrected ADAM descent on a loss gradient.

    ``moments`` is the (2, len theta) array of first and second moments,
    updated in place; returns the new theta. A huge step overflows to
    inf, which train's checks refuse.
    """
    m1, m2 = moments
    with np.errstate(all="ignore"):
        m1 *= ADAM_BETA1
        m1 += (1.0 - ADAM_BETA1) * loss_grad
        m2 *= ADAM_BETA2
        m2 += (1.0 - ADAM_BETA2) * (loss_grad * loss_grad)
        step = learning_rate * (m1 / (1.0 - ADAM_BETA1 ** t))
        return theta - step / (np.sqrt(m2 / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS)


def check_spec_init(spec_init, dim, mode):
    """Refuse a measure or bank that cannot start a ``mode`` fit on
    ``dim``-dimensional inputs. train checks its spec_init here, and the
    command line calls it before it starts a fit."""
    if isinstance(spec_init, FrequencyBank):
        if MODES[mode].trained != 2 and not spec_init.stationary:
            raise ValueError("stationary modes need a stationary initial bank")
        check_input_dim(dim, spec_init)
    elif spec_init is not None:
        check_spec_dim(spec_init, dim)


def _initial_bank(spec_init, x, config, rng):
    d = x.shape[1]
    pairs = MODES[config.mode].trained == 2
    check_spec_init(spec_init, d, config.mode)
    if isinstance(spec_init, FrequencyBank):
        bank = spec_init
        if pairs and bank.stationary:
            return FrequencyBank(bank.omega1.copy(), bank.omega1.copy(),
                                 stationary=False)
        return bank.copy()
    spec = spec_init
    if spec is None:
        spec = GaussianSE(median_heuristic_lengthscales(x))
    if pairs:
        return sample_nonstationary(spec, spec, config.m, d, rng)
    return sample_stationary(spec, config.m, d, rng)


def _unpack(theta, bank0, banks, trace):
    """Check theta's log-variances; return its (Hyperparams, FrequencyBank).

    The bank's ``banks`` frequency sets are views of theta; with none
    trained it is bank0."""
    u, v = float(theta[0]), float(theta[1])
    for key, value in (("log_sigma_f2", u), ("log_sigma_n2", v)):
        if not math.isfinite(value) or abs(value) > model.LOG_VARIANCE_BOUND:
            raise NonFiniteLoss(f"{key} diverged to {value}", trace)
    # the ridge is exp(v - u) up to the feature count; its exponent must
    # stay representable too, or the factorization sees inf
    if abs(v - u) > model.LOG_VARIANCE_BOUND:
        raise NonFiniteLoss(f"noise-to-signal log ratio diverged to {v - u}", trace)
    if not banks:
        return model.Hyperparams(u, v), bank0
    omegas = theta[2:].reshape(banks, *bank0.omega1.shape)
    return model.Hyperparams(u, v), FrequencyBank(*omegas, stationary=banks == 1)


def train(dataset, config, spec_init=None):
    """Fit frequencies and hyperparameters on a standardized dataset.

    A validation fraction of the rows is held out for early stopping on
    the validation negative log marginal likelihood, scored every
    ``eval_every`` steps with dropout disabled. The returned FitState is
    rebuilt from the best-scoring parameters (the last, checked, when no
    round scored) over all rows of ``dataset``; the trace records per-step
    objective values, wall time, validation history, jitter events and
    the stop reason.

    Deterministic given (dataset, config, spec_init).
    """
    if not isinstance(dataset, Dataset) or not dataset.standardized:
        raise ValueError("train expects a standardized Dataset")
    rng_split, rng_init, rng_noise = linalg.spawn_rngs(config.seed, 3)
    n = dataset.n
    n_val = validation_rows(n, config.validation_fraction)
    perm = rng_split.permutation(n)
    val_rows, train_rows = perm[:n_val], perm[n_val:]
    x_tr, y_tr = dataset.x[train_rows], dataset.y[train_rows]
    x_val, y_val = dataset.x[val_rows], dataset.y[val_rows]

    bank0 = _initial_bank(spec_init, x_tr, config, rng_init)
    var_y = float(y_tr.var())
    if not var_y > 0:
        var_y = 1.0
    hyper = model.Hyperparams.from_variances(var_y, 0.1 * var_y)

    banks = MODES[config.mode].trained
    theta = np.concatenate([[hyper.log_sigma_f2, hyper.log_sigma_n2],
                            *(np.ravel(w) for w in (bank0.omega1, bank0.omega2)[:banks])])
    moments = np.zeros((2, theta.size))

    fixed_fast = not banks and config.dropout_sigma_p == 0.0
    if fixed_fast:
        train_obj = _FixedBankObjective(x_tr, y_tr, bank0)
        val_obj = _FixedBankObjective(x_val, y_val, bank0)
    else:
        work = StepWorkspace(x_tr.shape[0], bank0.m)

    trace = TrainTrace()
    best, best_score, flat = None, math.inf, 0
    log_floor = math.log(model.SIGMA_N2_FLOOR)
    trace.stop_reason = "max_steps"

    for step in range(1, config.max_steps + 1):
        t0 = time.perf_counter()
        hyper, bank = _unpack(theta, bank0, banks, trace)
        if fixed_fast:
            value, grad = train_obj.value_and_grads(hyper)
            jitter = 0.0
        else:
            noisy = apply_gaussian_dropout(bank, config.dropout_sigma_p, rng_noise)
            value, grad, jitter = lml_gradient(x_tr, y_tr, noisy, hyper, banks > 0, work)
        neg_lml = -value if math.isfinite(value) else math.inf
        # one record per step on every exit path keeps the lists aligned
        try:
            if not math.isfinite(value):
                raise NonFiniteLoss(f"objective became non-finite at step {step}", trace)
            if not np.all(np.isfinite(grad)):
                raise NonFiniteLoss(f"gradient became non-finite at step {step}", trace)
            if jitter > 0.0:
                trace.jitter_events.append((step, jitter))

            theta = adam_step(theta, -grad, moments, step, config.learning_rate)
            theta[1] = max(theta[1], log_floor)

            if step % config.eval_every == 0:
                hyper_now, bank_now = _unpack(theta, bank0, banks, trace)
                if fixed_fast:
                    val_lml = val_obj.value_and_grads(hyper_now)[0]
                else:
                    phi_val = features_for_mode(x_val, bank_now)
                    val_lml = model.log_marginal_likelihood_reduced(phi_val, y_val, hyper_now)
                if not math.isfinite(val_lml):
                    raise NonFiniteLoss(f"validation objective non-finite at step {step}", trace)
                trace.val_history.append((step, -val_lml))
                # only a strictly lower score improves; a tie counts as flat
                if -val_lml < best_score:
                    best, best_score, flat = theta, -val_lml, 0
                else:
                    flat += 1
                    if flat >= config.patience:
                        trace.stop_reason = "patience"
                        break
        finally:
            trace.train_neg_lml.append(neg_lml)
            trace.wall_ms.append((time.perf_counter() - t0) * 1e3)

    work = None   # freed before fit_state builds its 2m x 2m system
    hyper_best, bank_best = _unpack(theta if best is None else best, bank0, banks, trace)
    # no name keeps the features, so fit_state can free them before it factors
    state = model.fit_state(features_for_mode(dataset.x, bank_best), dataset.y,
                            hyper_best, bank_best,
                            input_columns=list(dataset.input_columns))
    return state, trace
