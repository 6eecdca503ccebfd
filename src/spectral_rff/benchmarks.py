"""Synthetic benchmarks and the stationary-vs-nonstationary comparison.

Two desk-scale generators: a chirp whose instantaneous frequency grows
linearly in time, and a 2-d random field whose lengthscale switches at a
changepoint. Both are exact functions of their seed. ``compare`` runs
the split/train/predict/score loop for each configured arm over repeated
runs and collects a small CSV report with a frequency-budget note in its
header.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (Dataset, destandardize_predictions, split, standardize,
                   standardize_inputs)
from .errors import ConstantVector, DimensionMismatch, InvalidSpec
from .linalg import cholesky, seeded_rng
from .model import predict
from .training import (MODES, NONSTATIONARY_LEARNED, STATIONARY_FIXED,
                       TrainConfig, train)

# dense sampling of the 2-d field is cubic in n; keep it desk-sized
_STEP_MAX_N = 1500


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic benchmark dataset.

    ``chirp_rate``/``chirp_accel`` are the a, b of the chirp phase
    a*t + b*t^2; the lengthscale and changepoint fields drive the 2-d
    step-lengthscale field and are ignored by the chirp generator.
    """

    name: str
    n: int = 600
    noise: float = 0.05
    seed: int = 0
    chirp_rate: float = 2.0
    chirp_accel: float = 8.0
    changepoint: float = 0.5
    lengthscale_left: float = 0.06
    lengthscale_right: float = 0.4

    def __post_init__(self):
        if self.n < 50:
            raise InvalidSpec(f"benchmark needs n >= 50, got {self.n}")
        for key in ("noise", "chirp_rate", "chirp_accel", "changepoint",
                    "lengthscale_left", "lengthscale_right"):
            if not np.isfinite(getattr(self, key)):
                raise InvalidSpec(f"{key} must be a finite number, "
                                  f"got {getattr(self, key)!r}")
        if self.noise < 0:
            raise InvalidSpec("noise standard deviation must be nonnegative")
        if self.lengthscale_left <= 0 or self.lengthscale_right <= 0:
            raise InvalidSpec("lengthscales must be positive")


def gen_chirp(spec):
    """Chirp series y(t) = sin(2 pi (a t + b t^2)) + noise on t in [0, 1].

    The instantaneous frequency a + 2 b t sweeps from a to a + 2b cycles,
    so the late part of the series oscillates much faster than the early
    part. Deterministic per seed.
    """
    rng = seeded_rng(spec.seed)
    t = np.linspace(0.0, 1.0, spec.n)
    y = np.sin(2.0 * np.pi * (spec.chirp_rate * t + spec.chirp_accel * t * t))
    if spec.noise > 0:
        with np.errstate(over="ignore"):   # Dataset refuses what overflows
            y = y + spec.noise * rng.standard_normal(spec.n)
    return Dataset(t.reshape(-1, 1), y, ("t",), "y")


def step_field_covariance(x, lengthscales):
    """Dense covariance with an input-dependent isotropic lengthscale.

    Entry (i, j) is (2 li lj / (li^2 + lj^2))^(D/2)
    * exp(-2 |xi - xj|^2 / (li^2 + lj^2)), which is positive definite for
    any positive lengthscale field; a constant field collapses it exactly
    to exp(-|xi - xj|^2 / l^2).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ell = np.asarray(lengthscales, dtype=float).ravel()
    if ell.shape[0] != x.shape[0]:
        raise DimensionMismatch("one lengthscale per input row required")
    l2 = ell * ell
    s = l2[:, None] + l2[None, :]
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    pref = (2.0 * np.outer(ell, ell) / s) ** (0.5 * x.shape[1])
    return pref * np.exp(-2.0 * sq / s)


def gen_step_lengthscale(spec):
    """2-d field with a short lengthscale left of the changepoint.

    Inputs are uniform on [0, 1]^2; the output is one exact draw from the
    dense input-dependent covariance plus observation noise. The dense
    draw caps n at 1500.
    """
    if spec.n > _STEP_MAX_N:
        raise InvalidSpec(f"dense field sampling is capped at n = {_STEP_MAX_N}, "
                          f"got {spec.n}")
    rng = seeded_rng(spec.seed)
    x = rng.uniform(0.0, 1.0, size=(spec.n, 2))
    ell = np.where(x[:, 0] < spec.changepoint,
                   spec.lengthscale_left, spec.lengthscale_right)
    root, _ = cholesky(step_field_covariance(x, ell))
    y = root @ rng.standard_normal(spec.n)
    if spec.noise > 0:
        with np.errstate(over="ignore"):   # Dataset refuses what overflows
            y = y + spec.noise * rng.standard_normal(spec.n)
    return Dataset(x, y, ("x1", "x2"), "y")


def metrics(y_true, y_pred):
    """Mean squared error and sample Pearson correlation."""
    a = np.asarray(y_true, dtype=float).ravel()
    b = np.asarray(y_pred, dtype=float).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(f"metric vectors differ in length: "
                                f"{a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise DimensionMismatch("metrics need at least 2 points")
    mse = float(np.mean((a - b) ** 2))
    da, db = a - a.mean(), b - b.mean()
    na, nb = float(np.linalg.norm(da)), float(np.linalg.norm(db))
    if na == 0.0 or nb == 0.0:
        raise ConstantVector("correlation undefined for a constant vector")
    return mse, float(da @ db / (na * nb))


@dataclass(frozen=True)
class RunRecord:
    run: int
    seed: int
    mode: str
    mse: float
    corr: float
    train_seconds: float


@dataclass
class ComparisonReport:
    budget_note: str
    arms: tuple
    records: list = field(default_factory=list)

    def arm_records(self, arm):
        return [r for r in self.records if r.mode == arm]

    def mean_mse(self, arm):
        return float(np.mean([r.mse for r in self.arm_records(arm)]))

    def mean_corr(self, arm):
        return float(np.mean([r.corr for r in self.arm_records(arm)]))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# {self.budget_note}\n")
            fh.write("run,seed,mode,mse,corr,train_seconds\n")
            for r in self.records:
                fh.write(f"{r.run},{r.seed},{r.mode},{format(r.mse, '.17g')},"
                         f"{format(r.corr, '.17g')},{r.train_seconds:.6f}\n")
            for arm in self.arms:
                rows = self.arm_records(arm)
                secs = float(np.mean([r.train_seconds for r in rows]))
                fh.write(f"mean,,{arm},{format(self.mean_mse(arm), '.17g')},"
                         f"{format(self.mean_corr(arm), '.17g')},{secs:.6f}\n")


def _budget_note(configs, d):
    parts = []
    rows = {}
    for arm, cfg in configs.items():
        mode = MODES[cfg.mode]
        rows[arm] = cfg.m * (mode.trained or 1)
        parts.append(f"{arm}: mode={cfg.mode} m={cfg.m} "
                     f"frequency_rows={rows[arm]} "
                     f"trainable_entries={cfg.m * d * mode.trained}")
    lo, hi = min(rows.values()), max(rows.values())
    factor = hi / lo if lo else float("inf")
    return ("frequency budget -- " + "; ".join(parts)
            + f"; row budget factor {factor:.2f}")


def fit_and_score(dataset, config, train_fraction=0.7, spec_init=None):
    """Split on config.seed, train, and score the held-out part in data units.

    Returns (state, trace, mse, corr, seconds); seconds times ``train`` only.
    """
    train_ds, test_ds = split(dataset, train_fraction, config.seed)
    train_std, stats = standardize(train_ds)
    t0 = time.perf_counter()
    state, trace = train(train_std, config, spec_init=spec_init)
    seconds = time.perf_counter() - t0
    state.standardization = stats
    mean_std, var_std = predict(state, standardize_inputs(test_ds.x, stats))
    mean, _ = destandardize_predictions(mean_std, var_std, stats)
    mse, corr = metrics(test_ds.y, mean)
    return state, trace, mse, corr, seconds


def compare(bench, runs, configs, train_fraction=0.7):
    """Score every configured arm over repeated random splits.

    ``bench`` is the dataset shared by all arms; ``configs`` maps an arm
    label to its TrainConfig. Run r of every arm uses the same derived
    seed, so two arms with identical configs produce identical rows.
    """
    if runs < 1:
        raise InvalidSpec("runs must be >= 1")
    if not configs:
        raise InvalidSpec("at least one train configuration required")
    report = ComparisonReport(budget_note=_budget_note(configs, bench.dim),
                              arms=tuple(configs))
    for run in range(runs):
        seed = int(1000 * run)
        for arm, cfg in configs.items():
            _, _, mse, corr, seconds = fit_and_score(
                bench, replace(cfg, seed=seed), train_fraction)
            report.records.append(
                RunRecord(run, seed, arm, mse, corr, seconds))
    return report


def chirp_arm_configs(m_total=600, max_steps=450, sigma_p=0.05, learned_rate=0.3):
    """Frozen fixed-vs-learned pairing for the chirp series.

    The stationary arm keeps its full m_total bank fixed and fits only
    the two variance hyperparameters; the nonstationary arm learns
    m_total/2 frequency pairs. The learning rate is large because the
    chirp's upper band sits far outside the median-heuristic
    initialization and the frequencies have to travel there; early
    stopping ends the run once the validation score flattens.
    """
    m_pairs = max(1, m_total // 2)
    fixed = TrainConfig(mode=STATIONARY_FIXED, m=m_total, learning_rate=0.05,
                        max_steps=max_steps, patience=10, eval_every=25,
                        dropout_sigma_p=0.0)
    learned = TrainConfig(mode=NONSTATIONARY_LEARNED, m=m_pairs,
                          learning_rate=learned_rate, max_steps=max_steps,
                          patience=10, eval_every=25, dropout_sigma_p=sigma_p)
    return {STATIONARY_FIXED: fixed, NONSTATIONARY_LEARNED: learned}


def step_field_arm_configs(m_total=100, max_steps=300, sigma_p=0.05):
    """The chirp's pairing for the step-lengthscale field: only the
    learned arm's rate differs."""
    return chirp_arm_configs(m_total, max_steps, sigma_p, learned_rate=0.1)
