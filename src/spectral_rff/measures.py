"""Spectral measures and frequency banks.

A spectral measure is the probability distribution of the frequencies
that parameterize the trigonometric feature maps. Each named family is
the Fourier dual of a classical kernel under the convention

    k(delta) = E[cos(omega' delta)],  omega ~ P

so sampling frequencies from P and averaging cosines reconstructs k.
Families:

* GaussianSE       -- omega_d ~ N(0, 1/l_d^2), dual to exp(-sum d^2/(2 l^2))
* LaplacianCauchy  -- omega_d ~ Cauchy(0, s_d), dual to exp(-sum s |d|)
* MaternT          -- omega ~ multivariate-t with 2*smoothness degrees of
                      freedom and scale (1/scale) I, dual to the Matern
                      kernel with that smoothness
* MixtureOfGaussians, GaussianCopula, PerDimProduct -- composite measures
  for structured or dependent spectra

A FrequencyBank holds one draw (m rows, one frequency per row) for the
stationary map, or a pair of draws for the nonstationary map.
"""

import base64
import binascii
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (FactorizationFailed, IncompatibleDims, InvalidSpec,
                     NonMonotoneMarginal, NonSymmetric, UnsupportedSpec)


def _positive_vector(values, name):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidSpec(f"{name} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
        raise InvalidSpec(f"{name} must be finite and strictly positive")
    return arr


@dataclass(frozen=True, eq=False)
class GaussianSE:
    """Gaussian spectral density with per-dimension lengthscales."""

    lengthscales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lengthscales",
                           _positive_vector(self.lengthscales, "lengthscales"))

    @property
    def dim(self):
        return self.lengthscales.size


@dataclass(frozen=True, eq=False)
class LaplacianCauchy:
    """Per-dimension Cauchy spectral density, dual to exp(-sum s_d |d_d|)."""

    scales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scales", _positive_vector(self.scales, "scales"))

    @property
    def dim(self):
        return self.scales.size


@dataclass(frozen=True)
class MaternT:
    """Isotropic multivariate-t spectral density.

    ``smoothness`` is the Matern smoothness of the dual kernel; the t
    distribution has 2 * smoothness degrees of freedom and scale matrix
    (1 / scale^2) I. Works in any input dimension.
    """

    smoothness: float
    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.smoothness) and self.smoothness > 0):
            raise InvalidSpec("smoothness must be finite and positive")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise InvalidSpec("scale must be finite and positive")

    @property
    def dim(self):
        return None  # any dimension


@dataclass(frozen=True, eq=False)
class MixtureOfGaussians:
    weights: np.ndarray
    means: np.ndarray        # (k, D)
    covariances: np.ndarray  # (k, D, D)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        cov = np.asarray(self.covariances, dtype=float)
        if cov.ndim == 2:
            cov = cov[None, :, :]
        if w.ndim != 1 or mu.ndim != 2 or cov.ndim != 3:
            raise InvalidSpec("mixture needs weights (k,), means (k,D), covariances (k,D,D)")
        k, d = mu.shape
        if w.size != k or cov.shape != (k, d, d):
            raise InvalidSpec("mixture component shapes disagree")
        if not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() <= 0:
            raise InvalidSpec("mixture weights must be nonnegative and sum to > 0")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(cov))):
            raise InvalidSpec("mixture parameters must be finite")
        for c in cov:
            try:
                linalg.cholesky(c, jitter_ladder=(0.0,))
            except (FactorizationFailed, NonSymmetric):
                raise InvalidSpec("mixture covariances must be symmetric "
                                  "positive definite") from None
        object.__setattr__(self, "weights", w / w.sum())
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def dim(self):
        return self.means.shape[1]


@dataclass(frozen=True, eq=False)
class GaussianCopula:
    """Dependent spectrum: Gaussian copula over per-dimension marginals.

    Sampling draws z ~ N(0, correlation), pushes each coordinate through
    the standard normal CDF and then through the marginal's quantile.
    """

    correlation: np.ndarray
    marginals: tuple

    def __post_init__(self):
        c = np.asarray(self.correlation, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise InvalidSpec("correlation must be a square matrix")
        if not np.all(np.isfinite(c)):
            raise InvalidSpec("correlation must be finite")
        if np.max(np.abs(np.diagonal(c) - 1.0)) > 1e-12:
            raise InvalidSpec("correlation must have a unit diagonal")
        if np.max(np.abs(c - c.T)) > 1e-12:
            raise InvalidSpec("correlation must be symmetric")
        if np.min(np.linalg.eigvalsh(c)) < -1e-10:
            raise InvalidSpec("correlation must be positive semidefinite")
        parts = tuple(self.marginals)
        if len(parts) != c.shape[0]:
            raise InvalidSpec("need one marginal per dimension")
        for p in parts:
            if _spec_dim(p) not in (1, None):
                raise InvalidSpec("copula marginals must be one-dimensional specs")
        object.__setattr__(self, "correlation", c)
        object.__setattr__(self, "marginals", parts)

    @property
    def dim(self):
        return self.correlation.shape[0]


@dataclass(frozen=True, eq=False)
class PerDimProduct:
    """Independent product of one-dimensional measures (separable spectrum)."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise InvalidSpec("product needs at least one part")
        for p in parts:
            if _spec_dim(p) not in (1, None):
                raise InvalidSpec("product parts must be one-dimensional specs")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self):
        return len(self.parts)


def _spec_dim(spec):
    if isinstance(spec, (GaussianSE, LaplacianCauchy, MaternT, MixtureOfGaussians,
                         GaussianCopula, PerDimProduct)):
        return spec.dim
    raise UnsupportedSpec(f"unknown spectral measure {type(spec).__name__}")


def student_t_spec(degrees_of_freedom, scale=1.0):
    """Heavy-tailed isotropic measure: multivariate t with the given dof.

    Expressed through MaternT via smoothness = dof / 2.
    """
    return MaternT(smoothness=degrees_of_freedom / 2.0, scale=scale)


@dataclass(eq=False)
class FrequencyBank:
    """m frequencies per map; omega2 aliases omega1 when stationary."""

    omega1: np.ndarray
    omega2: np.ndarray = None
    stationary: bool = True

    def __post_init__(self):
        o1 = np.ascontiguousarray(np.atleast_2d(np.asarray(self.omega1, dtype=float)))
        if o1.ndim != 2 or o1.size == 0:
            raise InvalidSpec("omega1 must be a non-empty (m, D) array")
        if not np.all(np.isfinite(o1)):
            raise InvalidSpec("frequencies must be finite")
        self.omega1 = o1
        if self.stationary:
            if self.omega2 is not None and self.omega2 is not self.omega1:
                o2 = np.asarray(self.omega2, dtype=float)
                if o2.shape != o1.shape or np.any(o2 != o1):
                    raise InvalidSpec("stationary bank requires omega2 == omega1")
            self.omega2 = self.omega1
        else:
            if self.omega2 is None:
                raise InvalidSpec("nonstationary bank requires omega2")
            o2 = np.ascontiguousarray(np.atleast_2d(np.asarray(self.omega2, dtype=float)))
            if o2.shape != o1.shape:
                raise InvalidSpec("omega1 and omega2 must share a shape")
            if not np.all(np.isfinite(o2)):
                raise InvalidSpec("frequencies must be finite")
            self.omega2 = o2

    @property
    def m(self):
        return self.omega1.shape[0]

    @property
    def dim(self):
        return self.omega1.shape[1]

    @property
    def banks(self):
        """Frequency sets the feature map sums: 1 if stationary, else 2."""
        return 1 if self.stationary else 2

    def copy(self):
        if self.stationary:
            return FrequencyBank(self.omega1.copy(), stationary=True)
        return FrequencyBank(self.omega1.copy(), self.omega2.copy(), stationary=False)


def sample_stationary(spec, m, d, rng):
    """Draw m frequencies from ``spec`` for the stationary feature map."""
    return FrequencyBank(_draw(spec, m, d, rng), stationary=True)


def sample_nonstationary(spec1, spec2, m, d, rng):
    """Draw the frequency pair (omega1, omega2) for the nonstationary map.

    Both draws consume the one stream in order, omega1 first.
    """
    omega1 = _draw(spec1, m, d, rng)
    omega2 = _draw(spec2, m, d, rng)
    return FrequencyBank(omega1, omega2, stationary=False)


def check_spec_dim(spec, d):
    """Refuse a measure that does not draw d-dimensional frequencies."""
    sd = _spec_dim(spec)
    if sd is not None and sd != d:
        raise IncompatibleDims(f"spec has dimension {sd}, requested {d}")


def _draw(spec, m, d, rng):
    if m < 1 or d < 1:
        raise IncompatibleDims(f"cannot sample a ({m}, {d}) bank")
    check_spec_dim(spec, d)
    # extreme parameters may overflow to inf: FrequencyBank refuses those
    # frequencies in one line, so numpy's own warnings are kept quiet
    with np.errstate(all="ignore"):
        if isinstance(spec, GaussianSE):
            return rng.standard_normal((m, d)) / spec.lengthscales
        if isinstance(spec, LaplacianCauchy):
            return rng.standard_cauchy((m, d)) * spec.scales
        if isinstance(spec, MaternT):
            nu = 2.0 * spec.smoothness
            z = rng.standard_normal((m, d))
            g = rng.chisquare(nu, size=m)
            return z / (spec.scale * np.sqrt(g / nu))[:, None]
        if isinstance(spec, MixtureOfGaussians):
            comps = rng.choice(spec.weights.size, size=m, p=spec.weights)
            z = rng.standard_normal((m, d))
            out = np.empty((m, d))
            for k in range(spec.weights.size):
                sel = comps == k
                if not np.any(sel):
                    continue
                root, _ = linalg.cholesky(spec.covariances[k])
                out[sel] = spec.means[k] + z[sel] @ root.T
            return out
        if isinstance(spec, GaussianCopula):
            root, _ = linalg.cholesky(spec.correlation)
            z = rng.standard_normal((m, d)) @ root.T
            return gaussian_copula_transform(z, [quantile_fn(p) for p in spec.marginals])
        if isinstance(spec, PerDimProduct):
            return np.hstack([_draw(part, m, 1, rng) for part in spec.parts])
    raise UnsupportedSpec(f"cannot sample from {type(spec).__name__}")


_MONOTONE_GRID = np.linspace(0.005, 0.995, 41)


def gaussian_copula_transform(z, marginals):
    """Map correlated standard normals through marginal quantile functions.

    ``z`` is (m, D) with standard normal columns; ``marginals`` is one
    quantile callable per column.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if len(marginals) != z.shape[1]:
        raise IncompatibleDims(
            f"{len(marginals)} marginals for {z.shape[1]} columns")
    from scipy.stats import norm

    u = norm.cdf(z)
    eps = np.finfo(float).tiny
    np.clip(u, eps, np.nextafter(1.0, 0.0), out=u)
    out = np.empty_like(u)
    for j, q in enumerate(marginals):
        probe = np.asarray(q(_MONOTONE_GRID), dtype=float)
        if probe.shape != _MONOTONE_GRID.shape or not np.all(np.diff(probe) > 0):
            raise NonMonotoneMarginal(f"marginal {j} is not strictly increasing")
        out[:, j] = q(u[:, j])
    return out


def quantile_fn(spec):
    """Quantile function of a one-dimensional named measure."""
    from scipy.stats import cauchy, norm
    from scipy.stats import t as student_t

    if isinstance(spec, GaussianSE) and spec.dim == 1:
        l = float(spec.lengthscales[0])
        return lambda u: norm.ppf(u) / l
    if isinstance(spec, LaplacianCauchy) and spec.dim == 1:
        s = float(spec.scales[0])
        return lambda u: cauchy.ppf(u) * s
    if isinstance(spec, MaternT):
        nu = 2.0 * spec.smoothness
        s = spec.scale
        return lambda u: student_t.ppf(u, df=nu) / s
    raise UnsupportedSpec(f"no quantile function for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# serialization
#
# Measure, bank and model JSON are read only through the readers below,
# which raise InvalidSpec for a missing key or a mistyped, non-finite,
# oversized, ragged or too deeply nested value.

def _json_field(obj, key, where):
    """obj[key] for a JSON object ``obj``."""
    if not isinstance(obj, dict):
        raise InvalidSpec(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise InvalidSpec(f"{where} needs {key!r}")
    return obj[key]


def _json_number(value, where):
    """A JSON number as a finite float; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSpec(f"{where} must be a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise InvalidSpec(f"{where} is too large for a float") from None
    if not math.isfinite(value):
        raise InvalidSpec(f"{where} is not finite")
    return value


def _json_array(value, where):
    """A number or nested lists of numbers as a finite float array."""
    def walk(v):
        return [walk(u) for u in v] if isinstance(v, list) else _json_number(v, where)
    try:
        return np.array(walk(value), dtype=float)
    except ValueError:
        raise InvalidSpec(f"{where} is a ragged array") from None
    except RecursionError:
        raise InvalidSpec(f"{where} is nested too deeply") from None


def _encode_array(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(obj, where="encoded array"):
    """Inverse of _encode_array; the array must be well formed and finite."""
    shape, data = (obj.get("shape"), obj.get("data")) if isinstance(obj, dict) else (None, None)
    if not (isinstance(shape, list) and isinstance(data, str)
            and all(type(s) is int and s >= 0 for s in shape)):
        raise InvalidSpec(f"{where} needs a 'shape' list of sizes and a 'data' string")
    try:
        raw = base64.b64decode(data.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error):
        raise InvalidSpec(f"{where} data is not base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise InvalidSpec(f"{where} data does not fill shape {shape}")
    a = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if not np.all(np.isfinite(a)):
        raise InvalidSpec(f"{where} is not finite")
    return a


def bank_to_json_dict(bank):
    out = {"kind": "frequency_bank",
           "m": bank.m,
           "dim": bank.dim,
           "stationary": bool(bank.stationary),
           "omega1": _encode_array(bank.omega1)}
    if not bank.stationary:
        out["omega2"] = _encode_array(bank.omega2)
    return out


def bank_from_json_dict(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "frequency_bank":
        raise InvalidSpec("not a frequency bank document")
    stationary = _json_field(obj, "stationary", "frequency bank")
    if not isinstance(stationary, bool):
        raise InvalidSpec("frequency bank needs a true/false 'stationary'")
    omega1 = _decode_array(_json_field(obj, "omega1", "frequency bank"), "omega1")
    if stationary:
        return FrequencyBank(omega1, stationary=True)
    omega2 = _decode_array(_json_field(obj, "omega2", "frequency bank"), "omega2")
    return FrequencyBank(omega1, omega2, stationary=False)


def save_bank(path, bank):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bank_to_json_dict(bank), fh, sort_keys=True)
        fh.write("\n")


def spec_from_json_dict(obj):
    """A measure from its JSON object, keyed by "family"; malformed input
    raises InvalidSpec."""
    family = _json_field(obj, "family", "spectral measure")

    def get(key, read):
        return read(_json_field(obj, key, f"{family} measure"), f"{family} {key}")

    def specs(value, where):
        if not isinstance(value, list):
            raise InvalidSpec(f"{where} must be a list of measures")
        return tuple(spec_from_json_dict(p) for p in value)

    if family == "gaussian_se":
        return GaussianSE(get("lengthscales", _json_array))
    if family == "laplacian_cauchy":
        return LaplacianCauchy(get("scales", _json_array))
    if family == "matern_t":
        return MaternT(get("smoothness", _json_number),
                       _json_number(obj.get("scale", 1.0), "matern_t scale"))
    if family == "mixture_of_gaussians":
        return MixtureOfGaussians(get("weights", _json_array), get("means", _json_array),
                                  get("covariances", _json_array))
    if family == "gaussian_copula":
        return GaussianCopula(get("correlation", _json_array), get("marginals", specs))
    if family == "per_dim_product":
        return PerDimProduct(get("parts", specs))
    raise InvalidSpec(f"unknown spectral measure family {family!r}")


def load_spec(path):
    """A --spec file: a frequency bank if the object has 'omega1', else a measure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "omega1" in doc:
            return bank_from_json_dict(doc)
        return spec_from_json_dict(doc)
    except RecursionError:
        raise InvalidSpec(f"spec file {path} is nested too deeply") from None
