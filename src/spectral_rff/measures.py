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
from scipy.special import gammaln
from scipy.stats import cauchy, norm
from scipy.stats import t as student_t

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
    if isinstance(spec, (GaussianSE, LaplacianCauchy, MixtureOfGaussians,
                         GaussianCopula, PerDimProduct)):
        return spec.dim
    if isinstance(spec, MaternT):
        return None
    raise UnsupportedSpec(f"unknown spectral measure {type(spec).__name__}")


def student_t_spec(degrees_of_freedom, scale=1.0):
    """Heavy-tailed isotropic measure: multivariate t with the given dof.

    Expressed through MaternT via smoothness = dof / 2.
    """
    return MaternT(smoothness=degrees_of_freedom / 2.0, scale=scale)


def separable_space_time_spec(space_lengthscales=(1.0, 1.0), time_dof=0.5,
                              time_scale=1.0):
    """Gaussian marginals on spatial dims, Student-t on a trailing time dim."""
    parts = [GaussianSE([l]) for l in np.atleast_1d(space_lengthscales)]
    parts.append(student_t_spec(time_dof, time_scale))
    return PerDimProduct(tuple(parts))


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

    def copy(self):
        if self.stationary:
            return FrequencyBank(self.omega1.copy(), stationary=True)
        return FrequencyBank(self.omega1.copy(), self.omega2.copy(), stationary=False)


def sample_stationary(spec, m, d, rng):
    """Draw m frequencies from ``spec`` for the stationary feature map."""
    return FrequencyBank(_draw(spec, m, d, rng), stationary=True)


def sample_nonstationary(spec1, spec2, m, d, rng, rng2=None):
    """Draw the frequency pair (omega1, omega2) for the nonstationary map.

    With ``rng2`` omitted both draws consume the one stream in order.
    Passing two generators seeded identically (and spec1 == spec2) gives
    omega1 == omega2, which collapses the map to the stationary one.
    """
    omega1 = _draw(spec1, m, d, rng)
    omega2 = _draw(spec2, m, d, rng if rng2 is None else rng2)
    return FrequencyBank(omega1, omega2, stationary=False)


def _draw(spec, m, d, rng):
    if m < 1 or d < 1:
        raise IncompatibleDims(f"cannot sample a ({m}, {d}) bank")
    sd = _spec_dim(spec)
    if sd is not None and sd != d:
        raise IncompatibleDims(f"spec has dimension {sd}, requested {d}")
    if isinstance(spec, GaussianSE):
        return linalg.standard_normal(rng, m, d) / spec.lengthscales
    if isinstance(spec, LaplacianCauchy):
        return rng.standard_cauchy((m, d)) * spec.scales
    if isinstance(spec, MaternT):
        nu = 2.0 * spec.smoothness
        z = linalg.standard_normal(rng, m, d)
        g = rng.chisquare(nu, size=m)
        return z / (spec.scale * np.sqrt(g / nu))[:, None]
    if isinstance(spec, MixtureOfGaussians):
        comps = rng.choice(spec.weights.size, size=m, p=spec.weights)
        z = linalg.standard_normal(rng, m, d)
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
        z = linalg.standard_normal(rng, m, d) @ root.T
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


def cdf_fn(spec):
    """CDF of a one-dimensional named measure (for goodness-of-fit tests)."""
    if isinstance(spec, GaussianSE) and spec.dim == 1:
        l = float(spec.lengthscales[0])
        return lambda w: norm.cdf(np.asarray(w) * l)
    if isinstance(spec, LaplacianCauchy) and spec.dim == 1:
        s = float(spec.scales[0])
        return lambda w: cauchy.cdf(np.asarray(w) / s)
    if isinstance(spec, MaternT):
        nu = 2.0 * spec.smoothness
        s = spec.scale
        return lambda w: student_t.cdf(np.asarray(w) * s, df=nu)
    raise UnsupportedSpec(f"no cdf for {type(spec).__name__}")


def spectral_density(spec, omega):
    """Density of ``spec`` at frequency row(s) ``omega``.

    Accepts a single (D,) point or a stack (k, D); returns a float or a
    (k,) array accordingly.
    """
    pts = np.asarray(omega, dtype=float)
    single = pts.ndim <= 1
    pts = np.atleast_2d(pts)
    sd = _spec_dim(spec)
    if sd is not None and pts.shape[1] != sd:
        raise IncompatibleDims(f"points have dimension {pts.shape[1]}, spec has {sd}")
    vals = _density(spec, pts)
    return float(vals[0]) if single else vals


def _density(spec, pts):
    d = pts.shape[1]
    if isinstance(spec, GaussianSE):
        z = pts * spec.lengthscales
        log_p = -0.5 * np.sum(z * z, axis=1) - 0.5 * d * np.log(2.0 * np.pi) \
            + np.sum(np.log(spec.lengthscales))
        return np.exp(log_p)
    if isinstance(spec, LaplacianCauchy):
        s = spec.scales
        return np.prod(s / (np.pi * (s * s + pts * pts)), axis=1)
    if isinstance(spec, MaternT):
        lam, s = spec.smoothness, spec.scale
        nu = 2.0 * lam
        q = s * s * np.sum(pts * pts, axis=1) / nu
        log_p = (gammaln(lam + 0.5 * d) - gammaln(lam)
                 - 0.5 * d * np.log(nu * np.pi) + d * np.log(s)
                 - (lam + 0.5 * d) * np.log1p(q))
        return np.exp(log_p)
    if isinstance(spec, MixtureOfGaussians):
        total = np.zeros(pts.shape[0])
        for w, mu, cov in zip(spec.weights, spec.means, spec.covariances):
            root, _ = linalg.cholesky(cov)
            sol = linalg.solve_lower(root, (pts - mu).T)
            log_det = 2.0 * np.sum(np.log(np.diagonal(root)))
            log_p = -0.5 * np.sum(sol * sol, axis=0) \
                - 0.5 * (d * np.log(2.0 * np.pi) + log_det)
            total += w * np.exp(log_p)
        return total
    if isinstance(spec, PerDimProduct):
        vals = np.ones(pts.shape[0])
        for j, part in enumerate(spec.parts):
            vals *= _density(part, pts[:, j:j + 1])
        return vals
    if isinstance(spec, GaussianCopula):
        c = spec.correlation
        z = np.empty_like(pts)
        marg = np.ones(pts.shape[0])
        for j, part in enumerate(spec.marginals):
            f = cdf_fn(part)
            u = np.clip(f(pts[:, j]), np.finfo(float).tiny, np.nextafter(1.0, 0.0))
            z[:, j] = norm.ppf(u)
            marg *= _density(part, pts[:, j:j + 1])
        root, _ = linalg.cholesky(c)
        sol = linalg.solve_lower(root, z.T)
        log_det = 2.0 * np.sum(np.log(np.diagonal(root)))
        quad = np.sum(sol * sol, axis=0) - np.sum(z * z, axis=1)
        return np.exp(-0.5 * (quad + log_det)) * marg
    raise UnsupportedSpec(f"no density for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# serialization

def _encode_array(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(obj):
    """Inverse of _encode_array; a malformed object raises InvalidSpec."""
    shape, data = (obj.get("shape"), obj.get("data")) if isinstance(obj, dict) else (None, None)
    if not (isinstance(shape, list) and isinstance(data, str)
            and all(type(s) is int and s >= 0 for s in shape)):
        raise InvalidSpec("encoded array needs a 'shape' list of sizes and a 'data' string")
    try:
        raw = base64.b64decode(data.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error):
        raise InvalidSpec("encoded array data is not base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise InvalidSpec(f"encoded array data does not fill shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


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
    if not isinstance(obj.get("stationary"), bool):
        raise InvalidSpec("frequency bank needs a true/false 'stationary'")
    omega1 = _decode_array(obj.get("omega1"))
    if obj["stationary"]:
        return FrequencyBank(omega1, stationary=True)
    return FrequencyBank(omega1, _decode_array(obj.get("omega2")), stationary=False)


def save_bank(path, bank):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bank_to_json_dict(bank), fh, sort_keys=True)
        fh.write("\n")


def load_bank(path):
    with open(path, "r", encoding="utf-8") as fh:
        return bank_from_json_dict(json.load(fh))


def spec_to_json_dict(spec):
    if isinstance(spec, GaussianSE):
        return {"family": "gaussian_se", "lengthscales": spec.lengthscales.tolist()}
    if isinstance(spec, LaplacianCauchy):
        return {"family": "laplacian_cauchy", "scales": spec.scales.tolist()}
    if isinstance(spec, MaternT):
        return {"family": "matern_t", "smoothness": spec.smoothness, "scale": spec.scale}
    if isinstance(spec, MixtureOfGaussians):
        return {"family": "mixture_of_gaussians",
                "weights": spec.weights.tolist(),
                "means": spec.means.tolist(),
                "covariances": spec.covariances.tolist()}
    if isinstance(spec, GaussianCopula):
        return {"family": "gaussian_copula",
                "correlation": spec.correlation.tolist(),
                "marginals": [spec_to_json_dict(p) for p in spec.marginals]}
    if isinstance(spec, PerDimProduct):
        return {"family": "per_dim_product",
                "parts": [spec_to_json_dict(p) for p in spec.parts]}
    raise UnsupportedSpec(f"cannot serialize {type(spec).__name__}")


def _json_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSpec(f"{where} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidSpec(f"{where} is too large for a float") from None


def _json_array(value, where):
    """A number or nested lists of numbers as a float array."""
    def walk(v):
        return [walk(u) for u in v] if isinstance(v, list) else _json_number(v, where)
    try:
        return np.array(walk(value), dtype=float)
    except ValueError:
        raise InvalidSpec(f"{where} is a ragged array") from None


def spec_from_json_dict(obj):
    """Inverse of spec_to_json_dict; malformed input raises InvalidSpec."""
    if not isinstance(obj, dict):
        raise InvalidSpec(f"spectral measure must be a JSON object, got {type(obj).__name__}")
    family = obj.get("family")

    def get(key, read):
        if key not in obj:
            raise InvalidSpec(f"{family} measure needs {key!r}")
        return read(obj[key], f"{family} {key}")

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
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json_dict(json.load(fh))


def save_spec(path, spec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json_dict(spec), fh, sort_keys=True)
        fh.write("\n")
