"""Dense reference implementations the tests check the package against.

The package has one inference path, the reduced-rank one of the model
module. Here are the O(n^3) and closed-form references it is measured
against: the n x n kernel a feature block induces, closed-form kernels
for the named spectral families, the direct log marginal likelihood,
dense GP conditioning, and the measure JSON writer that
measures.load_spec reads. forbid_dense_kernel makes every dense-kernel
function here raise, so a test can run package code inside it and show
that none of them was reached.
"""

import contextlib
import json

import numpy as np

from spectral_rff import linalg
from spectral_rff.errors import DimensionMismatch, InvalidParams, UnsupportedSpec
from spectral_rff.features import kernel_cross
from spectral_rff.measures import (GaussianCopula, GaussianSE, LaplacianCauchy,
                                   MaternT, MixtureOfGaussians, PerDimProduct)

# the hard floor below which the dense oracle refuses to run
DIRECT_SIGMA_N2_MIN = 1e-12

_dense_kernels_allowed = True


@contextlib.contextmanager
def forbid_dense_kernel():
    """Guard for tests: any n x n kernel construction inside raises."""
    global _dense_kernels_allowed
    _dense_kernels_allowed = False
    try:
        yield
    finally:
        _dense_kernels_allowed = True


def dense_kernel_gate():
    if not _dense_kernels_allowed:
        raise RuntimeError("dense kernel construction is forbidden in this context")


def kernel_estimate(phi, sigma_f2):
    """n x n kernel induced by a feature block. Test/export scale only."""
    dense_kernel_gate()
    return kernel_cross(phi, phi, sigma_f2)


def kernel_matrix(spec, xa, xb):
    """Closed-form kernel matrix for SE, Laplacian or Matern duals."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch("input blocks disagree in dimension")
    delta = xa[:, None, :] - xb[None, :, :]
    if isinstance(spec, GaussianSE):
        if spec.dim != xa.shape[1]:
            raise DimensionMismatch("spec dimension does not match inputs")
        z = delta / spec.lengthscales
        return np.exp(-0.5 * np.sum(z * z, axis=2))
    if isinstance(spec, LaplacianCauchy):
        if spec.dim != xa.shape[1]:
            raise DimensionMismatch("spec dimension does not match inputs")
        return np.exp(-np.sum(spec.scales * np.abs(delta), axis=2))
    if isinstance(spec, MaternT):
        from scipy.special import gammaln, kv

        lam, s = spec.smoothness, spec.scale
        r = np.sqrt(2.0 * lam) * np.sqrt(np.sum(delta * delta, axis=2)) / s
        out = np.ones_like(r)
        nz = r > 1e-12
        rnz = r[nz]
        log_c = (1.0 - lam) * np.log(2.0) - gammaln(lam)
        out[nz] = np.exp(log_c + lam * np.log(rnz)) * kv(lam, rnz)
        return out
    raise UnsupportedSpec(f"no closed-form kernel for {type(spec).__name__}")


def log_marginal_likelihood_direct(k, y, sigma_n2):
    """Dense O(n^3) oracle: log N(y; 0, K + sigma_n^2 I).

    Kept for tests and small exports; guarded against large n and
    degenerate noise.
    """
    dense_kernel_gate()
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if k.shape != (n, n):
        raise DimensionMismatch(f"kernel shape {k.shape} does not match n={n}")
    if n > 2000:
        raise InvalidParams("dense path is limited to n <= 2000")
    if not sigma_n2 >= DIRECT_SIGMA_N2_MIN:
        raise InvalidParams(f"sigma_n2 must be >= {DIRECT_SIGMA_N2_MIN}")
    cov = k + sigma_n2 * np.eye(n)
    root, _ = linalg.cholesky(cov, jitter_ladder=(0.0,))
    v = linalg.solve_lower(root, y)
    return float(-0.5 * (v @ v) - np.sum(np.log(np.diagonal(root)))
                 - 0.5 * n * np.log(2.0 * np.pi))


def dense_conditioning(k_train, k_cross, k_star_diag, y, sigma_n2):
    """Dense GP conditioning oracle for the predictive mean and variance.

    k_cross is (n, n_star); k_star_diag holds k(x*, x*). The returned
    variance includes the observation noise, matching predict().
    """
    dense_kernel_gate()
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    cov = np.asarray(k_train, dtype=float) + sigma_n2 * np.eye(n)
    root, _ = linalg.cholesky(cov, jitter_ladder=(0.0,))
    v = linalg.solve_lower(root, np.asarray(k_cross, dtype=float))
    mean = v.T @ linalg.solve_lower(root, y)
    var = sigma_n2 + np.asarray(k_star_diag, dtype=float) - np.sum(v * v, axis=0)
    return mean, var


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


def save_spec(path, spec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json_dict(spec), fh, sort_keys=True)
        fh.write("\n")
