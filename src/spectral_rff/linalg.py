"""Dense linear algebra and RNG primitives used by every other module.

Everything runs in float64. Random draws go through numpy's PCG64
Generator, so a seed pins the downstream pipeline bit for bit on a given
platform and numpy version.
"""

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from .errors import DimensionMismatch, FactorizationFailed, NonSquare, NonSymmetric

# Jitter rungs tried in order, each scaled by mean(diag A).
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)

SYMMETRY_TOL = 1e-10


def seeded_rng(seed):
    """Deterministic PCG64-backed Generator for the given integer seed."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rngs(seed, n):
    """n statistically independent child generators derived from one seed."""
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]


def cholesky(a, jitter_ladder=JITTER_LADDER, out=None):
    """Lower-triangular R with R @ R.T = a + jitter * I.

    The jitter is the smallest rung of ``jitter_ladder`` (scaled by the
    mean diagonal of ``a``) that lets LAPACK dpotrf succeed. R is
    Fortran-ordered with its upper triangle exactly zero, and written into
    ``out`` (Fortran-ordered, a's shape) when given; ``a`` is kept.

    ``a`` must be finite and symmetric within SYMMETRY_TOL of its largest
    entry; the tolerance test runs only when ``a`` is not exactly
    symmetric, so a Gram matrix from ``gram`` skips it.

    Returns
    -------
    (R, jitter_used) : (ndarray, float)
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise FactorizationFailed("matrix contains non-finite entries")
    if a.size and not np.array_equal(a, a.T):
        scale = max(1.0, float(np.max(np.abs(a))))
        skew = a - a.T
        np.abs(skew, out=skew)
        if float(np.max(skew)) > SYMMETRY_TOL * scale:
            raise NonSymmetric("matrix is not symmetric within tolerance")
    diag_scale = float(np.mean(np.diagonal(a))) if a.size else 0.0
    if diag_scale <= 0.0:
        diag_scale = 0.0
    for rung in jitter_ladder:
        jitter = rung * diag_scale
        target = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
        if out is not None:   # dpotrf factors it in place
            out[...] = target
            target = out
        r, info = dpotrf(target, lower=1, clean=1, overwrite_a=int(out is not None))
        if info == 0:
            return r, jitter
        if info < 0:
            raise FactorizationFailed(f"dpotrf rejected argument {-info}")
    raise FactorizationFailed(
        f"Cholesky failed for all jitter rungs {tuple(jitter_ladder)}")


def solve_factored(r, b):
    """Solve R R.T x = b with one LAPACK dpotrs, for R from ``cholesky``.

    ``r`` is trusted to be a factor that ``cholesky`` returned; only the
    right-hand side's shape is checked.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != r.shape[0]:
        raise DimensionMismatch(
            f"rhs has shape {b.shape}, factor is {r.shape[0]} x {r.shape[0]}")
    x, info = dpotrs(r, b, lower=1)
    if info != 0:
        raise FactorizationFailed(f"dpotrs failed with info={info}")
    return x


def inverse_lower(r):
    """R^-1 of a lower-triangular factor with a positive diagonal, by LAPACK
    dtrtri. Fortran-ordered; its strict upper triangle is copied from r."""
    rinv, info = dtrtri(r, lower=1)
    if info != 0:
        raise FactorizationFailed(f"dtrtri failed with info={info}")
    return rinv


def _triangular_solve(r, b, lower):
    """Solve r x = b after checking that r is square and triangular with a
    positive diagonal and that b has one row per row of r."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise NonSquare(f"triangular factor must be square, got shape {r.shape}")
    if not np.all(np.diagonal(r) > 0.0):
        raise ValueError("triangular factor must have a strictly positive diagonal")
    if np.any((np.triu(r, 1) if lower else np.tril(r, -1)) != 0.0):
        kind = "upper" if lower else "lower"
        raise ValueError(f"{kind} part of triangular factor must be zero")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != r.shape[0]:
        raise DimensionMismatch(
            f"rhs has leading dimension {b.shape[0]}, factor is {r.shape[0]}")
    return solve_triangular(r, b, lower=lower, check_finite=False)


def solve_lower(r, b):
    """Solve R x = b for lower-triangular R by forward substitution."""
    return _triangular_solve(r, b, lower=True)


def solve_upper(rt, b):
    """Solve R.T x = b where ``rt`` is the transpose of a lower factor."""
    return _triangular_solve(rt, b, lower=False)


def gram(phi, out=None):
    """phi.T @ phi for a tall-and-skinny feature matrix, into ``out`` if given."""
    phi = np.asarray(phi, dtype=float)
    return np.matmul(phi.T, phi, out=out)
