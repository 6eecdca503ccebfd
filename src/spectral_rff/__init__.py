"""Reduced-rank Gaussian process regression with trainable Fourier features.

Submodules: measures (spectral measures and frequency banks), features
(trigonometric feature maps and kernel estimates), model (reduced-rank
inference), training (marginal-likelihood optimization), data (CSV/grid
IO), benchmarks (synthetic comparisons), linalg (seeded RNG and Cholesky
helpers), cli (command line entry point).

The package root stays import-light on purpose: the command line tool
must be able to cap BLAS threads before numpy loads. The submodules load
only numpy and scipy.linalg; scipy.stats loads on the first copula or
quantile call, and scipy.special on the first closed-form Matern kernel.
"""

__version__ = "0.1.0"

__all__ = ["benchmarks", "cli", "data", "errors", "features", "linalg",
           "measures", "model", "training"]
