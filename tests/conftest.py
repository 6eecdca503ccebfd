"""Shared helpers: random model instances and exact GP draws.

BLAS runs on one thread unless the environment says otherwise. The
suite's matrices are small (at most a few hundred columns), where
OpenBLAS threads cost more than they give: one learned chirp fit of
criterion 8 takes about 42 s with two threads on two cores and under
30 s with one. It also keeps the suite's numbers independent of the
core count. The variables must be set before numpy is first imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from spectral_rff.linalg import cholesky
from spectral_rff.measures import FrequencyBank
from spectral_rff.model import Hyperparams


def random_instance(rng, kind, max_n=50, max_m=10, max_d=3):
    """Random (x, y, bank, hyper) with a "stationary" or "nonstationary" bank."""
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    d = int(rng.integers(1, max_d + 1))
    omega1 = rng.standard_normal((m, d))
    if kind == "stationary":
        bank = FrequencyBank(omega1, stationary=True)
    elif kind == "nonstationary":
        bank = FrequencyBank(omega1, rng.standard_normal((m, d)),
                             stationary=False)
    else:
        raise ValueError(kind)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    hyper = Hyperparams.from_variances(float(np.exp(rng.uniform(-1.0, 1.0))),
                                       float(np.exp(rng.uniform(-4.0, 0.0))))
    return x, y, bank, hyper


def gp_draw(kernel, rng, noise_std=0.0):
    """One exact draw from N(0, kernel) plus optional iid noise."""
    root, _ = cholesky(np.asarray(kernel, dtype=float))
    f = root @ rng.standard_normal(kernel.shape[0])
    if noise_std > 0:
        f = f + noise_std * rng.standard_normal(kernel.shape[0])
    return f


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
