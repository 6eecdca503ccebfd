"""Trigonometric feature maps and the kernels they induce.

Stationary map for an (n, D) input block X and an m-frequency bank:

    phi(X) = [cos(X W'), sin(X W')]                      (n, 2m)

with the induced kernel estimate K = (sigma_f^2 / m) phi phi'. The
nonstationary map sums two banks,

    phi(X) = [cos(X W1') + cos(X W2'), sin(X W1') + sin(X W2')]

and normalizes by 1/(4m); with W1 == W2 the cosine sum doubles every
entry and the extra factor of 4 cancels, recovering the stationary
kernel exactly. The bank picks the map: FrequencyBank.banks is 1 for a
stationary bank and 2 otherwise.

Each (cos, sin) pair comes from one tangent of the half angle: with
t = tan(theta/2) and w = 2/(1 + t^2), cos theta = w - 1 and
sin theta = t w. numpy runs float64 ``tan`` as a SIMD loop but ``cos``
and ``sin`` through scalar libm: on one x86-64 core with AVX-512, for
113k arguments, cos and sin took 10-15 ns per element at |theta| <= 1
and 26-35 ns at |theta| <= 30 or 300, and tan 2-3 ns. The pair is
within 3.5e-16 of the exact values (libm: 5.6e-17), and theta = 0 gives
exactly (1, 0).

The half angle X (W'/2) is formed with ``np.dot``, not ``np.matmul``.
With numpy 2.4.6 and one OpenBLAS thread on an AVX-512 Xeon core, a
(256 x 1)(1 x 150) product, one predict chunk of a 1-d model, took
62-66 us through matmul and 24-25 us through dot, which cut the map of
a 200,000-row predict from 390 to 316 ms. At D = 2 and 3 dot took
22-24 us against 16-17 us, under 10 ms over such a predict. Both give
the same bits at D = 1, 2 and 3, and a test pins that.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams


@dataclass(eq=False)
class FeatureMatrix:
    phi: np.ndarray  # (n, 2m)
    m: int
    banks: int       # frequency banks the map summed: 1 or 2


def check_input_dim(dim, bank):
    """Refuse inputs of dimension ``dim`` for the bank's frequencies."""
    if dim != bank.dim:
        raise DimensionMismatch(f"inputs have dimension {dim}, bank has {bank.dim}")


def _as_inputs(x, bank):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    check_input_dim(x.shape[1], bank)
    return x


class FeatureBuffers:
    """Arrays a map of up to ``rows`` inputs writes into: (2, rows, m)
    (cos, sin) ``pairs``, bank i using pairs[i % len(pairs)], and the
    (rows, 2m) ``phi``. Fewer rows use leading-row views."""

    def __init__(self, rows, m, pairs):
        self.pairs = [np.empty((2, rows, m)) for _ in range(pairs)]
        self.phi = np.empty((rows, 2 * m))


def features_for_mode(x, bank, buffers=None):
    """The feature map the bank selects: [sum of cos X W', sum of sin X W']
    over its ``banks`` frequency sets.

    Set i's (cos, sin) pair is written into buffers.pairs[i % len(pairs)]
    and summed into buffers.phi, so with a pair per set each stays there
    for the caller; without ``buffers`` one pair serves every set, and the
    map holds phi and that pair. Both come from t = tan(X W'/2) (see the
    module docstring): halving W is exact, so t is the tangent of exactly
    half of the product X W'.
    """
    x = _as_inputs(x, bank)
    n, m = x.shape[0], bank.m
    if buffers is None:
        buffers = FeatureBuffers(n, m, 1)
    phi = buffers.phi[:n]
    for i, omega in enumerate((bank.omega1, bank.omega2)[:bank.banks]):
        c, s = buffers.pairs[i % len(buffers.pairs)][:, :n]
        np.dot(x, 0.5 * omega.T, out=s)      # theta/2, exactly
        np.tan(s, out=s)                      # t
        np.multiply(s, s, out=c)
        c += 1.0
        np.divide(2.0, c, out=c)              # w = 2/(1+t^2)
        s *= c                                # sin theta = t w
        c -= 1.0                              # cos theta = w - 1
        if i:
            phi[:, :m] += c
            phi[:, m:] += s
        else:
            phi[:, :m], phi[:, m:] = c, s
    return FeatureMatrix(phi, m, bank.banks)


def ridge_multiplier(phi):
    """Feature count entering the weight-space ridge: m for one bank, 4m for two."""
    return float(phi.m * phi.banks ** 2)


def kernel_cross(phi_a, phi_b, sigma_f2):
    """Kernel block sigma_f^2 / M phi_a phi_b' of two feature matrices from one bank."""
    if not (np.isfinite(sigma_f2) and sigma_f2 > 0):
        raise InvalidParams("sigma_f2 must be finite and positive")
    if (phi_a.m, phi_a.banks) != (phi_b.m, phi_b.banks):
        raise DimensionMismatch("feature blocks disagree in m or bank count")
    return (sigma_f2 * (1.0 / ridge_multiplier(phi_a))) * (phi_a.phi @ phi_b.phi.T)
