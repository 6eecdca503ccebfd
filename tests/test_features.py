"""Feature-map geometry: normalizers, reductions, invariances, PSD."""

import tracemalloc
import warnings

import numpy as np
import pytest

from spectral_rff import measures
from spectral_rff.errors import DimensionMismatch, InvalidParams, UnsupportedSpec
from spectral_rff.features import (FeatureBuffers, FeatureMatrix, features_for_mode,
                                   kernel_cross, ridge_multiplier)
from spectral_rff.linalg import seeded_rng
from spectral_rff.measures import (FrequencyBank, GaussianSE, LaplacianCauchy,
                                   MaternT, sample_nonstationary,
                                   sample_stationary)
from oracles import forbid_dense_kernel, kernel_estimate, kernel_matrix


def make_banks(m=40, d=2, seed=0):
    spec = GaussianSE([1.0] * d)
    st = sample_stationary(spec, m, d, seeded_rng(seed))
    ns = sample_nonstationary(spec, GaussianSE([0.4] * d), m, d,
                              seeded_rng(seed + 1))
    return st, ns


def test_feature_shapes_and_mode_tags(rng):
    # the bank picks the map, and the block records how many banks it summed
    st, ns = make_banks()
    x = rng.standard_normal((7, 2))
    fs = features_for_mode(x, st)
    fn = features_for_mode(x, ns)
    assert (st.banks, ns.banks) == (1, 2)
    assert fs.phi.shape == (7, 80) and (fs.m, fs.banks) == (40, 1)
    assert fn.phi.shape == (7, 80) and (fn.m, fn.banks) == (40, 2)


def test_stationary_rows_have_constant_energy(rng):
    # cos^2 + sin^2 = 1 per frequency, so every diagonal entry of the
    # induced kernel equals sigma_f^2
    st, _ = make_banks(m=13)
    x = rng.standard_normal((9, 2))
    k = kernel_estimate(features_for_mode(x, st), 2.5)
    np.testing.assert_allclose(np.diag(k), 2.5, rtol=1e-12)


def test_nonstationary_diagonal_bounded_and_exact_at_origin():
    _, ns = make_banks(m=17)
    x = np.vstack([np.zeros((1, 2)), seeded_rng(3).standard_normal((6, 2))])
    k = kernel_estimate(features_for_mode(x, ns), 1.7)
    assert k[0, 0] == pytest.approx(1.7, rel=1e-12)
    assert np.all(np.diag(k) <= 1.7 + 1e-12)


def test_tied_banks_reduce_to_stationary_kernel(rng):
    st, _ = make_banks(m=25, seed=4)
    tied = FrequencyBank(st.omega1, st.omega1.copy(), stationary=False)
    x = rng.standard_normal((12, 2))
    k_st = kernel_estimate(features_for_mode(x, st), 1.3)
    k_ns = kernel_estimate(features_for_mode(x, tied), 1.3)
    assert float(np.max(np.abs(k_st - k_ns))) <= 1e-12


def test_stationary_kernel_is_translation_invariant():
    bank = sample_stationary(GaussianSE([1.0]), 200, 1, seeded_rng(6))
    xa = np.array([[0.0], [0.5], [-1.2]])
    xb = xa + 1.7
    ka = kernel_estimate(features_for_mode(xa, bank), 1.0)
    kb = kernel_estimate(features_for_mode(xb, bank), 1.0)
    assert float(np.max(np.abs(ka - kb))) < 1e-12


def test_untied_banks_break_translation_invariance():
    bank = sample_nonstationary(GaussianSE([1.0]), GaussianSE([0.3]),
                                200, 1, seeded_rng(5))
    xa = np.array([[0.0], [0.5]])
    xb = xa + 1.7
    ka = kernel_estimate(features_for_mode(xa, bank), 1.0)
    kb = kernel_estimate(features_for_mode(xb, bank), 1.0)
    assert float(np.max(np.abs(ka - kb))) > 0.1


@pytest.mark.parametrize("spec,bound", [
    (GaussianSE([0.8]), 0.01),
    (LaplacianCauchy([1.2]), 0.06),
    (MaternT(1.5), 0.02),
])
def test_monte_carlo_kernel_converges_to_closed_form(spec, bound):
    x = np.linspace(-2.0, 2.0, 25).reshape(-1, 1)
    bank = sample_stationary(spec, 4000, 1, seeded_rng(17))
    k_hat = kernel_estimate(features_for_mode(x, bank), 1.0)
    assert float(np.max(np.abs(k_hat - kernel_matrix(spec, x, x)))) < bound


def closed_form(spec, x1, x2):
    return float(kernel_matrix(spec, [x1], [x2])[0, 0])


def test_closed_form_hand_values():
    assert closed_form(GaussianSE([1.0]), [0.0], [1.0]) == \
        pytest.approx(np.exp(-0.5), rel=1e-12)
    assert closed_form(LaplacianCauchy([1.0]), [0.0], [1.0]) == \
        pytest.approx(np.exp(-1.0), rel=1e-12)
    assert closed_form(MaternT(0.5, 1.0), [0.0], [1.0]) == \
        pytest.approx(np.exp(-1.0), rel=1e-9)
    r = np.sqrt(3.0)
    assert closed_form(MaternT(1.5, 1.0), [0.0], [1.0]) == \
        pytest.approx((1.0 + r) * np.exp(-r), rel=1e-9)
    assert closed_form(MaternT(1.5, 1.0), [0.3], [0.3]) == 1.0


def test_kernel_matrix_rejects_unsupported_specs():
    with pytest.raises(UnsupportedSpec):
        kernel_matrix(measures.MixtureOfGaussians([1.0], [[0.0]], [np.eye(1)]),
                      np.zeros((1, 1)), np.zeros((1, 1)))


def test_kernel_estimates_are_positive_semidefinite(rng):
    for seed in range(5):
        st, ns = make_banks(m=30, seed=100 + seed)
        x = rng.standard_normal((20, 2))
        for bank in (st, ns):
            k = kernel_estimate(features_for_mode(x, bank), 1.0)
            assert float(np.linalg.eigvalsh(k).min()) >= -1e-9


def test_ridge_multiplier():
    block = np.empty((3, 20))
    assert ridge_multiplier(FeatureMatrix(block, 10, 1)) == 10.0
    assert ridge_multiplier(FeatureMatrix(block, 10, 2)) == 40.0


def test_kernel_scale_validation(rng):
    # sigma_f^2 / M: 1/m for one bank, 1/(4m) for two
    st, ns = make_banks(m=5)
    x = rng.standard_normal((3, 2))
    for bank, count in ((st, 5), (ns, 20)):
        phi = features_for_mode(x, bank)
        np.testing.assert_array_equal(kernel_cross(phi, phi, 2.0),
                                      (2.0 * (1.0 / count)) * (phi.phi @ phi.phi.T))
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InvalidParams):
                kernel_cross(phi, phi, bad)
            with pytest.raises(InvalidParams):
                kernel_estimate(phi, bad)


def test_mode_normalizer_mismatch_is_refused(rng):
    # blocks from banks of different counts or sizes have no one normalizer
    st, ns = make_banks()
    x = rng.standard_normal((4, 2))
    fs = features_for_mode(x, st)
    fn = features_for_mode(x, ns)
    small = features_for_mode(x, make_banks(m=20)[0])
    for a, b in ((fs, fn), (fn, fs), (fs, small)):
        with pytest.raises(DimensionMismatch):
            kernel_cross(a, b, 1.0)


def test_input_dimension_checked_against_bank(rng):
    st, _ = make_banks(d=2)
    with pytest.raises(DimensionMismatch):
        features_for_mode(rng.standard_normal((3, 5)), st)
    with pytest.raises(DimensionMismatch):
        kernel_matrix(GaussianSE([1.0]), np.zeros((2, 1)), np.zeros((2, 2)))


def test_dense_kernel_guard_blocks_square_builds(rng):
    st, _ = make_banks()
    x = rng.standard_normal((4, 2))
    fs = features_for_mode(x, st)
    with forbid_dense_kernel():
        with pytest.raises(RuntimeError):
            kernel_estimate(fs, 1.0)
        # cross blocks stay legal: prediction paths need them
        kernel_cross(fs, fs, 1.0)
    kernel_estimate(fs, 1.0)


def trig_pairs(x, bank):
    """Each frequency set's (cos, sin) pair, as the map leaves them in a
    buffer with a pair per set."""
    x = np.atleast_2d(x)
    buffers = FeatureBuffers(x.shape[0], bank.m, 2)
    features_for_mode(x, bank, buffers)
    return buffers.pairs[:bank.banks]


def test_feature_map_is_the_sum_of_its_trig_blocks(rng):
    st, ns = make_banks(m=6)
    x = rng.standard_normal((5, 2))
    for bank, count in ((st, 1), (ns, 2)):
        blocks = trig_pairs(x, bank)
        assert len(blocks) == count
        phi = features_for_mode(x, bank).phi
        np.testing.assert_array_equal(phi[:, :6], sum(c for c, _ in blocks))
        np.testing.assert_array_equal(phi[:, 6:], sum(s for _, s in blocks))
    with pytest.raises(DimensionMismatch):
        features_for_mode(np.zeros((2, 3)), ns, FeatureBuffers(2, 6, 2))


def test_feature_buffers_give_the_fresh_map_bit_for_bit(rng):
    st, ns = make_banks(m=6)
    for bank in (st, ns):
        for pairs in (1, 2):   # banks take turns in one pair, or one each
            buffers = FeatureBuffers(9, 6, pairs)
            for n in (9, 4, 9):   # the whole buffer, then leading rows
                x = rng.standard_normal((n, 2))
                phi = features_for_mode(x, bank, buffers).phi
                assert np.shares_memory(phi, buffers.phi)
                np.testing.assert_array_equal(phi, features_for_mode(x, bank).phi)


def matmul_map(x, bank):
    """features_for_mode transcribed with the half angle X (W'/2) formed
    by np.matmul, on fresh arrays."""
    phi = 0.0
    for i, omega in enumerate((bank.omega1, bank.omega2)[:bank.banks]):
        t = np.tan(np.matmul(x, 0.5 * omega.T))
        w = 2.0 / (t * t + 1.0)
        pair = np.hstack([w - 1.0, t * w])
        phi = phi + pair if i else pair
    return phi


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_half_angle_product_gives_matmuls_bits(d, rng):
    # features_for_mode forms X (W'/2) with np.dot, which is several times
    # faster than np.matmul for one input column; every map call goes
    # through it, so any change of that call must keep these bits
    spec = GaussianSE([0.3] * d)
    st = sample_stationary(spec, 150, d, seeded_rng(d))
    ns = sample_nonstationary(spec, GaussianSE([0.1] * d), 150, d, seeded_rng(d + 10))
    for bank in (st, ns):
        buffers = FeatureBuffers(257, 150, 1)
        for n in (1, 255, 256, 257):
            x = rng.uniform(-2.0, 2.0, (n, d))
            phi = features_for_mode(x, bank, buffers).phi
            assert phi.tobytes() == matmul_map(x, bank).tobytes(), (bank.banks, n)


def one_dim_banks(rng, m=13):
    """Stationary and nonstationary banks on 1-d inputs: theta = x w is one
    exact product, so a block and its single rows get the same theta."""
    st = FrequencyBank(rng.standard_normal((m, 1)), stationary=True)
    ns = FrequencyBank(rng.standard_normal((m, 1)), rng.standard_normal((m, 1)),
                       stationary=False)
    return st, ns


@pytest.mark.parametrize("size", [1e-3, 1.0, 30.0, 300.0, 1e4, 1e8, 1e15])
def test_trig_blocks_agree_with_cos_and_sin(size, rng):
    # |theta| spreads over [0, size]; the half-angle map is within ~3.5e-16
    x = size * rng.uniform(-1.0, 1.0, (37, 1))
    for bank in one_dim_banks(rng):
        for (c, s), omega in zip(trig_pairs(x, bank), (bank.omega1, bank.omega2)):
            theta = x @ omega.T
            np.testing.assert_allclose(c, np.cos(theta), rtol=0, atol=1e-15)
            np.testing.assert_allclose(s, np.sin(theta), rtol=0, atol=1e-15)


def test_trig_blocks_rows_one_at_a_time_equal_the_block(rng):
    # a row of 13 values mapped alone ends in a SIMD loop tail; in the
    # 37 x 13 block the same values sit at other lanes
    x = 30.0 * rng.uniform(-1.0, 1.0, (37, 1))
    x[5] = 0.0
    for bank in one_dim_banks(rng):
        whole = trig_pairs(x, bank)
        for i in range(x.shape[0]):
            for pair, row in zip(whole, trig_pairs(x[i], bank)):
                np.testing.assert_array_equal(pair[:, i:i + 1], np.array(row))
        for c, s in whole:   # theta = 0 gives exactly (1, 0)
            assert np.all(c[5] == 1.0) and np.all(s[5] == 0.0)


def test_trig_blocks_raise_no_warning_on_finite_theta(rng):
    x = np.concatenate([rng.uniform(-1.0, 1.0, (20, 1)) * 10.0 ** k
                        for k in (-300, -3, 0, 3, 15, 300)])
    x[0] = 0.0
    for bank in one_dim_banks(rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c, s in trig_pairs(x, bank):
                assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))


def test_nonstationary_map_peak_memory_is_two_feature_blocks():
    # the map holds phi plus one bank's cos and sin blocks at a time
    rng = np.random.default_rng(5)
    bank = FrequencyBank(rng.standard_normal((150, 1)),
                         rng.standard_normal((150, 1)), stationary=False)
    x = rng.standard_normal((3328, 1))
    tracemalloc.start()
    try:
        phi = features_for_mode(x, bank).phi
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * phi.nbytes
