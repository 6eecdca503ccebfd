"""Sampling, distribution and duality checks for the spectral measure families.

The duality oracle is numerical Fourier inversion: for a measure with
density p, the dual kernel value at lag delta is 2 * int_0^inf p(w)
cos(w delta) dw, evaluated with QAWF quadrature and compared against the
closed-form kernels. The package samples measures but never evaluates a
density, so p is scipy's density of the distribution that ``cdf_fn``
below describes, and ``test_densities_integrate_to_one`` ties the two together.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats

from spectral_rff import measures
from spectral_rff.errors import (DimensionMismatch, IncompatibleDims,
                                 InvalidSpec, NonMonotoneMarginal,
                                 UnsupportedSpec)
from spectral_rff.features import features_for_mode
from spectral_rff.linalg import seeded_rng
from spectral_rff.measures import (FrequencyBank, GaussianCopula,
                                   GaussianSE, LaplacianCauchy, MaternT,
                                   MixtureOfGaussians, PerDimProduct,
                                   gaussian_copula_transform, quantile_fn,
                                   sample_nonstationary, sample_stationary,
                                   student_t_spec)
from spectral_rff.training import STATIONARY_LEARNED, TrainConfig, _initial_bank
from oracles import kernel_matrix, save_spec, spec_to_json_dict


def cdf_fn(spec):
    """CDF of a one-dimensional named measure (for goodness-of-fit tests)."""
    if isinstance(spec, GaussianSE) and spec.dim == 1:
        l = float(spec.lengthscales[0])
        return lambda w: stats.norm.cdf(np.asarray(w) * l)
    if isinstance(spec, LaplacianCauchy) and spec.dim == 1:
        s = float(spec.scales[0])
        return lambda w: stats.cauchy.cdf(np.asarray(w) / s)
    if isinstance(spec, MaternT):
        nu = 2.0 * spec.smoothness
        s = spec.scale
        return lambda w: stats.t.cdf(np.asarray(w) * s, df=nu)
    raise UnsupportedSpec(f"no cdf for {type(spec).__name__}")


def reference_density(spec):
    """scipy's density of a one-dimensional named measure."""
    if isinstance(spec, GaussianSE):
        return stats.norm(scale=1.0 / spec.lengthscales[0]).pdf
    if isinstance(spec, LaplacianCauchy):
        return stats.cauchy(scale=spec.scales[0]).pdf
    return stats.t(df=2.0 * spec.smoothness, scale=1.0 / spec.scale).pdf


def dual_kernel_by_quadrature(spec, delta):
    """Fourier-invert a symmetric 1-d spectral density at lag delta."""
    p = reference_density(spec)
    if delta == 0.0:
        val, _ = integrate.quad(p, 0.0, np.inf)
        return 2.0 * val
    val, _ = integrate.quad(p, 0.0, np.inf, weight="cos", wvar=delta)
    return 2.0 * val


@pytest.mark.parametrize("spec,delta", [
    (GaussianSE([1.0]), 0.7),
    (GaussianSE([0.4]), 1.3),
    (LaplacianCauchy([1.0]), 0.7),
    (LaplacianCauchy([2.5]), 0.3),
    (MaternT(1.5, 1.0), 0.7),
    (MaternT(2.5, 0.8), 1.1),
])
def test_duality_density_inverts_to_closed_form_kernel(spec, delta):
    k_quad = dual_kernel_by_quadrature(spec, delta)
    k_closed = kernel_matrix(spec, np.array([[0.0]]), np.array([[delta]]))[0, 0]
    assert k_quad == pytest.approx(k_closed, abs=1e-7)


@pytest.mark.parametrize("spec", [
    GaussianSE([0.6]),
    LaplacianCauchy([1.4]),
    MaternT(0.75, 1.2),
])
def test_densities_integrate_to_one(spec):
    # the quadrature density integrates to one, and up to w to cdf_fn's
    # value at w, so the duality test checks the measure that is sampled
    p = reference_density(spec)
    val, err = integrate.quad(p, -np.inf, np.inf)
    assert val == pytest.approx(1.0, abs=max(1e-8, 10 * err))
    cdf = cdf_fn(spec)
    for w in (-2.5, -0.4, 0.0, 0.7, 3.0):
        val, err = integrate.quad(p, -np.inf, w)
        assert val == pytest.approx(float(cdf(w)), abs=max(1e-8, 10 * err))


def test_cauchy_and_low_smoothness_t_are_the_same_measure():
    # t with one degree of freedom is the Cauchy distribution, so the
    # smoothness-1/2 spec must give the Cauchy spec's kernel everywhere
    grid = np.linspace(-8.0, 8.0, 41).reshape(-1, 1)
    ka = kernel_matrix(MaternT(0.5, 1.0), np.zeros((1, 1)), grid)
    kb = kernel_matrix(LaplacianCauchy([1.0]), np.zeros((1, 1)), grid)
    np.testing.assert_allclose(ka, kb, rtol=1e-9)


def test_student_t_preset_maps_dof_to_half_smoothness():
    spec = student_t_spec(1.0, scale=2.0)
    assert isinstance(spec, MaternT)
    assert spec.smoothness == 0.5
    assert spec.scale == 2.0


@pytest.mark.parametrize("spec", [
    GaussianSE([0.8]),
    LaplacianCauchy([1.7]),
    MaternT(1.5, 0.9),
])
def test_sampled_frequencies_match_marginal_cdf(spec):
    cdf = cdf_fn(spec)
    passes = 0
    for seed in range(20):
        bank = sample_stationary(spec, 2000, 1, seeded_rng(50_000 + seed))
        p = stats.kstest(bank.omega1[:, 0], cdf).pvalue
        passes += p > 0.01
    assert passes >= 19


def test_low_dof_t_frequencies_have_heavy_tails():
    bank = sample_stationary(student_t_spec(0.5), 4000, 1, seeded_rng(3))
    frac_far = float(np.mean(np.abs(bank.omega1) > 10.0))
    # a Gaussian would put ~1e-23 mass out here
    assert frac_far > 0.02


def test_mixture_sampling_respects_weights_and_means():
    spec = MixtureOfGaussians([0.3, 0.7],
                              [[-6.0], [6.0]],
                              [np.eye(1) * 0.25, np.eye(1) * 0.25])
    bank = sample_stationary(spec, 4000, 1, seeded_rng(8))
    frac_left = float(np.mean(bank.omega1[:, 0] < 0))
    # binomial 4-sigma band around 0.3
    assert abs(frac_left - 0.3) < 4.0 * np.sqrt(0.3 * 0.7 / 4000)


def test_per_dim_product_draws_each_family():
    spec = PerDimProduct((GaussianSE([2.0]), LaplacianCauchy([0.5])))
    bank = sample_stationary(spec, 3000, 2, seeded_rng(4))
    p0 = stats.kstest(bank.omega1[:, 0], cdf_fn(GaussianSE([2.0]))).pvalue
    p1 = stats.kstest(bank.omega1[:, 1], cdf_fn(LaplacianCauchy([0.5]))).pvalue
    assert p0 > 0.01 and p1 > 0.01


def test_sampling_is_deterministic_per_seed():
    spec = MaternT(1.5)
    a = sample_stationary(spec, 50, 2, seeded_rng(9)).omega1
    b = sample_stationary(spec, 50, 2, seeded_rng(9)).omega1
    np.testing.assert_array_equal(a, b)


def test_nonstationary_pair_draws_both_sets_from_one_stream():
    spec = GaussianSE([1.0, 1.0])
    bank = sample_nonstationary(spec, spec, 20, 2, seeded_rng(5))
    assert not bank.stationary
    assert np.any(bank.omega1 != bank.omega2)
    twin = seeded_rng(5)
    np.testing.assert_array_equal(bank.omega1, sample_stationary(spec, 20, 2, twin).omega1)
    np.testing.assert_array_equal(bank.omega2, sample_stationary(spec, 20, 2, twin).omega1)


def test_draw_rejects_an_empty_bank():
    for spec, m, d in ((GaussianSE([1.0]), 0, 1), (MaternT(1.5), 3, 0),
                       (PerDimProduct((GaussianSE([1.0]),)), 0, 1)):
        with pytest.raises(IncompatibleDims):
            sample_stationary(spec, m, d, seeded_rng(0))
        with pytest.raises(IncompatibleDims):
            sample_nonstationary(spec, spec, m, d, seeded_rng(0))


def test_empirical_sampling_returns_a_copy():
    # a literal bank is given to training as spec_init, which uses a copy of
    # it; a bank is not a measure to sample from, and one of the wrong
    # dimension is refused by the feature map
    base = FrequencyBank(np.arange(6.0).reshape(3, 2), stationary=True)
    config = TrainConfig(mode=STATIONARY_LEARNED, m=3)
    drawn = _initial_bank(base, np.zeros((4, 2)), config, seeded_rng(0))
    np.testing.assert_array_equal(drawn.omega1, base.omega1)
    assert drawn.omega1 is not base.omega1
    with pytest.raises(UnsupportedSpec):
        sample_stationary(base, 3, 2, seeded_rng(0))
    with pytest.raises(DimensionMismatch):
        features_for_mode(np.zeros((4, 1)), base)


def test_empirical_has_no_density():
    # a literal bank is not a distribution: it has no cdf or quantile
    bank = FrequencyBank(np.ones((2, 1)), stationary=True)
    with pytest.raises(UnsupportedSpec):
        cdf_fn(bank)
    with pytest.raises(UnsupportedSpec):
        quantile_fn(bank)


def test_dimension_mismatch_is_rejected():
    with pytest.raises(IncompatibleDims):
        sample_stationary(GaussianSE([1.0, 1.0]), 10, 3, seeded_rng(0))


# --- copula ---------------------------------------------------------------

def test_copula_identity_correlation_with_normal_marginal_is_identity():
    z = seeded_rng(2).standard_normal((200, 1))
    out = gaussian_copula_transform(z, [quantile_fn(GaussianSE([1.0]))])
    np.testing.assert_allclose(out, z, atol=1e-9)


def test_copula_cauchy_marginal_maps_zero_to_zero():
    out = gaussian_copula_transform(np.zeros((1, 1)),
                                    [quantile_fn(LaplacianCauchy([3.0]))])
    assert out[0, 0] == 0.0


def test_copula_preserves_rank_correlation_exactly():
    # quantile maps are strictly increasing, so per-sample ranks and
    # hence the Spearman statistic are carried over unchanged
    corr = np.array([[1.0, 0.8], [0.8, 1.0]])
    spec = GaussianCopula(corr, (GaussianSE([0.7]), LaplacianCauchy([2.0])))
    bank = sample_stationary(spec, 1500, 2, seeded_rng(12))
    rho = stats.spearmanr(bank.omega1[:, 0], bank.omega1[:, 1]).statistic
    expected = 6.0 / np.pi * np.arcsin(0.8 / 2.0)
    assert rho == pytest.approx(expected, abs=0.06)


def test_copula_accepts_custom_monotone_quantile():
    laplace_q = lambda u: np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 - 2.0 * u))
    z = seeded_rng(13).standard_normal((4000, 1))
    out = gaussian_copula_transform(z, [laplace_q])
    p = stats.kstest(out[:, 0], stats.laplace.cdf).pvalue
    assert p > 0.01


def test_copula_rejects_non_monotone_marginal():
    wiggle = lambda u: np.sin(12.0 * u)
    with pytest.raises(NonMonotoneMarginal):
        gaussian_copula_transform(np.zeros((2, 1)), [wiggle])


def test_copula_spec_validation():
    with pytest.raises(InvalidSpec):
        GaussianCopula(np.array([[1.0, 0.2], [0.3, 1.0]]),
                       (GaussianSE([1.0]), GaussianSE([1.0])))  # asymmetric
    with pytest.raises(InvalidSpec):
        GaussianCopula(np.array([[2.0, 0.0], [0.0, 1.0]]),
                       (GaussianSE([1.0]), GaussianSE([1.0])))  # diagonal != 1
    with pytest.raises(InvalidSpec):
        GaussianCopula(np.eye(2), (GaussianSE([1.0]),))  # marginal count


# --- banks and serialization ----------------------------------------------

def test_stationary_bank_aliases_its_second_set():
    bank = FrequencyBank(np.ones((4, 2)), stationary=True)
    assert bank.omega2 is bank.omega1
    copied = bank.copy()
    copied.omega1[0, 0] = 7.0
    assert bank.omega1[0, 0] == 1.0


def test_bank_validation():
    with pytest.raises(InvalidSpec):
        FrequencyBank(np.ones((2, 2)), np.zeros((2, 2)), stationary=True)
    with pytest.raises(InvalidSpec):
        FrequencyBank(np.ones((2, 2)), stationary=False)
    with pytest.raises(InvalidSpec):
        FrequencyBank(np.ones((2, 2)), np.ones((3, 2)), stationary=False)
    with pytest.raises(InvalidSpec):
        FrequencyBank(np.array([[np.inf]]), stationary=True)


def test_bank_round_trip_is_bit_exact(tmp_path, rng):
    for stationary in (True, False):
        o1 = rng.standard_normal((5, 3))
        bank = (FrequencyBank(o1, stationary=True) if stationary
                else FrequencyBank(o1, rng.standard_normal((5, 3)),
                                   stationary=False))
        path = tmp_path / f"bank_{stationary}.json"
        measures.save_bank(path, bank)
        loaded = measures.load_spec(path)
        assert loaded.stationary == stationary
        np.testing.assert_array_equal(loaded.omega1, bank.omega1)
        np.testing.assert_array_equal(loaded.omega2, bank.omega2)


@pytest.mark.parametrize("spec", [
    GaussianSE([0.5, 2.0]),
    LaplacianCauchy([1.0]),
    MaternT(2.5, 0.3),
    MixtureOfGaussians([0.5, 0.5], [[0.0], [3.0]], [np.eye(1), np.eye(1) * 2.0]),
    GaussianCopula(np.array([[1.0, 0.3], [0.3, 1.0]]),
                   (GaussianSE([1.0]), MaternT(1.5))),
    PerDimProduct((GaussianSE([1.0]), LaplacianCauchy([2.0]))),
])
def test_spec_round_trip(tmp_path, spec):
    path = tmp_path / "spec.json"
    save_spec(path, spec)
    loaded = measures.load_spec(path)
    assert type(loaded) is type(spec)
    rng_a, rng_b = seeded_rng(21), seeded_rng(21)
    d = spec.dim if spec.dim is not None else 2
    a = sample_stationary(spec, 7, d, rng_a).omega1
    b = sample_stationary(loaded, 7, d, rng_b).omega1
    np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=5))
def test_gaussian_spec_round_trip_property(lengthscales):
    spec = GaussianSE(lengthscales)
    loaded = measures.spec_from_json_dict(spec_to_json_dict(spec))
    np.testing.assert_array_equal(loaded.lengthscales, spec.lengthscales)


def test_unknown_family_rejected():
    with pytest.raises(InvalidSpec):
        measures.spec_from_json_dict({"family": "whatever"})


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidSpec):
        GaussianSE([1.0, -1.0])
    with pytest.raises(InvalidSpec):
        LaplacianCauchy([0.0])
    with pytest.raises(InvalidSpec):
        MaternT(-0.5)
    with pytest.raises(InvalidSpec):
        PerDimProduct(())
