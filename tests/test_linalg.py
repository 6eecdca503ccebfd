import numpy as np
import pytest

from spectral_rff import linalg
from spectral_rff.errors import (DimensionMismatch, FactorizationFailed,
                                 NonSquare, NonSymmetric)


def test_cholesky_hand_case():
    # [[4,2],[2,3]] factors as [[2,0],[1,sqrt(2)]]
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    r, jitter = linalg.cholesky(a)
    assert jitter == 0.0
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    np.testing.assert_allclose(r, expected, rtol=0, atol=1e-15)


def test_cholesky_reconstructs(rng):
    for _ in range(20):
        n = int(rng.integers(1, 9))
        b = rng.standard_normal((n, n))
        a = b @ b.T + n * np.eye(n)
        r, jitter = linalg.cholesky(a)
        assert jitter == 0.0
        np.testing.assert_allclose(r @ r.T, a, rtol=1e-12, atol=1e-12)
        assert np.all(np.diag(r) > 0)
        assert np.allclose(r, np.tril(r))


def test_cholesky_rejects_nonsquare_and_asymmetric():
    with pytest.raises(NonSquare):
        linalg.cholesky(np.ones((2, 3)))
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NonSymmetric):
        linalg.cholesky(a)


@pytest.mark.parametrize("factor,symmetric", [(1.01, False), (0.99, True)])
def test_cholesky_symmetry_tolerance_edges(factor, symmetric):
    # the tolerance scales with the largest entry, here 5
    tol = linalg.SYMMETRY_TOL * 5.0
    a = np.array([[5.0, 1.0], [1.0, 5.0]])
    a[0, 1] += factor * tol
    assert abs(a[0, 1] - a[1, 0]) == pytest.approx(factor * tol, rel=1e-3)
    if symmetric:
        r, jitter = linalg.cholesky(a)
        assert jitter == 0.0
        np.testing.assert_allclose(r @ r.T, np.tril(a) + np.tril(a, -1).T, atol=1e-12)
    else:
        with pytest.raises(NonSymmetric):
            linalg.cholesky(a)


def test_cholesky_rejects_nan_before_checking_symmetry():
    # NaN skew compares false against the tolerance, so the finiteness
    # check must come first; this matrix is asymmetric as well
    a = np.array([[1.0, 5.0], [0.0, np.nan]])
    with pytest.raises(FactorizationFailed, match="non-finite"):
        linalg.cholesky(a)
    # a symmetric NaN is not equal to itself, so it must not reach dpotrf
    # through the exact-symmetry fast path either
    with pytest.raises(FactorizationFailed, match="non-finite"):
        linalg.cholesky(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_cholesky_factor_is_fortran_ordered_and_exactly_lower(rng):
    b = rng.standard_normal((30, 12))
    r, _ = linalg.cholesky(linalg.gram(b) + np.eye(12))
    assert r.flags.f_contiguous
    assert not np.any(np.triu(r, 1))


def test_cholesky_climbs_the_jitter_ladder_one_dpotrf_per_rung(monkeypatch):
    # indefinite by 3e-9 with mean diagonal 0.5: dpotrf reports a
    # non-positive pivot (info > 0) at the 0 and 1e-10 rungs and
    # succeeds at 1e-8, adding 5e-9 to the diagonal
    a = np.diag([1.0, -3e-9])
    pivots = []

    def counting(target, **kwargs):
        pivots.append(target[1, 1])
        return real(target, **kwargs)

    real = linalg.dpotrf
    monkeypatch.setattr(linalg, "dpotrf", counting)
    r, jitter = linalg.cholesky(a)
    assert jitter == pytest.approx(5e-9, rel=1e-12)
    np.testing.assert_allclose(pivots, [-3e-9, -3e-9 + 5e-11, 2e-9], rtol=1e-6)
    np.testing.assert_allclose(r @ r.T, a + jitter * np.eye(2), atol=1e-15)


def test_cholesky_and_gram_write_into_given_buffers(rng):
    # f2py copies a buffer of the wrong order without a word, so the factor
    # must come back in the buffer itself, on every rung of the ladder
    b = rng.standard_normal((30, 12))
    gram = np.empty((12, 12))
    assert np.shares_memory(linalg.gram(b, gram), gram)
    np.testing.assert_array_equal(gram, linalg.gram(b))
    gram += np.eye(12)
    for a in (gram, np.diag([1.0, -3e-9])):   # no jitter, then three rungs
        kept = a.copy()
        out = np.empty(a.shape, order="F")
        r, jitter = linalg.cholesky(a, out=out)
        ref, ref_jitter = linalg.cholesky(a)
        assert np.shares_memory(r, out) and jitter == ref_jitter
        np.testing.assert_array_equal(r, ref)
        np.testing.assert_array_equal(a, kept)


def test_cholesky_raises_when_dpotrf_rejects_an_argument(monkeypatch):
    monkeypatch.setattr(linalg, "dpotrf", lambda a, **kwargs: (a, -4))
    with pytest.raises(FactorizationFailed, match="argument 4"):
        linalg.cholesky(np.eye(2))


def test_solve_factored_inverts_the_factored_matrix(rng):
    b = rng.standard_normal((5, 5))
    a = b @ b.T + 5 * np.eye(5)
    r, _ = linalg.cholesky(a)
    rhs = rng.standard_normal(5)
    np.testing.assert_allclose(a @ linalg.solve_factored(r, rhs), rhs, rtol=1e-12, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        linalg.solve_factored(r, np.ones(4))
    with pytest.raises(DimensionMismatch):
        linalg.solve_factored(r, np.ones((5, 1, 1)))


def test_inverse_lower_matches_a_triangular_solve(rng):
    b = rng.standard_normal((6, 6))
    r, _ = linalg.cholesky(b @ b.T + 6 * np.eye(6))
    np.testing.assert_allclose(linalg.inverse_lower(r) @ r, np.eye(6), atol=1e-12)


def test_cholesky_jitter_rescues_singular_matrix():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    r, jitter = linalg.cholesky(a)
    assert jitter > 0.0
    # the smallest rung that makes [[1,1],[1,1]] factorizable
    assert jitter in (1e-10, 1e-8, 1e-6)
    np.testing.assert_allclose(r @ r.T, a + jitter * np.eye(2), atol=1e-12)


def test_cholesky_fails_on_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(FactorizationFailed):
        linalg.cholesky(a)


def test_solve_lower_hand_case():
    r = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    b = np.array([2.0, 1.0 + np.sqrt(2.0)])
    np.testing.assert_allclose(linalg.solve_lower(r, b), [1.0, 1.0], atol=1e-14)


def test_solve_upper_hand_case():
    rt = np.array([[2.0, 1.0], [0.0, np.sqrt(2.0)]])
    b = np.array([3.0, np.sqrt(2.0)])
    np.testing.assert_allclose(linalg.solve_upper(rt, b), [1.0, 1.0], atol=1e-14)


def test_solvers_invert_cholesky(rng):
    b = rng.standard_normal((5, 5))
    a = b @ b.T + 5 * np.eye(5)
    r, _ = linalg.cholesky(a)
    rhs = rng.standard_normal(5)
    x = linalg.solve_upper(r.T, linalg.solve_lower(r, rhs))
    np.testing.assert_allclose(a @ x, rhs, rtol=1e-10, atol=1e-10)


def test_solvers_validate_triangularity():
    bad_diag = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        linalg.solve_lower(bad_diag, np.ones(2))
    not_lower = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        linalg.solve_lower(not_lower, np.ones(2))
    with pytest.raises(DimensionMismatch):
        linalg.solve_lower(np.eye(2), np.ones(3))


def test_seeded_rng_reproducible():
    a = linalg.seeded_rng(123).standard_normal(8)
    b = linalg.seeded_rng(123).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = linalg.seeded_rng(124).standard_normal(8)
    assert np.any(a != c)


def test_spawned_rngs_are_independent_and_reproducible():
    r1, r2 = linalg.spawn_rngs(7, 2)
    s1, s2 = linalg.spawn_rngs(7, 2)
    a, b = r1.standard_normal(4), r2.standard_normal(4)
    np.testing.assert_array_equal(a, s1.standard_normal(4))
    np.testing.assert_array_equal(b, s2.standard_normal(4))
    assert np.any(a != b)


def test_standard_normal_moments():
    # CLT bounds: mean within 4 sigma/sqrt(N), second moment similar
    draws = linalg.seeded_rng(5).standard_normal((2000, 50))
    n = draws.size
    assert abs(draws.mean()) < 4.0 / np.sqrt(n)
    assert abs((draws ** 2).mean() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_gram_matches_definition(rng):
    phi = rng.standard_normal((7, 4))
    np.testing.assert_allclose(linalg.gram(phi), phi.T @ phi, rtol=1e-15)
