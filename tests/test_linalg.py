"""Guarded symmetric linear algebra and the factored Kronecker covariance."""

import numpy as np
import pytest

from refac.errors import SingularMatrixError
from refac.linalg import (KroneckerPSD, guarded_eigh, population_covariance,
                          psd_sqrt, sym_inv_sqrt, sym_inverse, sym_sqrt)
from refac.rng import stream


def _random_spd(rng, dim, spread=1.0):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + spread * np.eye(dim)


def test_population_covariance_matches_numpy():
    rng = stream(10, 0)
    a = rng.standard_normal((40, 3))
    np.testing.assert_allclose(population_covariance(a),
                               np.cov(a, rowvar=False, ddof=1), atol=1e-12)


def test_population_cross_covariance():
    rng = stream(10, 1)
    a = rng.standard_normal((30, 2))
    b = rng.standard_normal((30, 4))
    got = population_covariance(a, b)
    ca, cb = a - a.mean(axis=0), b - b.mean(axis=0)
    np.testing.assert_allclose(got, ca.T @ cb / 29.0, atol=1e-12)
    assert got.shape == (2, 4)


def test_population_covariance_accepts_vectors():
    rng = stream(10, 2)
    v = rng.standard_normal(25)
    got = population_covariance(v)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(np.var(v, ddof=1))


def test_sym_helpers_invert_and_factor():
    rng = stream(11, 0)
    m = _random_spd(rng, 5)
    np.testing.assert_allclose(sym_inverse(m) @ m, np.eye(5), atol=1e-10)
    root = sym_sqrt(m)
    np.testing.assert_allclose(root @ root, m, atol=1e-10)
    isqrt = sym_inv_sqrt(m)
    np.testing.assert_allclose(isqrt @ m @ isqrt, np.eye(5), atol=1e-10)


def test_guarded_eigh_names_the_matrix():
    singular = np.ones((3, 3))
    with pytest.raises(SingularMatrixError, match="my gram"):
        guarded_eigh(singular, name="my gram")
    with pytest.raises(SingularMatrixError):
        sym_inverse(np.diag([1.0, 1e-15]))
    # every comparison with NaN is false, so a guard phrased as "fail when
    # below the floor" once let NaN and inf matrices through
    for bad in (np.nan, np.inf):
        with pytest.raises(SingularMatrixError, match="my gram"):
            guarded_eigh(np.array([[1.0, bad], [bad, 2.0]]), name="my gram")
        with pytest.raises(SingularMatrixError, match="group 2"):
            guarded_eigh(np.stack([np.eye(2), np.diag([1.0, bad])]), name="group {}")


def test_psd_sqrt_tolerates_round_off_only():
    rng = stream(11, 1)
    m = _random_spd(rng, 4)
    low = np.linalg.eigvalsh(m)[0]
    jittered = m - (low + 1e-12) * np.eye(4)  # smallest eigenvalue ~ -1e-12
    root = psd_sqrt(jittered)
    np.testing.assert_allclose(root @ root, jittered, atol=1e-8)
    with pytest.raises(SingularMatrixError):
        psd_sqrt(np.diag([1.0, -1e-3]))
    for bad in (np.nan, np.inf):
        with pytest.raises(SingularMatrixError):
            psd_sqrt(np.array([[1.0, bad], [bad, 2.0]]))


def test_kronecker_dense_routes_agree():
    rng = stream(12, 0)
    left = _random_spd(rng, 3)
    right = _random_spd(rng, 4)
    kron = KroneckerPSD(left, right)
    dense = np.kron(left, right)
    np.testing.assert_allclose(kron.dense(), dense, atol=1e-12)
    np.testing.assert_allclose(kron.inv_dense(), np.linalg.inv(dense), atol=1e-9)
    isqrt = kron.inv_sqrt_dense()
    np.testing.assert_allclose(isqrt @ isqrt, np.linalg.inv(dense), atol=1e-9)


def test_kronecker_quadform_matches_dense_and_batches():
    rng = stream(12, 1)
    left = _random_spd(rng, 2)
    right = _random_spd(rng, 3)
    kron = KroneckerPSD(left, right)
    inv = np.linalg.inv(np.kron(left, right))
    v = rng.standard_normal(6)
    assert kron.inv_quadform(v) == pytest.approx(v @ inv @ v, rel=1e-10)
    batch = rng.standard_normal((7, 6))
    got = kron.inv_quadform(batch)
    expected = np.einsum("bi,ij,bj->b", batch, inv, batch)
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_kronecker_rejects_singular_factors():
    with pytest.raises(SingularMatrixError, match="left factor"):
        KroneckerPSD(np.ones((2, 2)), np.eye(3))
