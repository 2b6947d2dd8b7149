"""The banded core against dense numpy oracles at small N."""

import numpy as np
import pytest

from cknstab import _discrete
from cknstab._discrete import (
    Band, fold, fold_weights, newton_ground_state, nonlinearity, unfold,
)

H = 0.05


def dense_neg_d2(N, h):
    """-d^2 by the 4th-order stencil, written out entry by entry."""
    c = 1.0 / (12.0 * h * h)
    A = np.zeros((N, N))
    for i in range(N):
        for j, a in ((i - 2, 1.0), (i - 1, -16.0), (i, 30.0), (i + 1, -16.0), (i + 2, 1.0)):
            if 0 <= j < N:
                A[i, j] = a * c
    return A


def extension(N, parity):
    """Dense E: half-grid values to the even or odd full-grid vector."""
    mid = (N - 1) // 2
    if parity is None:
        return np.eye(N)
    cols = range(mid + 1) if parity == "even" else range(1, mid + 1)
    E = np.zeros((N, len(cols)))
    for c, j in enumerate(cols):
        E[mid + j, c] = 1.0
        E[mid - j, c] = 1.0 if parity == "even" else -1.0
    return E


def upper_rows(A):
    """The three upper rows of A in LAPACK layout, from the dense matrix."""
    n = len(A)
    ab = np.zeros((3, n))
    for k in range(3):
        ab[2 - k, k:] = np.diagonal(A, k)
    return ab


def potential(N, seed):
    """An even potential, so that the operator is reflection symmetric."""
    half = np.random.default_rng(seed).uniform(0.5, 2.0, (N - 1) // 2 + 1)
    return np.concatenate([half[:0:-1], half])


CASES = [(N, parity) for N in (129, 131) for parity in (None, "even", "odd")]


def band_and_dense(N, parity, seed=0):
    pot = potential(N, seed)
    full = Band.neg_d2(N, H).shifted(pot)
    E = extension(N, parity)
    dense = E.T @ (dense_neg_d2(N, H) + np.diag(pot)) @ E
    return (full if parity is None else full.fold(parity)), dense


@pytest.mark.parametrize("N,parity", CASES)
def test_band_rows_match_dense_form(N, parity):
    band, dense = band_and_dense(N, parity)
    assert band.n == len(dense)
    np.testing.assert_allclose(band.ab, upper_rows(dense), rtol=1e-14, atol=0.0)
    assert np.all(np.triu(dense, 3) == 0.0)
    assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("N,parity", CASES)
def test_band_matvec_matches_dense(N, parity):
    band, dense = band_and_dense(N, parity)
    x = np.random.default_rng(1).standard_normal(band.n)
    np.testing.assert_allclose(band @ x, dense @ x, rtol=1e-12, atol=1e-12 * np.max(np.abs(dense @ x)))


@pytest.mark.parametrize("N,parity", CASES)
def test_band_solves_match_dense(N, parity):
    band, dense = band_and_dense(N, parity)
    b = np.random.default_rng(2).standard_normal(band.n)
    x = np.linalg.solve(dense, b)
    scale = np.max(np.abs(x))
    assert np.max(np.abs(band.solve(b) - x)) <= 1e-12 * scale
    assert np.max(np.abs(band.cho_solve(b) - x)) <= 1e-12 * scale
    assert "_cholesky" in vars(band)  # the factor is kept for later solves


def test_lu_solves_indefinite_band():
    N = 129
    band = Band.neg_d2(N, H).shifted(-3.0e2)
    dense = dense_neg_d2(N, H) - 3.0e2 * np.eye(N)
    assert np.min(np.linalg.eigvalsh(dense)) < 0.0
    b = np.random.default_rng(3).standard_normal(N)
    x = np.linalg.solve(dense, b)
    assert np.max(np.abs(band.solve(b) - x)) <= 1e-12 * np.max(np.abs(x))
    with pytest.raises(np.linalg.LinAlgError):
        band.cho_solve(b)


def test_cho_solve_rejects_bad_rhs():
    band = Band.neg_d2(129, H).shifted(1.0)
    for bad in (np.nan, np.inf):
        b = np.ones(129)
        b[7] = bad
        with pytest.raises(ValueError, match="finite"):
            band.cho_solve(b)
    with pytest.raises(ValueError, match="129 rows"):
        band.cho_solve(np.ones(130))


@pytest.mark.parametrize("N", [129, 131])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_fold_unfold_roundtrip(N, parity):
    E = extension(N, parity)
    y = np.random.default_rng(4).standard_normal(E.shape[1])
    x = E @ y
    assert np.array_equal(fold(x, parity), y)
    assert np.array_equal(unfold(fold(x, parity), parity), x)
    assert np.array_equal(fold_weights(N, parity), np.diag(E.T @ E))
    assert np.array_equal(E.T @ x, fold_weights(N, parity) * fold(x, parity))


def test_band_is_frozen():
    band = Band.neg_d2(129, H)
    with pytest.raises(ValueError):
        band.ab[2, 0] = 0.0


def test_newton_raises_when_not_converged(par34, cyl34, monkeypatch):
    # two steps from 1.5 V0 leave a residual of about 0.2, far above the target
    monkeypatch.setattr(_discrete, "NEWTON_STEPS", 2)
    with pytest.raises(ArithmeticError, match="Newton residual"):
        newton_ground_state(cyl34.neg_d2, par34.Lam, par34.p, 1.5 * cyl34.bubble())


@pytest.mark.parametrize("p", [3.0, 4.0, 3.5, 2.6])
def test_nonlinearity_matches_pow_form(p):
    rng = np.random.default_rng(11)
    z = rng.standard_normal(4001) * 10.0 ** rng.uniform(-6.0, 3.0, 4001)
    z[::40] = 0.0
    # within 2 ulp, not bitwise: a vectorized pow need not be correctly rounded
    np.testing.assert_array_max_ulp(nonlinearity(z, p), np.abs(z) ** (p - 2.0) * z, maxulp=2)
