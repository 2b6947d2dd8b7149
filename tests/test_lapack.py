"""The banded LAPACK binding against scipy's wrappers, on both backends.

scipy stays the oracle here: on numpy's OpenBLAS every solve must equal
``cholesky_banded`` + ``cho_solve_banded`` (``dtbtrs`` for the half solve) and
``solve_banded`` bit for bit, and the forced scipy fallback must give the same
bits and raise the same errors.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dtbtrs

from cknstab import _lapack
from cknstab._discrete import Band

H = 0.05


@pytest.fixture(params=["openblas", "fallback"])
def backend(request, monkeypatch):
    if request.param == "fallback":
        monkeypatch.setattr(_lapack, "_LIB", None)
    elif _lapack._LIB is None:
        pytest.skip("numpy's OpenBLAS lacks the banded routines on this install")
    return request.param


def test_backend_is_named(backend):
    assert ("fallback" in _lapack.backend()) == (backend == "fallback")


def band(N, parity, shift):
    """The stencil plus an even potential and a shift, on the full grid or a fold."""
    half = np.random.default_rng(N).uniform(0.5, 2.0, (N - 1) // 2 + 1)
    full = Band.neg_d2(N, H).shifted(np.concatenate([half[:0:-1], half]) + shift)
    return full if parity is None else full.fold(parity)


def general_rows(b):
    """The (5, n) diagonal-ordered form of solve_banded((2, 2), ...)."""
    u2, u1, d = b.ab
    return np.array([u2, u1, d, np.append(u1[1:], 0.0), np.append(u2[2:], [0.0, 0.0])])


def rhs(n, ncols):
    shape = (n,) if ncols is None else (n, ncols)
    return np.random.default_rng(n).standard_normal(shape)


CASES = [(N, parity, ncols) for N in (129, 131) for parity in (None, "even", "odd")
         for ncols in (None, 2)]


@pytest.mark.parametrize("N,parity,ncols", CASES)
def test_cholesky_matches_scipy_bitwise(backend, N, parity, ncols):
    A = band(N, parity, 0.0)
    b = rhs(A.n, ncols)
    x = A.cho_solve(b)
    assert x.shape == b.shape
    assert np.array_equal(x, sla.cho_solve_banded((sla.cholesky_banded(A.ab), False), b))
    assert np.array_equal(A.cho_solve(b), x)  # again through the stored factor


@pytest.mark.parametrize("N,parity,ncols", CASES)
def test_half_solve_matches_scipy_dtbtrs_bitwise(backend, N, parity, ncols):
    A = band(N, parity, 0.0)
    b = rhs(A.n, ncols)
    y = A.cho_half_solve(b)
    want, info = dtbtrs(sla.cholesky_banded(A.ab), b, trans="T")
    assert info == 0 and y.shape == b.shape
    assert np.array_equal(y, want)
    assert float(np.sum(y * y)) == pytest.approx(float(np.sum(b * A.cho_solve(b))), rel=1e-13)


@pytest.mark.parametrize("shift", [0.0, -3.0e2], ids=["spd", "indefinite"])
@pytest.mark.parametrize("N,parity,ncols", CASES)
def test_lu_matches_scipy_bitwise(backend, N, parity, ncols, shift):
    A = band(N, parity, shift)
    b = rhs(A.n, ncols)
    x = A.solve(b)
    assert x.shape == b.shape
    assert np.array_equal(x, sla.solve_banded((2, 2), general_rows(A), b))


def test_non_spd_band_raises(backend):
    A = band(129, None, -3.0e2)
    with pytest.raises(np.linalg.LinAlgError, match="leading minor not positive definite"):
        A.cho_solve(np.ones(A.n))


def test_singular_band_raises(backend):
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        Band(np.zeros((3, 129))).solve(np.ones(129))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_raises(backend, bad):
    ab = band(129, None, 0.0).ab.copy()
    ab[2, 7] = bad
    with pytest.raises(ValueError):
        Band(ab).cho_solve(np.ones(129))
    with pytest.raises(ValueError):
        Band(ab).solve(np.ones(129))
    b = np.ones(129)
    b[7] = bad
    A = band(129, None, 0.0)
    with pytest.raises(ValueError):
        A.cho_solve(b)
    with pytest.raises(ValueError):
        A.solve(b)


@pytest.mark.parametrize("n", [128, 130])
def test_bad_shape_raises(backend, n):
    A = band(129, None, 0.0)
    with pytest.raises(ValueError):
        A.cho_solve(np.ones(n))
    with pytest.raises(ValueError):
        A.solve(np.ones(n))
    with pytest.raises(ValueError):
        _lapack.solve_banded((2, 2), general_rows(A)[:4], np.ones(129))


def test_binding_checks_what_it_passes_to_lapack():
    """The OpenBLAS path checks a band's and a right-hand side's shapes itself,
    not only through Band.cho_solve's guard."""
    if _lapack._LIB is None:
        pytest.skip("numpy's OpenBLAS lacks the banded routines on this install")
    ab = band(129, None, 0.0).ab
    solve = _lapack.cho_solver(ab)
    for b in (np.ones(130), np.ones(128), np.ones((129, 2, 2))):
        with pytest.raises(ValueError, match="needs 129 rows"):
            solve(b)
        with pytest.raises(ValueError, match="needs 129 rows"):
            _lapack.solve_banded((2, 2), general_rows(Band(ab)), b)
    for bad in (ab[2], ab[None]):
        with pytest.raises(ValueError):
            _lapack.cho_solver(bad)


@pytest.mark.parametrize("n", [128, 130])
def test_half_solve_rejects_bad_input(backend, n):
    A = band(129, None, 0.0)
    with pytest.raises(ValueError):
        A.cho_half_solve(np.ones(n))
    b = np.ones(129)
    b[7] = np.nan
    with pytest.raises(ValueError):
        A.cho_half_solve(b)


def test_half_solve_binding_checks_row_count():
    if _lapack._LIB is None:
        pytest.skip("numpy's OpenBLAS lacks the banded routines on this install")
    half = _lapack.cho_solver(band(129, None, 0.0).ab).half
    for b in (np.ones(130), np.ones(128), np.ones((129, 2, 2))):
        with pytest.raises(ValueError, match="needs 129 rows"):
            half(b)
