"""Banded LAPACK for :class:`~cknstab._discrete.Band`: numpy's own OpenBLAS, else scipy.

numpy's wheels bundle an ILP64 OpenBLAS (``numpy.libs/`` on Linux,
``numpy/.dylibs/`` on macOS) whose Fortran routines ``scipy_dpbtrf_64_``,
``scipy_dpbtrs_64_``, ``scipy_dtbtrs_64_`` and ``scipy_dgbsv_64_`` are called
here through ctypes, so banded LAPACK needs no scipy import.  Where numpy's
library lacks any of the four, scipy's wrappers of the same routines serve,
imported only on that path.
Band storage is that of the LAPACK Users' Guide (Anderson et al., 3rd ed.).

Each argument is a ctypes object of its exact Fortran type (an int64 by
reference, a pointer into a C-contiguous array made here, the hidden length of
each character argument), so no ``argtypes`` are declared: their conversions
would cost about 3 us a call, 10% of a ``dpbtrs`` solve on 1025 points
(2-vCPU x86-64 VM).
"""

import ctypes
from pathlib import Path

import numpy as np

_UPLO, _TRANS, _DIAG = ctypes.c_char_p(b"U"), ctypes.c_char_p(b"T"), ctypes.c_char_p(b"N")
_CHAR_LEN = ctypes.c_size_t(1)


def _openblas():
    """numpy's bundled OpenBLAS, if it exports all four routines; else None."""
    pkg = Path(np.__file__).parent
    for path in sorted([*pkg.parent.glob("numpy.libs/*openblas64_*"),
                        *pkg.glob(".dylibs/*openblas64_*")]):
        try:
            lib = ctypes.CDLL(str(path))
            for name in ("dpbtrf", "dpbtrs", "dtbtrs", "dgbsv"):
                getattr(lib, f"scipy_{name}_64_").restype = None
            return lib
        except (OSError, AttributeError):
            pass
    return None


_LIB = _openblas()


def backend():
    """Where the banded routines come from, for reports."""
    return ("scipy.linalg (fallback)" if _LIB is None
            else f"numpy's OpenBLAS ({Path(_LIB._name).name})")


def _i(v):
    return ctypes.byref(ctypes.c_int64(v))


def _ptr(a, ctype=ctypes.c_double):
    """Pointer to a's data; ctypes refuses an array that is not C-contiguous and writable."""
    return ctypes.byref(ctype.from_buffer(a))


def _columns(b, n):
    """b.T as a C-ordered float64 copy (LAPACK's column-major right-hand sides,
    overwritten by the solution) and its column count; b must be finite with n rows."""
    xt = np.array(np.asarray(b).T, dtype=np.float64, order="C")
    if xt.ndim not in (1, 2) or xt.shape[-1] != n or not np.isfinite(xt).all():
        raise ValueError(f"right-hand side of shape {xt.T.shape} needs {n} rows of finite values")
    return xt, _i(1 if xt.ndim == 1 else len(xt))


def _check(info, routine, why=""):
    if info > 0:
        raise np.linalg.LinAlgError(why)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")


def cho_solver(ab):
    """The solve b -> A^{-1} b for a banded SPD A = U^T U in LAPACK upper
    layout; its attribute ``half`` is the solve b -> U^{-T} b.

    The Cholesky factor U is computed here, once, as ``cholesky_banded`` does,
    and so is every ``dpbtrs`` and ``dtbtrs`` argument but the right-hand side.
    ``half`` is one triangular sweep, where the full solve takes two, and
    ``|U^{-T} b|^2 = b . A^{-1} b``.
    """
    if _LIB is None:
        from scipy.linalg import cholesky_banded
        from scipy.linalg.lapack import dpbtrs, dtbtrs
        c = cholesky_banded(ab)

        def solve(b):
            x, info = dpbtrs(c, _columns(b, c.shape[1])[0].T)
            _check(info, "dpbtrs")
            return x

        def half_solve(b):
            x, info = dtbtrs(c, _columns(b, c.shape[1])[0].T, trans="T")
            _check(info, "dtbtrs", "singular matrix")
            return x
        solve.half = half_solve
        return solve
    ct = np.array(np.asarray_chkfinite(ab).T, dtype=np.float64, order="C")  # factor.T
    n, ldab = ct.shape  # a band that is not 2-D stops here
    head, band = (_UPLO, _i(n), _i(ldab - 1)), (_ptr(ct), _i(ldab))
    info = ctypes.c_int64()
    _LIB.scipy_dpbtrf_64_(*head, *band, ctypes.byref(info), _CHAR_LEN)
    _check(info.value, "dpbtrf", f"{info.value}-th leading minor not positive definite")

    def solve(b):
        xt, nrhs = _columns(b, n)
        info = ctypes.c_int64()
        _LIB.scipy_dpbtrs_64_(*head, nrhs, *band, _ptr(xt), head[1], ctypes.byref(info),
                              _CHAR_LEN)
        _check(info.value, "dpbtrs")
        return xt.T

    def half_solve(b):
        xt, nrhs = _columns(b, n)
        info = ctypes.c_int64()
        _LIB.scipy_dtbtrs_64_(_UPLO, _TRANS, _DIAG, *head[1:], nrhs, *band, _ptr(xt), head[1],
                              ctypes.byref(info), _CHAR_LEN, _CHAR_LEN, _CHAR_LEN)
        _check(info.value, "dtbtrs", "singular matrix")
        return xt.T
    solve.half = half_solve
    return solve


def solve_banded(l_and_u, ab, b):
    """x = A^{-1} b by banded LU, A in the diagonal-ordered form of scipy's solve_banded."""
    if _LIB is None:
        from scipy.linalg import solve_banded
        return solve_banded(l_and_u, ab, b)
    (kl, ku), ab = l_and_u, np.asarray_chkfinite(ab)
    n = ab.shape[-1]
    if ab.shape != (kl + ku + 1, n):
        raise ValueError(f"band of shape {ab.shape} does not hold {kl} + {ku} diagonals")
    xt, nrhs = _columns(b, n)
    lut = np.zeros((n, 2 * kl + ku + 1))  # kl more rows for the fill-in of pivoting
    lut[:, kl:] = ab.T
    ipiv, info = np.empty(n, dtype=np.int64), ctypes.c_int64()
    _LIB.scipy_dgbsv_64_(_i(n), _i(kl), _i(ku), nrhs, _ptr(lut), _i(lut.shape[1]),
                         _ptr(ipiv, ctypes.c_int64), _ptr(xt), _i(n), ctypes.byref(info))
    _check(info.value, "dgbsv", "singular matrix")
    return xt.T
