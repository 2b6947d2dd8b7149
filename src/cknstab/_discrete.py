"""The banded core shared by the axial solvers.

Every axial operator in the package is the 4th-order central stencil of
-d^2/ds^2 on a uniform grid plus a diagonal (a constant shift or a
potential), either on the full grid or folded onto one parity class.
:class:`Band` stores such a symmetric pentadiagonal matrix by its upper band
and provides the matvec, a banded LU solve, and a banded Cholesky solve and
half solve whose factor is computed once per operator.  The LAPACK behind the
solves is numpy's bundled OpenBLAS, or scipy's where numpy's lacks it (see
``_lapack``).

Homogeneous Dirichlet data at the endpoints is realized by zero extension:
the 5-point stencil simply sees zeros beyond the grid.  Fields that reach the
boundary with non-negligible values violate the discretization contract and
are caught upstream.

Parity classes live on half grids.  With m = (N-1)//2 the even half grid
carries the full-grid indices m..N-1 (index 0 is s = 0) and the odd half grid
m+1..N-1.  E is the extension from a half grid to the full grid
(:func:`unfold`); :func:`fold` restricts a vector of that parity to its half
grid, and ``E^T E`` is the diagonal :func:`fold_weights`.
"""

from functools import cached_property

import numpy as np

from ._lapack import cho_solver, solve_banded


class Band:
    """Symmetric pentadiagonal matrix stored by its upper band.

    ``ab`` has the LAPACK upper layout of ``solveh_banded``: ``ab[2]`` is the
    diagonal, ``ab[1, j] = A[j-1, j]`` and ``ab[0, j] = A[j-2, j]``; the unused
    corner ``ab[1, 0]``, ``ab[0, :2]`` holds zeros.  The array is frozen, so
    the Cholesky factor, once computed, stays valid for the operator's life.
    """

    def __init__(self, ab):
        ab.flags.writeable = False
        self.ab = ab
        self.n = ab.shape[1]

    @classmethod
    def neg_d2(cls, N, h):
        """-d^2/ds^2 by the 4th-order central stencil on N points, zero extension."""
        c = 1.0 / (12.0 * h * h)
        ab = np.array([[1.0 * c], [-16.0 * c], [30.0 * c]]).repeat(N, axis=1)
        ab[1, 0] = ab[0, :2] = 0.0
        return cls(ab)

    def shifted(self, diag):
        """The operator plus a diagonal (a scalar shift or a potential)."""
        return Band(np.vstack([self.ab[:2], self.ab[2] + diag]))

    def __rmul__(self, c):
        return Band(c * self.ab)

    def __matmul__(self, x):
        # row i adds its i-2, ..., i+2 terms to zero in that order; another
        # order would move the last bits of every output built on it
        u2, u1, d = self.ab
        y = np.zeros_like(x, dtype=float)
        y[2:] += u2[2:] * x[:-2]
        y[1:] += u1[1:] * x[:-1]
        y += d * x
        y[:-1] += u1[1:] * x[1:]
        y[:-2] += u2[2:] * x[2:]
        return y

    def fold(self, parity):
        """The form E^T A E on the "even" or "odd" half grid.

        Assumes A is even under reflection about the grid center, as the
        stencil plus an even potential is; then the folded band is twice the
        right half of A, corrected where the stencil reaches across s = 0.
        """
        mid = (self.n - 1) // 2
        u2, _, d = self.ab
        if parity == "even":
            ab = 2.0 * self.ab[:, mid:]
            ab[2, 0] = d[mid]
            ab[2, 1] = 2.0 * (d[mid + 1] + u2[mid + 1])
        else:
            ab = 2.0 * self.ab[:, mid + 1:]
            ab[2, 0] = 2.0 * (d[mid + 1] - u2[mid + 1])
        ab[1, 0] = ab[0, :2] = 0.0
        return Band(ab)

    def solve(self, b):
        """Solve A x = b by banded LU; A need not be definite."""
        u2, u1, d = self.ab
        lower = [np.append(u1[1:], 0.0), np.append(u2[2:], [0.0, 0.0])]
        return solve_banded((2, 2), np.array([u2, u1, d, *lower]), b)

    @cached_property
    def _cholesky(self):
        return cho_solver(self.ab)

    def cho_solve(self, b):
        """Solve A x = b for positive definite A through the stored factor.

        Raises ``numpy.linalg.LinAlgError`` when A is not positive definite,
        and ``ValueError`` when b is not finite or has not one row per grid
        point, checked once as the binding copies b.  This is the LAPACK call
        that ``cho_solve_banded`` makes, so the solution is the same bit for bit.
        """
        return self._cholesky(b)

    def cho_half_solve(self, b):
        """U^{-T} b, where A = U^T U is the stored factor, so that its squared
        length is b . A^{-1} b: one triangular sweep, where ``cho_solve``
        takes two.  Raises as ``cho_solve`` does."""
        return self._cholesky.half(b)


def fold(x, parity):
    """Restriction of a full-grid vector to the "even" or "odd" half grid."""
    mid = (len(x) - 1) // 2
    return x[mid:] if parity == "even" else x[mid + 1:]


def unfold(x, parity):
    """The extension E: the even or odd full-grid vector with half values x."""
    if parity == "even":
        return np.concatenate([x[:0:-1], x])
    return np.concatenate([-x[::-1], [0.0], x])


def fold_weights(N, parity):
    """Diagonal of E^T E: E^T x = fold_weights * fold(x) for x of the parity."""
    w = np.full((N - 1) // 2 + (parity == "even"), 2.0)
    if parity == "even":
        w[0] = 1.0
    return w


def nonlinearity(z, p):
    """The pointwise map |z|^{p-2} z, by multiplication at p = 3 and p = 4."""
    if p == 3.0:
        return np.abs(z) * z
    if p == 4.0:
        return z * z * z
    return np.abs(z) ** (p - 2.0) * z


NEWTON_STEPS = 12  # Newton steps before newton_ground_state gives up


def newton_ground_state(D2, lam, p, v_init):
    """Discrete positive ground state of -v'' + lam v = v^{p-1}, with -d^2 the band D2.

    Solves on the even half grid (the state is even, and the odd translation
    mode would otherwise make the Jacobian numerically singular).  Returns the
    full-grid profile; the residual of the returned iterate is at roundoff
    level of the stencil, so downstream constructions built from it cancel to
    machine precision instead of to the sampling error of the continuum state.
    Raises ``ArithmeticError`` when the residual still misses that level
    (1e-13 of the stencil's diagonal times the peak) after ``NEWTON_STEPS`` steps.
    """
    A = D2.fold("even")
    w = fold_weights(D2.n, "even")
    v = fold(np.asarray(v_init, dtype=float), "even")
    scale = D2.ab[2, 0] * float(np.max(v))
    for it in range(NEWTON_STEPS + 1):  # the last pass only checks the last step
        # w holds 1s and 2s, so scaling by it is exact and the grouping free
        F = A @ v + lam * (w * v) - w * nonlinearity(v, p)
        res = float(np.max(np.abs(F)))
        if res < 1e-13 * scale:
            return unfold(v, "even")
        if it == NEWTON_STEPS:
            raise ArithmeticError(
                f"ground-state Newton residual {res:.2e} above "
                f"{1e-13 * scale:.2e} after {NEWTON_STEPS} steps"
            )
        J = A.shifted(lam * w - (p - 1.0) * w * np.abs(v) ** (p - 2.0))
        v = v - J.solve(F)
