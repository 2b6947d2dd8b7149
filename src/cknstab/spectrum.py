"""Generalized eigenproblem of the linearized operator, one harmonic sector
at a time:

    -phi'' + (l(l+n-2) + Lambda) phi = gamma V0^{p-2} phi  on [-S, S].

The pencil (A, B) has A symmetric positive definite (pentadiagonal stencil
plus positive mass) and B the diagonal bubble weight, which is strictly
positive but exponentially small in the tails; the smallest eigenvalues are
extracted by shift-invert Lanczos about gamma = 0, which never divides by the
tiny tail weights.  Even and odd axial parities are solved separately and
merged, so the translation mode and the ground state never mix numerically.
Each folded pencil is factored once by banded Cholesky, and that factor is
the shift-invert operator of every Lanczos step.
The Lanczos start vector is fixed, so the eigenpairs are a deterministic
function of the cylinder and reruns give bitwise-identical output.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from ._discrete import fold, fold_weights, unfold

__all__ = ["SectorSpectrum", "eigensolve_sector", "gamma3", "sector_walk"]

B_FLOOR = 1e-300  # keeps the pencil definite where the weight underflows
GAP_MARGIN = 1e-6  # a gap candidate must exceed p - 1 by more than this


@dataclass(frozen=True)
class SectorSpectrum:
    """Eigenvalues (ascending) and B-normalized eigenprofiles of one sector."""

    ell: int
    eigenvalues: np.ndarray
    eigenprofiles: np.ndarray  # shape (k, N)
    residuals: np.ndarray      # relative pencil residual per pair

    def orthogonality_defect(self, cyl):
        """Max off-diagonal of the B-weighted Gram matrix of the profiles."""
        w = cyl.ground_state ** (cyl.params.p - 2.0) * cyl.grid.quad_w
        G = (self.eigenprofiles * w) @ self.eigenprofiles.T
        return float(np.max(np.abs(G - np.eye(len(self.eigenvalues)))))


def eigensolve_sector(cyl, ell, k=3):
    """The k smallest eigenvalues of the sector-ell pencil with eigenprofiles.

    Profiles are normalized to int V0^{p-2} phi^2 = 1 and signed so that the
    first nonzero lobe from the left of center is positive.  Lanczos starts
    from the constant vector on each folded parity pencil, so the result is a
    deterministic function of the cylinder.
    """
    if k < 1 or k > 10:
        raise ValueError("eigenvalue count must satisfy 1 <= k <= 10")
    pairs = []
    weight = cyl.ground_state ** (cyl.params.p - 2.0)
    b_full = np.maximum(weight, B_FLOOR)
    for parity in ("even", "odd"):
        A = cyl.sector_ops[ell].fold(parity)
        b = fold_weights(cyl.grid.N, parity) * fold(b_full, parity)
        shape = (A.n, A.n)
        try:
            # v0 rather than rng=: pyproject allows scipy>=1.10, which predates rng.
            vals, vecs = eigsh(
                LinearOperator(shape, matvec=A.__matmul__, dtype=float),
                k=k, M=LinearOperator(shape, matvec=lambda x: b * x, dtype=float),
                sigma=0.0, which="LM", v0=np.ones(A.n),
                OPinv=LinearOperator(shape, matvec=A.cho_solve, dtype=float),
            )
        except ArpackNoConvergence as exc:
            raise ArithmeticError(
                f"eigensolver failed to converge in sector ell={ell} "
                f"({parity} parity) at (p, n) = ({cyl.params.p}, {cyl.params.n})"
            ) from exc
        for gamma, x in zip(vals, vecs.T):
            pairs.append((float(gamma), unfold(x, parity)))
    pairs.sort(key=lambda t: t[0])
    pairs = pairs[:k]

    qw = cyl.grid.quad_w
    mid = (cyl.grid.N - 1) // 2
    profiles, gammas, residuals = [], [], []
    A_full = cyl.sector_ops[ell]
    for gamma, phi in pairs:
        nrm = np.sqrt(float(np.sum(qw * weight * phi * phi)))
        phi = phi / nrm
        lobe = phi[mid:][np.argmax(np.abs(phi[mid:]) > 1e-8 * np.max(np.abs(phi)))]
        if lobe < 0:
            phi = -phi
        r = A_full @ phi - gamma * (weight * phi)
        scale = np.linalg.norm(A_full @ phi) + abs(gamma) * np.linalg.norm(weight * phi)
        residuals.append(float(np.linalg.norm(r) / scale))
        profiles.append(phi)
        gammas.append(gamma)
    return SectorSpectrum(
        ell=ell,
        eigenvalues=np.asarray(gammas),
        eigenprofiles=np.asarray(profiles),
        residuals=np.asarray(residuals),
    )


def sector_walk(cyl):
    """The gap gamma3 and the sector spectra solved to find it.

    Sectors ell = 0, 1, 2, ... are solved with k = 3, 2, 1 eigenvalues; the
    returned list holds them in that order and always starts with sectors 0
    and 1 (the walk needs L >= 1).  Sector ell's pencil is
    (A_0 + ell(ell+n-2) I, B), so by Courant-Fischer each of its eigenvalues
    is nondecreasing in ell.  The walk stops after the first sector whose
    smallest eigenvalue is already no lower than the best candidate: no later
    sector can lower it.  Eigenvalues within GAP_MARGIN of p - 1 belong to
    the level p - 1 itself and are not gap candidates.
    """
    p = cyl.params.p
    best = np.inf
    spectra = []
    for ell in range(cyl.L + 1):
        k = 3 if ell == 0 else (2 if ell == 1 else 1)
        spec = eigensolve_sector(cyl, ell, k=k)
        spectra.append(spec)
        if spec.eigenvalues[0] >= best:
            break  # every eigenvalue of every later sector is at least this one
        for gamma in spec.eigenvalues:
            if gamma > p - 1.0 + GAP_MARGIN:
                best = min(best, float(gamma))
    return best, spectra


def gamma3(cyl):
    """Smallest eigenvalue above p - 1 + GAP_MARGIN across sectors ell <= L.

    The sectors are walked upward by :func:`sector_walk`, which stops at the
    first sector that cannot lower the gap: by Courant-Fischer the pencil
    (A_0 + ell(ell+n-2) I, B) has eigenvalues nondecreasing in ell.
    """
    return sector_walk(cyl)[0]
