"""Generalized eigenproblem of the linearized operator, one harmonic sector
at a time:

    -phi'' + (l(l+n-2) + Lambda) phi = gamma V0^{p-2} phi  on [-S, S].

The pencil (A, B) has A symmetric positive definite (pentadiagonal stencil
plus positive mass) and B the diagonal bubble weight, which is strictly
positive but exponentially small in the tails.  Even and odd axial parities
are solved separately and merged, so the translation mode and the ground
state never mix numerically.

Each folded pencil A x = gamma diag(b) x is solved by spectral-transformation
Lanczos (Ericsson & Ruhe 1980; Parlett, *The Symmetric Eigenvalue Problem*,
ch. 13) on D A^{-1} D, D = diag(sqrt(b)), in the Euclidean inner product of
u = D x: its largest eigenvalues are 1/gamma for the smallest gamma.  Each
step makes one solve with the pencil's banded Cholesky factor and
reorthogonalizes fully, twice.  The Krylov size is max(20, 4k), capped at the
half-grid size (a fixed 20 misses k = 10 pairs near p = 2.2).  The Ritz
vectors are combined from the solves A^{-1} D q_j, so the tiny tail weights
are never divided by.  The start vector sqrt(b) is the constant vector in x,
so reruns give bitwise-identical output.  A pair whose relative pencil
residual exceeds RESIDUAL_BOUND, or a non-finite projected matrix, raises
``ArithmeticError``.
"""

from dataclasses import dataclass

import numpy as np

from ._discrete import fold, fold_weights, unfold

__all__ = ["SectorSpectrum", "eigensolve_sector", "gamma3", "sector_walk"]

B_FLOOR = 1e-300  # keeps the pencil definite where the weight underflows
GAP_MARGIN = 1e-6  # a gap candidate must exceed p - 1 by more than this
RESIDUAL_BOUND = 1e-10  # largest relative pencil residual a returned pair may carry
SECTOR_CAP = 16  # most sectors the gap walk solves; the sweeps all stop after sector 2


@dataclass(frozen=True)
class SectorSpectrum:
    """Eigenvalues (ascending) and B-normalized eigenprofiles of one sector."""

    ell: int
    eigenvalues: np.ndarray
    eigenprofiles: np.ndarray  # shape (k, N)
    residuals: np.ndarray      # relative pencil residual per pair


def eigensolve_sector(cyl, ell, k=3):
    """The k smallest eigenvalues of the sector-ell pencil with eigenprofiles.

    The sector band is formed here, so any ell >= 0 is solved, whatever the
    cylinder's L.  Profiles are normalized to int V0^{p-2} phi^2 = 1 and
    signed so that the first nonzero lobe from the left of center is
    positive.  Lanczos starts from the constant vector on each folded parity
    pencil, so the result is a deterministic function of the cylinder.
    Raises ``ArithmeticError`` when a pair misses RESIDUAL_BOUND.
    """
    if k < 1 or k > 10:
        raise ValueError("eigenvalue count must satisfy 1 <= k <= 10")
    weight = cyl.ground_state ** (cyl.params.p - 2.0)
    A = cyl.neg_d2.shifted(cyl.sphere.eigenvalue(ell) + cyl.params.Lam)
    gammas, profiles, residuals = _pencil_eigenpairs(A, weight, cyl.grid.quad_w, k)
    return SectorSpectrum(
        ell=ell, eigenvalues=gammas, eigenprofiles=profiles, residuals=residuals
    )


def _lanczos(A, b, k):
    """The k smallest eigenpairs (gamma ascending, x as rows) of A x = gamma diag(b) x."""
    m = min(max(20, 4 * k), A.n)
    d = np.sqrt(b)
    Q = np.empty((m, A.n))  # orthonormal Lanczos basis in u = d x
    Z = np.empty((m, A.n))  # Z[j] = A^{-1} (d Q[j])
    Q[0] = d / np.linalg.norm(d)
    for j in range(m):
        Z[j] = A.cho_solve(d * Q[j])
        if j + 1 < m:
            w = d * Z[j]
            for _ in range(2):
                w -= Q[: j + 1].T @ (Q[: j + 1] @ w)
            Q[j + 1] = w / np.linalg.norm(w)
    H = Q @ (d * Z).T
    H = 0.5 * (H + H.T)
    if not np.isfinite(H).all():
        raise ArithmeticError("Lanczos projected matrix is not finite")
    theta, Y = np.linalg.eigh(H)
    theta, Y = theta[::-1][:k], Y[:, ::-1][:, :k]  # largest theta: smallest gamma
    return 1.0 / theta, Y.T @ Z


def _pencil_eigenpairs(A_full, weight, qw, k):
    """The k smallest pairs of A_full phi = gamma weight phi on the full grid.

    Returns the eigenvalues, the profiles normalized in the quadrature qw and
    signed as in :func:`eigensolve_sector`, and their relative residuals.
    """
    N = A_full.n
    b_full = np.maximum(weight, B_FLOOR)
    pairs = []
    for parity in ("even", "odd"):
        b = fold_weights(N, parity) * fold(b_full, parity)
        gammas, X = _lanczos(A_full.fold(parity), b, k)
        pairs += [(float(g), unfold(x, parity)) for g, x in zip(gammas, X)]
    pairs.sort(key=lambda t: t[0])

    mid = (N - 1) // 2
    gammas, profiles, residuals = [], [], []
    for gamma, phi in pairs[:k]:
        phi = phi / np.sqrt(float(np.sum(qw * weight * phi * phi)))
        lobe = phi[mid:][np.argmax(np.abs(phi[mid:]) > 1e-8 * np.max(np.abs(phi)))]
        if lobe < 0:
            phi = -phi
        Aphi = A_full @ phi
        r = Aphi - gamma * (weight * phi)
        scale = np.linalg.norm(Aphi) + abs(gamma) * np.linalg.norm(weight * phi)
        res = float(np.linalg.norm(r) / scale)
        if not res <= RESIDUAL_BOUND:
            raise ArithmeticError(
                f"eigenpair gamma = {gamma:.12g} has pencil residual {res:.2e}, "
                f"above {RESIDUAL_BOUND:.0e}"
            )
        gammas.append(gamma)
        profiles.append(phi)
        residuals.append(res)
    return np.asarray(gammas), np.asarray(profiles), np.asarray(residuals)


def sector_walk(cyl):
    """The gap gamma3 and the sector spectra solved to find it.

    Sectors ell = 0, 1, 2, ... are solved with k = 3, 2, 1 eigenvalues; the
    returned list holds them in that order and always starts with sectors 0
    and 1.  Sector ell's pencil is (A_0 + ell(ell+n-2) I, B), so by
    Courant-Fischer each of its eigenvalues is nondecreasing in ell.  The
    walk stops after the first sector whose smallest eigenvalue is already
    no lower than the best candidate: no later sector can lower it.
    Eigenvalues within GAP_MARGIN of p - 1 belong to the level p - 1 itself
    and are not gap candidates.  A walk that solves SECTOR_CAP sectors
    without stopping raises ``ArithmeticError``.
    """
    p = cyl.params.p
    best = np.inf
    spectra = []
    for ell in range(SECTOR_CAP):
        k = 3 if ell == 0 else (2 if ell == 1 else 1)
        spec = eigensolve_sector(cyl, ell, k=k)
        spectra.append(spec)
        if spec.eigenvalues[0] >= best:
            return best, spectra  # every eigenvalue of every later sector is at least this one
        for gamma in spec.eigenvalues:
            if gamma > p - 1.0 + GAP_MARGIN:
                best = min(best, float(gamma))
    raise ArithmeticError(f"gap walk reached {SECTOR_CAP} sectors without a Courant-Fischer stop")


def gamma3(cyl):
    """Smallest eigenvalue above p - 1 + GAP_MARGIN across all sectors, by
    the walk of :func:`sector_walk`."""
    return sector_walk(cyl)[0]
