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
reorthogonalizes fully, twice.  Every second step from max(k + 2, 6) vectors
on, the run reads the projected matrix from the first reorthogonalization
pass and stops once each wanted Ritz pair's residual estimate
beta_{j+1} |y_{j,i}| (Parlett, ch. 13) is at most KRYLOV_TOL * theta_i.  The
Krylov size is capped at max(KRYLOV_CAP, 4k) and at the half-grid size: the
sweep points stop after 10-20 steps, and the crowded levels near p = 2 after
up to 58.  The Ritz vectors are combined from the solves A^{-1} D q_j, so the
tiny tail weights are never divided by.  Each sector pencil discretizes a
Poschl-Teller problem whose eigenfunctions are known in closed form, so each
parity's run starts from the sum of its first k + 1 of them
(``_oracles.solvable_starts``); that halves the steps the constant vector
took, and reruns give bitwise-identical output.  A pair whose relative pencil
residual exceeds RESIDUAL_BOUND, a level nearer another closed-form level
than its own (``_oracles.solvable_gamma``), or a non-finite projected matrix
raises ``ArithmeticError``.
"""

from dataclasses import dataclass

import numpy as np

from ._discrete import fold, fold_weights, unfold
from ._oracles import solvable_gamma, solvable_starts

__all__ = ["SectorSpectrum", "eigensolve_sector", "gamma3"]

B_FLOOR = 1e-300  # keeps the pencil definite where the weight underflows
GAP_MARGIN = 1e-6  # a gap candidate must exceed p - 1 by more than this
RESIDUAL_BOUND = 1e-10  # largest relative pencil residual a returned pair may carry
KRYLOV_TOL = 1e-12  # Lanczos stops when every wanted Ritz residual is below this times theta
KRYLOV_CAP = 60  # most Lanczos steps, or 4k where that is more
SECTOR_CAP = 16  # most sectors the gap walk solves; the sweeps all stop after sector 2
PARITIES = ("even", "odd")


@dataclass(frozen=True)
class SectorSpectrum:
    """Eigenvalues (ascending) and B-normalized eigenprofiles of one sector."""

    ell: int
    eigenvalues: np.ndarray
    eigenprofiles: np.ndarray  # shape (k, N)
    residuals: np.ndarray      # relative pencil residual per pair
    parities: tuple            # axial parity per pair, "even" or "odd"


def eigensolve_sector(cyl, ell, k, parities=PARITIES):
    """The k smallest eigenvalues of the sector-ell pencil with eigenprofiles,
    over the folded pencils of the given axial parities (both by default).

    The sector band is formed here, so any ell >= 0 is solved, whatever the
    cylinder's L.  Profiles are normalized to int V0^{p-2} phi^2 = 1 and
    signed so that the first nonzero lobe from the left of center is
    positive.  Lanczos starts each folded parity pencil from the sum of that
    parity's first k + 1 closed-form eigenfunctions, so the result is a
    deterministic function of the cylinder.  Raises ``ArithmeticError`` when
    a pair misses RESIDUAL_BOUND or a level lies nearer another closed-form
    level than its own.
    """
    if k < 1 or k > 10:
        raise ValueError("eigenvalue count must satisfy 1 <= k <= 10")
    par = cyl.params
    weight = cyl.ground_state ** (par.p - 2.0)
    A = cyl.neg_d2.shifted(cyl.sphere.eigenvalue(ell) + par.Lam)
    return SectorSpectrum(ell, *_pencil_eigenpairs(
        A, weight, cyl.grid.quad_w, k, parities, _sector_starts(cyl, ell, k),
        lambda j: solvable_gamma(par, ell, j)))


def _sector_starts(cyl, ell, k):
    """Each parity's folded Lanczos start for k pairs of sector ell: the sum of
    its first k + 1 closed-form eigenfunctions (``_oracles.solvable_starts``)."""
    even, odd = solvable_starts(cyl.params, ell, cyl.grid.s[(cyl.grid.N - 1) // 2:], k)
    return {"even": even, "odd": odd[1:]}


def _lanczos(A, b, k, x0=None):
    """The k smallest eigenpairs (gamma ascending, x as rows) of A x = gamma diag(b) x,
    from the start x0, or from the constant vector in x when x0 is None."""
    m = min(max(KRYLOV_CAP, 4 * k), A.n)
    checks = range(max(k + 2, 6), m, 2)  # basis sizes at which convergence is tested
    d = np.sqrt(b)
    Q = np.empty((m, A.n))  # orthonormal Lanczos basis in u = d x
    Z = np.empty((m, A.n))  # Z[j] = A^{-1} (d Q[j])
    T = np.zeros((m, m))  # T[:j+1, j] = Q[:j+1] d Z[j], the projection's upper triangle
    Q[0] = d if x0 is None else d * x0
    Q[0] /= np.linalg.norm(Q[0])
    for j in range(m):
        Z[j] = A.cho_solve(d * Q[j])
        if j + 1 == m:
            break
        w = d * Z[j]
        T[: j + 1, j] = c = Q[: j + 1] @ w
        w -= Q[: j + 1].T @ c
        w -= Q[: j + 1].T @ (Q[: j + 1] @ w)
        beta = np.linalg.norm(w)
        if j + 1 in checks:  # Ritz residuals of the k largest theta: beta |last row of Y|
            theta, Y = np.linalg.eigh(T[: j + 1, : j + 1], UPLO="U")
            if np.all(beta * np.abs(Y[-1, -k:]) <= KRYLOV_TOL * theta[-k:]):
                m = j + 1
                break
        Q[j + 1] = w / beta
    H = Q[:m] @ (d * Z[:m]).T
    H = 0.5 * (H + H.T)
    if not np.isfinite(H).all():
        raise ArithmeticError("Lanczos projected matrix is not finite")
    theta, Y = np.linalg.eigh(H)
    theta, Y = theta[::-1][:k], Y[:, ::-1][:, :k]  # largest theta: smallest gamma
    return 1.0 / theta, Y.T @ Z[:m]


def _pencil_eigenpairs(A_full, weight, qw, k, parities=PARITIES, starts=None, oracle=None):
    """The k smallest pairs of A_full phi = gamma weight phi on the full grid,
    over the folded pencils of the given parities.

    Each parity's Lanczos run starts from the folded ``starts[parity]``, or
    from the constant vector when ``starts`` is None.  Given ``oracle``, with
    ``oracle(j)`` the j-th closed-form level, each parity's levels pass
    :func:`_check_levels`.

    Returns the eigenvalues, the profiles normalized in the quadrature qw and
    signed as in :func:`eigensolve_sector`, their relative residuals, and the
    parity of each.
    """
    N = A_full.n
    b_full = np.maximum(weight, B_FLOOR)
    pairs = []
    for parity in parities:
        b = fold_weights(N, parity) * fold(b_full, parity)
        x0 = None if starts is None else starts[parity]
        gammas, X = _lanczos(A_full.fold(parity), b, k, x0)
        if oracle is not None:
            _check_levels(gammas, parity, oracle)
        pairs += [(float(g), unfold(x, parity), parity) for g, x in zip(gammas, X)]
    pairs.sort(key=lambda t: t[0])

    mid = (N - 1) // 2
    gammas, profiles, residuals = [], [], []
    for gamma, phi, _ in pairs[:k]:
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
    return (np.asarray(gammas), np.asarray(profiles), np.asarray(residuals),
            tuple(parity for _, _, parity in pairs[:k]))


def _check_levels(gammas, parity, oracle):
    """Raise ``ArithmeticError`` unless the parity's i-th level lies nearer its
    own oracle, index 2i (even) or 2i + 1 (odd), than the indices beside it,
    the nearest others as the oracle increases: a level Lanczos missed would
    put each later one a whole spacing off."""
    for i, gamma in enumerate(gammas):
        j = 2 * i + (parity == "odd")
        own = abs(gamma - oracle(j))
        other = min(abs(gamma - oracle(o)) for o in (j - 1, j + 1) if o >= 0)
        if not own < other:
            raise ArithmeticError(
                f"{parity} level {i} = {gamma:.12g} lies nearer another closed-form "
                f"level than its own, index {j} = {oracle(j):.12g}"
            )


def sector_walk(cyl):
    """The gap gamma3 and the sector spectra solved to find it.

    Sectors ell = 0, 1, 2, ... are solved with k = 3, 2, 1 eigenvalues; the
    returned list holds them in that order.  In parity P, sector ell's folded
    pencil is (A_{0,P} + ell(ell+n-2) diag(fold_weights_P), B_P), and the fold
    weights are positive, so by Courant-Fischer each eigenvalue of parity P
    is nondecreasing in ell.  Once sector ell is merged into the best
    candidate, each parity whose smallest eigenvalue there is no lower than
    the best is closed: no later sector of that parity can lower it.  Later
    sectors solve only the open parities, so a sector solved after a closure
    holds the k smallest pairs of its open parities alone, and the walk stops
    when no parity is open.  Sectors 0 and 1 are always solved over both
    parities, as sector 0's minima, near 1 and p - 1, lie below every
    candidate.  Eigenvalues within GAP_MARGIN of p - 1 belong to the level
    p - 1 itself and are not gap candidates.  A walk that solves SECTOR_CAP
    sectors without closing every parity raises ``ArithmeticError``.
    """
    p = cyl.params.p
    best = np.inf
    open_parities = PARITIES
    spectra = []
    for ell in range(SECTOR_CAP):
        k = 3 if ell == 0 else (2 if ell == 1 else 1)
        spec = eigensolve_sector(cyl, ell, k=k, parities=open_parities)
        spectra.append(spec)
        for gamma in spec.eigenvalues:
            if gamma > p - 1.0 + GAP_MARGIN:
                best = min(best, float(gamma))
        found = list(zip(spec.parities, spec.eigenvalues))
        # every eigenvalue of parity P in a later sector is at least P's lowest
        # here; a parity with no pair among the k smallest has none below them
        lowest = {P: next((g for q, g in found if q == P), found[-1][1]) for P in open_parities}
        open_parities = tuple(P for P in open_parities if lowest[P] < best)
        if not open_parities:
            return best, spectra
    raise ArithmeticError(f"gap walk reached {SECTOR_CAP} sectors without a Courant-Fischer stop")


def gamma3(cyl):
    """Smallest eigenvalue above p - 1 + GAP_MARGIN across all sectors, by
    the walk of :func:`sector_walk`."""
    return sector_walk(cyl)[0]
