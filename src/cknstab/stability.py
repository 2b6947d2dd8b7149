"""Stability constants, bubble-manifold fits, and the sharp cubic family.

This module computes the two constants whose positivity drives the cubic
remainder estimate (the constrained quadratic-form minimum E0 and the quartic
coefficient F), the asymptotic ratio constant R(p, n) by two fully
independent routes, and the degenerate perturbation family

    w(mu) = (1 - C0 mu^2) V0 + mu (V0^{p/2} theta_n + mu eta),

whose residual decays like mu^3 while its distance to the bubble manifold
decays like mu, certifying that the cubic estimate cannot be improved.

All constructions in the w(mu) path are built from the *discrete* ground
state and a *discrete* corrector solve, so the quadratic-order cancellation
holds in the assembled equations up to the stencil's h^4 error, which
``Corrector.identity_residual_l2`` measures: 2.7e-7, 1.7e-8 and 1.1e-9 at
refine 1, 2 and 4 for (n, p) = (3, 4), a factor 16 per halving of h.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._discrete import fold, fold_weights, nonlinearity
from .cylinder import (
    ZonalField,
    gauss_gegenbauer,
    h1_inner,
    h1_norm,
    l2_norm_sq,
    sphere_area,
    sphere_moment,
)
from .operators import apply_H1, bvp_solve, hminus1_norm
from .params import bubble_profile_ds

__all__ = [
    "BubbleFit",
    "StabilityConstants",
    "Corrector",
    "SharpnessReport",
    "nearest_bubble",
    "project_Y",
    "compute_F",
    "compute_E0",
    "compute_R_gamma",
    "compute_R_energy",
    "corrector",
    "counterexample",
    "naive_family",
    "sharpness_study",
    "stability_constants",
]

log = logging.getLogger(__name__)

STUDY_REFINE = 2  # refine 1 fails CORRECTOR_BOUND; 10 is at the h^-2 roundoff floor
CORRECTOR_BOUND = 1e-7  # largest corrector identity defect the family accepts
STUDY_MIN_L = 3  # the residual's leading terms Y eta and Y^3 occupy degrees <= 3
SERIES_HEAD = 1024      # head terms K of the R series; its value is cut at 2K
SERIES_REL_TOL = 1e-10  # relative tail bound above which the R series warns
POLISH_XTOL, POLISH_RTOL = 1e-14, 1e-15  # the fit's root polish stops below xtol + rtol |t|
POLISH_STEPS = 100  # steps before the root polish gives up
# 24-point Gauss-Legendre rule on [-1, 1] (weights sum to 2) for the R series
_GL24_NODES, _GL24_WEIGHTS = gauss_gegenbauer(24, 0.5)
_GL24_WEIGHTS = 2.0 * _GL24_WEIGHTS


# ---------------------------------------------------------------------------
# bubble-manifold fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BubbleFit:
    """Best translate V_t of the bubble family: the center, the distance
    ||v - V_t||, the coefficient along the degenerate direction
    V_t^{p/2} Y_1 at the center and its H^1 size, the stationarity of the
    fit, and the remainder of v off that direction, all three from
    ``project_Y(v, t_star)``."""

    t_star: float
    distance: float
    projY: float
    projY_norm: float
    stationarity: float
    remainder: ZonalField


def nearest_bubble(v):
    """Minimize ||v - V_t|| over the center t.

    The translates V_t are the positive solutions, so this is the distance
    to the solution manifold.  The objective is stationary exactly where
    g(t) = <v, ds V_t> vanishes, since d/dt ||v - V_t||^2 = 2 g(t) (||V_t||^2
    is translation invariant up to truncation).  So g is scanned at the
    lattice shifts t = j h nearest to 129 equispaced points of |t| <= S/2
    (32 h apart when N = 8193).  A lattice shift slides the sampled bubble
    along the grid, so each scan value pairs v with a window of one ds V
    profile sampled on the grid lattice extended by the scan half-width
    (:func:`_dbubble_scan`).  Every sign change is polished to a root of the
    exact pairing by Newton's method on its slope g'(t) = -<v, ds^2 V_t>,
    inside the bracket (:func:`_newton_polish`).  Where the exact pairing has
    one sign at both ends of a bracket, the scan's sign change was roundoff,
    and the end with the smaller exact |g| is the root.  The root with the
    smallest objective is the center.  It must beat both ends of the scan, or
    the field is too far from the bubble manifold.  The scan's window, the
    trust scale and the translates at the scan ends depend on the cylinder
    alone and are built once per cylinder (:func:`_fit_inputs`).
    """
    cyl = v.cyl
    par = cyl.params
    fit = cyl.cached(_fit_inputs)
    vn = h1_norm(v)
    ref = fit.ref
    if not (0.1 * ref <= vn <= 10.0 * ref):
        raise ValueError(
            f"field norm {vn:.3e} outside the trust range [0.1, 10] x {ref:.3e}"
        )

    u0 = cyl.sector_op(0) @ v.profiles[0]  # pairing slice: <v, radial g>_H1 = h u0 . g
    root_area = math.sqrt(sphere_area(par.n))
    h = cyl.grid.h

    def pairing_and_slope(t):
        # ds^2 V_t = Lam V_t - V_t^{p-1} by the profile ODE
        prof = cyl.bubble(t)
        ds2 = par.Lam * prof - nonlinearity(prof, par.p)
        return h * float(u0 @ cyl.bubble_ds(t)) * root_area, -h * float(u0 @ ds2) * root_area

    def dist_sq(prof, vt_sq):  # ||v||^2 - 2 <v, V_t> + ||V_t||^2, from V_t and ||V_t||^2
        return vn * vn - 2.0 * (h * float(u0 @ prof) * root_area) + vt_sq

    # the root of <v, ds V_t> is resolvable far below the flat floor of the
    # objective itself, so the center is located on the derivative alone
    ts, gs = _dbubble_scan(cyl, u0)
    exact = functools.cache(pairing_and_slope)  # the polish rereads the ends read here
    roots = []
    for a, b, ga, gb in zip(ts[:-1], ts[1:], gs[:-1], gs[1:]):
        if ga * gb <= 0.0:
            (ea, _), (eb, _) = exact(a), exact(b)
            if (ea < 0.0) == (eb < 0.0):  # the scan's sign change was roundoff at an end
                roots.append(a if abs(ea) <= abs(eb) else b)
            else:
                roots.append(_newton_polish(exact, a, b))
    fits = [(dist_sq(*_translate(cyl, t)), t) for t in roots]
    if not fits or min(fits)[0] >= min(dist_sq(*end) for end in fit.ends):
        raise ValueError("no interior distance minimum within |t| <= S/2: "
                         "field too far from the bubble manifold")
    t_star = min(fits)[1]

    g, _ = pairing_and_slope(t_star)
    stationarity = abs(g) / (vn * ref)  # ||V|| has the scale of ||ds V|| up to O(1)
    if stationarity > 1e-8:
        raise ArithmeticError(
            f"center fit did not reach stationarity: residual {stationarity:.2e}"
        )

    # final distance from the difference field itself; the expanded quadratic
    # form loses half the digits to cancellation near the manifold
    distance = _distance_to_bubble(v, t_star)

    coeff, remainder, y_norm = project_Y(v, t_star)
    return BubbleFit(
        t_star=float(t_star),
        distance=distance,
        projY=coeff,
        projY_norm=abs(coeff) * y_norm,
        stationarity=stationarity,
        remainder=remainder,
    )


def _newton_polish(f, a, b):
    """Root of g in the bracket [a, b], where f(t) returns (g(t), g'(t)).

    Starts at the end with the smaller |g| and takes Newton steps, each
    shrinking the bracket to the side where g changes sign; a step that
    would leave the bracket, or a zero slope, bisects instead.  Stops when
    the step is below POLISH_XTOL + POLISH_RTOL |t|.  Returns an end where
    g == 0; raises ValueError when g has the same sign at both ends and
    RuntimeError after POLISH_STEPS steps.
    """
    (ga, dga), (gb, dgb) = f(a), f(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga < 0.0) == (gb < 0.0):
        raise ValueError("g(a) and g(b) must have different signs")
    t, g, dg = (a, ga, dga) if abs(ga) <= abs(gb) else (b, gb, dgb)
    for _ in range(POLISH_STEPS):
        nxt = t - g / dg if dg != 0.0 else math.nan
        if not min(a, b) < nxt < max(a, b):
            nxt = 0.5 * (a + b)
        step, t = abs(nxt - t), nxt
        if step < POLISH_XTOL + POLISH_RTOL * abs(t):
            return t
        g, dg = f(t)
        if g == 0.0:
            return t
        if (g < 0.0) == (ga < 0.0):
            a, ga = t, g
        else:
            b = t
    raise RuntimeError(f"failed to converge after {POLISH_STEPS} steps, value is {t}")


def _scan_lattice(grid):
    """Distinct j with j h nearest to 129 equispaced points of |t| <= S/2."""
    half = grid.S / 2
    return np.unique(np.rint(np.linspace(-half, half, 129) / grid.h).astype(int))


@dataclass(frozen=True)
class _FitInputs:
    """What :func:`nearest_bubble` reads of its cylinder: the scan lattice
    ``js``, the ds V profile ``ext`` on the grid lattice extended by the scan
    half-width ``J`` (:func:`_dbubble_scan`), the trust scale ``ref`` =
    ||V||_H1 by quadrature of V^p, and ``ends``, the :func:`_translate` pair
    at each end of the scan."""

    js: np.ndarray
    J: int
    ext: np.ndarray
    ref: float
    ends: tuple


def _fit_inputs(cyl):
    """The :class:`_FitInputs` of a cylinder; read through ``cyl.cached``."""
    par, h, N = cyl.params, cyl.grid.h, cyl.grid.N
    js = _scan_lattice(cyl.grid)
    J = int(max(-js[0], js[-1]))
    m = (N - 1) // 2
    ts = h * js
    fit = _FitInputs(
        js=js,
        J=J,
        ext=bubble_profile_ds(par, h * np.arange(-m - J, m + J + 1)),
        ref=math.sqrt(sphere_area(par.n) * cyl.quad_s(cyl.bubble() ** par.p)),
        ends=(_translate(cyl, ts[0]), _translate(cyl, ts[-1])),
    )
    for arr in (fit.js, fit.ext, fit.ends[0][0], fit.ends[1][0]):
        arr.flags.writeable = False
    return fit


def _translate(cyl, t):
    """V_t on the grid and its squared H^1 norm."""
    prof = cyl.bubble(t)
    h, area = cyl.grid.h, sphere_area(cyl.params.n)
    return prof, h * float(prof @ (cyl.sector_op(0) @ prof)) * area


def _dbubble_scan(cyl, u0):
    """Scan shifts t = j h and their pairings <v, ds V_t>, from u0 = A_0 v_0.

    With m = (N-1)//2, ds V_{jh} on the grid is ds V sampled at s = k h for
    k = -m-j .. m-j: a window of one profile sampled for |k| <= m + max|j|.
    The scan costs one N-long dot product per shift; the window is built once
    per cylinder (:func:`_fit_inputs`).
    """
    h, N = cyl.grid.h, cyl.grid.N
    fit = cyl.cached(_fit_inputs)
    J, ext = fit.J, fit.ext
    root_area = math.sqrt(sphere_area(cyl.params.n))
    gs = [h * float(u0 @ ext[J - j:J - j + N]) * root_area for j in fit.js]
    return h * fit.js, gs


def _row_field(cyl, l, prof):
    """The field with profile ``prof`` in degree l and zero in every other."""
    profiles = np.zeros((cyl.L + 1, cyl.grid.N))
    profiles[l] = prof
    return ZonalField._adopt(cyl, profiles)


def _family_basis(cyl):
    """The sharp family's two basis rows, read-only: the degree-0 row of
    ``from_radial(ground_state)`` and the degree-1 row of
    ``from_theta_power(ground_state ** (p/2), 1)``, its only nonzero row.
    The one source of V0 and Y = V0^{p/2} theta_n for the sharp family,
    the corrector and the energy route to R; read through ``cyl.cached``."""
    V = cyl.ground_state
    rows = np.outer(cyl.sphere.theta_power_coeffs(1)[:2], V ** (cyl.params.p / 2.0))
    rows[0] = math.sqrt(sphere_area(cyl.params.n)) * V
    rows.flags.writeable = False
    return rows


def _y_mode_field(cyl, t):
    """The degenerate direction V_t^{p/2} Y_1 of the translate V_t as a field
    (normalized basis); ``_family_basis(cyl)[1]`` is the discrete V_0's."""
    return _row_field(cyl, 1, cyl.bubble(t) ** (cyl.params.p / 2.0))


def project_Y(v, t):
    """Coefficient of v along V_t^{p/2} Y_1 in H^1, the remainder field, and
    the H^1 norm of V_t^{p/2} Y_1, from one build of that field."""
    y = _y_mode_field(v.cyl, t)
    y_sq = h1_inner(y, y)
    coeff = h1_inner(v, y) / y_sq
    return coeff, v - coeff * y, math.sqrt(y_sq)


# ---------------------------------------------------------------------------
# the constants E0 and F
# ---------------------------------------------------------------------------


def compute_F(cyl):
    """Quartic coefficient

    F = (p-1)(p-2)/4 [ (p-1)/||V||_p^p (int V^{2p-2} th^2)^2
                       - (p-3)/3 int V^{3p-4} th^4 ],

    with the axial factors by grid quadrature and the angular factors by the
    closed-form sphere moments.
    """
    p, n = cyl.params.p, cyl.params.n
    V = cyl.ground_state
    Ip = cyl.quad_s(V**p)
    I2p2 = cyl.quad_s(V ** (2 * p - 2))
    I3p4 = cyl.quad_s(V ** (3 * p - 4))
    lpp = Ip * sphere_area(n)
    t2 = I2p2 * sphere_moment(n, 1)
    t4 = I3p4 * sphere_moment(n, 2)
    # t2 / lpp first: t2**2 overflows near p = 2 where F itself does not
    return (p - 1) * (p - 2) / 4.0 * ((p - 1) * (t2 / lpp) * t2 - (p - 3) / 3.0 * t4)


def compute_E0(cyl):
    """Constrained minimum of the degenerate quadratic form.

    Minimizes ||g||_H1^2 - (p-1) int (V^{p-2} g^2 + (p-2) V^{2p-3}
    th_n^2 g) over fields orthogonal to the ground state, its translation
    mode, and the degenerate directions.  The linear term couples only the
    mean and the second zonal mode, so the problem splits into an
    unconstrained positive-definite solve (second mode) and a single-constraint
    KKT solve (mean mode) on the even half grid, where orthogonality to the
    odd translation mode is automatic.
    """
    p, n, Lam = cyl.params.p, cyl.params.n, cyl.params.Lam
    # the forms int u'^2 (a Band), int u^2 and int V^{p-2} u^2 (diagonals)
    # folded onto the even half grid, h included
    h = cyl.grid.h
    K = h * cyl.neg_d2.fold("even")
    mass = h * fold_weights(cyl.grid.N, "even")
    V = fold(cyl.ground_state, "even")
    Bv = mass * V ** (p - 2.0)
    lin = mass * V ** (2 * p - 3.0)

    def form(shift):
        """K + shift mass - (p-1) Bv, the mode's quadratic form."""
        return K.shifted(shift * mass).shifted(-(p - 1.0) * Bv)

    area = sphere_area(n)
    m2 = sphere_moment(n, 2) - area / n**2  # int (th_n^2 - 1/n)^2

    # second zonal mode: unconstrained, positive definite
    M2 = form(2.0 * n + Lam)
    b2 = (p - 1.0) * (p - 2.0) * lin
    try:
        x2 = (2.0 * M2).cho_solve(b2)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"second-mode quadratic form not positive definite at "
            f"(p, n) = ({p}, {n})"
        ) from exc
    E_mode2 = float(x2 @ (M2 @ x2) - b2 @ x2)

    # mean mode: KKT with the single constraint <u, V^{p-1}> = 0
    M0 = form(Lam)
    b0 = ((p - 1.0) * (p - 2.0) / n) * lin
    con = mass * V ** (p - 1.0)
    y1, y2 = (2.0 * M0).solve(np.column_stack([b0, con])).T
    denom = float(con @ y2)
    if denom >= 0.0:
        raise ArithmeticError(
            f"mean-mode constrained Hessian indefinite at (p, n) = ({p}, {n}): "
            f"constraint Schur value {denom:.3e} >= 0"
        )
    kappa = -float(con @ y1) / denom
    u0 = y1 + kappa * y2
    E_mode0 = float(u0 @ (M0 @ u0) - b0 @ u0)

    return area * E_mode0 + m2 * E_mode2


# ---------------------------------------------------------------------------
# R(p, n): series route and energy route
# ---------------------------------------------------------------------------


def _ratio_series(p, n, Lam):
    """sum_{k>=0} f(k), f(k) = (P(k - xi) - P(k)) / P(-1), as a fixed head plus
    an Euler-Maclaurin tail.

    P is a ratio of six Gamma factors with P(x) ~ x^{-2}, so f(k) ~ k^{-3}.
    The head uses P(x+1)/P(x) = prod(x + a_i) / prod(x + b_i) and one
    log-Gamma normalization per shift.  The tail at a cut c is (DLMF 2.10.1)

        int_{c-xi}^{c} P / P(-1) + f(c)/2 - f'(c)/12 + f'''(c)/720,

    with the integral (which equals int_c^inf f) by 24-point Gauss-Legendre
    and the derivatives by central differences at c-3..c+3.  The value is cut
    at 2K, K = SERIES_HEAD; ``tail_bound`` is its relative change from the cut
    at K, a truncation estimate that does not include roundoff.  Returns
    (value, tail_bound).  A tail bound above SERIES_REL_TOL logs a warning;
    the result is still returned.
    """
    xi1 = (2.0 * p - 3.0) / (p - 2.0)
    xi2 = math.sqrt(1.0 + 2.0 * n / Lam) / (p - 2.0)
    xi = xi1 - xi2

    shifts_num = (1.5, 2.0 * xi1 - 1.0, 2.0 * xi1)
    shifts_den = (xi1 - xi2 + 1.0, xi1 + xi2 + 1.0, 2.0 * xi1 + 0.5)
    lowest = min(min(shifts_num), min(shifts_den))

    def logP(x):
        if x + lowest <= 0.0:
            raise ArithmeticError(f"Gamma pole hit at argument {x + lowest!r} in the ratio series")
        return (sum(math.lgamma(x + c) for c in shifts_num)
                - sum(math.lgamma(x + c) for c in shifts_den))

    K = SERIES_HEAD
    logPm1 = logP(-1.0)

    def run(c):
        """P(c + k) / P(-1) for k < 2K + 4."""
        x = c + np.arange(2 * K + 3.0)[:, None]
        steps = np.prod(x + shifts_num, axis=1) / np.prod(x + shifts_den, axis=1)
        return math.exp(logP(c) - logPm1) * np.concatenate(([1.0], np.cumprod(steps)))

    f = run(-xi) - run(0.0)

    def cut(c):
        """The head below c plus the Euler-Maclaurin tail at c."""
        integral = 0.5 * xi * sum(
            w * math.exp(logP(c - 0.5 * xi * (1.0 - x)) - logPm1)
            for x, w in zip(_GL24_NODES, _GL24_WEIGHTS)
        )
        g = f[c - 3:c + 4]
        d1 = g @ np.array((-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0)) / 60.0
        d3 = g @ np.array((1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0)) / 8.0
        return float(np.sum(f[:c]) + integral + f[c] / 2.0 - d1 / 12.0 + d3 / 720.0)

    value = cut(2 * K)
    tail_bound = abs(cut(K) - value) / abs(value)
    if tail_bound > SERIES_REL_TOL:
        log.warning("ratio series tail bound %.2e at %d terms is above its "
                    "target %.0e", tail_bound, 2 * K, SERIES_REL_TOL)
    return value, tail_bound


def compute_R_gamma(params):
    """Closed-form route to R(p, n) through log-Gamma evaluations.

    Returns (R, series_terms, tail_bound).
    """
    p, n, Lam = params.p, params.n, params.Lam
    series, tail_bound = _ratio_series(p, n, Lam)
    c = (2.0 * p - 2.0) / (p - 2.0)
    prefactor = (
        params.alpha
        * params.beta ** (-p)
        / math.sqrt(math.pi)
        / sphere_area(n)
        * (2.0 * p * (p - 2.0))
        / (5.0 * p - 6.0)
        * math.exp(math.lgamma(c + 0.5) - math.lgamma(c))
    )
    bracket = (
        (3.0 * p - 4.0) / (4.0 * p - 4.0)
        - (p * n - 3.0 * n) / (p * n + 2.0 * p)
        - (n - 1.0) / (n + 2.0) * series
    )
    return prefactor * bracket, 2 * SERIES_HEAD, tail_bound


def compute_R_energy(cyl, E0, F):
    """Energy route 2 (E0 + F) ||V^{p/2} theta_n||_{H^1}^{-4}.

    The degenerate direction is ``_family_basis(cyl)[1]``, taken with the
    raw theta_n angular factor (converted from the stored normalized basis
    through the first sphere moment), matching the convention of the linear
    term inside E0.
    """
    y = _row_field(cyl, 1, cyl.cached(_family_basis)[1])
    yy = h1_inner(y, y)
    return 2.0 * (E0 + F) / yy / yy  # yy**2 overflows near p = 2 where R does not


@dataclass(frozen=True)
class StabilityConstants:
    """The computed constants with their discretization provenance."""

    E0: float
    F: float
    R_energy: float
    R_gamma: float
    series_terms: int
    tail_bound: float
    grid_signature: str

    def __post_init__(self):
        if not self.F > 0.0:
            raise ValueError(f"F = {self.F} is not positive")
        if not self.E0 + self.F > 0.0:
            raise ValueError(f"E0 + F = {self.E0 + self.F} is not positive")
        if abs(self.R_energy - self.R_gamma) > 0.01 * self.R_gamma:
            raise ValueError(
                f"R routes disagree beyond 1%: {self.R_energy} vs {self.R_gamma}"
            )


def stability_constants(cyl):
    E0 = compute_E0(cyl)
    F = compute_F(cyl)
    Rg, terms, tail = compute_R_gamma(cyl.params)
    Re = compute_R_energy(cyl, E0=E0, F=F)
    sig = (
        f"N={cyl.grid.N};S={cyl.grid.S:.6g};L={cyl.L};M={cyl.sphere.M};"
        f"h={cyl.grid.h:.6g}"
    )
    return StabilityConstants(
        E0=E0,
        F=F,
        R_energy=Re,
        R_gamma=Rg,
        series_terms=terms,
        tail_bound=tail,
        grid_signature=sig,
    )


# ---------------------------------------------------------------------------
# the sharp family w(mu)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Corrector:
    """Second-order corrector eta = eta1 (th_n^2 - 1/n) + eta2 and the mass
    correction C0, with the L2 defect of the corrector equation and the
    normalized H^1 inner products of eta with V0, ds V0 and V0^{p/2} th_n.
    ``eta`` is the read-only (L+1, N) profile array, ``cyl.field(eta)`` the
    field: a field would refer back to the cylinder that caches the corrector."""

    eta: np.ndarray
    C0: float
    identity_residual_l2: float
    orthogonality: tuple


def corrector(cyl):
    """Build (eta, C0) so that the quadratic term of the family cancels.

    eta1 solves the shifted axial problem with mass 2n + Lambda driven by
    V^{2p-3}; eta2 and C0 are explicit in the ground state and two of its
    power integrals.  Everything is assembled from the discrete ground state;
    the cancellation holds up to the stencil's h^4 error, identity_residual_l2.
    Computed once per cylinder and kept through ``cyl.cached``.
    """
    return cyl.cached(_corrector)


def _corrector(cyl):
    p, n, Lam = cyl.params.p, cyl.params.n, cyl.params.Lam
    V = cyl.ground_state
    Ip = cyl.quad_s(V**p)
    I2p2 = cyl.quad_s(V ** (2.0 * p - 2.0))

    eta1 = bvp_solve(cyl, 2, ((p - 1.0) * (p - 2.0) / 2.0) * V ** (2.0 * p - 3.0))
    ratio = p * I2p2 / (4.0 * n * Ip)
    eta2 = (p / (4.0 * n)) * V ** (p - 1.0) - ratio * V
    C0 = (p * p / (4.0 * n)) * Lam - ratio

    eta = (
        cyl.from_theta_power(eta1, 2)
        - (1.0 / n) * cyl.from_radial(eta1)
        + cyl.from_radial(eta2)
    )

    # defect of the corrector equation, measured as a field
    res = np.zeros_like(eta.profiles)
    weight = (p - 1.0) * V ** (p - 2.0)
    for l in eta.degrees:
        res[l] = cyl.sector_op(l) @ eta.profiles[l] - weight * eta.profiles[l]
    res_field = ZonalField._adopt(cyl, res) + (p - 2.0) * C0 * cyl.from_radial(
        V ** (p - 1.0)
    ) - ((p - 1.0) * (p - 2.0) / 2.0) * cyl.from_theta_power(V ** (2.0 * p - 3.0), 2)
    res_l2 = math.sqrt(l2_norm_sq(res_field))

    v0, y = cyl.cached(_family_basis)
    vfield, yfield = _row_field(cyl, 0, v0), _row_field(cyl, 1, y)
    dvfield = cyl.from_radial(cyl.bubble_ds())
    eta_norm = h1_norm(eta)
    orth = tuple(
        h1_inner(eta, f) / eta_norm / h1_norm(f) for f in (vfield, dvfield, yfield)
    )

    return Corrector(
        eta=eta.profiles,
        C0=C0,
        identity_residual_l2=res_l2,
        orthogonality=orth,
    )


def counterexample(cyl, mu):
    """The family member w(mu); requires |mu| <= 0.05 and a grid on which the
    corrector defect is at most ``CORRECTOR_BOUND`` (``STUDY_REFINE`` or finer)."""
    if abs(mu) > 0.05:
        raise ValueError(f"|mu| <= 0.05 required, got {mu}")
    cor = corrector(cyl)
    if cor.identity_residual_l2 > CORRECTOR_BOUND:
        raise ArithmeticError(
            f"corrector identity defect {cor.identity_residual_l2:.2e} exceeds "
            f"{CORRECTOR_BOUND:g} on this grid"
        )
    # mu^2 eta, plus (1 - C0 mu^2) V0 in degree 0 and mu V0^{p/2} theta_n in
    # degree 1, in one array
    v0, y = cyl.cached(_family_basis)
    w = mu * mu * cor.eta
    w[0] += (1.0 - cor.C0 * mu * mu) * v0
    w[1] += mu * y
    return ZonalField._adopt(cyl, w)


def naive_family(cyl, mu):
    """The undressed family V0 + mu V0^{p/2} theta_n (quadratic residual)."""
    v0, y = cyl.cached(_family_basis)
    w = np.zeros((cyl.L + 1, cyl.grid.N))
    w[0] = v0
    w[1] = mu * y
    return ZonalField._adopt(cyl, w)


@dataclass(frozen=True)
class SharpnessReport:
    mus: np.ndarray
    residuals: np.ndarray
    distances: np.ndarray
    proj_norms: np.ndarray
    perp_distances: np.ndarray
    naive_residuals: np.ndarray
    residual_slope: float
    distance_slope: float
    proj_slope: float
    perp_slope: float
    naive_slope: float
    ratios: np.ndarray  # residual / distance^3

    def ratio_drift(self):
        r = self.ratios
        return np.abs(np.diff(r)) / r[:-1]


def sharpness_study(cyl, mus):
    """Log-log slope study of the constructed and naive families.

    Expects at least five distinct mu values, log-spaced inside [1e-3, 3e-2],
    and a cylinder with ``L >= STUDY_MIN_L`` meeting ``CORRECTOR_BOUND`` (see ``counterexample``).
    """
    if cyl.L < STUDY_MIN_L:
        raise ValueError(f"degree L >= {STUDY_MIN_L} required, got {cyl.L}")
    mus = np.sort(np.asarray(mus, dtype=float))
    if len(np.unique(mus)) < 5:
        raise ValueError("need at least 5 distinct mu values")
    if not (mus[0] >= 1e-3 * (1 - 1e-9) and mus[-1] <= 3e-2 * (1 + 1e-9)):
        raise ValueError("mu values must lie in [1e-3, 3e-2]")
    rows = []
    for mu in mus:
        w = counterexample(cyl, mu)
        r = hminus1_norm(apply_H1(w))
        fit = nearest_bubble(w)
        perp = _distance_to_bubble(fit.remainder, fit.t_star)
        r_naive = hminus1_norm(apply_H1(naive_family(cyl, mu)))
        rows.append((r, fit.distance, fit.projY_norm, perp, r_naive))
    r, d, pn, pd, rn = (np.array(col) for col in zip(*rows))
    lm = np.log(mus)
    slope = lambda y: float(np.polyfit(lm, np.log(y), 1)[0])
    return SharpnessReport(
        mus=mus,
        residuals=r,
        distances=d,
        proj_norms=pn,
        perp_distances=pd,
        naive_residuals=rn,
        residual_slope=slope(r),
        distance_slope=slope(d),
        proj_slope=slope(pn),
        perp_slope=slope(pd),
        naive_slope=slope(rn),
        ratios=r / d**3,
    )


def _distance_to_bubble(field, t):
    """||field - V_t||, from the difference field itself."""
    return h1_norm(field - field.cyl.bubble_field(t))
