"""Interaction integrals and residual diagnostics for widely separated sums
of bubbles.

The controlling small quantity for a configuration with centers t_1 < ... <
t_nu is Q = exp(-sqrt(Lambda) R) with R the minimal gap.  The module computes
the pairwise interaction integrals together with their predicted exponential
asymptotics, the piecewise exponential weights W1/W2 with their sup-norms,
and the dual norm of the residual of a bubble sum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cylinder import Cylinder, Grid, decay_half_width, sphere_area
from .operators import apply_H1, hminus1_norm

__all__ = [
    "BubbleConfig",
    "window_cylinder",
    "interaction",
    "interaction_derivative",
    "bubble_sum_residual",
]

MARGIN = 30.0      # grid margin beyond the outermost center, in 1/sqrt(Lam)
MAX_CENTER = 500.0  # admissible |t|, in 1/sqrt(Lam)
ZETA = 0.01         # the weights decay like phi^{1 - ZETA} away from the centers


@dataclass(frozen=True)
class BubbleConfig:
    """A sorted family of bubble centers with its interaction scale."""

    params: object
    centers: tuple

    def __post_init__(self):
        c = tuple(float(t) for t in self.centers)
        if len(c) < 1:
            raise ValueError("need at least one center")
        if not all(b > a for a, b in zip(c, c[1:])):
            raise ValueError("centers must be strictly increasing")
        object.__setattr__(self, "centers", c)

    @property
    def nu(self):
        return len(self.centers)

    @property
    def min_gap(self):
        if self.nu < 2:
            return math.inf
        return min(b - a for a, b in zip(self.centers, self.centers[1:]))

    @property
    def Q(self):
        if self.nu < 2:
            return 0.0
        return math.exp(-self.params.sqrt_lam * self.min_gap)

    def Q_pair(self, i, j):
        return math.exp(
            -self.params.sqrt_lam * abs(self.centers[i] - self.centers[j])
        )


def window_cylinder(params, centers):
    """The one cylinder the window functions below read for these centers: L = 1,
    spacing at most 0.01 on an odd N >= 4097, and half-width past every center
    by (MARGIN + 2)/sqrt(Lam) and at least ``decay_half_width``.  Refuses
    centers, or a span between them, beyond MAX_CENTER/sqrt(Lam)."""
    scale = 1.0 / params.sqrt_lam
    lo, hi = min(centers), max(centers)
    if max(hi - lo, -lo, hi) > MAX_CENTER * scale:
        raise ValueError(f"centers exceed the extensible range {MAX_CENTER * scale:.1f}")
    S = max(max(-lo, hi) + (MARGIN + 2.0) * scale, decay_half_width(params))
    N = 2 * int(math.ceil(S / 0.01)) + 1
    return Cylinder(params, grid=Grid(S=S, N=max(N, 4097)), L=1)


def _check_inside(cyl, centers):
    """Refuse centers closer than MARGIN/sqrt(Lam) to the grid's end, which would
    cut their bubbles off."""
    reach = cyl.grid.S - MARGIN / cyl.params.sqrt_lam
    if not all(abs(t) <= reach for t in centers):
        raise ValueError(f"centers {tuple(centers)} exceed the grid's reach {reach:.1f}")


def interaction(cyl, t1, t2, q1, q2):
    """int over the cylinder of V_{t1}^{q1} V_{t2}^{q2}; needs q1 + q2 = p."""
    par = cyl.params
    if q1 < 0 or q2 < 0:
        raise ValueError("exponents must be nonnegative")
    if abs(q1 + q2 - par.p) > 1e-12:
        raise ValueError(f"exponents must sum to p = {par.p}")
    _check_inside(cyl, (t1, t2))
    return sphere_area(par.n) * cyl.quad_s(cyl.bubble_power(t1, q1) * cyl.bubble_power(t2, q2))


def interaction_derivative(cyl, t1, t2):
    """int over the cylinder of V_{t1}^{p-1} ds V_{t2}.

    Positive when t1 < t2; for well-separated centers it tracks
    exp(sqrt(Lambda) (t1 - t2)).
    """
    _check_inside(cyl, (t1, t2))
    vals = cyl.bubble_power(t1, cyl.params.p - 1.0) * cyl.bubble_ds(t2)
    return sphere_area(cyl.params.n) * cyl.quad_s(vals)


def _decays(config, s):
    """phi_i(s) = exp(-sqrt(Lam)|s - t_i|) for each center t_i."""
    return [np.exp(-config.params.sqrt_lam * np.abs(s - ti)) for ti in config.centers]


def _windowed_weight(config, s, phi):
    """W1: the weight that keeps distance 1 from the centers."""
    p, t, nu = config.params.p, config.centers, config.nu
    W = np.zeros_like(s)
    for i in range(nu - 1):
        Qn = config.Q_pair(i, i + 1)
        mid = 0.5 * (t[i] + t[i + 1])
        W += Qn * phi[i] ** (p - 3.0) * ((t[i] + 1 <= s) & (s <= mid))
        W += Qn * phi[i + 1] ** (p - 3.0) * ((mid <= s) & (s <= t[i + 1] - 1))
    W += config.Q_pair(nu - 2, nu - 1) * phi[-1] ** (1 - ZETA) * (s >= t[-1] + 1)
    W += config.Q_pair(0, 1) * phi[0] ** (1 - ZETA) * (s <= t[0] - 1)
    for ti in t:
        W += config.Q * ((ti - 1 <= s) & (s <= ti + 1))
    return W


def _cell_weight(config, s, phi):
    """W2: the global scale Q times phi_i^{1 - ZETA} on the cell of each center."""
    t = config.centers
    W = np.zeros_like(s)
    edges = [-np.inf] + [0.5 * (a + b) for a, b in zip(t, t[1:])] + [np.inf]
    for i in range(config.nu):
        W += config.Q * phi[i] ** (1 - ZETA) * ((edges[i] <= s) & (s < edges[i + 1]))
    return W


def _weighted_sup(vals, weight):
    mask = weight > 0
    if not np.any(mask):
        return math.inf
    return float(np.max(np.abs(vals[mask]) / weight[mask]))


@dataclass(frozen=True)
class MultiBubbleDiagnostics:
    residual: float
    Q: float
    residual_over_Q: float
    nonlinear_gap_norm: float   # the W-weighted norm matched to the p branch
    norm_index: int             # 1 for 2 < p < 4, 2 for p >= 4


def bubble_sum_residual(cyl, centers):
    """Dual-norm residual of sigma = sum_i V_{t_i} on the caller's cylinder (see
    :func:`window_cylinder`), and sigma^{p-1} - sum_i V_{t_i}^{p-1} in the
    weighted sup-norm of the exponent branch (W1 for 2 < p < 4, W2 for p >= 4).
    """
    config = BubbleConfig(params=cyl.params, centers=centers)
    _check_inside(cyl, config.centers)
    p, centers = cyl.params.p, config.centers
    sigma = np.sum([cyl.bubble(t) for t in centers], axis=0)
    res = hminus1_norm(apply_H1(cyl.from_radial(sigma)))

    gap_fn = sigma ** (p - 1.0) - np.sum([cyl.bubble_power(t, p - 1.0) for t in centers], axis=0)
    if config.nu >= 2:
        s = cyl.grid.s
        phi = _decays(config, s)
        if p >= 4.0:
            norm_index, weight = 2, _cell_weight(config, s, phi)
        else:
            norm_index, weight = 1, _windowed_weight(config, s, phi)
        gap_norm = _weighted_sup(gap_fn, weight)
        ratio = res / config.Q
    else:
        norm_index, gap_norm, ratio = 0, 0.0, math.nan
    return MultiBubbleDiagnostics(
        residual=res,
        Q=config.Q,
        residual_over_Q=ratio,
        nonlinear_gap_norm=gap_norm,
        norm_index=norm_index,
    )
