"""Interaction integrals and residual diagnostics for widely separated sums
of bubbles.

The controlling small quantity for a configuration with centers t_1 < ... <
t_nu is Q = exp(-sqrt(Lambda) R) with R the minimal gap.  The module computes
the pairwise interaction integrals together with their predicted exponential
asymptotics, the modulus functions that appear in the remainder estimates,
the piecewise exponential weights W1/W2/W3 with their sup-norms, and the dual
norm of the residual of a bubble sum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cylinder import Cylinder, Grid, decay_half_width, sphere_area
from .operators import apply_H1, hminus1_norm
from .params import bubble_profile, bubble_profile_ds

__all__ = [
    "BubbleConfig",
    "interaction",
    "interaction_derivative",
    "moduli",
    "weight_profiles",
    "bubble_sum_residual",
    "MultiBubbleDiagnostics",
]

MARGIN = 30.0      # grid margin beyond the outermost center, in 1/sqrt(Lam)
MAX_CENTER = 500.0  # admissible |t|, in 1/sqrt(Lam)


@dataclass(frozen=True)
class BubbleConfig:
    """A sorted family of bubble centers with its interaction scale."""

    params: object
    centers: tuple
    zeta: float = 0.01

    def __post_init__(self):
        c = tuple(float(t) for t in self.centers)
        if len(c) < 1:
            raise ValueError("need at least one center")
        if not all(b > a for a, b in zip(c, c[1:])):
            raise ValueError("centers must be strictly increasing")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError(f"zeta must lie in (0, 1), got {self.zeta}")
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


def _pair_axis(params, t1, t2):
    """Axis of spacing at most 0.005 covering both centers and their margins."""
    scale = 1.0 / params.sqrt_lam
    if max(abs(t1), abs(t2)) > MAX_CENTER * scale:
        raise ValueError(
            f"centers exceed the extensible range {MAX_CENTER * scale:.1f}"
        )
    lo = min(t1, t2) - MARGIN * scale
    hi = max(t1, t2) + MARGIN * scale
    m = int(math.ceil((hi - lo) / 0.005))
    s = np.linspace(lo, hi, m + 1)
    return s, (hi - lo) / m


def _trapz(vals, h):
    return h * (float(np.sum(vals)) - 0.5 * (vals[0] + vals[-1]))


def interaction(params, t1, t2, q1, q2):
    """int over the cylinder of V_{t1}^{q1} V_{t2}^{q2}; needs q1 + q2 = p."""
    if q1 < 0 or q2 < 0:
        raise ValueError("exponents must be nonnegative")
    if abs(q1 + q2 - params.p) > 1e-12:
        raise ValueError(f"exponents must sum to p = {params.p}")
    s, h = _pair_axis(params, t1, t2)
    vals = bubble_profile(params, s, t1) ** q1 * bubble_profile(params, s, t2) ** q2
    return sphere_area(params.n) * _trapz(vals, h)


def interaction_derivative(params, t1, t2):
    """int over the cylinder of V_{t1}^{p-1} ds V_{t2}.

    Positive when t1 < t2; for well-separated centers it tracks
    exp(sqrt(Lambda) (t1 - t2)).
    """
    s, h = _pair_axis(params, t1, t2)
    vals = bubble_profile(params, s, t1) ** (params.p - 1.0) * bubble_profile_ds(
        params, s, t2
    )
    return sphere_area(params.n) * _trapz(vals, h)


def moduli(kind, p, x, nu=2):
    """The modulus functions governing the remainder estimates.

    kind = "F1": identity for p > 3 or a single bubble, x |ln x|^{1/2} + x at
    p = 3, and x^{(p-1)/2} for 2 < p < 3 (multi-bubble branches).
    kind = "F2": x^2 for p >= 3, x^{p-1} below.
    kind = "F3": identity for p > 3, x^{(p-1)/2} (-ln x)^{(p-1)/p} for p <= 3.
    """
    if p <= 2:
        raise ValueError(f"p must exceed 2, got {p}")
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got {x}")
    if kind == "F1":
        if p > 3 or nu == 1:
            return x
        if x >= 1.0:
            raise ValueError("log-bearing branch needs 0 < x < 1")
        if p == 3:
            return x * math.sqrt(abs(math.log(x))) + x
        return x ** ((p - 1.0) / 2.0)
    if kind == "F2":
        return x * x if p >= 3 else x ** (p - 1.0)
    if kind == "F3":
        if p > 3:
            return x
        if x >= 1.0:
            raise ValueError("log-bearing branch needs 0 < x < 1")
        return x ** ((p - 1.0) / 2.0) * (-math.log(x)) ** ((p - 1.0) / p)
    raise ValueError(f"unknown modulus kind {kind!r}")


def weight_profiles(config, s):
    """The comparison weights W1, W2, W3 of a configuration, evaluated on s.

    Piecewise exponentials built from phi_i(s) = exp(-sqrt(Lam)|s - t_i|):
    inner windows carry the neighbour scale Q_{i,i+1} with power p-3 profiles,
    outer tails decay like phi^{1 - zeta}, and unit neighbourhoods of the
    centers sit at the global scale Q.
    """
    par = config.params
    p = par.p
    t = config.centers
    nu = config.nu
    if nu < 2:
        raise ValueError("weights are defined for nu >= 2 configurations")
    rl = par.sqrt_lam
    zeta = config.zeta
    Q = config.Q
    s = np.asarray(s, dtype=float)
    phi = [np.exp(-rl * np.abs(s - ti)) for ti in t]

    W1 = np.zeros_like(s)
    W3 = np.zeros_like(s)
    for i in range(nu - 1):
        Qn = config.Q_pair(i, i + 1)
        mid = 0.5 * (t[i] + t[i + 1])
        W1 += Qn * phi[i] ** (p - 3.0) * ((t[i] + 1 <= s) & (s <= mid))
        W1 += Qn * phi[i + 1] ** (p - 3.0) * ((mid <= s) & (s <= t[i + 1] - 1))
        W3 += Qn * phi[i] ** (p - 3.0) * ((t[i] + 2 <= s) & (s <= mid))
        W3 += Qn * phi[i + 1] ** (p - 3.0) * ((mid <= s) & (s <= t[i + 1] - 2))
    W1 += config.Q_pair(nu - 2, nu - 1) * phi[-1] ** (1 - zeta) * (s >= t[-1] + 1)
    W1 += config.Q_pair(0, 1) * phi[0] ** (1 - zeta) * (s <= t[0] - 1)
    W3 += config.Q_pair(nu - 2, nu - 1) * phi[-1] ** (1 - zeta) * (s >= t[-1] + 2)
    W3 += config.Q_pair(0, 1) * phi[0] ** (1 - zeta) * (s <= t[0] - 2)
    for i in range(nu):
        W1 += Q * ((t[i] - 1 <= s) & (s <= t[i] + 1))
        W3 += Q * ((t[i] - 2 <= s) & (s <= t[i] + 2))

    W2 = np.zeros_like(s)
    edges = [-np.inf] + [0.5 * (a + b) for a, b in zip(t, t[1:])] + [np.inf]
    for i in range(nu):
        W2 += Q * phi[i] ** (1 - zeta) * ((edges[i] <= s) & (s < edges[i + 1]))
    return W1, W2, W3


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


def bubble_sum_residual(config):
    """Dual-norm residual of sigma = sum_i V_{t_i} plus weighted-gap norms.

    Builds a symmetric grid of spacing at most 0.01, wide enough to cover
    every center with the usual decay margin, evaluates the residual of the bubble sum, and measures
    sigma^{p-1} - sum_i V_{t_i}^{p-1} in the weighted sup-norm matching the
    exponent branch (W1 for 2 < p < 4, W2 for p >= 4).
    """
    par = config.params
    p = par.p
    scale = 1.0 / par.sqrt_lam
    S = max(abs(config.centers[0]), abs(config.centers[-1])) + (MARGIN + 2.0) * scale
    S = max(S, decay_half_width(par))
    N = int(math.ceil(2.0 * S / 0.01)) + 1
    if N % 2 == 0:
        N += 1
    # sigma is radial and only sector 0 is read, so the smallest angular rule will do
    cyl = Cylinder(par, grid=Grid(S=S, N=max(N, 4097)), L=1)

    s = cyl.grid.s
    profs = [bubble_profile(par, s, t) for t in config.centers]
    sigma = np.sum(profs, axis=0)
    res = hminus1_norm(apply_H1(cyl.from_radial(sigma)))

    gap_fn = sigma ** (p - 1.0) - np.sum([v ** (p - 1.0) for v in profs], axis=0)
    if config.nu >= 2:
        W1, W2, _ = weight_profiles(config, s)
        if p >= 4.0:
            norm_index, gap_norm = 2, _weighted_sup(gap_fn, W2)
        else:
            norm_index, gap_norm = 1, _weighted_sup(gap_fn, W1)
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
