"""The cylinder operator, its linearization, and the dual-norm machinery.

The distributional residual of a field v is

    H(v) = v_ss + Delta_theta v - Lambda v + |v|^{p-2} v,

and its dual norm is realized exactly as the Riesz dual of the discrete H^1
inner product: solve (-d^2 - Delta_theta + Lambda) phi = f sector by sector
and return sqrt(<f, phi>).  Because the same banded operators define both the
inner product and the solve, <f, phi> = ||phi||_{H^1}^2 holds at roundoff.
"""

import logging
import math

import numpy as np

from ._discrete import fold, fold_weights, nonlinearity, unfold
from .cylinder import ZonalField, duality_pairing, pointwise_map_with_tail

__all__ = [
    "Residual",
    "apply_H1",
    "linearized_apply",
    "riesz_solve",
    "hminus1_norm",
    "bvp_solve",
    "fit_decay_rate",
]

log = logging.getLogger(__name__)

TAIL_BUDGET = 1e-8  # relative angular energy the nonlinearity may shed


class Residual(ZonalField):
    """Field layout reused for elements of the dual space.

    ``tail_fraction`` records the relative angular energy discarded when the
    nonlinearity was projected back to degrees <= L.
    """

    def __init__(self, cyl, profiles, tail_fraction=0.0):
        super().__init__(cyl, profiles)
        self.tail_fraction = tail_fraction


def apply_H1(v):
    """Residual v_ss + Delta_theta v - Lambda v + |v|^{p-2} v of a field."""
    cyl = v.cyl
    p = cyl.params.p
    out = np.empty_like(v.profiles)
    for l in range(cyl.L + 1):
        out[l] = -(cyl.sector_ops[l] @ v.profiles[l])
    nonlin, tail = pointwise_map_with_tail(v, lambda z: nonlinearity(z, p))
    if tail > TAIL_BUDGET:
        log.warning("nonlinearity shed %.2e of its angular energy (budget %e)", tail, TAIL_BUDGET)
    return Residual(cyl, out + nonlin.profiles, tail_fraction=tail)


def linearized_apply(rho, t=0.0):
    """-rho_ss - Delta_theta rho + Lambda rho - (p-1) V_t^{p-2} rho.

    The potential is radial, so it acts on each harmonic profile directly; no
    angular synthesis is involved and no tail is shed.
    """
    cyl = rho.cyl
    p = cyl.params.p
    weight = (p - 1.0) * cyl.bubble(t) ** (p - 2.0)
    out = np.empty_like(rho.profiles)
    for l in range(cyl.L + 1):
        out[l] = cyl.sector_ops[l] @ rho.profiles[l] - weight * rho.profiles[l]
    return Residual(cyl, out)


def riesz_solve(f):
    """Solve (-d^2 - Delta_theta + Lambda) phi = f sector-wise.

    The sector operators are positive definite with spectrum inside
    [Lambda, 64/(12 h^2) + lam_L + Lambda], so an upper conditioning bound is
    available for free; it is reported if it ever reaches 1e12 (it sits near
    1e5 on default grids).  Each sector's Cholesky factor is computed on the
    first solve and reused for the life of the cylinder.
    """
    cyl = f.cyl
    h = cyl.grid.h
    cond_bound = (
        64.0 / (12.0 * h * h) + cyl.sphere.eigenvalue(cyl.L) + cyl.params.Lam
    ) / cyl.params.Lam
    if cond_bound > 1e12:
        log.warning("sector solve conditioning bound %.2e exceeds 1e12", cond_bound)
    out = np.zeros_like(f.profiles)
    for l in range(cyl.L + 1):
        if np.any(f.profiles[l]):
            out[l] = cyl.sector_ops[l].cho_solve(f.profiles[l])
    return ZonalField(cyl, out)


def hminus1_norm(f):
    """Dual norm sqrt(<f, riesz_solve(f)>); equals the H^1 norm of the solve."""
    phi = riesz_solve(f)
    return math.sqrt(max(duality_pairing(f, phi), 0.0))


def _parity_of(prof):
    flipped = prof[::-1]
    scale = float(np.max(np.abs(prof)))
    if scale == 0.0:
        return "even"
    if float(np.max(np.abs(prof - flipped))) <= 1e-12 * scale:
        return "even"
    if float(np.max(np.abs(prof + flipped))) <= 1e-12 * scale:
        return "odd"
    raise ValueError("rhs must be even or odd about s = 0")


def bvp_solve(cyl, ell, rhs):
    """Decaying g with -g'' + (ell(ell+n-2) + Lambda) g - (p-1) V0^{p-2} g = rhs.

    The potential is built from the discrete ground state.  The right-hand
    side must be even or odd about s = 0 (``ValueError`` otherwise), and the
    solve is restricted to that parity class, which keeps the operator safely
    invertible even in the axial sector, where the translation mode would
    otherwise sit near the kernel.  The guard is the relative residual of g
    in the full-grid operator: a near-singular solve (an odd right-hand side
    in the axial sector, say) fails it, and any residual above 1e-9 raises
    ``ArithmeticError``.
    """
    params = cyl.params
    N, h = cyl.grid.N, cyl.grid.h
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (N,):
        raise ValueError("rhs must be an axial profile on the grid")
    weight = (params.p - 1.0) * cyl.ground_state ** (params.p - 2.0)
    full = cyl.neg_d2.shifted(cyl.sphere.eigenvalue(ell) + params.Lam - weight)

    parity = _parity_of(rhs)
    x = full.fold(parity).solve(fold_weights(N, parity) * fold(rhs, parity))
    g = unfold(x, parity)

    resid = full @ g - rhs
    rel = math.sqrt(h * float(resid @ resid)) / max(
        math.sqrt(h * float(rhs @ rhs)), 1e-300
    )
    if not rel <= 1e-9:  # a non-finite solve gives rel = nan and fails too
        raise ArithmeticError(
            f"axial solve residual {rel:.2e} exceeds 1e-9 in sector ell={ell}"
        )
    return g


def fit_decay_rate(s, profile):
    """Least-squares exponential decay rate of |profile| on its right tail.

    Fits log|g| against s over the window where |g| lies between 1e-3 and
    1e-8 times its peak, away from both the core and the truncation floor.
    """
    g = np.abs(np.asarray(profile, dtype=float))
    peak = float(np.max(g))
    i0 = int(np.argmax(g))
    mask = np.zeros_like(g, dtype=bool)
    mask[i0:] = (g[i0:] < 1e-3 * peak) & (g[i0:] > 1e-8 * peak)
    if np.count_nonzero(mask) < 8:
        raise ValueError("tail window too short to fit a decay rate")
    slope = np.polyfit(s[mask], np.log(g[mask]), 1)[0]
    return -float(slope)
