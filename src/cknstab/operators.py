"""The cylinder operator, the dual-norm machinery, and the axial solves.

The distributional residual of a field v is

    H(v) = v_ss + Delta_theta v - Lambda v + |v|^{p-2} v,

and its dual norm is realized exactly as the Riesz dual of the discrete H^1
inner product: sqrt(<f, phi>) with (-d^2 - Delta_theta + Lambda) phi = f
solved sector by sector.  Because the same banded operators define both the
inner product and the solve, <f, phi> = ||phi||_{H^1}^2 holds at roundoff.
With each sector's stored Cholesky factor A_l = U_l^T U_l, <f_l, phi_l> is
formed as ||U_l^{-T} f_l||^2, one triangular sweep in place of the solve's two.
"""

import logging
import math

import numpy as np

from ._discrete import fold, fold_weights, nonlinearity, unfold
from .cylinder import ZonalField, pointwise_map_with_tail

__all__ = [
    "Residual",
    "apply_H1",
    "riesz_solve",
    "hminus1_norm",
    "bvp_solve",
]

log = logging.getLogger(__name__)

TAIL_BUDGET = 1e-8  # relative angular energy the nonlinearity may shed


class Residual(ZonalField):
    """Field layout, ``degrees`` included, reused for elements of the dual space.

    ``tail_fraction`` records the relative angular energy discarded when the
    nonlinearity was projected back to degrees <= L; :func:`apply_H1` sets it
    on the field it returns, and it is 0.0 on any other.
    """

    tail_fraction = 0.0


def apply_H1(v):
    """Residual v_ss + Delta_theta v - Lambda v + |v|^{p-2} v of a field.

    The residual is formed in the projected nonlinearity's array, with the
    band matvec of each sector in ``v.degrees`` subtracted from its row.  The
    nonlinearity touches only degree 0 when v has no angular dependence (see
    :func:`pointwise_map_with_tail`); then the result is zero in every sector
    l > 0 and its ``tail_fraction`` is exactly 0.0.
    """
    cyl = v.cyl
    p = cyl.params.p
    out, tail = pointwise_map_with_tail(v, lambda z: nonlinearity(z, p))
    if tail > TAIL_BUDGET:
        log.warning("nonlinearity shed %.2e of its angular energy (budget %e)", tail, TAIL_BUDGET)
    for l in v.degrees:
        out[l] -= cyl.sector_op(l) @ v.profiles[l]
    r = Residual._adopt(cyl, out)
    r.tail_fraction = tail
    return r


def riesz_solve(f):
    """Solve (-d^2 - Delta_theta + Lambda) phi = f sector-wise.

    The sector operators are positive definite with spectrum inside
    [Lambda, 64/(12 h^2) + lam_L + Lambda], so an upper conditioning bound is
    available for free; it is reported if it ever reaches 1e12 (it sits near
    1e5 on default grids).  Only the sectors in ``f.degrees`` are solved, so
    a field with no angular dependence touches sector 0 alone.  Each sector's
    Cholesky factor is computed on the first solve in that sector and reused
    for the life of the cylinder.
    """
    cyl = f.cyl
    _check_conditioning(cyl)
    out = np.zeros_like(f.profiles)
    for l in f.degrees:
        out[l] = cyl.sector_op(l).cho_solve(f.profiles[l])
    return ZonalField._adopt(cyl, out)


def hminus1_norm(f):
    """Dual norm sqrt(<f, riesz_solve(f)>); equals the H^1 norm of the solve.

    Formed as sqrt(h sum_l ||U_l^{-T} f_l||^2) from each sector's stored
    factor A_l = U_l^T U_l, over the sectors in ``f.degrees``, with the
    conditioning report of :func:`riesz_solve`.
    """
    cyl = f.cyl
    _check_conditioning(cyl)
    tot = 0.0
    for l in f.degrees:
        y = cyl.sector_op(l).cho_half_solve(f.profiles[l])
        tot += float(y @ y)
    return math.sqrt(cyl.grid.h * tot)


def _check_conditioning(cyl):
    h = cyl.grid.h
    cond_bound = (
        64.0 / (12.0 * h * h) + cyl.sphere.eigenvalue(cyl.L) + cyl.params.Lam
    ) / cyl.params.Lam
    if cond_bound > 1e12:
        log.warning("sector solve conditioning bound %.2e exceeds 1e12", cond_bound)


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

