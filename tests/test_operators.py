import math

import numpy as np
import pytest

import cknstab as ck
from cknstab.cylinder import duality_pairing
from cknstab._oracles import bubble_mass_exact


@pytest.mark.parametrize("t", [0.0, 1.7])
def test_bubble_residual_floor(cyl34, t):
    r = ck.hminus1_norm(ck.apply_H1(cyl34.bubble_field(t)))
    assert r <= 1e-6


def test_apply_H1_zero(cyl34):
    out = ck.apply_H1(cyl34.zero_field())
    assert np.all(out.profiles == 0.0)


def test_apply_H1_doubled_bubble(par34, cyl34):
    p = par34.p
    out = ck.apply_H1(2.0 * cyl34.bubble_field())
    expect = (2.0 ** (p - 1.0) - 2.0) * cyl34.from_radial(cyl34.bubble() ** (p - 1.0))
    err = ck.hminus1_norm(ck.Residual(cyl34, out.profiles - expect.profiles))
    assert err <= 1e-6 * ck.hminus1_norm(expect)


def test_bubble_residual_stable_under_wider_truncation(par34, cyl34):
    # doubling the half-width must not move the floor: the Dirichlet
    # truncation error is already below the stencil error
    wide = ck.Cylinder(par34, grid=ck.Grid(S=2.0 * cyl34.grid.S, N=2 * cyl34.grid.N - 1))
    r_base = ck.hminus1_norm(ck.apply_H1(cyl34.bubble_field()))
    r_wide = ck.hminus1_norm(ck.apply_H1(wide.bubble_field()))
    assert r_wide <= 1e-6
    assert abs(r_wide - r_base) <= 0.5 * r_base


def test_apply_H1_tail_diagnostic(cyl34):
    w = cyl34.bubble_field() + 0.02 * cyl34.from_theta_power(
        cyl34.bubble() ** (cyl34.params.p / 2.0), 1
    )
    out = ck.apply_H1(w)
    assert out.tail_fraction <= 1e-8


def test_linearized_kernel_translation_mode(cyl34):
    rho = cyl34.from_radial(cyl34.bubble_ds(0.3))
    assert ck.hminus1_norm(ck.linearized_apply(rho, 0.3)) <= 1e-6


def test_linearized_kernel_degenerate_mode(par34, cyl34):
    rho = cyl34.from_theta_power(cyl34.bubble(0.3) ** (par34.p / 2.0), 1)
    assert ck.hminus1_norm(ck.linearized_apply(rho, 0.3)) <= 1e-6


def test_linearized_on_bubble(par34, cyl34):
    p = par34.p
    out = ck.linearized_apply(cyl34.bubble_field(), 0.0)
    expect = (2.0 - p) * cyl34.from_radial(cyl34.bubble() ** (p - 1.0))
    err = ck.hminus1_norm(ck.Residual(cyl34, out.profiles - expect.profiles))
    assert err <= 1e-6 * ck.hminus1_norm(expect)


def test_linearized_self_adjoint(cyl34):
    rng = np.random.default_rng(7)
    env = cyl34.bubble()
    f = cyl34.field(rng.standard_normal((cyl34.L + 1, cyl34.grid.N)) * env)
    g = cyl34.field(rng.standard_normal((cyl34.L + 1, cyl34.grid.N)) * env)
    a = duality_pairing(ck.linearized_apply(f), g)
    b = duality_pairing(ck.linearized_apply(g), f)
    assert a == pytest.approx(b, rel=1e-10)


def test_riesz_inverts_forward(cyl34):
    prof = np.zeros((cyl34.L + 1, cyl34.grid.N))
    for l in (0, 1, 3):
        prof[l] = cyl34.bubble() ** (1.0 + 0.5 * l)
    g = cyl34.field(prof)
    fprof = np.empty_like(prof)
    for l in range(cyl34.L + 1):
        fprof[l] = cyl34.sector_ops[l] @ prof[l]
    back = ck.riesz_solve(cyl34.field(fprof))
    assert np.max(np.abs(back.profiles - g.profiles)) <= 1e-8 * np.max(np.abs(g.profiles))


def test_riesz_zero(cyl34):
    assert ck.hminus1_norm(cyl34.zero_field()) == 0.0


def test_dual_norm_of_bubble_power(par34, cyl34):
    f = cyl34.from_radial(cyl34.bubble() ** (par34.p - 1.0))
    got = ck.hminus1_norm(f) ** 2
    exact = bubble_mass_exact(par34, par34.p) * ck.sphere_area(3)
    assert got == pytest.approx(exact, rel=1e-7)


def test_dual_norm_exactly_dual(cyl34):
    rng = np.random.default_rng(11)
    f = cyl34.field(rng.standard_normal((cyl34.L + 1, cyl34.grid.N)) * cyl34.bubble() ** 2)
    w = cyl34.field(rng.standard_normal((cyl34.L + 1, cyl34.grid.N)) * cyl34.bubble())
    fd = ck.Residual(cyl34, f.profiles)
    nf = ck.hminus1_norm(fd)
    assert abs(duality_pairing(fd, w)) <= nf * ck.h1_norm(w) * (1.0 + 1e-8)
    phi = ck.riesz_solve(fd)
    assert duality_pairing(fd, phi) == pytest.approx(nf * ck.h1_norm(phi), rel=1e-10)
    assert nf == pytest.approx(ck.h1_norm(phi), rel=1e-10)


@pytest.mark.parametrize("eps_pair", [(1e-3, 1e-4)])
def test_apply_H1_directional_derivative(par34, cyl34, eps_pair):
    rho = 0.3 * cyl34.from_theta_power(cyl34.bubble() ** (par34.p / 2.0), 1)
    v = cyl34.bubble_field()
    lin = ck.linearized_apply(rho, 0.0)
    errs = []
    for eps in eps_pair:
        diff = ck.Residual(
            cyl34,
            (ck.apply_H1(v + eps * rho).profiles - ck.apply_H1(v).profiles) / eps
            + lin.profiles,
        )
        errs.append(ck.hminus1_norm(diff))
    ratio = errs[0] / errs[1]
    assert 9.0 <= ratio <= 11.0


def test_bvp_decay_rate(par34, cyl34):
    p, n, lam = par34.p, par34.n, par34.Lam
    rhs = cyl34.ground_state ** (2.0 * p - 3.0)
    g = ck.bvp_solve(cyl34, 2, rhs)
    rate = ck.fit_decay_rate(cyl34.grid.s, g)
    expect = min(math.sqrt(2.0 * n + lam), (2.0 * p - 3.0) * math.sqrt(lam))
    assert rate == pytest.approx(expect, rel=0.02)


def test_bvp_zero_rhs(cyl34):
    g = ck.bvp_solve(cyl34, 2, np.zeros(cyl34.grid.N))
    assert np.all(g == 0.0)


def test_bvp_linearity(par34, cyl34):
    r1 = cyl34.ground_state ** (2.0 * par34.p - 3.0)
    r2 = 0.7 * cyl34.ground_state ** par34.p
    g1 = ck.bvp_solve(cyl34, 2, r1)
    g2 = ck.bvp_solve(cyl34, 2, r2)
    g12 = ck.bvp_solve(cyl34, 2, r1 + r2)
    scale = np.max(np.abs(g12))
    assert np.max(np.abs(g12 - g1 - g2)) <= 1e-10 * scale


def test_bvp_rejects_near_singular_operator(par34, cyl34):
    # the translation mode makes the axial-sector operator singular on odd
    # profiles; the residual check of the solve must catch it
    with pytest.raises(ArithmeticError, match="axial solve residual"):
        ck.bvp_solve(cyl34, 0, cyl34.bubble_ds())


def test_bvp_rejects_rhs_without_parity(par34, cyl34):
    # one grid point off center, the right-hand side is neither even nor odd
    rhs = np.roll(cyl34.ground_state ** (2.0 * par34.p - 3.0), 1)
    with pytest.raises(ValueError, match="even or odd"):
        ck.bvp_solve(cyl34, 2, rhs)


def test_bvp_residual_enforced(par34, cyl34):
    g = ck.bvp_solve(cyl34, 2, cyl34.ground_state ** (2.0 * par34.p - 3.0))
    lhs = (
        cyl34.neg_d2 @ g
        + (2.0 * 3 + par34.Lam) * g
        - (par34.p - 1.0) * cyl34.ground_state ** (par34.p - 2.0) * g
    )
    rhs = cyl34.ground_state ** (2.0 * par34.p - 3.0)
    num = math.sqrt(cyl34.grid.h * float(np.sum((lhs - rhs) ** 2)))
    den = math.sqrt(cyl34.grid.h * float(np.sum(rhs**2)))
    assert num / den <= 1e-9
