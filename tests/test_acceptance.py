"""Acceptance battery.

Each test prints one PASS/FAIL line (run with -s to see them while green;
failures surface through the asserts regardless).  Expensive artifacts --
the slope studies at the four reference points and the 30-point constant
sweep -- are computed once per session and shared.
"""

import math

import numpy as np
import pytest

import cknstab as ck
from cknstab._oracles import bubble_mass_exact, plane_bubble, sphere_moment_beta
from inequalities import inequality_ratio

REFERENCE_POINTS = [(3, 4.0), (2, 4.0), (3, 3.0), (4, 3.0)]  # (n, p)

SPECTRUM_SWEEP = [
    (2, 2.4), (2, 3.0), (2, 4.0), (2, 6.0), (2, 9.0),
    (3, 2.4), (3, 3.0), (3, 4.0), (3, 5.0), (3, 5.7),
    (4, 2.4), (4, 2.8), (4, 3.2), (4, 3.6), (4, 3.9),
    (5, 2.3), (5, 2.6), (5, 2.9), (5, 3.1), (5, 3.3),
]

CONSTANTS_SWEEP = [
    (2, 2.5), (2, 3.0), (2, 4.0), (2, 6.0), (2, 9.0), (2, 12.0),
    (3, 2.5), (3, 3.0), (3, 3.5), (3, 4.0), (3, 4.5), (3, 5.0), (3, 5.5), (3, 5.8),
    (4, 2.3), (4, 2.6), (4, 3.0), (4, 3.3), (4, 3.6), (4, 3.9),
    (5, 2.2), (5, 2.4), (5, 2.6), (5, 2.8), (5, 3.0), (5, 3.2),
    (6, 2.2), (6, 2.4), (6, 2.6), (6, 2.8),
]


def report(idx, label, detail=""):
    print(f"ACCEPTANCE {idx:2d} [{label}]: PASS  {detail}")


@pytest.fixture(scope="module")
def study_cylinders():
    return {(n, p): ck.Cylinder(ck.from_pn(p, n), refine=ck.stability.STUDY_REFINE)
            for n, p in REFERENCE_POINTS}


@pytest.fixture(scope="module")
def sharp_reports(study_cylinders):
    out = {}
    mus = np.geomspace(1e-3, 3e-2, 7)
    for n, p in REFERENCE_POINTS:
        out[(n, p)] = ck.sharpness_study(study_cylinders[(n, p)], mus)
    return out


@pytest.fixture(scope="module")
def reference_constants():
    out = {}
    for n, p in REFERENCE_POINTS:
        out[(n, p)] = ck.stability_constants(ck.Cylinder(ck.from_pn(p, n)))
    return out


@pytest.fixture(scope="module")
def constants_sweep():
    rows = []
    for n, p in CONSTANTS_SWEEP:
        cyl = ck.Cylinder(ck.from_pn(p, n))
        rows.append((n, p, ck.compute_E0(cyl), ck.compute_F(cyl)))
    return rows


def test_01_spectrum_certification():
    worst = 0.0
    worst_margin = math.inf
    for n, p in SPECTRUM_SWEEP:
        cyl = ck.Cylinder(ck.from_pn(p, n))
        s0 = ck.eigensolve_sector(cyl, 0, k=2)
        s1 = ck.eigensolve_sector(cyl, 1, k=1)
        worst = max(
            worst,
            abs(s0.eigenvalues[0] - 1.0),
            abs(s0.eigenvalues[1] - (p - 1.0)),
            abs(s1.eigenvalues[0] - (p - 1.0)),
        )
        assert abs(s0.eigenvalues[0] - 1.0) <= 1e-4
        assert abs(s0.eigenvalues[1] - (p - 1.0)) <= 1e-4
        assert abs(s1.eigenvalues[0] - (p - 1.0)) <= 1e-4
        g3 = ck.gamma3(cyl)
        worst_margin = min(worst_margin, g3 - (p - 1.0))
        assert g3 > p - 1.0 + 1e-3
    report(1, "spectrum", f"max |gamma err| {worst:.2e}, min gap {worst_margin:.3f}")


def test_02_operator_exactness():
    par = ck.from_pn(4.0, 3)
    floors = {}
    for refine, bound in ((1, 1e-6), (2, 1e-7)):
        cyl = ck.Cylinder(par, refine=refine)
        for t in (0.0, 1.7):
            r = ck.hminus1_norm(ck.apply_H1(cyl.bubble_field(t)))
            floors[(refine, t)] = r
            assert r <= bound
    report(2, "operator exactness", f"floors {[f'{v:.1e}' for v in floors.values()]}")


def test_03_sharpness_slopes(sharp_reports):
    for (n, p), rep in sharp_reports.items():
        assert abs(rep.residual_slope - 3.0) <= 0.10, (n, p, rep.residual_slope)
        assert abs(rep.distance_slope - 1.0) <= 0.02, (n, p, rep.distance_slope)
        assert abs(rep.naive_slope - 2.0) <= 0.10, (n, p, rep.naive_slope)
    report(3, "cubic vs quadratic slopes",
           "; ".join(f"(n={n},p={p}): r {r.residual_slope:.3f}, d {r.distance_slope:.3f}, "
                     f"naive {r.naive_slope:.3f}" for (n, p), r in sharp_reports.items()))


def test_04_asymptotic_ratio_constant(sharp_reports, reference_constants):
    details = []
    for (n, p), rep in sharp_reports.items():
        drift = rep.ratio_drift()
        assert np.all(drift <= 0.05), (n, p, drift)
        limit = rep.ratios[0]
        R = reference_constants[(n, p)].R_gamma
        assert limit >= 0.95 * R, (n, p, limit, R)
        details.append(f"(n={n},p={p}): lim/R {limit / R:.3f}")
    report(4, "ratio limit vs R", "; ".join(details))


def test_05_two_route_R(reference_constants):
    for (n, p), sc in reference_constants.items():
        assert abs(sc.R_gamma - sc.R_energy) <= 0.01 * sc.R_gamma, (n, p)
        assert sc.tail_bound <= 1e-9, (n, p)
    report(5, "two-route R",
           "; ".join(f"(n={n},p={p}): rel {abs(s.R_gamma - s.R_energy) / s.R_gamma:.1e}"
                     for (n, p), s in reference_constants.items()))


def test_06_constant_signs_and_limit(constants_sweep):
    for n, p, E0, F in constants_sweep:
        assert F > 0.0, (n, p)
        assert E0 + F > 0.0, (n, p)
    track = [E0 / F + 1.0 for n, p, E0, F in constants_sweep
             if n == 3 and p in (4.0, 5.0, 5.5, 5.8)]
    assert len(track) == 4
    assert all(x > 0 for x in track)
    assert all(a > b for a, b in zip(track, track[1:]))
    report(6, "constant signs", f"E0/F+1 along p: {[f'{x:.4f}' for x in track]}")


def test_07_interaction_windows():
    par = ck.from_pn(4.0, 3)
    rl = par.sqrt_lam
    gaps = np.linspace(4.0 / rl, 12.0 / rl, 9)
    p = par.p
    r1, r2, r3, rq, rw = [], [], [], [], []
    for g in gaps:
        t1, t2 = -g / 2.0, g / 2.0
        cyl = ck.window_cylinder(par, (t1, t2))
        r1.append(ck.interaction(cyl, t1, t2, 1.0, p - 1.0) / math.exp(-rl * g))
        r2.append(ck.interaction(cyl, t1, t2, p / 2, p / 2)
                  / ((g + 1.0) * math.exp(-p * rl / 2.0 * g)))
        val = ck.interaction_derivative(cyl, t1, t2)
        assert val > 0
        r3.append(val / math.exp(-rl * g))
        diag = ck.bubble_sum_residual(cyl, (t1, t2))
        rq.append(diag.residual_over_Q)
        rw.append(diag.nonlinear_gap_norm)
    factors = [max(r) / min(r) for r in (r1, r2, r3, rq, rw)]
    assert all(f <= 10.0 for f in factors)
    report(7, "interaction windows", f"window factors {[f'{f:.2f}' for f in factors]}")


def test_08_scaling_triple(sharp_reports):
    for (n, p), rep in sharp_reports.items():
        assert abs(rep.proj_slope - 1.0) <= 0.10, (n, p, rep.proj_slope)
        assert abs(rep.perp_slope - 2.0) <= 0.10, (n, p, rep.perp_slope)
        assert abs(rep.residual_slope - 3.0) <= 0.10, (n, p, rep.residual_slope)
    report(8, "scaling triple",
           "; ".join(f"(n={n},p={p}): ({r.proj_slope:.3f}, {r.perp_slope:.3f}, "
                     f"{r.residual_slope:.3f})" for (n, p), r in sharp_reports.items()))


def test_09_corrector_identity(study_cylinders):
    worst_res, worst_orth = 0.0, 0.0
    for n, p in REFERENCE_POINTS:
        cor = ck.corrector(study_cylinders[(n, p)])
        worst_res = max(worst_res, cor.identity_residual_l2)
        worst_orth = max(worst_orth, max(abs(o) for o in cor.orthogonality))
        assert cor.identity_residual_l2 <= 1e-7, (n, p)
        assert max(abs(o) for o in cor.orthogonality) <= 1e-8, (n, p)
    report(9, "corrector identity", f"max defect {worst_res:.1e}, orth {worst_orth:.1e}")


def test_10_infrastructure_oracles():
    # sphere moments against the Beta-integral route
    for n in (2, 3, 4, 5):
        for k in (1, 2, 3):
            oracle = sphere_moment_beta(n, k)
            assert abs(ck.sphere_moment(n, k) - oracle) <= 1e-12 * oracle

    # bubble mass against the Gamma closed form
    par = ck.from_pn(4.0, 3)
    cyl = ck.Cylinder(par)
    got = ck.lp_norm(cyl.bubble_field(), par.p) ** par.p
    exact = bubble_mass_exact(par, par.p) * ck.sphere_area(3)
    assert abs(got - exact) <= 1e-9 * exact

    # flat-space to cylinder round trip at two scales
    step = 0.005
    s = np.arange(-cyl.grid.S, cyl.grid.S + step, step)
    r = np.exp(-s)
    for lam in (1.0, math.e):
        fld = ck.emden_fowler(r, plane_bubble(par, lam, r), cyl)
        expect = ck.bubble_profile(par, cyl.grid.s, math.log(lam))
        assert np.max(np.abs(fld.radial_profile() - expect)) <= 1e-10

    # elementary-inequality constants stay finite at each reference point
    rng = np.random.default_rng(2024)
    for n, p in REFERENCE_POINTS:
        x = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3, 3, 10_000)
        y = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3, 3, 10_000)
        assert math.isfinite(inequality_ratio(p, x, y))
    report(10, "infrastructure oracles", "moments, mass, transform, inequalities")
