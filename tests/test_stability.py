import gc
import logging
import math
import weakref

import numpy as np
import pytest

import cknstab as ck
from cknstab import stability
from cknstab.stability import _ratio_series
from cknstab._oracles import bubble_mass_exact


# --- manifold fitting -------------------------------------------------------


def test_nearest_bubble_on_manifold(cyl34):
    v = cyl34.bubble_field(1.3)
    fit = ck.nearest_bubble(v)
    assert fit.t_star == pytest.approx(1.3, abs=1e-6)
    assert fit.distance <= 1e-8
    assert fit.stationarity <= 1e-8
    # a local minimum: one grid step to either side is no closer
    for t in (fit.t_star - cyl34.grid.h, fit.t_star + cyl34.grid.h):
        assert stability._distance_to_bubble(v, t) >= fit.distance


def test_nearest_bubble_orthogonal_perturbation(par34, cyl34):
    y = cyl34.from_theta_power(cyl34.bubble() ** (par34.p / 2.0), 1)
    v = cyl34.bubble_field() + 0.01 * y
    fit = ck.nearest_bubble(v)
    assert fit.t_star == pytest.approx(0.0, abs=1e-6)
    assert fit.projY > 0.0


def test_nearest_bubble_translation_equivariance(par34, cyl34):
    y = cyl34.from_theta_power(cyl34.bubble() ** (par34.p / 2.0), 1)
    v = cyl34.bubble_field() + 0.02 * y
    fit0 = ck.nearest_bubble(v)
    shift = 40  # grid points
    rolled = np.zeros_like(v.profiles)
    rolled[:, shift:] = v.profiles[:, :-shift]
    fit1 = ck.nearest_bubble(cyl34.field(rolled))
    tau = shift * cyl34.grid.h
    assert fit1.t_star - fit0.t_star == pytest.approx(tau, abs=1e-8)


def test_nearest_bubble_norm_guard(cyl34):
    with pytest.raises(ValueError):
        ck.nearest_bubble(0.01 * cyl34.bubble_field())


def test_nearest_bubble_rejects_center_outside_scan(cyl34):
    with pytest.raises(ValueError, match="no interior distance minimum"):
        ck.nearest_bubble(cyl34.bubble_field(0.8 * cyl34.grid.S))


def test_fit_scan_matches_direct_pairings(par34, cyl34):
    v = cyl34.bubble_field(0.37) + 0.05 * cyl34.from_radial(cyl34.bubble(-2.0) ** 2)
    u0 = cyl34.sector_op(0) @ v.profiles[0]
    ts, gs = stability._dbubble_scan(cyl34, u0)
    root_area = math.sqrt(ck.sphere_area(par34.n))
    direct = np.array([cyl34.grid.h * float(u0 @ cyl34.bubble_ds(t)) * root_area for t in ts])
    np.testing.assert_allclose(gs, direct, rtol=1e-12)


def test_nearest_bubble_off_multiple_lattice(par34, cyl34):
    # m = 2049 is not a multiple of 128, so the scan points are rounded to the lattice
    cyl = ck.Cylinder(par34, grid=ck.Grid(S=cyl34.grid.S, N=4099))
    fit = ck.nearest_bubble(cyl.bubble_field(0.37))
    assert fit.t_star == pytest.approx(0.37, abs=1e-8)
    assert fit.stationarity <= 1e-8


@pytest.mark.parametrize("N", [129, 131, 255, 1001, 4097, 4099, 8193, 40961])
def test_fit_scan_points_distinct(N):
    grid = ck.Grid(S=20.0, N=N)
    js = stability._scan_lattice(grid)
    assert np.all(np.diff(js) > 0)
    assert np.all(np.abs(js * grid.h) <= grid.S / 2 + grid.h / 2)
    if (N - 1) % 256 == 0:  # m a multiple of 128: 129 points, evenly spaced
        assert len(js) == 129 and np.all(np.diff(js) == (N - 1) // 256)


def _polish_family():
    """Seeded smooth functions with simple roots, as (g, g') pairs, with
    brackets of both orientations."""
    rng = np.random.default_rng(2024)
    for i in range(240):
        r, c = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-2.0, 3.0)
        f = [
            lambda x, r=r, c=c: (math.tanh(c * (x - r)) + 0.05 * (x - r),
                                 c * (1.0 - math.tanh(c * (x - r)) ** 2) + 0.05),
            lambda x, r=r, c=c: (math.atan(c * (x - r)), c / (1.0 + (c * (x - r)) ** 2)),
            lambda x, r=r, c=c: (c * (x - r) + (x - r) ** 3, c + 3.0 * (x - r) ** 2),
            lambda x, r=r, c=c: (math.expm1(0.1 * c * (x - r)),
                                 0.1 * c * math.exp(0.1 * c * (x - r))),
        ][i % 4]
        a, b = rng.uniform(-3.0, r), rng.uniform(r, 3.0)
        yield r, f, ((a, b) if rng.random() < 0.5 else (b, a))


def test_nearest_bubble_root_on_a_scan_node():
    # at the node t = 0 the scan reads g = -0.475 and the exact pairing +0.299,
    # both roundoff beside neighbours of 8e15: the bracket's exact ends share
    # a sign, and the node itself is the root
    cyl = ck.Cylinder(ck.from_pn(2.2, 6), refine=2)
    fit = ck.nearest_bubble(cyl.bubble_field())
    assert fit.t_star == 0.0
    assert fit.distance == 0.0
    assert fit.stationarity <= 1e-15


def test_newton_polish_family():
    for r, f, (a, b) in _polish_family():
        x = stability._newton_polish(f, a, b)
        assert min(a, b) <= x <= max(a, b)
        assert abs(x - r) <= 1e-14 + 1e-15 * abs(x), (r, a, b)


def test_newton_polish_edge_cases():
    def line(x):
        return x - 1.0, 1.0

    for a, b in ((1.0, 3.0), (-2.0, 1.0)):  # a root at either end
        assert stability._newton_polish(line, a, b) == 1.0
    with pytest.raises(ValueError, match="different signs"):
        stability._newton_polish(line, 2.0, 3.0)

    # from the far end of a steep atan the Newton step leaves the bracket,
    # so the first step bisects
    calls = []

    def steep(x):
        calls.append(x)
        return math.atan(50.0 * (x - 0.3)), 50.0 / (1.0 + (50.0 * (x - 0.3)) ** 2)

    x = stability._newton_polish(steep, -1.0, 2.0)
    assert calls[2] == 0.5
    assert abs(x - 0.3) <= 1e-14 + 1e-15 * 0.3

    # a zero slope at the starting end bisects instead of dividing by zero
    calls.clear()

    def cube(x):
        calls.append(x)
        return x**3 - 0.5, 3.0 * x**2

    x = stability._newton_polish(cube, 2.0, 0.0)
    assert calls[2] == 1.0
    assert abs(x - 0.5 ** (1 / 3)) <= 1e-14 + 1e-15 * x

    # a slope far too steep makes Newton creep; the step cap ends it
    calls.clear()

    def creep(x):
        calls.append(x)
        return x - 1.0, 1e3

    with pytest.raises(RuntimeError, match="after 100 steps"):
        stability._newton_polish(creep, 0.0, 3.0)
    assert len(calls) == 102


def test_fit_slope_is_pairing_derivative(cyl34, monkeypatch):
    # the slope the fit hands its polish is d/dt <v, ds V_t>
    seen, polish = [], stability._newton_polish

    def spy(f, a, b):
        seen.append(f)
        return polish(f, a, b)

    monkeypatch.setattr(stability, "_newton_polish", spy)
    v = cyl34.bubble_field(0.37) + 0.05 * cyl34.from_radial(cyl34.bubble(-2.0) ** 2)
    ck.nearest_bubble(v)
    f, d = seen[0], 1e-4
    for t in (-1.0, 0.37, 2.5):
        fd = (f(t + d)[0] - f(t - d)[0]) / (2 * d)
        assert f(t)[1] == pytest.approx(fd, rel=1e-6)


def test_project_Y_identity(par34, cyl34):
    yprof = np.zeros((cyl34.L + 1, cyl34.grid.N))
    yprof[1] = cyl34.bubble(0.4) ** (par34.p / 2.0)
    y = cyl34.field(yprof)
    coeff, rem, y_norm = ck.project_Y(y, 0.4)
    assert coeff == pytest.approx(1.0, rel=1e-12)
    assert ck.h1_norm(rem) <= 1e-10 * ck.h1_norm(y)
    assert y_norm == ck.h1_norm(y)


def test_project_Y_sector_orthogonality(cyl34):
    coeff, rem, _ = ck.project_Y(cyl34.bubble_field(), 0.0)
    assert coeff == 0.0
    assert np.array_equal(rem.profiles, cyl34.bubble_field().profiles)


def test_project_Y_linearity(par34, cyl34):
    yprof = np.zeros((cyl34.L + 1, cyl34.grid.N))
    yprof[1] = cyl34.bubble() ** (par34.p / 2.0)
    v = cyl34.field(yprof) + cyl34.bubble_field()
    coeff, rem, _ = ck.project_Y(v, 0.0)
    assert coeff == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(rem.profiles - cyl34.bubble_field().profiles)) <= 1e-12


# --- the constants ----------------------------------------------------------


def quartic_coeff_oracle(par):
    """F from the Gamma closed forms of the three axial integrals."""
    p, n = par.p, par.n
    Ip = bubble_mass_exact(par, p)
    I2 = bubble_mass_exact(par, 2 * p - 2)
    I3 = bubble_mass_exact(par, 3 * p - 4)
    area = ck.sphere_area(n)
    return (p - 1) * (p - 2) / 4.0 * (
        (p - 1) * (I2 * ck.sphere_moment(n, 1)) ** 2 / (Ip * area)
        - (p - 3) / 3.0 * I3 * ck.sphere_moment(n, 2)
    )


def test_F_vs_gamma_oracle(par34, cyl34):
    # the computed value uses the discrete ground state, which sits O(h^4)
    # from the sampled profile the closed form integrates
    assert ck.compute_F(cyl34) == pytest.approx(quartic_coeff_oracle(par34), rel=2e-8)


def test_F_p3_second_term_vanishes():
    par = ck.from_pn(3.0, 3)
    got = ck.compute_F(ck.Cylinder(par))
    p, n = 3.0, 3
    I2 = bubble_mass_exact(par, 2 * p - 2)
    Ip = bubble_mass_exact(par, p)
    expect = (p - 1) * (p - 2) / 4.0 * (p - 1) * (
        I2 * ck.sphere_moment(n, 1)
    ) ** 2 / (Ip * ck.sphere_area(n))
    assert got == pytest.approx(expect, rel=1e-9)


def test_F_grid_stability(par34):
    a = ck.compute_F(ck.Cylinder(par34))
    b = ck.compute_F(ck.Cylinder(par34, refine=2))
    assert abs(a - b) / abs(a) <= 1e-8


def test_E0_matches_analytic_split(par34, cyl34):
    """The mean-mode part of E0 has a closed form; the second-mode part
    reduces to one axial solve.  Rebuild E0 from those two pieces."""
    p, n = par34.p, par34.n
    area = ck.sphere_area(n)
    m2 = ck.sphere_moment(n, 2) - area / n**2
    Ip = bubble_mass_exact(par34, p)
    I2 = bubble_mass_exact(par34, 2 * p - 2)
    I3 = bubble_mass_exact(par34, 3 * p - 4)
    mean_part = -area * (p - 1) * (p - 2) / n * (p / (8.0 * n)) * (I3 - I2**2 / Ip)
    eta1 = ck.bvp_solve(
        cyl34, 2, ((p - 1) * (p - 2) / 2.0) * cyl34.ground_state ** (2 * p - 3.0)
    )
    mode2_part = -m2 * (p - 1) * (p - 2) / 2.0 * cyl34.quad_s(
        cyl34.ground_state ** (2 * p - 3.0) * eta1
    )
    assert ck.compute_E0(cyl34) == pytest.approx(mean_part + mode2_part, rel=1e-8)


def test_signs_at_reference_point(par34, cyl34):
    E0 = ck.compute_E0(cyl34)
    F = ck.compute_F(cyl34)
    assert F > 0
    assert E0 + F > 0


# --- R(p, n) two ways -------------------------------------------------------


def test_R_routes_agree(par34, cyl34):
    Rg, terms, tail = ck.compute_R_gamma(par34)
    Re = ck.compute_R_energy(cyl34, ck.compute_E0(cyl34), ck.compute_F(cyl34))
    assert abs(Rg - Re) / Rg <= 0.01
    assert tail <= 1e-9
    assert terms > 1000


def test_R_series_refinement(par34, monkeypatch):
    b, _, _ = ck.compute_R_gamma(par34)
    monkeypatch.setattr(stability, "SERIES_HEAD", 512)
    a, _, _ = ck.compute_R_gamma(par34)
    assert abs(a - b) / abs(b) <= 1e-9


def test_R_series_legendre_rule_matches_roots_legendre():
    from scipy.special import roots_legendre  # reference only; the package avoids it

    x, w = roots_legendre(24)
    np.testing.assert_allclose(stability._GL24_NODES, x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(stability._GL24_WEIGHTS, w, rtol=5e-12)


def test_R_series_decay_exponent(par34):
    _, tail_bound = _ratio_series(par34.p, par34.n, par34.Lam)
    assert tail_bound <= 1e-9


def test_R_series_warns_on_unmet_target(par34, caplog, monkeypatch):
    monkeypatch.setattr(stability, "SERIES_HEAD", 8)
    with caplog.at_level(logging.WARNING, logger="cknstab.stability"):
        _, tail_bound = _ratio_series(par34.p, par34.n, par34.Lam)
    assert tail_bound > 1e-10
    assert len(caplog.records) == 1
    caplog.clear()
    monkeypatch.undo()
    with caplog.at_level(logging.WARNING, logger="cknstab.stability"):
        _ratio_series(par34.p, par34.n, par34.Lam)
    assert caplog.records == []


# (S(-xi) - S(0)) / P(-1) with S(c) = P(c) 4F3(c + a, 1; c + b; 1), evaluated
# once by mpmath at 30 digits
@pytest.mark.parametrize("n, p, oracle", [
    (3, 4.0, 0.83758724741880097),
    (5, 2.2, 0.73057203296053654),
    (2, 2.5, 0.4100395143710971),
    (2, 9.0, 0.7676629523520949),
])
def test_R_series_matches_hypergeometric_oracle(n, p, oracle):
    par = ck.from_pn(p, n)
    value, _ = _ratio_series(par.p, par.n, par.Lam)
    assert abs(value - oracle) <= 1e-12 * oracle


def test_R_series_rejects_gamma_pole():
    with pytest.raises(ArithmeticError, match="Gamma pole"):
        _ratio_series(4.0, 3, 1e9)


def test_R_positive_on_small_sweep():
    for n, p in [(2, 3.0), (3, 2.7), (4, 3.5), (5, 2.5)]:
        R, _, _ = ck.compute_R_gamma(ck.from_pn(p, n))
        assert R > 0


def test_stability_constants_bundle(par34, cyl34):
    sc = ck.stability_constants(cyl34)
    assert sc.F > 0 and sc.E0 + sc.F > 0
    assert abs(sc.R_energy - sc.R_gamma) <= 0.01 * sc.R_gamma


def test_stability_constants_validation():
    with pytest.raises(ValueError):
        ck.StabilityConstants(
            E0=-2.0, F=1.0, R_energy=1.0, R_gamma=1.0, series_terms=10,
            tail_bound=0.0,
        )


# --- test-function bound ----------------------------------------------------


def test_bound_sign_flip_near_critical():
    # the bound (lam+2)^2/(4 lam) E0 + 2F is positive at lam = 2, negative at lam = 1
    par = ck.from_pn(5.8, 3)
    cyl = ck.Cylinder(par)
    E0 = ck.compute_E0(cyl)
    F = ck.compute_F(cyl)
    assert E0 + F > 0 > 2.25 * E0 + 2.0 * F


# --- the sharp family -------------------------------------------------------


def test_counterexample_at_zero_is_bubble(study34):
    w = ck.counterexample(study34, 0.0)
    assert np.array_equal(w.profiles, w.cyl.from_radial(w.cyl.ground_state).profiles)


def test_counterexample_mu_guard(study34):
    with pytest.raises(ValueError):
        ck.counterexample(study34, 0.06)


def test_counterexample_refuses_a_large_corrector_defect():
    # at high p the refine-2 defect is 1.7e-7; study_cylinder rebuilds at refine 4 there
    cyl = ck.Cylinder(ck.from_pn(5.98, 3), refine=stability.STUDY_REFINE)
    assert ck.corrector(cyl).identity_residual_l2 > stability.CORRECTOR_BOUND == 1e-7
    with pytest.raises(ArithmeticError, match="exceeds 1e-07 on this grid"):
        ck.counterexample(cyl, 0.01)


def test_corrector_identity_and_orthogonality(study34):
    cor = ck.corrector(study34)
    assert cor.identity_residual_l2 <= 1e-7
    assert max(abs(o) for o in cor.orthogonality) <= 1e-8
    assert not cor.eta.flags.writeable
    prof = np.abs(cor.eta)
    assert np.max(prof[:, [0, -1]]) / np.max(prof) <= 1e-6  # edge over peak


def test_sharpness_input_validation(study34):
    with pytest.raises(ValueError):
        ck.sharpness_study(study34, [1e-3, 2e-3, 4e-3])  # too few
    with pytest.raises(ValueError):
        ck.sharpness_study(study34, [1e-4, 1e-3, 3e-3, 1e-2, 3e-2])  # out of range
    with pytest.raises(ValueError, match="distinct"):
        ck.sharpness_study(study34, [1e-3] * 5)  # repeated
    with pytest.raises(ValueError, match="lie in"):
        ck.sharpness_study(study34, [1e-3, 2e-3, 4e-3, 8e-3, math.nan])


def test_sharpness_study_needs_degree_3(par34):
    # below degree 3 the residual's leading terms Y eta and Y^3 are cut
    cyl = ck.Cylinder(par34, L=stability.STUDY_MIN_L - 1, refine=stability.STUDY_REFINE)
    with pytest.raises(ValueError, match="degree L >= 3 required, got 2"):
        ck.sharpness_study(cyl, np.geomspace(1e-3, 3e-2, 7))


# the refine-2 corrector defect is 1.7e-8 at p = 4 and 1.7e-7 at p = 5.98
@pytest.mark.parametrize("p, refine, other", [(4.0, 2, 4), (5.98, 4, 2)])
def test_study_cylinder_refines_once(p, refine, other):
    par = ck.from_pn(p, 3)
    grid = stability.study_cylinder(par, stability.STUDY_MIN_L).grid
    assert grid.N == ck.default_grid(par, refine).N != ck.default_grid(par, other).N


def test_corrector_computed_once_per_cylinder(par34):
    cyl = ck.Cylinder(par34, refine=stability.STUDY_REFINE)
    assert ck.corrector(cyl) is ck.corrector(cyl)


def test_family_basis_is_the_fields_rows(par34, cyl34):
    """V0 and Y = V0^{p/2} theta_n of the sharp family are the nonzero rows of
    the fields they stand for, bit for bit, and read-only."""
    rows = cyl34.cached(stability._family_basis)
    V = cyl34.ground_state
    assert rows.shape == (2, cyl34.grid.N) and not rows.flags.writeable
    assert np.array_equal(rows[0], cyl34.from_radial(V).profiles[0])
    assert np.array_equal(rows[1], cyl34.from_theta_power(V ** (par34.p / 2.0), 1).profiles[1])
    assert cyl34.cached(stability._family_basis) is rows


_builds = []


def _counting_build(cyl):
    _builds.append(cyl)
    return object()


def test_cached_builds_once_per_cylinder(par34):
    first, second = ck.Cylinder(par34, L=1), ck.Cylinder(par34, L=1)
    _builds.clear()
    got = first.cached(_counting_build)
    assert first.cached(_counting_build) is got and _builds == [first]
    assert second.cached(_counting_build) is not got
    assert _builds == [first, second]
    _builds.clear()


def test_corrector_does_not_keep_its_cylinder_alive(par34):
    """Nothing a cylinder caches refers back to it: with the cyclic GC off, a
    cylinder that ran the constants and a whole sharpness study, and a window
    cylinder that ran the five window calls, are freed on ``del``.  The
    translates a cylinder keeps are read-only and equal the profiles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cyl = ck.Cylinder(par34, refine=stability.STUDY_REFINE)
        ck.stability_constants(cyl)
        ck.sharpness_study(cyl, np.geomspace(1e-3, 3e-2, 7))
        t = (-3.0, 3.0)
        win = ck.window_cylinder(par34, t)
        ck.bubble_sum_residual(win, t)
        ck.interaction(win, *t, 1.0, par34.p - 1.0)
        ck.interaction(win, *t, par34.p / 2.0, par34.p / 2.0)
        ck.interaction_derivative(win, *t)
        s = win.grid.s
        for ti in t:
            v = win.bubble(ti)
            assert not v.flags.writeable
            assert np.array_equal(v, ck.bubble_profile(par34, s, ti))
            for q in (par34.p - 1.0, par34.p / 2.0):
                vq = win.bubble_power(ti, q)
                assert np.array_equal(vq, v ** q) and not vq.flags.writeable
            assert np.array_equal(win.bubble_ds(ti), ck.bubble_profile_ds(par34, s, ti))
        win.bubble(0.5)  # a third center drops the oldest
        assert list(win._translates) == [t[1], 0.5]
        refs = [weakref.ref(cyl), weakref.ref(win)]
        del cyl, win
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_sharpness_study_matches_public_calls_on_fresh_cylinders(par34, study34):
    """The cylinder's cached family and fit inputs move no bits: each study
    value equals the public per-mu calls on a fresh cylinder, and each member
    the field sum it is built from."""
    rep = ck.sharpness_study(study34, np.geomspace(1e-3, 3e-2, 7))
    rows = []
    for mu in rep.mus:
        cyl = ck.Cylinder(par34, refine=stability.STUDY_REFINE)
        V, cor = cyl.ground_state, ck.corrector(cyl)
        y = cyl.from_theta_power(V ** (par34.p / 2.0), 1)
        w = ck.counterexample(cyl, mu)
        want = ((1.0 - cor.C0 * mu * mu) * cyl.from_radial(V) + mu * y
                + mu * mu * cyl.field(cor.eta))
        assert np.array_equal(w.profiles, want.profiles) and w.degrees == want.degrees
        naive = ck.naive_family(cyl, mu)
        assert np.array_equal(naive.profiles, (cyl.from_radial(V) + mu * y).profiles)
        fit = ck.nearest_bubble(w)
        perp = ck.h1_norm(fit.remainder - cyl.bubble_field(fit.t_star))
        rows.append((ck.hminus1_norm(ck.apply_H1(w)), fit.distance, fit.projY_norm, perp,
                     ck.hminus1_norm(ck.apply_H1(naive))))
    got = (rep.residuals, rep.distances, rep.proj_norms, rep.perp_distances,
           rep.naive_residuals)
    for study_col, fresh_col in zip(got, zip(*rows)):
        assert np.array_equal(study_col, fresh_col)


def test_sharpness_study_converged_in_the_grid(par34, study34):
    """Doubling STUDY_REFINE moves the study by far less than its gates allow."""
    mus = np.geomspace(1e-3, 3e-2, 7)
    coarse = ck.sharpness_study(study34, mus)
    fine = ck.sharpness_study(ck.Cylinder(par34, refine=2 * stability.STUDY_REFINE), mus)
    assert np.max(np.abs(coarse.residuals / fine.residuals - 1.0)) <= 1e-3
    assert np.max(np.abs(coarse.distances / fine.distances - 1.0)) <= 1e-8
    assert abs(coarse.residual_slope - fine.residual_slope) <= 1e-3
