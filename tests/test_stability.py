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
    u0 = cyl34.sector_ops[0] @ v.profiles[0]
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


def _brent_family():
    """Seeded smooth, steep and flat-root functions with brackets of both orientations."""
    rng = np.random.default_rng(2024)
    for i in range(240):
        r, s = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-2.0, 3.0)
        f = [
            lambda x, r=r, s=s: math.tanh(s * (x - r)) + 0.05 * (x - r),  # smooth
            lambda x, r=r, s=s: math.sinh(max(-700.0, min(s * (x - r), 700.0))),  # steep
            lambda x, r=r, s=s: s * (x - r) ** 3,                           # flat root
            lambda x, r=r, s=s: math.atan(s * (x - r) ** 5),                # flatter root
        ][i % 4]
        a, b = rng.uniform(-3.0, r), rng.uniform(r, 3.0)
        yield (f, a, b) if rng.random() < 0.5 else (f, b, a)


def _outcome(solver, f, a, b):
    """The root or the exception type, and every abscissa the solver tried."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    try:
        return solver(g, a, b, xtol=1e-14, rtol=1e-15), xs
    except (ValueError, RuntimeError) as exc:
        return type(exc), xs


def test_brentq_port_matches_scipy_bitwise():
    from scipy.optimize import brentq  # reference only; the package avoids it

    results = []
    for f, a, b in _brent_family():
        want = _outcome(brentq, f, a, b)
        assert _outcome(stability._brentq, f, a, b) == want, (a, b)
        results.append(want[0])
    # the family reaches both exits: converged roots and the iteration cap
    assert sum(isinstance(r, float) for r in results) >= 100
    assert results.count(RuntimeError) >= 50


def test_brentq_port_edge_cases():
    from scipy.optimize import brentq

    def line(x):
        return x - 1.0

    for a, b in ((1.0, 3.0), (-2.0, 1.0)):  # a root at either endpoint
        assert stability._brentq(line, a, b, 1e-14, 1e-15) == 1.0
        assert brentq(line, a, b, xtol=1e-14, rtol=1e-15) == 1.0
    with pytest.raises(ValueError, match="different signs"):
        stability._brentq(line, 2.0, 3.0, 1e-14, 1e-15)
    with pytest.raises(ValueError):
        brentq(line, 2.0, 3.0, xtol=1e-14, rtol=1e-15)
    # at the triple root of x^3 Brent's method converges only linearly and
    # is still 2e-10 away after 100 iterations: both give up there
    calls = []

    def cube(x):
        calls.append(x)
        return x**3

    with pytest.raises(RuntimeError, match="after 100 iterations"):
        stability._brentq(cube, -1.0, 2.0, 1e-14, 1e-15)
    assert len(calls) == 102
    with pytest.raises(RuntimeError, match="after 100 iterations"):
        brentq(cube, -1.0, 2.0, xtol=1e-14, rtol=1e-15)
    assert calls[:102] == calls[102:]


def test_project_Y_identity(par34, cyl34):
    yprof = np.zeros((cyl34.L + 1, cyl34.grid.N))
    yprof[1] = cyl34.bubble(0.4) ** (par34.p / 2.0)
    y = cyl34.field(yprof)
    coeff, rem = ck.project_Y(y, 0.4)
    assert coeff == pytest.approx(1.0, rel=1e-12)
    assert ck.h1_norm(rem) <= 1e-10 * ck.h1_norm(y)


def test_project_Y_sector_orthogonality(cyl34):
    coeff, rem = ck.project_Y(cyl34.bubble_field(), 0.0)
    assert coeff == 0.0
    assert np.array_equal(rem.profiles, cyl34.bubble_field().profiles)


def test_project_Y_linearity(par34, cyl34):
    yprof = np.zeros((cyl34.L + 1, cyl34.grid.N))
    yprof[1] = cyl34.bubble() ** (par34.p / 2.0)
    v = cyl34.field(yprof) + cyl34.bubble_field()
    coeff, rem = ck.project_Y(v, 0.0)
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


def test_E_eps_linear_drift(par34, cyl34):
    E0 = ck.compute_E0(cyl34)
    drifts = []
    for eps in (1e-2, 1e-3):
        drifts.append(abs(ck.compute_E0(cyl34, eps) - E0) / eps)
    # O(eps) behaviour: the divided differences agree to first order
    assert drifts[0] == pytest.approx(drifts[1], rel=0.1)
    assert drifts[0] < 100.0 * abs(E0)


def test_E0_eps_guard(cyl34):
    with pytest.raises(ValueError):
        ck.compute_E0(cyl34, eps=0.2)


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
    assert "N=" in sc.grid_signature


def test_stability_constants_validation():
    with pytest.raises(ValueError):
        ck.StabilityConstants(
            E0=-2.0, F=1.0, R_energy=1.0, R_gamma=1.0, series_terms=10,
            tail_bound=0.0, grid_signature="x",
        )


# --- test-function bound ----------------------------------------------------


def test_bound_at_lambda_two(par34, cyl34):
    E0 = ck.compute_E0(cyl34)
    F = ck.compute_F(cyl34)
    got = ck.test_function_bound(2.0, E0, F)
    assert got == pytest.approx(2.0 * (E0 + F), rel=1e-14)


def test_bound_coefficient_minimized_at_two():
    lams = np.linspace(0.2, 8.0, 200)
    coeff = (lams + 2.0) ** 2 / (4.0 * lams)
    assert np.all(coeff >= 2.0 - 1e-12)
    assert ((2.0 + 2.0) ** 2 / 8.0) == pytest.approx(2.0)


def test_bound_sign_flip_near_critical():
    par = ck.from_pn(5.8, 3)
    cyl = ck.Cylinder(par)
    E0 = ck.compute_E0(cyl)
    F = ck.compute_F(cyl)
    assert ck.test_function_bound(2.0, E0, F) > 0
    assert ck.test_function_bound(1.0, E0, F) < 0


def test_bound_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        ck.test_function_bound(0.0, 1.0, 1.0)


# --- the sharp family -------------------------------------------------------


def test_counterexample_at_zero_is_bubble(study34):
    w = ck.counterexample(study34, 0.0)
    assert np.array_equal(w.profiles, w.cyl.from_radial(w.cyl.ground_state).profiles)


def test_counterexample_mu_guard(study34):
    with pytest.raises(ValueError):
        ck.counterexample(study34, 0.06)


def test_corrector_identity_and_orthogonality(study34):
    cor = ck.corrector(study34)
    assert cor.identity_residual_l2 <= 1e-7
    assert max(abs(o) for o in cor.orthogonality) <= 1e-8
    prof = np.abs(cor.eta.profiles)
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


def test_corrector_computed_once_per_cylinder(par34):
    cyl = ck.Cylinder(par34, refine=stability.STUDY_REFINE)
    assert ck.corrector(cyl) is ck.corrector(cyl)


def test_corrector_does_not_keep_its_cylinder_alive(par34):
    cyl = ck.Cylinder(par34, refine=stability.STUDY_REFINE)
    ck.corrector(cyl)
    ref = weakref.ref(cyl)
    del cyl
    gc.collect()
    assert ref() is None


def test_sharpness_study_converged_in_the_grid(par34, study34):
    """Doubling STUDY_REFINE moves the study by far less than its gates allow."""
    mus = np.geomspace(1e-3, 3e-2, 7)
    coarse = ck.sharpness_study(study34, mus)
    fine = ck.sharpness_study(ck.Cylinder(par34, refine=2 * stability.STUDY_REFINE), mus)
    assert np.max(np.abs(coarse.residuals / fine.residuals - 1.0)) <= 1e-3
    assert np.max(np.abs(coarse.distances / fine.distances - 1.0)) <= 1e-8
    assert abs(coarse.residual_slope - fine.residual_slope) <= 1e-3
