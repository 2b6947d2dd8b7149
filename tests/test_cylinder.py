import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cknstab as ck
from cknstab.cylinder import duality_pairing, l2_norm_sq, pointwise_map_with_tail
from cknstab._discrete import nonlinearity
from cknstab._oracles import bubble_mass_exact, sphere_moment_beta
from inequalities import inequality_ratio


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_sphere_moment_total_measure(n):
    assert ck.sphere_moment(n, 0) == pytest.approx(
        2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0), rel=1e-15
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sphere_moment_vs_beta_oracle(n, k):
    assert ck.sphere_moment(n, k) == pytest.approx(sphere_moment_beta(n, k), rel=1e-13)
    if k == 1:
        assert ck.sphere_moment(n, 1) == pytest.approx(ck.sphere_moment(n, 0) / n, rel=1e-13)
    if k == 2:
        assert ck.sphere_moment(n, 2) == pytest.approx(
            3.0 * ck.sphere_moment(n, 0) / (n * (n + 2)), rel=1e-13
        )


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_zonal_orthonormality(n):
    quad = ck.SphereQuad(n)
    assert quad.gram_defect() <= 1e-12
    assert float(np.sum(quad.w)) == pytest.approx(ck.sphere_area(n), rel=1e-13)


@pytest.mark.parametrize("L", [0, -1])
def test_sphere_quad_rejects_bad_degrees(L):
    # L = 0 leaves no degree-1 harmonic, so theta_n is not a field
    with pytest.raises(ValueError, match="L >= 1"):
        ck.SphereQuad(3, L=L)


def test_sphere_quad_smallest_rule_is_exact():
    quad = ck.SphereQuad(3, L=1)
    assert quad.M == 4
    assert quad.gram_defect() <= 1e-12


@pytest.mark.parametrize("M", [12, 24, 64])
@pytest.mark.parametrize("n", range(2, 10))
def test_sphere_quad_matches_roots_jacobi(n, M):
    from scipy.special import roots_jacobi  # reference only; the package avoids it

    quad = ck.SphereQuad(n, L=M // 2 - 1)  # the rule ties M = 2L + 2
    assert quad.M == M
    a = (n - 3) / 2.0
    x, w = roots_jacobi(M, a, a)
    np.testing.assert_allclose(quad.x, x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(quad.w, w * (ck.sphere_area(n) / w.sum()), rtol=5e-12)
    # the zeros of C_l interlace with the nodes, the zeros of C_M, so every
    # harmonic is positive at the largest node: no sign flip is needed
    assert np.all(quad.Y[:, np.argmax(quad.x)] > 0.0)
    # exact for x^{2k}, 2k <= 2M - 1 (measured 3e-14 at worst)
    for k in range(M):
        assert float(quad.w @ quad.x ** (2 * k)) == pytest.approx(
            ck.sphere_moment(n, k), rel=1e-13)


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("n", range(2, 7))
def test_theta_power_coeffs_exact_zeros(n, k):
    quad = ck.SphereQuad(n, L=8)
    full = (quad.Y * quad.w) @ quad.x**k  # the whole projection, roundoff included
    got = quad.theta_power_coeffs(k)
    l = np.arange(quad.L + 1)
    zero = (l > k) | ((l - k) % 2 == 1)
    assert np.all(got[zero] == 0.0)
    assert np.max(np.abs(full[zero])) <= 1e-14  # they are 0 up to roundoff
    np.testing.assert_allclose(got[~zero], full[~zero], rtol=0.0, atol=1e-15)


def test_degrees_of_constructed_fields(cyl34):
    assert cyl34.from_radial(cyl34.bubble()).degrees == [0]
    for k in range(4):
        want = [l for l in range(k + 1) if (k - l) % 2 == 0]
        assert cyl34.from_theta_power(cyl34.bubble(), k).degrees == want
    f = cyl34.from_theta_power(cyl34.bubble(), 2)
    assert (f - f).degrees == []
    assert ck.apply_H1(cyl34.bubble_field()).degrees == [0]


@pytest.mark.parametrize("l", [0, 3, 8])
def test_degrees_of_caller_array(cyl34, l):
    prof = np.zeros((cyl34.L + 1, cyl34.grid.N))
    prof[l, 17] = 1e-300
    assert cyl34.field(prof).degrees == [l]


def test_h1_norm_of_bubble_equals_lp_mass(par34, cyl34):
    f = cyl34.bubble_field()
    lhs = ck.h1_inner(f, f)
    exact = bubble_mass_exact(par34, par34.p) * ck.sphere_area(3)
    assert lhs == pytest.approx(exact, rel=1e-9)


def test_h1_inner_with_zero(cyl34):
    f = cyl34.bubble_field()
    assert ck.h1_inner(f, cyl34.field(np.zeros((cyl34.L + 1, cyl34.grid.N)))) == 0.0


def test_h1_inner_skips_empty_sectors_exactly(cyl34):
    rng = np.random.default_rng(5)
    shape = (cyl34.L + 1, cyl34.grid.N)
    fp, gp = (rng.standard_normal(shape) * cyl34.bubble() for _ in range(2))
    fp[[2, 3, 7]] = 0.0
    gp[[1, 3, 8]] = 0.0
    f, g = cyl34.field(fp), cyl34.field(gp)
    tot = 0.0  # every sector, empty ones included
    for l in range(cyl34.L + 1):
        tot += float(fp[l] @ (cyl34.sector_op(l) @ gp[l]))
    assert ck.h1_inner(f, g) == cyl34.grid.h * tot


def test_h1_inner_parity_orthogonality(cyl34):
    f = cyl34.bubble_field()
    g = cyl34.from_radial(cyl34.bubble_ds())
    scale = ck.h1_norm(f) * ck.h1_norm(g)
    assert abs(ck.h1_inner(f, g)) <= 1e-12 * scale


def test_h1_inner_rejects_mismatched_grids(par34, cyl34):
    other = ck.Cylinder(par34, grid=ck.Grid(S=cyl34.grid.S, N=cyl34.grid.N + 2))
    with pytest.raises(ValueError):
        ck.h1_inner(cyl34.bubble_field(), other.bubble_field())
    # a distinct cylinder on the same grid: fields combine only on their own
    twin = ck.Cylinder(par34, grid=cyl34.grid)
    with pytest.raises(ValueError, match="different cylinders"):
        ck.h1_inner(twin.bubble_field(), cyl34.bubble_field())


def test_lp_norm_bubble_vs_gamma_oracle(par34, cyl34):
    got = ck.lp_norm(cyl34.bubble_field(), par34.p) ** par34.p
    exact = bubble_mass_exact(par34, par34.p) * ck.sphere_area(3)
    assert got == pytest.approx(exact, rel=1e-9)


def test_lp_norm_zero(cyl34):
    assert ck.lp_norm(cyl34.field(np.zeros((cyl34.L + 1, cyl34.grid.N))), 3.0) == 0.0


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_lp_norm_homogeneity(c, cyl34):
    f = cyl34.bubble_field()
    assert ck.lp_norm(c * f, 3.5) == pytest.approx(abs(c) * ck.lp_norm(f, 3.5), rel=1e-12)


def test_pointwise_map_identity(cyl34):
    f = cyl34.from_theta_power(cyl34.bubble() ** 2, 1)
    g = pointwise_map_with_tail(f, lambda z: z)[0]
    assert np.max(np.abs(g.profiles - f.profiles)) <= 1e-13 * np.max(np.abs(f.profiles))


def test_pointwise_map_preserves_angular_constancy(par34, cyl34):
    f = cyl34.bubble_field()
    g = pointwise_map_with_tail(f, lambda z: np.abs(z) ** (par34.p - 2.0) * z)[0]
    assert np.all(g.profiles[1:] == 0.0)
    expect = math.sqrt(ck.sphere_area(3)) * cyl34.bubble() ** (par34.p - 1.0)
    assert np.max(np.abs(g.profiles[0] - expect)) <= 1e-12 * np.max(expect)


@pytest.mark.parametrize("p, n", [(4.0, 3), (3.0, 4), (2.6, 3), (4.0, 2)])
def test_radial_pointwise_map_matches_tensor_path(p, n):
    cyl = ck.Cylinder(ck.from_pn(p, n))
    f = cyl.bubble_field()
    g, tail = pointwise_map_with_tail(f, lambda z: nonlinearity(z, p))
    # the tensor path: synthesize on the (N, M) grid, project onto Y with weights w
    vals = nonlinearity(f.synthesize(), p)
    proj = (vals @ (cyl.sphere.w[:, None] * cyl.sphere.Y.T)).T
    assert np.max(np.abs(g.profiles[0] - proj[0])) <= 1e-14 * np.max(np.abs(proj[0]))
    assert np.all(g.profiles[1:] == 0.0)
    assert tail == 0.0


@pytest.mark.parametrize("L", [8, 64])
@pytest.mark.parametrize("p", [3.0, 4.0, 2.6])
def test_blocked_pointwise_map_matches_full_tensor_grid(p, L):
    cyl = ck.Cylinder(ck.from_pn(p, 3), L=L)
    # N is odd and a block is a multiple of 16 rows, so the last block is partial
    assert cyl.grid.N > ck.cylinder.BLOCK_VALUES // cyl.sphere.M
    prof = cyl.bubble()
    f = cyl.bubble_field() + cyl.from_theta_power(prof ** (p / 2.0), 1)
    f = f + 0.5 * cyl.from_theta_power(prof, 3)  # sign changes and degree 3
    g, tail = pointwise_map_with_tail(f, lambda z: nonlinearity(z, p))
    # the unblocked formula: the full (N, M) grid, projected onto Y with weights w
    vals = nonlinearity(f.synthesize(), p)
    proj = (vals @ (cyl.sphere.w[:, None] * cyl.sphere.Y.T)).T
    total = (vals**2) @ cyl.sphere.w @ cyl.grid.quad_w
    want = max(total - float(np.sum(proj**2 @ cyl.grid.quad_w)), 0.0) / total
    assert np.max(np.abs(g.profiles - proj)) <= 1e-14 * np.max(np.abs(proj))
    assert tail == pytest.approx(want, rel=1e-10, abs=1e-15)
    assert (tail > 1e-12) == (p != 4.0 or L < 9)  # the cubic has degree 9


def test_pointwise_map_square_of_first_mode(par34, cyl34):
    # squaring the first-mode field puts energy exactly in degrees 0 and 2
    prof = cyl34.bubble() ** (par34.p / 2.0)
    f = cyl34.field(np.vstack([np.zeros_like(prof), prof] + [np.zeros_like(prof)] * (cyl34.L - 1)))
    g, tail = pointwise_map_with_tail(f, lambda z: z * z)
    n = par34.n
    area = ck.sphere_area(n)
    m1 = ck.sphere_moment(n, 1)
    m2 = ck.sphere_moment(n, 2) - area / n**2
    # Y_1^2 = (1/sqrt(area)) Y_0 + (sqrt(m2)/m1) Y_2
    assert np.allclose(g.profiles[0], prof**2 / math.sqrt(area), rtol=1e-12, atol=1e-14)
    assert np.allclose(g.profiles[2], prof**2 * math.sqrt(m2) / m1, rtol=1e-12, atol=1e-14)
    others = np.delete(np.arange(cyl34.L + 1), [0, 2])
    assert np.max(np.abs(g.profiles[others])) <= 1e-13 * np.max(g.profiles)
    assert tail <= 1e-14


def test_parseval(cyl34):
    prof = np.zeros((cyl34.L + 1, cyl34.grid.N))
    for l in range(cyl34.L + 1):
        prof[l] = cyl34.bubble() ** (1.0 + 0.3 * l)
    f = cyl34.field(prof)
    assert ck.lp_norm(f, 2.0) ** 2 == pytest.approx(l2_norm_sq(f), rel=1e-10)


def test_grid_convergence_of_bubble_mass(par34):
    base = ck.Cylinder(par34)
    fine = ck.Cylinder(par34, refine=2)
    v0 = ck.lp_norm(base.bubble_field(), par34.p) ** par34.p
    v1 = ck.lp_norm(fine.bubble_field(), par34.p) ** par34.p
    assert abs(v1 - v0) / v0 <= 1e-9


def test_bubble_field_boundary_decay(cyl34):
    prof = np.abs(cyl34.bubble_field().profiles)
    assert np.max(prof[:, [0, -1]]) / np.max(prof) <= 1e-6  # edge over peak


def test_grid_invariants_enforced(par34):
    with pytest.raises(ValueError):
        ck.Grid(S=10.0, N=128)  # even
    with pytest.raises(ValueError):
        ck.Cylinder(par34, grid=ck.Grid(S=5.0, N=4097))  # S too small
    with pytest.raises(ValueError):
        ck.Cylinder(par34, grid=ck.Grid(S=80.0, N=201))  # h too coarse
    with pytest.raises(ValueError, match="half-width"):
        ck.Cylinder(par34, grid=ck.Grid(S=math.nan, N=4097))


def test_field_rejects_nonfinite(cyl34):
    prof = np.zeros((cyl34.L + 1, cyl34.grid.N))
    prof[0, 5] = np.nan
    with pytest.raises(ValueError):
        cyl34.field(prof)
    # a scan of the row maxima alone misses -inf, one of the minima +inf
    occupied = np.zeros((cyl34.L + 1, cyl34.grid.N))
    occupied[0] = cyl34.bubble()
    for row, bad in ((3, np.inf), (0, -np.inf)):
        prof = occupied.copy()
        prof[row, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            cyl34.field(prof)


def test_duality_pairing_matches_quadrature(cyl34):
    f = cyl34.bubble_field()
    val = duality_pairing(f, f)
    exact = ck.sphere_area(3) * cyl34.quad_s(cyl34.bubble() ** 2)
    assert val == pytest.approx(exact, rel=1e-10)


# --- elementary pointwise inequalities (sampled constants stay bounded) ----


def _sup_ratio(lhs, rhs):
    mask = rhs > 0
    return float(np.max(lhs[mask] / rhs[mask]))


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_elementary_inequality_first(p):
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3, 3, 10_000)
    y = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3, 3, 10_000)
    full = inequality_ratio(p, x, y)
    half = inequality_ratio(p, x[:5000], y[:5000])
    assert math.isfinite(full)
    assert full <= 2.0 * half + 1e-9  # stable under doubling the sample


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_elementary_inequality_second(p):
    rng = np.random.default_rng(54321)
    x = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3, 3, 10_000)
    y = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3, 3, 10_000)
    lhs = np.abs(np.abs(x + y) ** (p - 2) - np.abs(x) ** (p - 2)) * np.abs(x)
    if p >= 3:
        rhs = np.abs(x) * np.abs(y) ** (p - 2) + np.abs(x) ** (p - 2) * np.abs(y)
    else:
        rhs = np.abs(x * y) ** ((p - 1) / 2.0)
    full = _sup_ratio(lhs, rhs)
    half = _sup_ratio(lhs[:5000], rhs[:5000])
    assert math.isfinite(full)
    assert full <= 2.0 * half + 1e-9


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_elementary_inequality_third(p):
    rng = np.random.default_rng(99)
    x = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3, 3, 10_000)
    # |y| <= |x|/2 as the estimate requires; |y| >= 0.01 |x| keeps the
    # four-term cancellation above the floating-point floor
    y = rng.choice([-1.0, 1.0], 10_000) * rng.uniform(0.01, 0.5, 10_000) * np.abs(x)
    lhs = np.abs(
        np.abs(x + y) ** (p - 2) * (x + y)
        - np.abs(x) ** (p - 2) * x
        - (p - 1) * np.abs(x) ** (p - 2) * y
        - (p - 1) * (p - 2) / 2.0 * np.abs(x) ** (p - 3) * y**2
        - (p - 1) * (p - 2) * (p - 3) / 6.0 * np.abs(x) ** (p - 4) * y**3
    )
    rhs = np.abs(x) ** (p - 5) * y**4
    full = _sup_ratio(lhs, rhs)
    half = _sup_ratio(lhs[:5000], rhs[:5000])
    assert math.isfinite(full)
    assert full <= 2.0 * half + 1e-9
