import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import cknstab as ck
from cknstab._oracles import plane_bubble


def test_from_pn_p4_n3():
    par = ck.from_pn(4.0, 3)
    assert par.Lam == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert par.a == pytest.approx(0.5 - math.sqrt(2.0 / 3.0), rel=1e-14)
    # b must agree with the threshold-curve formula evaluated independently
    assert par.b == pytest.approx(ck.felli_schneider_b(par.a, 3), abs=1e-12)
    assert par.b == pytest.approx(par.a + 0.25, abs=1e-14)


def test_from_pn_near_critical_limit():
    par = ck.from_pn(6.0 - 1e-9, 3)
    assert par.Lam == pytest.approx(0.25, abs=1e-9)
    assert par.a == pytest.approx(0.0, abs=1e-9)
    assert par.a < 0


def test_from_pn_p3_n2():
    par = ck.from_pn(3.0, 2)
    assert par.Lam == pytest.approx(0.8, rel=1e-15)
    assert max(par.curve_residuals()) <= 1e-12


@pytest.mark.parametrize("p,n", [(2.0, 3), (6.0, 3), (1.5, 4), (4.1, 4)])
def test_from_pn_rejects_out_of_range(p, n):
    with pytest.raises(ValueError):
        ck.from_pn(p, n)


def test_from_pn_rejects_low_dimension():
    with pytest.raises(ValueError):
        ck.from_pn(3.0, 1)


def test_threshold_b_vanishes_at_zero_weight():
    for n in (3, 4, 5):
        assert abs(ck.felli_schneider_b(-1e-8, n)) < 1e-7


def test_threshold_b_closed_value_n2():
    # n = 2, a = -1: 4/(2 sqrt(8)) - 1 = 1/sqrt(2) - 1
    assert ck.felli_schneider_b(-1.0, 2) == pytest.approx(
        1.0 / math.sqrt(2.0) - 1.0, rel=1e-15
    )


def test_threshold_b_rejects_nonnegative_weight():
    with pytest.raises(ValueError):
        ck.felli_schneider_b(0.0, 3)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    frac=st.floats(min_value=0.02, max_value=0.98),
)
def test_curve_roundtrip_sweep(n, frac):
    cap = 12.0 if n == 2 else ck.two_star(n)
    p = 2.0 + frac * (cap - 2.0)
    par = ck.from_pn(p, n)
    assert max(par.curve_residuals()) <= 1e-12
    assert par.alpha > 0 and math.isfinite(par.alpha)
    assert par.beta > 0 and math.isfinite(par.beta)


# --- change of variables to the cylinder ---------------------------------


def _radial_samples(par, cyl, lam, step=0.005):
    s = np.arange(-cyl.grid.S, cyl.grid.S + step, step)
    r = np.exp(-s)
    return r, plane_bubble(par, lam, r)


def test_emden_fowler_unit_scale(par34, cyl34):
    r, u = _radial_samples(par34, cyl34, 1.0)
    fld = ck.emden_fowler(r, u, cyl34)
    expect = ck.bubble_profile(par34, cyl34.grid.s, 0.0)
    assert np.max(np.abs(fld.radial_profile() - expect)) <= 1e-10


def test_emden_fowler_scale_translates(par34, cyl34):
    lam = math.e
    r, u = _radial_samples(par34, cyl34, lam)
    fld = ck.emden_fowler(r, u, cyl34)
    expect = ck.bubble_profile(par34, cyl34.grid.s, 1.0)
    assert np.max(np.abs(fld.radial_profile() - expect)) <= 1e-10


def test_emden_fowler_zero_profile(cyl34):
    r = np.exp(-cyl34.grid.s)
    fld = ck.emden_fowler(r, np.zeros_like(r), cyl34)
    assert np.all(fld.profiles == 0.0)


def test_emden_fowler_rejects_bad_radii(cyl34):
    with pytest.raises(ValueError):
        ck.emden_fowler(np.array([1.0, 0.0]), np.array([1.0, 1.0]), cyl34)


def test_emden_fowler_inverse_roundtrip(par34, cyl34):
    r, u = _radial_samples(par34, cyl34, 1.0)
    fld = ck.emden_fowler(r, u, cyl34)
    mid = (len(r) - 1) // 2
    window = slice(mid - 2000, mid + 2000)
    # the inverse, u(r) = r^{-(n-2-2a)/2} v(-log r), re-interpolates the
    # coarser cylinder grid
    expo = (par34.n - 2.0 - 2.0 * par34.a) / 2.0
    spline = CubicSpline(cyl34.grid.s, fld.radial_profile())
    back = spline(-np.log(r[window])) * r[window] ** (-expo)
    assert np.max(np.abs(back - u[window])) <= 1e-8 * np.max(np.abs(u))
