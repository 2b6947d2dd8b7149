import math

import numpy as np
import pytest

import cknstab as ck
from cknstab import multibubble as mb
from cknstab._oracles import bubble_mass_exact


def test_config_validation(par34):
    with pytest.raises(ValueError):
        ck.BubbleConfig(params=par34, centers=(1.0, 0.0))
    with pytest.raises(ValueError, match="increasing"):
        ck.BubbleConfig(params=par34, centers=(0.0, math.nan))
    cfg = ck.BubbleConfig(params=par34, centers=(-3.0, 0.0, 5.0))
    assert cfg.min_gap == 3.0
    assert cfg.Q == pytest.approx(math.exp(-par34.sqrt_lam * 3.0))


def test_pair_scales_bounded_by_Q(par34):
    cfg = ck.BubbleConfig(params=par34, centers=(-4.0, 0.0, 6.0))
    for i in range(cfg.nu - 1):
        assert cfg.Q_pair(i, i + 1) <= cfg.Q * (1 + 1e-15)
    assert cfg.Q_pair(0, 1) == pytest.approx(cfg.Q)  # the minimal gap pair


def test_interaction_coincident_centers(par34):
    cyl = ck.window_cylinder(par34, (0.7, 0.7))
    got = ck.interaction(cyl, 0.7, 0.7, 1.5, par34.p - 1.5)
    exact = bubble_mass_exact(par34, par34.p) * ck.sphere_area(3)
    assert got == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("n, p", [(3, 4.0), (3, 2.05), (4, 2.02)])
def test_interaction_closed_form_near_p2(n, p):
    # near p = 2 the bubble decays past 30/sqrt(Lam), so the window must reach
    # the decay half-width, not only the centers' margin
    par = ck.from_pn(p, n)
    got = ck.interaction(ck.window_cylinder(par, (0.7, 0.7)), 0.7, 0.7, 1.5, p - 1.5)
    exact = bubble_mass_exact(par, p) * ck.sphere_area(n)
    assert got == pytest.approx(exact, rel=1e-12)


def test_interaction_symmetry(par34):
    cyl = ck.window_cylinder(par34, (-1.0, 4.0))
    a = ck.interaction(cyl, -1.0, 4.0, 1.0, 3.0)
    b = ck.interaction(cyl, 4.0, -1.0, 3.0, 1.0)
    assert a == b


def test_interaction_validation(par34):
    cyl = ck.window_cylinder(par34, (0.0, 1.0))
    with pytest.raises(ValueError):
        ck.interaction(cyl, 0.0, 1.0, -0.5, par34.p + 0.5)
    with pytest.raises(ValueError):
        ck.interaction(cyl, 0.0, 1.0, 1.0, 1.0)  # does not sum to p
    with pytest.raises(ValueError):
        ck.window_cylinder(par34, (0.0, 1e6))


def test_interaction_min_exponent_window(par34):
    rl = par34.sqrt_lam
    gaps = np.linspace(4.0 / rl, 12.0 / rl, 6)
    ratios = [
        ck.interaction(ck.window_cylinder(par34, (0.0, g)), 0.0, g, 1.0, par34.p - 1.0)
        / math.exp(-rl * g)
        for g in gaps
    ]
    assert max(ratios) / min(ratios) <= 10.0


def test_interaction_balanced_window(par34):
    rl = par34.sqrt_lam
    p = par34.p
    gaps = np.linspace(4.0 / rl, 12.0 / rl, 6)
    ratios = [
        ck.interaction(ck.window_cylinder(par34, (0.0, g)), 0.0, g, p / 2.0, p / 2.0)
        / ((g + 1.0) * math.exp(-p * rl / 2.0 * g))
        for g in gaps
    ]
    assert max(ratios) / min(ratios) <= 10.0


def test_interaction_derivative_sign_and_window(par34):
    rl = par34.sqrt_lam
    gaps = np.linspace(4.0 / rl, 12.0 / rl, 6)
    ratios = []
    for g in gaps:
        val = ck.interaction_derivative(ck.window_cylinder(par34, (0.0, g)), 0.0, g)
        assert val > 0
        ratios.append(val / math.exp(-rl * g))
    assert max(ratios) / min(ratios) <= 10.0


def test_interaction_derivative_reflection_antisymmetry(par34):
    cyl = ck.window_cylinder(par34, (0.0, 6.0))
    a = ck.interaction_derivative(cyl, 0.0, 6.0)
    b = ck.interaction_derivative(cyl, 6.0, 0.0)
    assert a == pytest.approx(-b, rel=1e-12)


# --- weights and bubble-sum residuals ---------------------------------------


def test_weights_positive_and_monotone(par34):
    cfg = ck.BubbleConfig(params=par34, centers=(-4.0, 4.0))
    s = np.linspace(-20.0, 20.0, 4001)
    phi = mb._decays(cfg, s)
    W1, W2 = mb._windowed_weight(cfg, s, phi), mb._cell_weight(cfg, s, phi)
    for W in (W1, W2):
        assert np.all(W >= 0.0)
        assert np.any(W > 0.0)
    # weighted sup-norm is monotone under pointwise domination
    h1 = np.exp(-np.abs(s))
    h2 = 2.0 * h1
    m = W2 > 0
    n1 = np.max(np.abs(h1[m]) / W2[m])
    n2 = np.max(np.abs(h2[m]) / W2[m])
    assert n2 >= n1


def test_single_bubble_residual_floor(par34):
    diag = ck.bubble_sum_residual(ck.window_cylinder(par34, (0.0,)), (0.0,))
    assert diag.residual <= 1e-6
    assert diag.Q == 0.0


def test_two_bubble_diagnostics(par34):
    gap = 8.0 / par34.sqrt_lam
    centers = (-gap / 2.0, gap / 2.0)
    diag = ck.bubble_sum_residual(ck.window_cylinder(par34, centers), centers)
    assert diag.norm_index == 2  # p = 4 branch
    assert 0.0 < diag.residual
    assert diag.residual_over_Q > 0.0
    assert math.isfinite(diag.nonlinear_gap_norm)


@pytest.mark.parametrize("n, p, index", [(3, 3.0, 1), (3, 4.0, 2)])
def test_gap_norm_reads_its_branch_weight(n, p, index):
    # the residual builds only its branch's weight: W1 for p < 4, W2 for p >= 4
    par = ck.from_pn(p, n)
    gap = 6.0 / par.sqrt_lam
    centers = (-gap / 2.0, gap / 2.0)
    cyl = ck.window_cylinder(par, centers)
    diag = ck.bubble_sum_residual(cyl, centers)
    V = [ck.bubble_profile(par, cyl.grid.s, t) for t in centers]
    gap_fn = (V[0] + V[1]) ** (p - 1.0) - (V[0] ** (p - 1.0) + V[1] ** (p - 1.0))
    cfg = ck.BubbleConfig(params=par, centers=centers)
    phi = mb._decays(cfg, cyl.grid.s)
    W = (mb._windowed_weight, mb._cell_weight)[index - 1](cfg, cyl.grid.s, phi)
    mask = W > 0
    assert diag.norm_index == index
    assert diag.nonlinear_gap_norm == float(np.max(np.abs(gap_fn[mask]) / W[mask]))


def test_window_functions_refuse_a_narrow_grid(par34):
    # a caller's grid that ends within the margin of a center would cut its
    # bubble off, so each window function refuses it
    rl = par34.sqrt_lam
    cyl = ck.window_cylinder(par34, (0.0,))  # reaches 2/sqrt(Lam) past the margin
    assert cyl.grid.S == pytest.approx((mb.MARGIN + 2.0) / rl)
    far = 3.0 / rl
    with pytest.raises(ValueError, match="reach"):
        ck.interaction(cyl, 0.0, far, 1.0, par34.p - 1.0)
    with pytest.raises(ValueError, match="reach"):
        ck.interaction_derivative(cyl, -far, 0.0)
    with pytest.raises(ValueError, match="reach"):
        ck.bubble_sum_residual(cyl, (0.0, far))
    assert ck.interaction(cyl, 0.0, 1.0 / rl, 1.0, par34.p - 1.0) > 0.0


def test_window_refuses_a_wide_span(par34):
    # centered windows halve the reach, so the span is bounded as well
    half = 0.3 * mb.MAX_CENTER / par34.sqrt_lam
    with pytest.raises(ValueError, match="extensible range"):
        ck.window_cylinder(par34, (-2.0 * half, 2.0 * half))
    assert ck.window_cylinder(par34, (-half, half)).grid.S > half


def test_smallest_rule_keeps_radial_residual(par34):
    # a radial field reads only sector 0, so the angular rule drops out
    grid = ck.Grid(S=30.0, N=4097)
    s = grid.s
    sigma = ck.bubble_profile(par34, s, -3.0) + ck.bubble_profile(par34, s, 3.0)
    res = [
        ck.hminus1_norm(ck.apply_H1(cyl.from_radial(sigma)))
        for cyl in (ck.Cylinder(par34, grid=grid), ck.Cylinder(par34, grid=grid, L=1))
    ]
    assert res[1] == pytest.approx(res[0], rel=1e-13)
