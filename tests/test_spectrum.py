import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh

import cknstab as ck
from cknstab import spectrum
from cknstab._discrete import Band, fold, fold_weights, unfold
from cknstab._oracles import solvable_gamma

REFERENCE_POINTS = [(3, 4.0), (2, 4.0), (3, 3.0), (4, 3.0)]  # (n, p)


def cosine_similarity(a, b):
    return abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def orthogonality_defect(spec, cyl):
    """Max off-diagonal of the B-weighted Gram matrix of the profiles."""
    w = cyl.ground_state ** (cyl.params.p - 2.0) * cyl.grid.quad_w
    G = (spec.eigenprofiles * w) @ spec.eigenprofiles.T
    return float(np.max(np.abs(G - np.eye(len(spec.eigenvalues)))))


def arpack_sector(cyl, ell, k):
    """Independent oracle: ARPACK shift-invert on each folded parity pencil.

    Returns the k smallest (gamma, full-grid profile) pairs, unnormalized.
    """
    b_full = np.maximum(cyl.ground_state ** (cyl.params.p - 2.0), spectrum.B_FLOOR)
    pairs = []
    for parity in ("even", "odd"):
        A = cyl.sector_op(ell).fold(parity)
        b = fold_weights(cyl.grid.N, parity) * fold(b_full, parity)

        def op(f):
            return LinearOperator((A.n, A.n), matvec=f, dtype=float)

        vals, vecs = eigsh(op(A.__matmul__), k=k, M=op(lambda x: b * x), sigma=0.0,
                           which="LM", v0=np.ones(A.n), OPinv=op(A.cho_solve))
        pairs += [(float(g), unfold(x, parity)) for g, x in zip(vals, vecs.T)]
    return sorted(pairs, key=lambda t: t[0])[:k]


def test_axial_sector_low_modes(par34, cyl34):
    spec = ck.eigensolve_sector(cyl34, 0, k=3)
    assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-4)
    assert spec.eigenvalues[1] == pytest.approx(par34.p - 1.0, abs=1e-4)
    assert cosine_similarity(spec.eigenprofiles[0], cyl34.bubble()) >= 1.0 - 1e-8
    assert cosine_similarity(spec.eigenprofiles[1], cyl34.bubble_ds()) >= 1.0 - 1e-8


def test_first_angular_sector(par34, cyl34):
    spec = ck.eigensolve_sector(cyl34, 1, k=2)
    assert spec.eigenvalues[0] == pytest.approx(par34.p - 1.0, abs=1e-4)
    mode = cyl34.bubble() ** (par34.p / 2.0)
    assert cosine_similarity(spec.eigenprofiles[0], mode) >= 1.0 - 1e-8


def test_gap_above_degenerate_level(par34, cyl34):
    s0 = ck.eigensolve_sector(cyl34, 0, k=3)
    s2 = ck.eigensolve_sector(cyl34, 2, k=1)
    margin0 = s0.eigenvalues[2] - (par34.p - 1.0)
    margin2 = s2.eigenvalues[0] - (par34.p - 1.0)
    assert margin0 > 1e-3
    assert margin2 > 1e-3


def test_pencil_residuals_and_orthogonality(cyl34):
    for ell in (0, 1, 2):
        spec = ck.eigensolve_sector(cyl34, ell, k=3)
        assert np.all(spec.residuals <= 1e-8)
        assert np.all(np.diff(spec.eigenvalues) > 0)
        assert orthogonality_defect(spec, cyl34) <= 1e-8


@pytest.mark.parametrize("ell,k", [(0, 3), (1, 2)])
def test_eigensolve_bitwise_repeatable(cyl34, ell, k):
    first = ck.eigensolve_sector(cyl34, ell, k=k)
    second = ck.eigensolve_sector(cyl34, ell, k=k)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenprofiles, second.eigenprofiles)


@pytest.mark.parametrize(
    "p,n", [(3.0, 3), (5.0, 3), (2.6, 4), (3.2, 5), (4.0, 2), (8.0, 2)]
)
def test_spectrum_vs_solvable_oracle(p, n):
    par = ck.from_pn(p, n)
    cyl = ck.Cylinder(par)
    for ell in (0, 1, 2):
        spec = ck.eigensolve_sector(cyl, ell, k=3)
        for j in range(3):
            oracle = solvable_gamma(par, ell, j)
            # the two analytically pinned low modes carry the tight contract;
            # higher modes are checked at grid accuracy
            tol = {"abs": 1e-4} if j < 2 else {"rel": 1e-5}
            assert spec.eigenvalues[j] == pytest.approx(oracle, **tol)


def test_gamma3_value_and_gap(par34, cyl34):
    g3 = ck.gamma3(cyl34)
    assert g3 > par34.p - 1.0
    # oracle: the gap level is (p-1)(3p-4)/p, reached in two sectors at once
    assert g3 == pytest.approx((par34.p - 1.0) * (3 * par34.p - 4.0) / par34.p, abs=1e-5)


def test_sector_minima_increase(cyl34):
    minima = [ck.eigensolve_sector(cyl34, ell, k=1).eigenvalues[0] for ell in range(5)]
    assert np.all(np.diff(minima) > 0)


@pytest.mark.parametrize("p,n", [(4.0, 3), (3.0, 3), (2.6, 4), (8.0, 2)])
def test_gamma3_equals_full_sector_scan(p, n):
    # the early stop in gamma3 must not change its value
    cyl = ck.Cylinder(ck.from_pn(p, n))
    full = np.inf
    for ell in range(cyl.L + 1):
        k = 3 if ell == 0 else (2 if ell == 1 else 1)
        for g in ck.eigensolve_sector(cyl, ell, k=k).eigenvalues:
            if g > p - 1.0 + 1e-6:
                full = min(full, float(g))
    assert ck.gamma3(cyl) == full


@pytest.mark.parametrize("cap", [1, 2])
def test_sector_walk_raises_at_cap(cyl34, monkeypatch, cap):
    # at (3, 4) the walk stops after sector 2; a cap below that must not truncate it
    monkeypatch.setattr(spectrum, "SECTOR_CAP", cap)
    with pytest.raises(ArithmeticError, match=f"reached {cap} sectors"):
        spectrum.sector_walk(cyl34)


def test_sector_beyond_rule_matches_stored_band(par34, cyl34):
    # the sector band is formed on demand, bitwise as Cylinder stores it, so
    # the smallest angular rule solves sectors above its L
    small = ck.Cylinder(par34, grid=cyl34.grid, L=1)
    weight = cyl34.ground_state ** (par34.p - 2.0)
    for ell in (2, 5):
        old = spectrum._pencil_eigenpairs(cyl34.sector_op(ell), weight, cyl34.grid.quad_w, 2)
        new = ck.eigensolve_sector(small, ell, k=2)
        for a, b in zip(old, (new.eigenvalues, new.eigenprofiles, new.residuals)):
            assert np.array_equal(a, b)


def test_gamma3_grid_stable(par34):
    g_a = ck.gamma3(ck.Cylinder(par34))
    g_b = ck.gamma3(ck.Cylinder(par34, refine=2))
    assert abs(g_a - g_b) <= 1e-5


def test_eigensolve_count_guard(cyl34):
    with pytest.raises(ValueError):
        ck.eigensolve_sector(cyl34, 0, k=11)


@pytest.mark.parametrize("n,p", REFERENCE_POINTS)
def test_lanczos_matches_arpack(n, p):
    cyl = ck.Cylinder(ck.from_pn(p, n))
    for ell in (0, 1, 2):
        spec = ck.eigensolve_sector(cyl, ell, k=3)
        for j, (gamma, phi) in enumerate(arpack_sector(cyl, ell, 3)):
            assert spec.eigenvalues[j] == pytest.approx(gamma, rel=1e-13, abs=0.0)
            assert cosine_similarity(spec.eigenprofiles[j], phi) >= 1.0 - 1e-12


@pytest.mark.parametrize("n,p", [(5, 2.2), (6, 2.2)])
def test_krylov_size_resolves_every_count(n, p):
    # a fixed Krylov size of 20 misses the residual bound from k = 7 here
    cyl = ck.Cylinder(ck.from_pn(p, n))
    for ell in (0, 1, 2):
        for k in range(1, 11):
            spec = ck.eigensolve_sector(cyl, ell, k=k)
            assert len(spec.eigenvalues) == k
            assert np.all(spec.residuals <= spectrum.RESIDUAL_BOUND)


def test_unresolved_pairs_raise():
    # with b = 1 the low modes of -d^2 + c cluster near 1/c under shift-invert,
    # and no Krylov space of 40 vectors resolves ten of them
    N, h = 401, 0.05
    A = Band.neg_d2(N, h).shifted(1.0e4)
    with pytest.raises(ArithmeticError, match="pencil residual"):
        spectrum._pencil_eigenpairs(A, np.ones(N), np.full(N, h), k=10)


@pytest.mark.parametrize("where,error", [(10, ArithmeticError), (-10, ValueError)])
def test_nan_weight_raises(cyl34, where, error):
    # a NaN left of center misses the folded pencils and trips the residual
    # guard; one right of center reaches the solve, which rejects it
    weight = cyl34.ground_state ** (cyl34.params.p - 2.0)
    weight[where] = np.nan
    with pytest.raises(error):
        spectrum._pencil_eigenpairs(cyl34.sector_op(0), weight, cyl34.grid.quad_w, k=3)


def test_non_finite_projection_raises():
    # a one-point pencil whose solve overflows leaves inf in the projected matrix
    A = Band(np.array([[0.0], [0.0], [1e-310]]))
    with pytest.raises(ArithmeticError, match="not finite"):
        spectrum._lanczos(A, np.ones(1), k=1)


def test_sector_walk_builds_no_sector_band(par34):
    # the walk forms each sector's band itself, with its potential
    cyl = ck.Cylinder(par34, L=1)
    spectrum.sector_walk(cyl)
    assert cyl._sector_ops == {}
