import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import eval_gegenbauer

import cknstab as ck
from cknstab import _oracles, spectrum
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
        old = spectrum._pencil_eigenpairs(cyl34.sector_op(ell), weight, cyl34.grid.quad_w, 2,
                                          starts=spectrum._sector_starts(cyl34, ell, 2))
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


def closed_form_term(par, ell, s, j):
    """The j-th closed-form eigenfunction of sector ell at unit length on s: the
    start of j//2 + 1 terms less the start of j//2 terms, in j's parity."""
    k = j // 2
    term = _oracles.solvable_starts(par, ell, s, k)[j % 2]
    if k:
        term -= _oracles.solvable_starts(par, ell, s, k - 1)[j % 2]
    return term


@pytest.mark.parametrize("n,p", [(3, 4.0), (2, 8.0)])
def test_closed_form_eigenfunctions(n, p):
    # each term sech^nu0(z) C_j(tanh z) of the starts is the Gegenbauer form,
    # has the parity of j, and solves the discrete pencil at its level up to
    # the stencil's h^4 error: at (2, 8) that is 3.4e-5 on the default grid
    # (ell = 2, j = 5) and 16x less at half the spacing
    par = ck.from_pn(p, n)
    residuals = []
    for refine in (1, 2):
        cyl = ck.Cylinder(par, refine=refine)
        s = cyl.grid.s
        z = par.alpha * s
        weight = cyl.ground_state ** (p - 2.0)
        res = []
        for ell in (0, 1, 2):
            nu0 = np.sqrt(ell * (ell + n - 2) + par.Lam) / par.alpha
            A = cyl.sector_op(ell)
            for j in range(6):
                phi = closed_form_term(par, ell, s, j)
                ref = np.cosh(z) ** -nu0 * eval_gegenbauer(j, nu0 + 0.5, np.tanh(z))
                assert np.allclose(phi, ref / np.linalg.norm(ref), rtol=0.0, atol=1e-13)
                mirrored = closed_form_term(par, ell, -s, j)
                assert np.allclose(mirrored, (-1) ** j * phi, rtol=0.0, atol=1e-15)
                gamma = solvable_gamma(par, ell, j)
                Aphi, wphi = A @ phi, weight * phi
                res.append(np.linalg.norm(Aphi - gamma * wphi) / (
                    np.linalg.norm(Aphi) + gamma * np.linalg.norm(wphi)))
        residuals.append(np.array(res))
    coarse, fine = residuals
    assert np.max(fine) <= 1e-5
    assert np.all(fine <= coarse / 12.0)


@pytest.mark.parametrize("drop", [0, 1, 2, 3])
def test_missed_level_raises(cyl34, monkeypatch, drop):
    # a run that skips pair `drop` of the k + 1 lowest returns a level of the
    # wrong index; skipping the (k + 1)-th leaves the k lowest, a clean run
    lanczos = spectrum._lanczos

    def skipping(A, b, k, x0=None):
        gammas, X = lanczos(A, b, k + 1, x0)
        keep = [i for i in range(k + 1) if i != drop]
        return gammas[keep], X[keep]

    monkeypatch.setattr(spectrum, "_lanczos", skipping)
    if drop == 3:
        ck.eigensolve_sector(cyl34, 0, k=3)
        return
    with pytest.raises(ArithmeticError, match=f"even level {drop} = .* own, index {2 * drop} "):
        ck.eigensolve_sector(cyl34, 0, k=3)


def test_walk_solve_count(par34, monkeypatch):
    # the closed-form starts halve the banded solves of the walk: 36 here,
    # where the constant start made 68
    solve = Band.cho_solve
    count = [0]

    def counted(self, b):
        count[0] += 1
        return solve(self, b)

    cyl = ck.Cylinder(par34, L=1)
    monkeypatch.setattr(Band, "cho_solve", counted)
    spectrum.sector_walk(cyl)
    assert 0 < count[0] <= 40


@pytest.mark.parametrize("n,p", REFERENCE_POINTS)
def test_start_leaves_levels(n, p):
    # the closed-form start changes how fast Lanczos converges, not where to
    cyl = ck.Cylinder(ck.from_pn(p, n))
    weight = cyl.ground_state ** (p - 2.0)
    for ell in (0, 1, 2):
        closed = ck.eigensolve_sector(cyl, ell, k=3).eigenvalues
        constant = spectrum._pencil_eigenpairs(cyl.sector_op(ell), weight, cyl.grid.quad_w, 3)[0]
        assert closed == pytest.approx(constant, rel=1e-13, abs=0.0)
