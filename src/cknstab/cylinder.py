"""Axisymmetric fields on the cylinder R x S^{n-1}.

A field f(s, theta) that is symmetric about the last coordinate axis is
stored by its coefficients against L^2-normalized zonal harmonics Y_l of the
polar angle, one axial profile per degree l <= L.  The axial direction is a
uniform grid on [-S, S] with homogeneous Dirichlet truncation; the angular
direction is a Gauss-Jacobi rule in x = theta_n that integrates polynomial
integrands of degree <= 2M-1 exactly against the weight (1 - x^2)^{(n-3)/2}.

The H^1 inner product used everywhere is

    <f, g> = sum_l  int  f_l' g_l' + (l(l+n-2) + Lambda) f_l g_l  ds,

realized discretely through the same pentadiagonal operators that the
elliptic solvers use, so that Riesz solves and norms are dual to each other
at roundoff rather than at discretization accuracy.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import params as _params
from ._discrete import Band, newton_ground_state

__all__ = [
    "Grid",
    "SphereQuad",
    "Cylinder",
    "ZonalField",
    "sphere_area",
    "sphere_moment",
    "default_grid",
    "h1_inner",
    "h1_norm",
    "lp_norm",
]

DEFAULT_L = 8
DEFAULT_H = 0.05
MIN_POINTS = 4096  # per refinement unit; actual N is the next odd count
BLOCK_VALUES = 8192  # tensor-grid values (64 KiB) per block of pointwise_map_with_tail


def sphere_area(n):
    """Surface measure of the unit sphere S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_moment(n, k):
    """Integral of theta_n^{2k} over S^{n-1}.

    Equals |S^{n-1}| (2k-1)!! / (n (n+2) ... (n+2k-2)) for k >= 1.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    val = sphere_area(n)
    for j in range(1, k + 1):
        val *= (2 * j - 1) / (n + 2 * j - 2)
    return val


@dataclass(frozen=True)
class Grid:
    """Uniform axial grid on [-S, S] with an odd number of points."""

    S: float
    N: int

    def __post_init__(self):
        if self.N < 129 or self.N % 2 == 0:
            raise ValueError(f"N must be odd and >= 129, got {self.N}")

    @property
    def h(self):
        return 2.0 * self.S / (self.N - 1)

    @cached_property
    def s(self):
        s = np.linspace(-self.S, self.S, self.N)
        s.flags.writeable = False
        return s

    @cached_property
    def quad_w(self):
        w = np.full(self.N, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.flags.writeable = False
        return w

    def validate_for(self, params):
        if not self.S * params.sqrt_lam >= 20.0:
            raise ValueError(
                f"grid half-width {self.S} too small for Lambda={params.Lam}"
            )
        if not self.h <= DEFAULT_H + 1e-12:
            raise ValueError(f"grid spacing {self.h} exceeds {DEFAULT_H}")


def decay_half_width(params):
    """Grid half-width: 30/sqrt(Lambda) or, if larger, the point where the ground
    state has decayed below e^{-21} of its peak (the larger one when p is close
    to 2, where the profile's cosh prefactor delays the decay)."""
    return max(
        30.0 / params.sqrt_lam,
        math.acosh(math.exp(10.5 * (params.p - 2.0))) / params.alpha,
    )


def default_grid(params, refine=1):
    """Grid of half-width :func:`decay_half_width` and spacing DEFAULT_H / refine."""
    S = decay_half_width(params)
    h_target = DEFAULT_H / refine
    N = max(int(math.ceil(2.0 * S / h_target)) + 1, MIN_POINTS * refine + 1)
    if N % 2 == 0:
        N += 1
    return Grid(S=S, N=N)


def gauss_gegenbauer(M, lam):
    """M-point Gauss rule for the weight (1 - x^2)^{lam - 1/2} on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the orthonormal Gegenbauer polynomials (M x M, small enough for
    a dense eigensolver) and the weights are the squared first eigenvector
    components, which sum to 1.  Both are
    symmetrized, so the rule is exactly odd/even about x = 0.  At M = 64
    they agree with 40-digit rules to 4e-16 (nodes) and 1.5e-13 relative
    (weights) for lam = 0 ... 3.5.
    """
    if lam == 0.0:  # Chebyshev: the general entry is 0/0 at k = 1
        off = np.full(M - 1, 0.5)
        off[:1] = math.sqrt(0.5)
    else:
        k = np.arange(1.0, M)
        off = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    x, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = V[0] ** 2
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


class SphereQuad:
    """Golub-Welsch Gauss-Jacobi rule in x = theta_n plus a zonal-harmonic table.

    The rule is :func:`gauss_gegenbauer` with lam = (n-2)/2, i.e. the
    Jacobi weight (1 - x^2)^{(n-3)/2} of the polar angle on S^{n-1}, on
    M = 2L + 2 nodes.  Weights are scaled so that constants integrate to
    |S^{n-1}|; harmonics are generated by the Gegenbauer three-term
    recurrence (Chebyshev for n = 2) and normalized against the quadrature
    itself; each is positive at the largest node, since the zeros of C_l
    interlace with those of C_M.  These M nodes integrate the products
    Y_l Y_m exactly, and at M = L + 1 the harmonics would span every function
    on the nodes and hide any angular tail.  L >= 1 is required.
    """

    def __init__(self, n, L=DEFAULT_L):
        if L < 1:
            raise ValueError(f"angular rule needs L >= 1, got L={L}")
        self.n = int(n)
        self.L = int(L)
        self.M = M = 2 * self.L + 2
        lam = (n - 2) / 2.0
        x, w = gauss_gegenbauer(M, lam)
        w = w * (sphere_area(n) / w.sum())
        Y = np.empty((L + 1, M))
        Y[0] = 1.0
        if n == 2:
            Y[1] = x
            for l in range(1, L):
                Y[l + 1] = 2.0 * x * Y[l] - Y[l - 1]
        else:
            Y[1] = 2.0 * lam * x
            for l in range(1, L):
                Y[l + 1] = (2 * (l + lam) * x * Y[l] - (l + 2 * lam - 1) * Y[l - 1]) / (l + 1)
        for l in range(L + 1):
            Y[l] /= math.sqrt(float(np.sum(w * Y[l] ** 2)))
        self.x = x
        self.w = w
        self.Y = Y
        self.x.flags.writeable = False
        self.w.flags.writeable = False
        self.Y.flags.writeable = False

    def eigenvalue(self, l):
        """Laplace-Beltrami eigenvalue l(l+n-2) of degree-l harmonics."""
        return float(l * (l + self.n - 2))

    def gram_defect(self):
        """Max deviation of the discrete Y_l Y_m Gram matrix from identity."""
        G = (self.Y * self.w) @ self.Y.T
        return float(np.max(np.abs(G - np.eye(self.L + 1))))

    def theta_power_coeffs(self, k):
        """Coefficients of theta_n^k against the normalized Y_l, l <= L.

        theta_n^k is a polynomial of degree k with the parity of k, and the
        rule integrates Y_l x^k exactly, so the coefficients of degree l > k
        or of odd l - k are exactly 0, not the roundoff the rule leaves there.
        """
        c = (self.Y * self.w) @ self.x**k
        c[k + 1:] = 0.0
        c[1 - k % 2::2] = 0.0
        return c


class Cylinder:
    """Discretization context: parameters, grid, angular rule, and operators.

    Builds each derived part once: its -d^2 band ``neg_d2``, which every axial
    solver reads, now; each sector operator (:meth:`sector_op`),
    ``ground_state``, and whatever another module builds from the cylinder
    alone (:meth:`cached`) on first use; and the translates V_t of its two most
    recent centers, with the powers asked of them (:meth:`bubble_power`).
    They hold arrays, never fields, so none refers back to the cylinder, and a
    dropped cylinder is freed at once."""

    def __init__(self, params, grid=None, L=DEFAULT_L, refine=1):
        self.params = params
        self.grid = default_grid(params, refine) if grid is None else grid
        self.grid.validate_for(params)
        self.sphere = SphereQuad(params.n, L=L)
        self.L = self.sphere.L
        self.neg_d2 = Band.neg_d2(self.grid.N, self.grid.h)
        self._sector_ops = {}  # degree l -> its sector operator, built on first use
        self._cached = {}  # builder -> what it built from this cylinder
        self._translates = {}  # center t -> {q: V_t ** q}, most recent center last

    def sector_op(self, l):
        """The degree-l sector operator ``neg_d2.shifted(l(l+n-2) + Lambda)``,
        built on first use: a radial field's residual and dual norm read
        sector 0's alone."""
        band = self._sector_ops.get(l)
        if band is None:
            band = self._sector_ops[l] = self.neg_d2.shifted(
                self.sphere.eigenvalue(l) + self.params.Lam
            )
        return band

    def cached(self, build):
        """``build(self)``, built on first use and kept: the hook through which
        other modules cache what they build from this cylinder alone.
        ``build`` is a module-level function, so each has one entry."""
        if build not in self._cached:
            self._cached[build] = build(self)
        return self._cached[build]

    # -- profile-level helpers -------------------------------------------------

    @cached_property
    def ground_state(self):
        """Discrete ground-state profile (Newton-polished bubble at t = 0)."""
        v0 = _params.bubble_profile(self.params, self.grid.s)
        return newton_ground_state(self.neg_d2, self.params.Lam, self.params.p, v0)

    def bubble(self, t=0.0):
        """The translate V_t on the grid, read-only; see :meth:`bubble_power`."""
        return self.bubble_power(t, 1.0)

    def bubble_power(self, t, q):
        """V_t ** q on the grid, read-only.  The two most recent centers keep
        their V_t and each power asked of it, so the rows of one interaction
        window form each translate and each power once."""
        powers = self._translates.pop(t, None)
        if powers is None:
            if len(self._translates) == 2:
                del self._translates[next(iter(self._translates))]
            V = _params.bubble_profile(self.params, self.grid.s, t)
            V.flags.writeable = False
            powers = {1.0: V}
        self._translates[t] = powers
        if q not in powers:
            powers[q] = powers[1.0] ** q
            powers[q].flags.writeable = False
        return powers[q]

    def bubble_ds(self, t=0.0):
        """ds V_t from the cached V_t, as ``params.bubble_profile_ds`` forms it."""
        z = self.params.alpha * (self.grid.s - t)
        return -self.params.sqrt_lam * self.bubble(t) * np.tanh(z)

    def quad_s(self, profile):
        """Trapezoid integral of an axial profile."""
        return float(np.dot(self.grid.quad_w, profile))

    # -- field constructors ----------------------------------------------------

    def field(self, profiles):
        return ZonalField(self, profiles)

    def from_radial(self, profile):
        """Field f(s, theta) = profile(s), no angular dependence."""
        prof = np.zeros((self.L + 1, self.grid.N))
        prof[0] = math.sqrt(sphere_area(self.params.n)) * np.asarray(profile)
        return ZonalField._adopt(self, prof)

    def from_theta_power(self, profile, k):
        """Field profile(s) * theta_n^k, expanded over the zonal basis."""
        coeffs = self.sphere.theta_power_coeffs(k)
        prof = np.outer(coeffs, np.asarray(profile, dtype=float))
        return ZonalField._adopt(self, prof)

    def bubble_field(self, t=0.0):
        """V_t as a field; ``from_radial(ground_state)`` is the discrete V_0."""
        return self.from_radial(self.bubble(t))


class ZonalField:
    """Axisymmetric function stored as per-degree axial profiles.

    ``profiles[l]`` multiplies the normalized zonal harmonic of degree l; the
    array is frozen after construction (a caller's array is copied first, in C
    order, the layout the row-wise scans of ``_take`` read fastest), so
    fields behave as immutable values.  ``degrees`` lists, in ascending order,
    the degrees whose profile is not identically zero; every sector loop walks
    it in place of testing each profile.
    """

    def __init__(self, cyl, profiles):
        self._take(cyl, np.array(profiles, dtype=float, copy=True, order="C"))

    @classmethod
    def _adopt(cls, cyl, profiles):
        """A field on a float array the package has just allocated and keeps
        no other reference to: checked and frozen in place, not copied."""
        f = cls.__new__(cls)
        f._take(cyl, profiles)
        return f

    def _take(self, cyl, profiles):
        if profiles.shape != (cyl.L + 1, cyl.grid.N):
            raise ValueError(
                f"profiles shape {profiles.shape} does not match "
                f"(L+1, N) = {(cyl.L + 1, cyl.grid.N)}"
            )
        # one row-wise max and min pass: a NaN reaches both, an inf one of them
        hi, lo = profiles.max(axis=1), profiles.min(axis=1)
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise ValueError("field profiles must be finite")
        profiles.flags.writeable = False
        self.cyl = cyl
        self.profiles = profiles
        self.degrees = np.flatnonzero((hi != 0.0) | (lo != 0.0)).tolist()

    def radial_profile(self):
        """The angular mean profile, i.e. the l = 0 part as a raw function."""
        return self.profiles[0] / math.sqrt(sphere_area(self.cyl.params.n))

    def synthesize(self):
        """Values f(s_i, x_j) on the tensor grid, shape (N, M)."""
        return self.profiles.T @ self.cyl.sphere.Y

    def __add__(self, other):
        _check_same(self, other)
        return ZonalField._adopt(self.cyl, self.profiles + other.profiles)

    def __sub__(self, other):
        _check_same(self, other)
        return ZonalField._adopt(self.cyl, self.profiles - other.profiles)

    def __mul__(self, c):
        return ZonalField._adopt(self.cyl, float(c) * self.profiles)

    __rmul__ = __mul__


def _check_same(f, g):
    if f.cyl is not g.cyl:
        raise ValueError("fields live on different cylinders")


def duality_pairing(f, g):
    """Discrete L^2(cylinder) pairing sum_l h * f_l . g_l (endpoint-decayed)."""
    _check_same(f, g)
    return f.cyl.grid.h * float(np.sum(f.profiles * g.profiles))


def h1_inner(f, g):
    """H^1 inner product; symmetric, realized through the sector operators.

    Only the degrees in both ``f.degrees`` and ``g.degrees`` are summed, in
    ascending order; every other sector adds exactly 0.0.
    """
    _check_same(f, g)
    cyl = f.cyl
    tot = 0.0
    for l in f.degrees:
        if l in g.degrees:
            tot += float(f.profiles[l] @ (cyl.sector_op(l) @ g.profiles[l]))
    return cyl.grid.h * tot


def h1_norm(f):
    return math.sqrt(max(h1_inner(f, f), 0.0))


def l2_norm_sq(f):
    """Parseval form of the squared L^2 norm, sum_l int f_l^2."""
    return float(np.sum(f.profiles**2 @ f.cyl.grid.quad_w))


def lp_norm(f, q):
    """L^q norm over the cylinder by tensor quadrature of |f|^q."""
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    vals = np.abs(f.synthesize()) ** q
    inner = vals @ f.cyl.sphere.w
    return float(np.dot(f.cyl.grid.quad_w, inner)) ** (1.0 / q)


def pointwise_map_with_tail(f, fn):
    """Apply a scalar map pointwise and project back onto degrees l <= L.

    Returns the projected (L+1, N) array, fresh and writable, and ``tail``,
    the share of ||fn(f)||^2, by the tensor quadrature, that the projection
    misses (clipped at 0; 0.0 when fn(f) vanishes).  The projection is exact
    (up to roundoff) whenever fn(f) is band-limited at degree L.  When
    ``f.degrees`` holds no degree above 0, f is constant on each sphere, equal
    to Y_0 times its degree-0 profile, and so is fn(f): the result is
    ``fn(Y_0 f_0) / Y_0`` in degree 0 and zero in every other degree, and the
    tail is exactly 0.0, with no tensor grid built.  Any other field is mapped
    on the (N, M) tensor grid and all L + 1 degrees are projected.

    The tensor grid is walked in axial blocks of ``BLOCK_VALUES // M`` rows,
    rounded down to a multiple of 16: each block is synthesized, mapped,
    projected into its columns of one preallocated (L+1, N) result and
    reduced to its rows' angular quadrature of fn(f)^2.  No tensor-grid
    temporary holds more than BLOCK_VALUES values, so each stays in cache and
    below glibc's initial 128 KiB mmap threshold, where a full (N, M)
    temporary is handed back to the kernel and faulted in again on every
    call.  Whole 16-row groups meet the BLAS kernels' row tiling as the full
    grid does; on OpenBLAS the projection then matches the unblocked products
    bit for bit.
    """
    cyl = f.cyl
    if max(f.degrees, default=0) == 0:
        y0 = cyl.sphere.Y[0, 0]  # the constant, normalized degree-0 harmonic
        proj = np.zeros_like(f.profiles)
        proj[0] = fn(y0 * f.profiles[0]) / y0
        return proj, 0.0
    Y, w = cyl.sphere.Y, cyl.sphere.w
    wY = w[:, None] * Y.T
    rows = max(BLOCK_VALUES // cyl.sphere.M // 16, 1) * 16
    proj = np.empty((cyl.L + 1, cyl.grid.N))
    sq = np.empty(cyl.grid.N)  # the angular quadrature of fn(f)^2 on each grid row
    for a in range(0, cyl.grid.N, rows):
        vals = fn(f.profiles[:, a:a + rows].T @ Y)
        proj[:, a:a + rows] = (vals @ wY).T
        sq[a:a + rows] = (vals**2) @ w
    # discarded angular tail, by Bessel against the discrete angular rule
    total = sq @ cyl.grid.quad_w
    kept = float(np.sum(proj**2 @ cyl.grid.quad_w))
    tail = max(total - kept, 0.0) / total if total > 0 else 0.0
    return proj, tail

