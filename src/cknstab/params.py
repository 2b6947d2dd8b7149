"""Parameter algebra for the degenerate-stability curve.

The admissible weight pairs are parametrized here by the dimension n >= 2 and
an exponent 2 < p < 2*; all remaining quantities (the weight exponents a and
b, the spectral mass, and the decay/amplitude constants of the explicit
ground-state profiles) are derived from (p, n).  The chart by (p, n) is used
throughout the package because it avoids inverting the threshold curve
b(a).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CknParams",
    "from_pn",
    "felli_schneider_b",
    "two_star",
    "bubble_profile",
    "bubble_profile_ds",
    "emden_fowler",
]


def two_star(n):
    """Critical exponent 2n/(n-2); +inf in dimension 2."""
    if n <= 2:
        return math.inf
    return 2.0 * n / (n - 2.0)


@dataclass(frozen=True)
class CknParams:
    """Parameter bundle (n, p, a, b, Lambda, alpha, beta) on the threshold curve.

    Instances should be built through :func:`from_pn`, which guarantees the
    internal relations:

    * ``Lam == 4(n-1)/(p^2-4)`` and ``Lam == ((n-2-2a)/2)^2`` with ``a < 0``,
    * ``b == felli_schneider_b(a, n)`` and ``p == 2n/(n-2+2(b-a))``,
    * ``alpha == (p-2)*sqrt(Lam)/2`` and ``beta == (p*Lam/2)**(1/(p-2))``,

    each to 1e-12 relative accuracy.
    """

    n: int
    p: float
    a: float
    b: float
    Lam: float
    alpha: float
    beta: float

    @property
    def sqrt_lam(self):
        return math.sqrt(self.Lam)

    def curve_residuals(self):
        """Relative defects of the defining relations; all should be <= 1e-12."""
        n, p = self.n, self.p
        r1 = abs(self.Lam - 4.0 * (n - 1) / (p * p - 4.0)) / self.Lam
        r2 = abs(self.Lam - ((n - 2 - 2 * self.a) / 2.0) ** 2) / self.Lam
        r3 = abs(self.b - felli_schneider_b(self.a, n)) / max(abs(self.b), 1.0)
        r4 = abs(p - 2.0 * n / (n - 2 + 2 * (self.b - self.a))) / p
        return r1, r2, r3, r4


def from_pn(p, n):
    """Build the unique parameter bundle on the curve for given (p, n).

    Parameters
    ----------
    p : float
        Exponent with 2 < p < 2*(n).
    n : int
        Dimension, n >= 2.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got {n}")
    p = float(p)
    if not (2.0 < p < two_star(n)):
        raise ValueError(f"exponent must satisfy 2 < p < {two_star(n)}, got p={p}")
    lam = 4.0 * (n - 1) / (p * p - 4.0)
    a = (n - 2) / 2.0 - math.sqrt(lam)
    b = a + n / p - (n - 2) / 2.0
    alpha = (p - 2) / 2.0 * math.sqrt(lam)
    beta = (p * lam / 2.0) ** (1.0 / (p - 2.0))
    return CknParams(n=n, p=p, a=a, b=b, Lam=lam, alpha=alpha, beta=beta)


def felli_schneider_b(a, n):
    """Threshold value of b below which non-radial ground states appear.

    Requires a < 0; the curve meets b = 0 as a -> 0^-.
    """
    if a >= 0:
        raise ValueError(f"threshold curve requires a < 0, got a={a}")
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got {n}")
    d = n - 2.0 - 2.0 * a
    return n * d / (2.0 * math.sqrt(d * d + 4.0 * n - 4.0)) - d / 2.0


def bubble_profile(params, s, t=0.0):
    """Axial profile beta * cosh(alpha (s - t))^{-2/(p-2)} of the ground state."""
    z = params.alpha * (np.asarray(s, dtype=float) - t)
    return params.beta * np.cosh(z) ** (-2.0 / (params.p - 2.0))


def bubble_profile_ds(params, s, t=0.0):
    """s-derivative of :func:`bubble_profile` (analytic, not finite-differenced)."""
    z = params.alpha * (np.asarray(s, dtype=float) - t)
    return -params.sqrt_lam * bubble_profile(params, s, t) * np.tanh(z)


def emden_fowler(radii, samples, cyl):
    """Map a radial profile u(r) to the cylinder: v(s) = r^{(n-2-2a)/2} u(r).

    ``radii`` must be strictly positive; sampling should be (close to)
    uniform in s = -log r, since a cubic spline in s is used to move the data
    onto the grid of ``cyl``, whose parameters give n and a.  Returns an
    axisymmetric field living in the lowest angular mode.
    """
    r = np.asarray(radii, dtype=float)
    u = np.asarray(samples, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radii must be strictly positive")
    if not np.all(np.isfinite(u)):
        raise ValueError("radial samples must be finite")
    expo = (cyl.params.n - 2.0 - 2.0 * cyl.params.a) / 2.0
    s_data = -np.log(r)
    v_data = r**expo * u
    order = np.argsort(s_data)
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(s_data[order], v_data[order])
    s = cyl.grid.s
    inside = (s >= s_data[order][0]) & (s <= s_data[order][-1])
    prof = np.where(inside, spline(s), 0.0)
    return cyl.from_radial(prof)

