"""Closed forms that the self-test and the test suite check the numerics against.

Each one is derived independently of the code it checks (Beta and Gamma
integrals, the explicit flat-space bubble, the Poschl-Teller bound states)
and uses only ``math``.
"""

import math


def sphere_moment_beta(n, k):
    """int over S^{n-1} of theta_n^{2k}, as |S^{n-2}| B(k + 1/2, (n-1)/2)."""
    area_nm1 = 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
    return area_nm1 * math.exp(
        math.lgamma(k + 0.5) + math.lgamma((n - 1) / 2.0) - math.lgamma(k + n / 2.0)
    )


def bubble_mass_exact(params, q):
    """Closed form of int_R V0^q ds through Gamma functions."""
    m = q / (params.p - 2.0)
    return (
        params.beta**q
        * math.sqrt(math.pi)
        * math.exp(math.lgamma(m) - math.lgamma(m + 0.5))
        / params.alpha
    )


def solvable_gamma(params, ell, j):
    """The j-th eigenvalue of sector ell of the continuum sech^2 pencil.

    The weight is (p Lam / 2) sech^2(alpha s), so the j-th sector eigenvalue
    follows from the classical bound-state count: with
    nu = j + sqrt(l(l+n-2) + Lam)/alpha one gets
    gamma = (p-2)^2 nu (nu+1) / (2p).  This gives 1 and p - 1 at j = 0, 1
    in sector 0, p - 1 at j = 0 in sector 1, and the gap (p-1)(3p-4)/p at
    j = 2 in sector 0 and j = 1 in sector 1.
    """
    nu = j + math.sqrt(ell * (ell + params.n - 2) + params.Lam) / params.alpha
    return (params.p - 2.0) ** 2 * nu * (nu + 1.0) / (2.0 * params.p)


def plane_bubble(params, lam, r):
    """The flat-space ground state at scale lam, sampled at radii r."""
    w = math.sqrt(params.Lam) * (params.p - 2.0)
    amp = lam ** math.sqrt(params.Lam) * (2.0 * params.p * params.Lam) ** (
        1.0 / (params.p - 2.0)
    )
    return amp / (1.0 + (lam * r) ** w) ** (2.0 / (params.p - 2.0))
