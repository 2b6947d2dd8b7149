"""Closed forms that the self-test and the test suite check the numerics against.

Each one is derived independently of the code it checks (Beta and Gamma
integrals, the explicit flat-space bubble) and uses only ``math``.
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


def plane_bubble(params, lam, r):
    """The flat-space ground state at scale lam, sampled at radii r."""
    w = math.sqrt(params.Lam) * (params.p - 2.0)
    amp = lam ** math.sqrt(params.Lam) * (2.0 * params.p * params.Lam) ** (
        1.0 / (params.p - 2.0)
    )
    return amp / (1.0 + (lam * r) ** w) ** (2.0 / (params.p - 2.0))
