"""Closed forms that the numerics start from or are checked against.

Each one is derived independently of the code it checks (Beta and Gamma
integrals, the explicit flat-space bubble, the Poschl-Teller bound states)
and uses only ``math`` and numpy.  The spectrum starts its Lanczos runs from
:func:`solvable_starts` and checks its levels against :func:`solvable_gamma`;
the self-test and the test suite read the rest.
"""

import math

import numpy as np


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


def solvable_starts(params, ell, s, k):
    """The even and the odd Lanczos start of sector ell, sampled at s.

    With z = alpha s, nu0 = sqrt(l(l+n-2) + Lam)/alpha and lam = nu0 + 1/2,
    the j-th eigenfunction of the continuum pencil of :func:`solvable_gamma`
    is sech^{nu0}(z) C_j^{(lam)}(tanh z), with C_j the Gegenbauer polynomial
    (DLMF 18.9.1: (j+1) C_{j+1} = 2(j+lam) t C_j - (j+2lam-1) C_{j-1}).  Even
    j are even in s and odd j odd.  The even start sums j = 0, 2, ..., 2k and
    the odd start j = 1, 3, ..., 2k+1, each term scaled to unit length on s.
    The spectrum samples them on the half grid s >= 0 alone.
    """
    z = params.alpha * s
    nu0 = math.sqrt(ell * (ell + params.n - 2) + params.Lam) / params.alpha
    lam = nu0 + 0.5
    t = np.tanh(z)
    # sech^nu0 z through log cosh z = |z| + log1p(e^{-2|z|}) - log 2, free of overflow
    a = np.abs(z)
    env = np.exp(-nu0 * (a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)))
    starts = np.zeros((2, z.size))  # rows: the even and the odd start
    c_prev, c = np.zeros_like(z), np.ones_like(z)
    for j in range(2 * k + 2):
        phi = env * c
        phi /= np.linalg.norm(phi)
        starts[j % 2] += phi
        # c_prev <- C_{j+1}, then swap, so c is C_{j+1} and c_prev C_j
        c_prev *= -(j + 2.0 * lam - 1.0) / (j + 1.0)
        c_prev += (2.0 * (j + lam) / (j + 1.0)) * t * c
        c, c_prev = c_prev, c
    return starts


def plane_bubble(params, lam, r):
    """The flat-space ground state at scale lam, sampled at radii r."""
    w = math.sqrt(params.Lam) * (params.p - 2.0)
    amp = lam ** math.sqrt(params.Lam) * (2.0 * params.p * params.Lam) ** (
        1.0 / (params.p - 2.0)
    )
    return amp / (1.0 + (lam * r) ** w) ** (2.0 / (params.p - 2.0))
