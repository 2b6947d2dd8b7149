"""The sampled constant of the paper's elementary pointwise inequality."""

import numpy as np


def inequality_ratio(p, x, y):
    """Largest ratio of | |x+y|^{p-2}(x+y) - |x|^{p-2}x - (p-1)|x|^{p-2}y |
    to [p > 3] |x|^{p-3} y^2 + |y|^{p-1} over the samples where the latter is
    positive; the elementary inequality holds when it is finite."""
    lhs = np.abs(
        np.abs(x + y) ** (p - 2) * (x + y)
        - np.abs(x) ** (p - 2) * x
        - (p - 1) * np.abs(x) ** (p - 2) * y
    )
    rhs = float(p > 3) * np.abs(x) ** (p - 3) * y**2 + np.abs(y) ** (p - 1)
    mask = rhs > 0
    return float(np.max(lhs[mask] / rhs[mask]))
