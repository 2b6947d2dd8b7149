"""Numerics for degenerate stability of the weighted critical equation on the
threshold curve: cylinder bubbles, linearized spectra, dual-norm residuals,
the stability constants, the sharp cubic family, and multi-bubble interaction
estimates."""

__version__ = "0.1.0"

from .cylinder import (
    Cylinder,
    Grid,
    SphereQuad,
    ZonalField,
    default_grid,
    h1_inner,
    h1_norm,
    lp_norm,
    sphere_area,
    sphere_moment,
)
from .multibubble import (
    BubbleConfig,
    bubble_sum_residual,
    interaction,
    interaction_derivative,
    window_cylinder,
)
from .operators import (
    Residual,
    apply_H1,
    bvp_solve,
    hminus1_norm,
    riesz_solve,
)
from .params import (
    CknParams,
    bubble_profile,
    bubble_profile_ds,
    emden_fowler,
    felli_schneider_b,
    from_pn,
    two_star,
)
from .spectrum import SectorSpectrum, eigensolve_sector, gamma3
from .stability import (
    BubbleFit,
    SharpnessReport,
    StabilityConstants,
    compute_E0,
    compute_F,
    compute_R_energy,
    compute_R_gamma,
    corrector,
    counterexample,
    naive_family,
    nearest_bubble,
    project_Y,
    sharpness_study,
    stability_constants,
)
