"""The package's public names are pinned: adding or dropping one is a visible edit."""

import types

import cknstab as ck

PUBLIC_NAMES = {
    # cylinder
    "Cylinder", "Grid", "SphereQuad", "ZonalField", "default_grid", "h1_inner",
    "h1_norm", "lp_norm", "sphere_area", "sphere_moment",
    # multibubble
    "BubbleConfig", "bubble_sum_residual", "interaction", "interaction_derivative",
    "moduli", "weight_profiles", "window_cylinder",
    # operators
    "Residual", "apply_H1", "bvp_solve", "hminus1_norm", "linearized_apply",
    "riesz_solve",
    # params
    "CknParams", "bubble_profile", "bubble_profile_ds", "emden_fowler",
    "felli_schneider_b", "from_pn", "two_star",
    # spectrum
    "SectorSpectrum", "eigensolve_sector", "gamma3",
    # stability
    "BubbleFit", "SharpnessReport", "StabilityConstants", "compute_E0", "compute_F",
    "compute_R_energy", "compute_R_gamma", "corrector", "counterexample",
    "naive_family", "nearest_bubble", "project_Y", "sharpness_study",
    "stability_constants",
}


def test_public_names_are_pinned():
    # submodules become package attributes once imported, so they do not count
    names = {name for name, val in vars(ck).items()
             if not name.startswith("_") and not isinstance(val, types.ModuleType)}
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 47
