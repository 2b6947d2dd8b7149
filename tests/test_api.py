"""The package's public names are pinned: adding or dropping one is a visible edit."""

import ast
import types
from pathlib import Path

import cknstab as ck

PUBLIC_NAMES = {
    # cylinder
    "Cylinder", "Grid", "SphereQuad", "ZonalField", "default_grid", "h1_inner",
    "h1_norm", "lp_norm", "sphere_area", "sphere_moment",
    # multibubble
    "BubbleConfig", "bubble_sum_residual", "interaction", "interaction_derivative",
    "window_cylinder",
    # operators
    "Residual", "apply_H1", "bvp_solve", "hminus1_norm", "riesz_solve",
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
    assert len(PUBLIC_NAMES) == 44


def test_every_public_name_has_a_reader():
    # a public name that only tests (other than the acceptance gate) read has
    # no reader in the package; names in docstrings or __all__ do not count
    root = Path(ck.__file__).parent
    paths = [p for p in root.glob("*.py") if p.name != "__init__.py"]
    paths.append(Path(__file__).with_name("test_acceptance.py"))
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert PUBLIC_NAMES - read == set()
