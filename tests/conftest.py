import pytest

import cknstab as ck


@pytest.fixture(scope="session")
def par34():
    return ck.from_pn(4.0, 3)


@pytest.fixture(scope="session")
def cyl34(par34):
    return ck.Cylinder(par34)


@pytest.fixture(scope="session")
def study34(par34):
    """The sharp family's grid at the reference point."""
    return ck.Cylinder(par34, refine=ck.stability.STUDY_REFINE)
