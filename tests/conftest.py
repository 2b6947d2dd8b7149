import pytest

import cknstab as ck


@pytest.fixture(scope="session")
def par34():
    return ck.from_pn(4.0, 3)


@pytest.fixture(scope="session")
def cyl34(par34):
    return ck.Cylinder(par34)
