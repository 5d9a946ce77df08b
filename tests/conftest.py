import warnings

import pytest

from gdsum import find_character, precompute
from gdsum.dedekind import ParityWarning


@pytest.fixture(scope="session")
def chi3():
    # quadratic character mod 3
    return find_character(3, [(2, "1/2")])


@pytest.fixture(scope="session")
def chi4():
    return find_character(4, [(3, "1/2")])


@pytest.fixture(scope="session")
def chi7_56():
    return find_character(7, [(3, "5/6")])


@pytest.fixture(scope="session")
def chi5():
    return find_character(5, [(2, "3/4")])


@pytest.fixture(scope="session")
def chi7_13():
    return find_character(7, [(3, "1/3")])


@pytest.fixture(scope="session")
def chi5_14():
    return find_character(5, [(2, "1/4")])


@pytest.fixture(scope="session")
def chi7_16():
    return find_character(7, [(3, "1/6")])


@pytest.fixture(scope="session")
def ctx9(chi3):
    return precompute(chi3, chi3)


@pytest.fixture(scope="session")
def ctx28(chi4, chi7_56):
    return precompute(chi4, chi7_56)


@pytest.fixture(scope="session")
def ctx35(chi5, chi7_13):
    # the defining parity hypothesis fails for this pair; the engine warns
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParityWarning)
        return precompute(chi5, chi7_13)


@pytest.fixture(scope="session")
def ctx35_l12(chi5_14, chi7_16):
    # order L = 12: degree-4 rows, and the parity hypothesis holds
    return precompute(chi5_14, chi7_16)
