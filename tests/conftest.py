import random
import sys
import warnings
from math import gcd

import pytest

from gdsum import find_character, precompute
from gdsum.dedekind import ParityWarning
from gdsum.modgroup import I2, Mat2


@pytest.fixture
def digit_limit_4300():
    """The interpreter's default int-to-str digit limit, restored after."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


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


@pytest.fixture(scope="session")
def sweep():
    """The matrices of the decomposition sweep, 5,000 or more: at N = 9, 28
    and 35, Gamma0(N) members with c log-uniform up to 10^60 and d shifted
    by up to one c, each also negated, inverted and both (so c < 0 too);
    the shears +-T^b and (+-1, 0; N b, +-1); and +-I."""
    rng, out = random.Random(20), [I2, -I2]
    for N in (9, 28, 35):
        for _ in range(420):
            c = N * max(1, int(10 ** rng.uniform(0, 60)) // N)
            a = rng.randrange(1, c + 1)
            while gcd(a, c) != 1:
                a += 1
            d = pow(a, -1, c) + c * rng.randint(-1, 1)
            m = Mat2(a, (a * d - 1) // c, c, d)
            out += [m, -m, m.inv(), -m.inv()]
        for b in range(-20, 21):
            out += [Mat2(s, s * b, 0, s) for s in (1, -1)]
            out += [Mat2(s, 0, N * b, s) for s in (1, -1)]
    return out
