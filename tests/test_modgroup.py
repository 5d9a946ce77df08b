import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdsum.cosets import transversal_g1_in_g0
from gdsum.modgroup import (
    I2,
    Mat2,
    S,
    T,
    TSWord,
    random_gamma0,
    ts_decompose,
    ts_reconstruct,
)
from reference_tables import in_gamma1, mul_t_power, random_sl2, strip_letters


def test_constructor_checks_determinant():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Mat2(2, 0, 0, 2)


def test_products_and_inverse():
    assert Mat2(-152, 137, -81, 73) * Mat2(8, 7, 9, 8) == Mat2(17, 32, 9, 17)
    assert I2.inv() == I2
    assert S * S == -I2
    m = Mat2(5, 1, 9, 2)
    assert m * m.inv() == I2
    assert m.inv() * m == I2


def test_congruence_membership():
    m = Mat2(17, 32, 9, 17)
    assert m.in_gamma0(9) and not in_gamma1(m, 9)
    g1 = Mat2(-152, 137, -81, 73)
    assert in_gamma1(g1, 9)
    assert I2.in_gamma0(7) and in_gamma1(I2, 7)
    assert not Mat2(1, 0, 1, 1).in_gamma0(5)


def test_ts_decompose_basics():
    assert ts_decompose(T) == TSWord(False, (1,))
    assert ts_decompose(I2) == TSWord(False, (0,))
    assert ts_decompose(-I2) == TSWord(True, (0,))
    assert ts_reconstruct(TSWord(False, (1,))) == T
    assert ts_reconstruct(TSWord(False, (0,))) == I2


def test_ts_word_regression():
    """The floor-quotient word of criterion 2, and the nearest word the
    library gives, both rebuild the matrix exactly."""
    g1 = Mat2(-152, 137, -81, 73)
    w = strip_letters(g1, nearest=False, cap=None)
    assert w == TSWord(True, (1, -2, -2, -2, -2, -2, -2, -2, -11, -1))
    assert ts_reconstruct(w) == g1
    w = ts_decompose(g1)
    assert w == TSWord(False, (2, 8, -10, -1)) and ts_reconstruct(w) == g1


def test_ts_word_validation():
    with pytest.raises(ValueError):
        TSWord(False, ())
    with pytest.raises(ValueError):
        TSWord(False, (1, 0, 2))
    # zeros at either end are allowed
    TSWord(False, (0, 5, 0))


def test_roundtrip_random_products():
    rng = random.Random(0)
    for _ in range(1000):
        m = random_sl2(rng, 30)
        assert ts_reconstruct(ts_decompose(m)) == m


def test_roundtrip_gamma0_members():
    rng = random.Random(1)
    t = transversal_g1_in_g0(9)
    # transversal member times a Gamma1-ish product
    for _ in range(200):
        m = rng.choice(list(t.members.values()))
        for _ in range(rng.randint(1, 8)):
            m = m * rng.choice((T, Mat2(1, -1, 0, 1), Mat2(1, 0, 9, 1)))
        assert ts_reconstruct(ts_decompose(m)) == m


def _within_nearest_bound(m, w):
    # letters <= log2|c| + 2, in integers; a shear is one letter
    return w.letters == 1 if m.c == 0 else 2 ** (w.letters - 2) <= abs(m.c)


def test_word_length_logarithmic():
    rng = random.Random(2)
    for _ in range(300):
        m = random_gamma0(9, rng, kmax=10**10, d_shift=1)
        assert _within_nearest_bound(m, ts_decompose(m))
    for _ in range(300):
        m = random_sl2(rng, 40)
        assert _within_nearest_bound(m, ts_decompose(m))


def test_word_length_adversarial_ratios():
    # near-ratio-1 columns make floor quotients descend arithmetically;
    # nearest quotients still halve |c| every step
    for c in (10**6, 10**9, 10**12 + 39):
        a = c - 1
        d = pow(a, -1, c)
        m = Mat2(a, (a * d - 1) // c, c, d)
        w = ts_decompose(m)
        assert ts_reconstruct(w) == m
        assert _within_nearest_bound(m, w)


def test_determinant_preserved():
    rng = random.Random(3)
    for _ in range(100):
        m, n = random_sl2(rng, 15), random_sl2(rng, 15)
        p = m * n
        assert p.a * p.d - p.b * p.c == 1
        q = p.inv()
        assert q.a * q.d - q.b * q.c == 1


def test_words_equal_the_whole_matrix_euclid(sweep):
    """`ts_decompose` runs Euclid on the first column and solves the last
    exponent and the sign, so it must give the nearest words of Euclid on
    the whole matrix, which reads them off the +-T^b it ends at."""
    assert len(sweep) >= 5000 and any(m.c < 0 for m in sweep)
    for m in sweep:
        assert ts_decompose(m) == strip_letters(m, nearest=True, cap=None), m


def test_decompose_deterministic():
    rng = random.Random(4)
    for _ in range(50):
        m = random_sl2(rng, 25)
        assert ts_decompose(m) == ts_decompose(m)


def test_parse():
    assert Mat2.parse("17,32;9,17") == Mat2(17, 32, 9, 17)
    assert Mat2.parse(" -152 , 137 ; -81 , 73 ") == Mat2(-152, 137, -81, 73)
    big = Mat2.parse("46741638,43234369;43234205,39990117")
    assert big.c == 43234205
    with pytest.raises(ValueError):
        Mat2.parse("1,2,3;4,5")
    with pytest.raises(ValueError):
        Mat2.parse("1,0;0")
    with pytest.raises(ValueError, match="^matrix spec '1,0' must have two ;-separated rows$"):
        Mat2.parse("1,0")
    with pytest.raises(ValueError):
        Mat2.parse("2,0;0,2")


def test_messages_give_huge_entries_by_bit_length():
    """An entry past 256 bits is given by its bit length in str() and in the
    determinant error, which then need no int-to-str conversion, and a parse
    error cuts a text past 80 characters to its start."""
    edge, past, huge = 2**256 - 1, 2**256, 10**6000
    assert str(Mat2(1, edge, 0, 1)) == f"(1, {edge}; 0, 1)"
    assert str(Mat2(-1, past, 0, -1)) == "(-1, <257-bit integer>; 0, -1)"
    assert str(Mat2(1, 0, -huge, 1)) == "(1, 0; -<19,932-bit integer>, 1)"
    with pytest.raises(ValueError, match=r"^determinant of \(<19,932-bit integer>,1;0,1\) is not 1$"):
        Mat2(huge, 1, 0, 1)
    with pytest.raises(ValueError) as info:
        Mat2.parse("1,0;" + "9" * 5000 + "x,1")
    assert str(info.value) == (
        f"matrix entry {'9' * 40!r}... (5,001 characters) in {'1,0;' + '9' * 36!r}... "
        "(5,007 characters) is not an integer"
    )


def test_parse_names_the_digit_limit(digit_limit_4300):
    """An integer entry longer than the digit limit is refused for its
    length, by a message that says so and names the call that lifts it."""
    with pytest.raises(ValueError) as info:
        Mat2.parse("1,0;" + "9" * 5000 + ",1")
    assert str(info.value) == (
        f"matrix entry {'9' * 40!r}... (5,000 characters) in {'1,0;' + '9' * 36!r}... (5,006 characters) "
        "is past the interpreter's int-to-str digit limit; see sys.set_int_max_str_digits"
    )


def test_repr_gives_huge_entries_as_str_does(digit_limit_4300):
    """repr writes an entry in decimal up to the digit limit and past it by
    its bit length, the form str() uses; it never raises."""
    huge = 10**4999 * 9 + 1  # 5,000 digits
    m = Mat2(1, 0, huge, 1)
    assert repr(m) == "Mat2(1, 0, <16,610-bit integer>, 1)"
    assert str(m) == "(1, 0; <16,610-bit integer>, 1)"
    assert repr(Mat2(1, 0, 10**4299, 1)) == f"Mat2(1, 0, 1{'0' * 4299}, 1)"
    assert repr(Mat2(17, 32, 9, 17)) == "Mat2(17, 32, 9, 17)"


@st.composite
def words(draw):
    """A product T^k1 S T^k2 S ..., so any sign and size of entry appears."""
    m = I2
    for k in draw(st.lists(st.integers(-(10**20), 10**20), max_size=6)):
        m = mul_t_power(m, k) * S
    return m


@given(words(), st.lists(st.sampled_from(("", " ", "  ", "\t")), min_size=8, max_size=8))
def test_parse_round_trip(m, pad):
    text = "{}{}{},{}{};{}{},{}{}{}".format(
        pad[0], m.a, pad[1], pad[2], m.b, pad[3], m.c, pad[4], m.d, pad[5] + pad[6] + pad[7]
    )
    assert Mat2.parse(text) == m


def test_immutability_and_hash():
    m = Mat2(1, 1, 0, 1)
    with pytest.raises(AttributeError):
        m.a = 5
    assert len({Mat2(1, 1, 0, 1), T, S}) == 2
