import random
from fractions import Fraction
from math import lcm

import pytest
import sympy

from gdsum.exactnum import (
    CycElem,
    _cyc,
    _reduce,
    _rotations,
    _rows,
    cyclotomic_polynomial,
    root_of_unity,
)
from reference_tables import conj, embed


def test_cyclotomic_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_cyclotomic_against_sympy():
    x = sympy.symbols("x")
    for L in range(1, 61):
        poly = sympy.Poly(sympy.cyclotomic_poly(L, x), x)
        expect = tuple(int(c) for c in reversed(poly.all_coeffs()))
        assert cyclotomic_polynomial(L) == expect


@pytest.mark.parametrize("L", [2, 4, 6, 10, 12, 30, 60, 105])
def test_reduce_in_integers_equals_reduce_in_fractions(L):
    """`_reduce` takes integer numerators as well as Fractions: reducing
    integers over one denominator mod Phi_L, then dividing each by it, gives
    the Fraction reduction, and the integers stay integers.  Phi_105 is the
    first with a coefficient other than 0 and +-1 (-2 at x^7)."""
    if L == 105:
        assert cyclotomic_polynomial(L)[7] == -2
    rng = random.Random(L)
    for _ in range(40):
        nums = [rng.choice((0, rng.randint(-(10**9), 10**9))) for _ in range(L)]
        den = rng.randint(1, 10**6)
        reduced = _reduce(L, list(nums))
        assert len(reduced) == len(cyclotomic_polynomial(L)) - 1
        assert all(type(n) is int for n in reduced)
        assert [Fraction(n, den) for n in reduced] == list(_reduce(L, [Fraction(n, den) for n in nums]))


def test_roots_of_unity():
    assert root_of_unity(4, 2) == CycElem(4, [-1])
    assert root_of_unity(3, 2) == CycElem(3, [-1, -1])
    assert root_of_unity(6, 6) == CycElem.one(6)
    assert root_of_unity(1, 5) == CycElem.one(1)


def test_root_of_unity_multiplication_table():
    for L in range(1, 25):
        for k in range(L):
            for m in range(L):
                assert root_of_unity(L, k) * root_of_unity(L, m) == root_of_unity(L, k + m)


def test_basic_products():
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == CycElem.from_rational(4, -1)
    z3 = root_of_unity(3, 1)
    assert z3 + z3 * z3 == CycElem.from_rational(3, -1)
    z6 = root_of_unity(6, 1)
    assert conj(z6) == root_of_unity(6, 5)


def _random_elem(rng, L):
    deg = len(CycElem.zero(L).coeffs)
    return CycElem(
        L, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
    )


def test_ring_axioms_random():
    rng = random.Random(0)
    for L in (2, 3, 4, 6, 8, 12):
        for _ in range(25):
            a, b, c = (_random_elem(rng, L) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


def test_conjugation_random():
    rng = random.Random(1)
    for L in (3, 4, 6, 12):
        for _ in range(25):
            a, b = _random_elem(rng, L), _random_elem(rng, L)
            assert conj(conj(a)) == a
            assert conj(a * b) == conj(a) * conj(b)


def test_canonicalization_idempotent():
    rng = random.Random(2)
    for L in (2, 5, 6, 12):
        for _ in range(10):
            a = _random_elem(rng, L)
            assert CycElem(L, a.coeffs) == a


def test_embed_cases():
    minus_one = CycElem.from_rational(2, -1)
    assert embed(minus_one, 4) == CycElem(4, [-1])
    assert embed(root_of_unity(3, 1), 6) == root_of_unity(6, 2)
    for M in (1, 2, 6, 24):
        assert embed(CycElem.one(1), M) == CycElem.one(M)


def test_embed_is_ring_hom():
    rng = random.Random(3)
    for L, M in ((2, 4), (3, 6), (4, 12), (6, 12)):
        for _ in range(20):
            a, b = _random_elem(rng, L), _random_elem(rng, L)
            assert embed(a + b, M) == embed(a, M) + embed(b, M)
            assert embed(a * b, M) == embed(a, M) * embed(b, M)


def test_embed_requires_divisibility():
    with pytest.raises(ValueError):
        embed(root_of_unity(4, 1), 6)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        root_of_unity(3, 1) + root_of_unity(4, 1)
    with pytest.raises(ValueError):
        root_of_unity(3, 1) * root_of_unity(6, 1)


def test_scaling_and_scalars():
    z6 = root_of_unity(6, 1)
    assert 2 * z6 - z6 == z6
    assert Fraction(1, 2) * (z6 + z6) == z6
    assert z6 * 0 == CycElem.zero(6)
    assert CycElem.zero(6) == 0


def test_approx():
    assert abs(root_of_unity(4, 1).approx() - 1j) < 1e-12
    assert abs((CycElem.one(2) + CycElem.from_rational(2, -1)).approx()) < 1e-12
    assert abs(CycElem.from_rational(5, Fraction(1, 2)).approx() - 0.5) < 1e-12


def test_str_rendering():
    assert str(CycElem.zero(6)) == "0"
    assert str(CycElem.from_rational(6, Fraction(1, 2))) == "1/2"
    e = CycElem(6, [Fraction(1, 3), Fraction(-2, 5)])
    assert str(e) == "1/3 - 2/5*z"
    assert str(root_of_unity(6, 1)) == "z"


def test_immutability():
    e = root_of_unity(6, 1)
    with pytest.raises(AttributeError):
        e.order = 12


def test_row_conversions_round_trip():
    """`_rows` gives random CycElems at orders 1 to 30 as integer rows over
    the lcm of their denominators, one tuple per distinct object, and `_cyc` turns each row back into its CycElem; a row
    of L coefficients is first reduced mod Phi_L."""
    rng = random.Random(30)
    for L in range(1, 31):
        deg = len(cyclotomic_polynomial(L)) - 1
        values = {
            i: CycElem(L, [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(deg)]) for i in range(6)
        }
        values["again"] = values[0]
        den, rows = _rows(values)
        assert den == lcm(*(x.denominator for v in values.values() for x in v.coeffs))
        assert rows["again"] is rows[0] and set(rows) == set(values)
        for k, v in values.items():
            assert all(type(n) is int for n in rows[k]) and _cyc(L, den, rows[k]) == v
        raw = [rng.randint(-50, 50) for _ in range(L)]
        assert CycElem(L, [Fraction(n, 6) for n in raw]) == _cyc(L, 6, raw)  # `_cyc` reduces raw in place


@pytest.mark.parametrize("L", [2, 4, 6, 10, 12, 60, 144])
def test_rotations_step_a_row_through_the_powers_of_zeta(L):
    """Entry e of `_rotations(L, row)` is the row of zeta_L^e times row, as
    CycElem arithmetic gives it, for seeded random integer rows."""
    rng, deg = random.Random(L), len(cyclotomic_polynomial(L)) - 1
    for _ in range(4):
        row = tuple(rng.randint(-10**6, 10**6) for _ in range(deg))
        turns = _rotations(L, row)
        assert len(turns) == L and turns[0] == row
        assert all(_cyc(L, 1, turns[e]) == root_of_unity(L, e) * CycElem(L, row) for e in range(L))
