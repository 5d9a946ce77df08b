import functools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdsum.characters import (
    characters_mod,
    euler_phi,
    find_character,
    pair_order,
    parity_product,
    parse_character_spec,
    psi,
    unit_group_gens,
)
from gdsum.exactnum import CycElem, root_of_unity
from gdsum.modgroup import Mat2, random_gamma0
from reference_tables import embed, in_gamma1


def test_enumeration_small_moduli():
    mod3 = characters_mod(3)
    assert len(mod3) == 2
    quad = [c for c in mod3 if c.order != 1]
    assert len(quad) == 1 and quad[0].eval(2) == CycElem.from_rational(2, -1)

    mod4 = characters_mod(4)
    assert len(mod4) == 2
    nontriv = [c for c in mod4 if c.order != 1][0]
    assert nontriv.eval(3) == CycElem.from_rational(2, -1)

    mod7 = characters_mod(7)
    assert len(mod7) == 6
    assert sorted(c.order for c in mod7) == [1, 2, 3, 3, 6, 6]


def test_enumeration_completeness_and_distinctness():
    for q in range(1, 51):
        chars = characters_mod(q)
        assert len(chars) == euler_phi(q)
        assert len({c._exps for c in chars}) == len(chars)


def test_multiplicativity_all_q_up_to_50():
    for q in range(2, 51):
        for chi in characters_mod(q):
            for m in range(1, q + 1):
                if gcd(m, q) != 1:
                    continue
                for n in range(1, q + 1):
                    if gcd(n, q) != 1:
                        continue
                    km, kn, kmn = chi.exponent(m), chi.exponent(n), chi.exponent(m * n)
                    assert (km + kn) % chi.order == kmn % chi.order


def test_multiplicativity_as_field_elements():
    rng = random.Random(0)
    for q in (5, 7, 9, 16, 35):
        for chi in characters_mod(q):
            for _ in range(10):
                m, n = rng.randint(1, 4 * q), rng.randint(1, 4 * q)
                assert chi.eval(m) * chi.eval(n) == chi.eval(m * n)


def test_orthogonality_all_q_up_to_50():
    for q in range(2, 51):
        for chi in characters_mod(q):
            if chi.order == 1:
                continue
            total = CycElem.zero(chi.order)
            for n in range(q):
                total = total + chi.eval(n)
            assert total == CycElem.zero(chi.order)


def test_chi_at_one_and_periodicity():
    for q in (3, 7, 12, 40):
        for chi in characters_mod(q):
            assert chi.eval(1) == CycElem.one(chi.order)
            assert chi.eval(5) == chi.eval(5 + q)
            assert not chi.eval(0) or q == 1


def test_conductor_and_primitivity():
    quad3 = find_character(3, [(2, "1/2")])
    assert quad3.is_primitive() and quad3.conductor() == 3

    trivial3 = [c for c in characters_mod(3) if c.order == 1][0]
    assert trivial3.conductor() == 1 and not trivial3.is_primitive()

    # the character mod 6 induced from the quadratic character mod 3:
    # nontrivial on the single unit generator 5, conductor 3 by direct check
    mod6 = [c for c in characters_mod(6) if c.order != 1]
    assert len(mod6) == 1
    induced = mod6[0]
    assert induced.conductor() == 3
    assert not induced.is_primitive()
    # agreement with the primitive source on shared units
    for n in range(1, 13):
        if gcd(n, 6) == 1:
            assert embed(induced.eval(n), 2) == embed(quad3.eval(n), 2)


def test_eval_powers_of_generator():
    chi = find_character(5, [(2, "3/4")])  # chi(2) = -i
    assert chi.order == 4
    assert chi.eval(2) == root_of_unity(4, 3)
    assert chi.eval(3) == root_of_unity(4, 1)  # 2^3 = 3 mod 5, (-i)^3 = i
    assert chi.eval(4) == root_of_unity(4, 2)
    assert chi.eval(5) == CycElem.zero(4)


def test_parity_products(chi3, chi4, chi5, chi7_56, chi7_13):
    L33 = pair_order(chi3, chi3)
    assert parity_product(chi3, chi3) == CycElem.one(L33)
    assert parity_product(chi4, chi7_56) == CycElem.one(pair_order(chi4, chi7_56))
    L = pair_order(chi5, chi7_13)
    assert parity_product(chi5, chi7_13) == CycElem.from_rational(L, -1)


def test_psi_values(chi3, chi4, chi7_56):
    # trivial on Gamma1(q1 q2)
    g = Mat2(-152, 137, -81, 73)
    assert in_gamma1(g, 9)
    assert psi(chi3, chi3, g) == CycElem.one(pair_order(chi3, chi3))

    # chi * conj(chi) is 1 on every allowed d
    rng = random.Random(4)
    for _ in range(20):
        gamma = random_gamma0(9, rng)
        assert psi(chi3, chi3, gamma) == CycElem.one(2)

    # complex pair: lower-right entry 3 mod 28 gives chi1(3)*conj(chi2(3)) = -zeta_6
    assert pair_order(chi4, chi7_56) == 6
    for dd in (3, 31, 59):
        aa = pow(dd, -1, 28)
        gamma = Mat2(aa, (aa * dd - 1) // 28, 28, dd)
        assert psi(chi4, chi7_56, gamma) == -root_of_unity(6, 1)


def test_psi_multiplicative_in_d(chi4, chi7_56):
    rng = random.Random(5)
    for _ in range(30):
        g1 = random_gamma0(28, rng, kmax=30)
        g2 = random_gamma0(28, rng, kmax=30)
        assert psi(chi4, chi7_56, g1 * g2) == psi(chi4, chi7_56, g1) * psi(
            chi4, chi7_56, g2
        )


def test_psi_rejects_bad_d(chi3):
    # lower-right entry 3 shares a factor with q1*q2 = 9
    with pytest.raises(ValueError):
        psi(chi3, chi3, Mat2(1, 2, 1, 3))


def test_find_character_selection():
    chi = find_character(7, [(3, Fraction(5, 6))])
    assert chi.order == 6 and chi.modulus == 7
    with pytest.raises(ValueError):
        find_character(7, [])  # several primitive characters mod 7
    with pytest.raises(ValueError):
        find_character(7, [(3, Fraction(1, 5))])  # no such value


@functools.cache
def _primitive_characters(max_q=64):
    return [chi for q in range(3, max_q + 1) for chi in characters_mod(q) if chi.is_primitive()]


@given(st.data(), st.booleans())
def test_character_spec_round_trip(data, spaced):
    chi = data.draw(st.sampled_from(_primitive_characters()))
    spec = ";".join(
        [f"q={chi.modulus}"]
        + [f"g={g};v={Fraction(chi.exponent(g), chi.order)}" for g, _ in unit_group_gens(chi.modulus)]
    )
    if spaced:
        spec = " " + spec.replace(";", " ; ").replace("=", " = ") + " "
    assert parse_character_spec(spec) == chi


def test_parse_character_spec():
    chi = parse_character_spec("q=5;g=2;v=3/4")
    assert chi.modulus == 5 and chi.eval(2) == root_of_unity(4, 3)
    assert parse_character_spec(" q=3; g=2; v=1/2 ").modulus == 3
    chi8 = parse_character_spec("q=8;g=7;v=1/2;g=5;v=1/2")
    assert chi8.modulus == 8 and chi8.is_primitive()
    with pytest.raises(ValueError):
        parse_character_spec("g=2;v=1/2")
    with pytest.raises(ValueError):
        parse_character_spec("q=5;g=2")
    with pytest.raises(ValueError):
        parse_character_spec("q=5;x=1")
    with pytest.raises(ValueError, match="value 'x' in character spec 'q=5;g=2;v=x' is not a rational"):
        parse_character_spec("q=5;g=2;v=x")
