import functools
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdsum import cli
from gdsum.characters import (
    DirichletCharacter,
    _psi_odd,
    _twists,
    characters_mod,
    euler_phi,
    find_character,
    pair_order,
    parse_character_spec,
    parse_spec_fields,
    psi,
    unit_group_gens,
)
from gdsum.cosets import transversal_g1_in_g0
from gdsum.dedekind import fast_sum, naive_sum, precompute
from gdsum.exactnum import CycElem, root_of_unity
from gdsum.modgroup import I2, Mat2, random_gamma0
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
    """chi1(-1) chi2(-1), each +-1, is psi = chi1 conj(chi2) at -I."""
    L33 = pair_order(chi3, chi3)
    assert psi(chi3, chi3, -I2) == CycElem.one(L33)
    assert psi(chi4, chi7_56, -I2) == CycElem.one(pair_order(chi4, chi7_56))
    L = pair_order(chi5, chi7_13)
    assert psi(chi5, chi7_13, -I2) == CycElem.from_rational(L, -1)


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
    # read as a spec's value is, before Fraction() would build a 10^9-digit integer
    with pytest.raises(ValueError, match="^value '1e1000000000' at g=2 is in exponent notation"):
        find_character(5, [(2, "1e1000000000")])
    # an infinity or a NaN, float or Decimal, refused as its string would be
    for t, text in ((float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"), (Decimal("NaN"), "NaN")):
        with pytest.raises(ValueError, match=f"^value '{text}' at g=2 is not a rational$"):
            find_character(5, [(2, t)])
    # an argument of the wrong type, named; a bool generator is an int
    for q, g, t, message in [
        (5, 2.5, "1/4", "generator of type float is not an int"),
        ("5", 2, "1/4", "modulus of type str is not an int"),
        (5, 2, None, r"value 'None' at g=2 is not a rational"),
        (5, 2, [1, 4], r"value '\[1, 4\]' at g=2 is not a rational"),
        (5, 2, 1j, r"value '1j' at g=2 is not a rational"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            find_character(q, [(g, t)])
    assert find_character(3, [(True, "0"), (2, "1/2")]).modulus == 3
    with pytest.raises(ValueError, match="^character spec of type NoneType is not a string$"):
        parse_character_spec(None)


def test_characters_mod_refuses_a_modulus_that_is_not_a_positive_int():
    for q, message in [(2.5, "modulus 2.5 of type float is not an int"), ("5", "modulus '5' of type str is not an int"),
                       (0, "modulus must be a positive integer")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            characters_mod(q)


def test_a_character_refuses_an_exponent_table_it_cannot_read():
    """An exponent that is not an int or None, which a build would use as an
    index, is refused by name, as is a table that misses a residue or is
    not iterable, a modulus or order that is not an int, and a modulus or
    order below 1, whose `eval` would divide by 0."""
    with pytest.raises(ValueError, match="^exponent 1.0 of type float is not an int$"):
        DirichletCharacter(5, 4, [None, 0, 1.0, 3, 2])
    with pytest.raises(ValueError, match="^exponent table must cover all residues$"):
        DirichletCharacter(5, 4, [None, 0, 1, 3])
    for q, order, message in [(5.0, 4, "modulus 5.0 of type float"), (5, "4", "order '4' of type str")]:
        with pytest.raises(ValueError, match=f"^{message} is not an int$"):
            DirichletCharacter(q, order, [None, 0, 1, 3, 2])
    with pytest.raises(ValueError, match="^exponent table 7 of type int is not iterable$"):
        DirichletCharacter(5, 4, 7)
    with pytest.raises(ValueError, match="^modulus must be a positive integer$"):
        DirichletCharacter(0, 1, [0])
    with pytest.raises(ValueError, match="^order must be a positive integer$"):
        DirichletCharacter(5, 0, [None, 0, 0, 0, 0])
    assert DirichletCharacter(5, 4, [None, 0, 1, 3, 2]).eval(2) == root_of_unity(4, 1)


def test_a_character_is_stored_in_one_canonical_form():
    """Exponents past the order, or an order that is a multiple of the true
    one, give the character `find_character` finds: equal, with one hash,
    the true order and the same exponents, so the pair's parity reads as
    it should; with chi2 = "q=7;g=3;v=1/6" (psi(-1) = 1), `naive_sum` and a
    precompute give the sum at (107, -42; 1470, -577) that the found
    character gives, where an unreduced 6 was once read as odd and gave 0."""
    found = find_character(5, [(2, "1/4")])
    chi2 = parse_character_spec("q=7;g=3;v=1/6")
    gamma = Mat2(107, -42, 1470, -577)
    value = CycElem(12, [Fraction(-22, 5), Fraction(-36, 5), Fraction(32, 5)])
    for chi in (DirichletCharacter(5, 4, [None, 0, 1, 3, 6]), DirichletCharacter(5, 8, [None, 0, 2, 6, 4])):
        assert chi == found and hash(chi) == hash(found) and chi.order == 4
        assert [chi.exponent(n) for n in range(5)] == [None, 0, 1, 3, 2]
        assert not _psi_odd(chi, chi2)
        assert naive_sum(chi, chi2, gamma) == fast_sum(precompute(chi, chi2), gamma) == value


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



def test_exponent_tables_psi_tables_and_parity_of_every_pair_to_level_80():
    """For every pair of primitive characters with q1 q2 <= 80 (838 ordered
    pairs): each character's exponent table at the pair's order L and at 2L
    gives chi(n) for every n mod q and is kept once built, and an order that
    the character's does not divide is refused; the psi table `_twists` has
    the units mod N as keys and gives `psi` at the member of the Gamma0
    transversal at each; and `_psi_odd` is the parity that `psi` gives at
    -I, which is chi1(-1) chi2(-1)."""
    chars = [chi for chi in _primitive_characters() if chi.modulus <= 80 // 3]
    pairs = [(chi1, chi2) for chi1 in chars for chi2 in chars if chi1.modulus * chi2.modulus <= 80]
    assert len(pairs) == 838
    for chi, M in {(chi, k * pair_order(*pair)) for pair in pairs for chi in pair for k in (1, 2)}:
        table = chi.exponent_table(M)
        assert len(table) == chi.modulus and chi.exponent_table(M) is table
        for n, e in enumerate(table):
            value = embed(chi.eval(n), M)
            assert value == (CycElem.zero(M) if e is None else root_of_unity(M, e)), (chi, M, n)
        if chi.order > 1:
            with pytest.raises(ValueError, match=f"character order {chi.order} does not divide {M + 1}"):
                chi.exponent_table(M + 1)
    transversals = {}
    for chi1, chi2 in pairs:
        L, N = pair_order(chi1, chi2), chi1.modulus * chi2.modulus
        members = transversals.setdefault(N, transversal_g1_in_g0(N)).members
        twist = _twists(chi1, chi2)
        assert sorted(twist) == sorted(members) == [u for u in range(N) if gcd(u, N) == 1]
        for d, m in members.items():
            assert psi(chi1, chi2, m) == root_of_unity(L, twist[d]), (chi1, chi2, d)
        sign = embed(chi1(-1), L) * embed(chi2(-1), L)
        assert psi(chi1, chi2, -I2) == sign
        assert _psi_odd(chi1, chi2) == (sign == -1) != (sign == 1)


def test_character_messages_give_huge_integers_by_bit_length(capsys, digit_limit_4300, chi4, chi7_56):
    """Integers past 256 bits are named by their bit length, spec texts past
    80 characters are cut, and a number past the interpreter's digit limit
    is named as past it, not as malformed: in `psi`, in the message of
    `find_character`, in `parse_spec_fields`, and through `gdsum sum`, which
    lifts the limit and then finds no character for a 5,000-digit g, and
    names that spec as typed, cut; and `gdsum precompute` and `verify` give
    a 5,000-digit q's level by its bit length, in the guardrail's message,
    or with --allow-large-n in `verify`'s --cmax range."""
    d = 2 * 10**5000
    with pytest.raises(ValueError) as info:
        psi(chi4, chi7_56, Mat2(1, d - 1, 1, d))
    assert str(info.value) == "lower-right entry <16,611-bit integer> shares a factor with 28"
    with pytest.raises(ValueError) as info:
        find_character(5, [(10**5000 + 2, "1/3")])
    assert str(info.value) == (
        "character spec 'q=5;g=<16,610-bit integer>;v=1/3' matches 0 primitive characters, need exactly 1"
    )
    with pytest.raises(ValueError) as info:
        find_character(5, [(2, Fraction(10**5000 + 1, 3))])
    assert "v=<16,610-bit integer>/3' matches 0" in str(info.value)
    limit = "is past the interpreter's int-to-str digit limit; see sys.set_int_max_str_digits"
    for text, name, val, why in [
        ("q=" + "7" * 5000 + ";g=2;v=1/4", "modulus", "7" * 5000, limit),
        ("q=5;g=2;v=" + "7" * 5000, "value", "7" * 5000, limit),
        ("q=5;g=2;v=1/" + "3" * 5000, "value", "1/" + "3" * 5000, limit),
        ("q=5;g=x" + "7" * 5000, "generator", "x" + "7" * 5000, "is not an integer"),
    ]:
        with pytest.raises(ValueError) as info:
            parse_spec_fields(text)
        assert str(info.value) == (
            f"{name} {val[:40]!r}... ({len(val):,} characters) "
            f"in character spec {text[:40]!r}... ({len(text):,} characters) {why}"
        )
    with pytest.raises(ValueError) as info:
        parse_spec_fields("q=-" + "7" * 80)
    assert str(info.value) == (
        f"modulus q=-<266-bit integer> in character spec {'q=-' + '7' * 37!r}... (83 characters) "
        "must be a positive integer"
    )
    chi1 = "q=5;g=" + "7" * 5000 + ";v=1/3"
    status = cli.main(["sum", "--chi1", chi1, "--chi2", "q=7;g=3;v=1/6", "--matrix", "1,0;0,1"])
    err = capsys.readouterr().err
    assert status == 1 and len(err.encode()) < 200, err
    assert err == (
        f"error: character spec {chi1[:40]!r}... (5,012 characters) matches 0 primitive characters, "
        "need exactly 1\n"
    )
    pair = ["--chi1", "q=1" + "0" * 5000 + ";g=2;v=1/4", "--chi2", "q=7;g=3;v=1/6"]
    guardrail = "level N = <16,610-bit integer> * 7 = <16,613-bit integer> exceeds the guardrail 80"
    cmax = "--cmax must lie between N = <16,613-bit integer> and the double-sum cutoff 100000"
    for command, message in [
        (["precompute"], guardrail),
        (["verify"], guardrail),
        (["verify", "--allow-large-n"], cmax),
    ]:
        assert cli.main([*command, *pair]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and len(err.encode()) < 200, err
