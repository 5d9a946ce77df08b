"""The bucketed, half-range `naive_sum` against the literal double sum.

`literal_sum` below evaluates the definition term by term,

    S(gamma) = sum_{j=1}^{c} sum_{n=1}^{q1}
               conj(chi2(j)) conj(chi1(n)) B1(j/c) B1(n/q1 + a*j/c),

with no identity beyond B1's: it is the independent reference the library's
evaluator is checked against.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdsum.characters import characters_mod, find_character, pair_order
from gdsum.dedekind import fast_sum, naive_sum
from gdsum.exactnum import CycElem
from gdsum.modgroup import Mat2, random_gamma0


def _b1(num, den):
    """2*den * B1(num/den), with B1(x) = x - floor(x) - 1/2 off the integers, 0 on them."""
    r = num % den
    return 0 if r == 0 else 2 * r - den


def literal_sum(chi1, chi2, gamma):
    """The double sum, term by term, as integer numerators over 4*q1*c^2."""
    q1, a, c = chi1.modulus, gamma.a, gamma.c
    L = pair_order(chi1, chi2)
    acc = [0] * L
    for j in range(1, c + 1):
        k2 = chi2.exponent_at(j, L)
        for n in range(1, q1 + 1):
            k1 = chi1.exponent_at(n, L)
            if k1 is not None and k2 is not None:
                # B1(n/q1 + a*j/c) = B1((n*c + a*j*q1) / (q1*c))
                acc[-(k1 + k2) % L] += _b1(j, c) * _b1(n * c + a * j * q1, q1 * c)
    return CycElem(L, [Fraction(v, 4 * q1 * c * c) for v in acc])


# (chi1, chi2) by (modulus, [(generator, value)]); chi1*chi2(-1) = -1 on the "-odd" pairs
PAIRS = {
    "N9": ((3, [(2, "1/2")]), (3, [(2, "1/2")])),
    "N12": ((4, [(3, "1/2")]), (3, [(2, "1/2")])),
    "N12-q1=3": ((3, [(2, "1/2")]), (4, [(3, "1/2")])),
    "N28": ((4, [(3, "1/2")]), (7, [(3, "5/6")])),
    "N28-odd": ((4, [(3, "1/2")]), (7, [(3, "1/3")])),
    "N35": ((5, [(2, "1/4")]), (7, [(3, "1/6")])),
    "N35-odd": ((5, [(2, "3/4")]), (7, [(3, "1/3")])),
}


def _pair(name):
    return tuple(find_character(q, gens) for q, gens in PAIRS[name])


def _gamma(N, k, a, shift_a, shift_d):
    """A Gamma0(N) matrix with c = N*k and a coprime to c, a and d shifted by multiples of c."""
    c = N * k
    while gcd(a, c) != 1:
        a += 1
    a += shift_a * c
    d = pow(a, -1, c) + shift_d * c
    return Mat2(a, (a * d - 1) // c, c, d)


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=40, deadline=None)
# odd k gives odd c for odd N, where the half range ends at (c - 1)/2
@example(k=1, a=2, shift_a=0, shift_d=0)
@example(k=7, a=2, shift_a=0, shift_d=0)
@example(k=8, a=2, shift_a=0, shift_d=0)
@given(
    k=st.integers(1, 60),
    a=st.integers(1, 10**4),
    shift_a=st.integers(-3, 3),
    shift_d=st.integers(-3, 3),
)
def test_naive_sum_equals_literal_sum(name, k, a, shift_a, shift_d):
    chi1, chi2 = _pair(name)
    gamma = _gamma(chi1.modulus * chi2.modulus, k, a, shift_a, shift_d)
    assert naive_sum(chi1, chi2, gamma) == literal_sum(chi1, chi2, gamma)


def test_parity_violating_pair_sums_to_zero(ctx35, chi5, chi7_13):
    # chi1*chi2(-1) = -1: the summands at j and c - j cancel, so the double
    # sum is 0 on every matrix, and so are the tables and the fast path
    rng = random.Random(6)
    zero = CycElem.zero(ctx35.L)
    for _ in range(10):
        gamma = random_gamma0(35, rng, kmax=6, d_shift=3)
        assert literal_sum(chi5, chi7_13, gamma) == zero
        assert naive_sum(chi5, chi7_13, gamma) == zero
        assert fast_sum(ctx35, gamma) == zero
        assert fast_sum(ctx35, gamma.inv()) == zero
    assert all(v == zero for v in ctx35.sums_alphabet.values())
    assert all(v == zero for v in ctx35.sums_g0.values())


def test_naive_sum_rejects_principal_chi1(chi3):
    # the bucketed inner sum drops sum_n conj(chi1(n)), which is 0 only for
    # non-principal chi1
    principal = next(chi for chi in characters_mod(3) if chi.is_trivial())
    with pytest.raises(ValueError):
        naive_sum(principal, chi3, Mat2(2, 1, 9, 5))
