"""The bucketed, half-range `naive_sum` against the literal double sum,
and the table evaluator against the same buckets as floor sums.

`literal_sum` below evaluates the definition term by term,

    S(gamma) = sum_{j=1}^{c} sum_{n=1}^{q1}
               conj(chi2(j)) conj(chi1(n)) B1(j/c) B1(n/q1 + a*j/c),

with no identity beyond B1's: it is the independent reference the library's
evaluator is checked against.  `floor_sum_oracle` computes `naive_sum`'s
bucket weights in O(log c) steps each, so `fast_sum` can be checked at
every c, far above the double sum's reach, by code that shares nothing
with the transversal, the rewrite or the tables.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdsum.characters import _psi_odd, characters_mod, find_character, pair_order, parse_character_spec
from gdsum.dedekind import fast_sum, naive_sum, precompute
from gdsum.exactnum import CycElem, cyclotomic_polynomial
from gdsum.modgroup import Mat2, random_gamma0


def _b1(num, den):
    """2*den * B1(num/den), with B1(x) = x - floor(x) - 1/2 off the integers, 0 on them."""
    r = num % den
    return 0 if r == 0 else 2 * r - den


def literal_numerators(chi1, chi2, gamma):
    """The double sum, term by term, as L integer numerators over 4*q1*c^2,
    one per power of zeta_L, L = `pair_order`, not reduced mod Phi_L."""
    q1, a, c = chi1.modulus, gamma.a, gamma.c
    L = pair_order(chi1, chi2)
    acc = [0] * L
    e1, e2 = chi1.exponent_table(L), chi2.exponent_table(L)
    for j in range(1, c + 1):
        k2 = e2[j % chi2.modulus]
        for n in range(1, q1 + 1):
            k1 = e1[n % q1]
            if k1 is not None and k2 is not None:
                # B1(n/q1 + a*j/c) = B1((n*c + a*j*q1) / (q1*c))
                acc[-(k1 + k2) % L] += _b1(j, c) * _b1(n * c + a * j * q1, q1 * c)
    return acc


def literal_sum(chi1, chi2, gamma):
    """The double sum as a CycElem, from `literal_numerators`."""
    den = 4 * chi1.modulus * gamma.c**2
    return CycElem(pair_order(chi1, chi2), [Fraction(v, den) for v in literal_numerators(chi1, chi2, gamma)])


def _floor_sums(n, a, b, m):
    """(f, g, h): the sums over 0 <= i <= n of y, i*y and y*y, where
    y = floor((a*i + b)/m) with m >= 1 and any integers a, b.

    The Euclid-like recursion of the AtCoder Library's floor_sum, extended
    to the weighted sums: split off a = qa*m + a', b = qb*m + b', then count
    lattice points under the line with the roles of a and m swapped.
    """
    if n < 0:
        return 0, 0, 0
    (qa, a), (qb, b) = divmod(a, m), divmod(b, m)
    s0, s1, s2 = n + 1, n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6
    top = (a * n + b) // m
    f = g = h = 0
    if top:
        f1, g1, h1 = _floor_sums(top - 1, m, m - b - 1, a)
        f = n * top - f1
        g = (top * n * (n + 1) - h1 - f1) // 2
        h = n * top * (top + 1) - 2 * g1 - 2 * f1 - f
    return (
        f + qa * s1 + qb * s0,
        g + qa * s2 + qb * s1,
        h + qa * qa * s2 + qb * qb * s0 + 2 * qa * qb * s1 + 2 * qb * f + 2 * qa * g,
    )


def floor_sum_oracle(chi1, chi2, gamma):
    """The double sum for c >= 1 and chi1*chi2(-1) = 1 from floor sums,
    O(log c) per bucket.

    `naive_sum`'s bucket m for residue u mod q2 adds 2j - c over the j = u + q2*i
    < c/2 with floor(q1*a*j/c) = m mod q1, and [floor(x) = m mod q1] is
    floor((x - m)/q1) - floor((x - m - 1)/q1).  With x = q1*a*j/c, each
    weight is a difference of sums of floor((A*i + B)/M) and of i times it.
    """
    q1, q2 = chi1.modulus, chi2.modulus
    a, c = gamma.a, gamma.c
    L = pair_order(chi1, chi2)
    e1, e2 = chi1.exponent_table(L), chi2.exponent_table(L)
    acc = [0] * L
    half = (c + 1) // 2
    for u in range(1, q2):
        if e2[u] is None:
            continue
        n = (half - u + q2 - 1) // q2  # how many j = u + q2*i < half
        sums = [_floor_sums(n - 1, q1 * a * q2, q1 * a * u - m * c, q1 * c) for m in range(q1 + 1)]
        for m in range(q1):
            f, g = sums[m][0] - sums[m + 1][0], sums[m][1] - sums[m + 1][1]
            w = (2 * u - c) * f + 2 * q2 * g
            for k in range(1, q1):
                k1 = e1[(k - m) % q1]
                if k1 is not None:
                    acc[-(e2[u] + k1) % L] += 2 * k * w
    return CycElem(L, [Fraction(v, 2 * q1 * c) for v in acc])


# (chi1, chi2) by (modulus, [(generator, value)]); on the "-odd" pairs chi2
# is the quadratic character mod 7, which is odd, and so is chi1
PAIRS = {
    "N9": ((3, [(2, "1/2")]), (3, [(2, "1/2")])),
    "N12": ((4, [(3, "1/2")]), (3, [(2, "1/2")])),
    "N12-q1=3": ((3, [(2, "1/2")]), (4, [(3, "1/2")])),
    "N28": ((4, [(3, "1/2")]), (7, [(3, "5/6")])),
    "N28-odd": ((4, [(3, "1/2")]), (7, [(3, "1/2")])),  # L = 2
    "N35": ((5, [(2, "1/4")]), (7, [(3, "1/6")])),
    "N35-odd": ((5, [(2, "3/4")]), (7, [(3, "1/2")])),  # L = 4
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
    expect = literal_sum(chi1, chi2, gamma)
    assert naive_sum(chi1, chi2, gamma) == expect
    assert floor_sum_oracle(chi1, chi2, gamma) == expect


# pairs whose order L reaches long rows: Phi_60 and Phi_144 have coefficients
# in {-1, 0, 1} only, Phi_210 = Phi_105(-x) has coefficients +-2 as well
LARGE_L = {
    60: ("q=11;g=2;v=1/10", "q=13;g=2;v=1/12"),
    144: ("q=17;g=3;v=1/16", "q=19;g=2;v=1/18"),
    210: ("q=31;g=3;v=1/15", "q=29;g=2;v=1/7"),
}


@pytest.mark.parametrize("L", sorted(LARGE_L))
def test_naive_sum_equals_literal_sum_at_large_order(L):
    """At c = N and 2N, on three units a drawn with seed c, the double sum
    `naive_sum` folds through rows already reduced mod Phi_L is the literal
    sum, at orders whose rows are 16 to 48 long; no value is 0."""
    chi1, chi2 = map(parse_character_spec, LARGE_L[L])
    N = chi1.modulus * chi2.modulus
    assert pair_order(chi1, chi2) == L and not _psi_odd(chi1, chi2)
    assert max(map(abs, cyclotomic_polynomial(L))) == (2 if L == 210 else 1)
    for k in (1, 2):
        c = N * k
        for a in random.Random(c).sample([a for a in range(1, c) if gcd(a, c) == 1], 3):
            gamma = _gamma(N, k, a, 0, 0)
            value = naive_sum(chi1, chi2, gamma)
            assert value and value == literal_sum(chi1, chi2, gamma), gamma


def test_floor_sums_count_lattice_points():
    rng = random.Random(4)
    for _ in range(300):
        n, m = rng.randint(-1, 40), rng.randint(1, 30)
        a, b = rng.randint(-100, 100), rng.randint(-100, 100)
        ys = [(a * i + b) // m for i in range(n + 1)]
        expect = (sum(ys), sum(i * y for i, y in enumerate(ys)), sum(y * y for y in ys))
        assert _floor_sums(n, a, b, m) == expect


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 2000), a=st.integers(1, 10**6), shift_a=st.integers(-3, 3))
def test_floor_sum_oracle_equals_naive_sum(name, k, a, shift_a):
    # c up to 2000 N, where the literal sum would be slow
    chi1, chi2 = _pair(name)
    gamma = _gamma(chi1.modulus * chi2.modulus, k, a, shift_a, 0)
    assert floor_sum_oracle(chi1, chi2, gamma) == naive_sum(chi1, chi2, gamma)


@pytest.mark.parametrize("ctx_name", ["ctx9", "ctx28", "ctx35_l12", "ctx35"])
@settings(max_examples=40, deadline=None)
@given(
    e=st.integers(0, 60),
    mantissa=st.integers(1, 10**6),
    a=st.integers(1, 10**70),
    shift_a=st.integers(-3, 3),
    shift_d=st.integers(-3, 3),
)
def test_fast_sum_equals_floor_sum_oracle(request, ctx_name, e, mantissa, a, shift_a, shift_d):
    """fast_sum against an oracle that reads no table, for c up to
    N * 10^60, far above the double sum's cutoff."""
    ctx = request.getfixturevalue(ctx_name)
    gamma = _gamma(ctx.N, 1 + mantissa * 10**e // 10**6, a, shift_a, shift_d)
    assert fast_sum(ctx, gamma) == floor_sum_oracle(ctx.chi1, ctx.chi2, gamma)


def test_parity_violating_pair_sums_to_zero(chi5, chi7_13):
    # chi1*chi2(-1) = -1: the summands at j and c - j cancel, so the double
    # sum is 0 on every matrix, and the pair is refused
    rng = random.Random(6)
    zero = CycElem.zero(pair_order(chi5, chi7_13))
    for _ in range(10):
        gamma = random_gamma0(35, rng, kmax=6, d_shift=3)
        assert literal_sum(chi5, chi7_13, gamma) == zero
        with pytest.raises(ValueError, match=r"^chi1\*chi2\(-1\) = -1 for the pair mod \(5, 7\)"):
            naive_sum(chi5, chi7_13, gamma)
    with pytest.raises(ValueError, match=r"^chi1\*chi2\(-1\) = -1 for the pair mod \(5, 7\)"):
        precompute(chi5, chi7_13)


def test_naive_sum_rejects_principal_chi1(chi3):
    # the bucketed inner sum drops sum_n conj(chi1(n)), which is 0 only for
    # non-principal chi1
    principal = next(chi for chi in characters_mod(3) if chi.order == 1)
    with pytest.raises(ValueError):
        naive_sum(principal, chi3, Mat2(2, 1, 9, 5))
