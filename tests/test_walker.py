"""Property tests of the evaluation path: nearest-integer words, the key walk.

`modified_rewrite` tracks only the coset key of each prefix.  The reference
here multiplies the full matrix prefixes and reads their keys from the
transversal, as the rewrite did before; the two must agree factor for
factor, and the alphabet terms (`reference_tables.reduce_word`), expanded
over every U(t, T^i) and U(t, S^k) matrix (`reference_tables.full_alphabet`),
times the transversal member at the walk's end key (0, +-d), must
multiply exactly back to the Gamma0(N) element, up to the word's sign.
"""

import functools
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from gdsum.cosets import transversal_g1_in_sl2
from gdsum.modgroup import I2, Mat2, S, ts_decompose, ts_reconstruct
from gdsum.rewriter import modified_rewrite
from reference_tables import (
    floor_word,
    full_alphabet,
    key_of,
    mul_t_power,
    reduce_word,
    slot_factors,
    unsigned_product,
)

LEVELS = (6, 9, 28)


@functools.cache
def _tables(N):
    t = transversal_g1_in_sl2(N)
    return t, full_alphabet(N, t)


def _matrix_rewrite(w, t, product):
    """Exponent-collecting rewrite by full matrix prefixes (the reference)."""
    out = []
    prefix = I2
    for idx, a in enumerate(w.exponents):
        if a != 0:
            out.append((key_of(t, prefix), "T", a))
            prefix = mul_t_power(prefix, a)
        if idx < len(w.exponents) - 1:
            out.append((key_of(t, prefix), "S", 1))
            prefix = prefix * S
    assert (-prefix if w.negate else prefix) == product
    return out


def _power(m, k):
    out = I2
    if k < 0:
        m, k = m.inv(), -k
    while k:
        if k & 1:
            out = out * m
        m = m * m
        k >>= 1
    return out


def _coprime_from(a, c):
    while gcd(a, c) != 1:
        a += 1
    return a


@st.composite
def sl2_matrices(draw, max_c=10**60, level=1):
    """(a b; c d) with c a nonzero multiple of `level`, |c| <= max_c, and
    |a|, |d| up to a few times |c|."""
    c = level * draw(st.integers(1, max_c // level)) * draw(st.sampled_from((1, -1)))
    a = _coprime_from(draw(st.integers(-3 * abs(c), 3 * abs(c))), c)
    d = pow(a, -1, abs(c)) + c * draw(st.integers(-3, 3))
    return Mat2(a, (a * d - 1) // c, c, d)


@st.composite
def gamma0_elements(draw, max_c=10**60):
    """(N, gamma): a Gamma0(N) matrix, or a shear +-T^b."""
    N = draw(st.sampled_from(LEVELS))
    shears = st.tuples(st.sampled_from((1, -1)), st.integers(-max_c, max_c)).map(
        lambda sb: Mat2(sb[0], sb[1], 0, sb[0])
    )
    return N, draw(st.one_of(sl2_matrices(max_c, level=N), shears))


@settings(max_examples=300, deadline=None)
@given(gamma0_elements(max_c=10**12), st.booleans())
def test_key_walk_matches_matrix_prefixes(case, nearest):
    N, gamma = case
    t = _tables(N)[0]
    w = ts_decompose(gamma) if nearest else floor_word(gamma)
    assert ts_reconstruct(w) == gamma
    factors = slot_factors(w, modified_rewrite(w, t), N)
    expected = _matrix_rewrite(w, t, gamma)
    assert [tuple(f) for f in factors] == expected
    reference = []
    for key, gen, e in expected:
        if gen == "T":
            q, r = divmod(e, N)
            if q:
                reference.append((key, ("T", N), q))
            if r:
                reference.append((key, ("T", r), 1))
        else:
            reference.append((key, ("S", 1), 1))
    assert [tuple(f) for f in reduce_word(factors, N)] == reference


@settings(max_examples=200, deadline=None)
@given(gamma0_elements())
def test_terms_times_end_member_multiply_to_gamma(case):
    """The walk of gamma's word ends at the key (0, d mod N), or (0, -d mod N)
    when the word is negated, and its alphabet terms times the member there
    multiply to gamma, or to -gamma when negated."""
    N, gamma = case
    t, alphabet = _tables(N)
    w = ts_decompose(gamma)
    terms = reduce_word(slot_factors(w, modified_rewrite(w, t), N), N)
    prod = I2
    for key, gen, m in terms:
        prod = prod * _power(alphabet[key, gen], m)
    unsigned = -gamma if w.negate else gamma
    assert key_of(t, unsigned) == (0, (-1 if w.negate else 1) * gamma.d % N)
    assert prod * t.members[key_of(t, unsigned)] == unsigned == unsigned_product(w)


@settings(max_examples=500, deadline=None)
@given(sl2_matrices())
def test_nearest_decomposition_is_short_and_exact(m):
    w = ts_decompose(m)
    assert ts_reconstruct(w) == m
    # letters <= log2|c| + 2, in integers
    assert 2 ** (w.letters - 2) <= abs(m.c)
