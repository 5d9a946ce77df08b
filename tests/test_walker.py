"""Property tests of the evaluation path: nearest-integer words, the key walk.

`modified_rewrite` tracks only the coset key of each prefix.  The reference
here multiplies the full matrix prefixes and reads their keys from the
transversal, as the rewrite did before; the two must agree factor for
factor, and the alphabet terms (`reference_tables.reduce_word`), expanded
over every U(t, T^i) and U(t, S^k) matrix (`reference_tables.full_alphabet`),
must multiply exactly back to the Gamma1(N) element.
"""

import functools
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from gdsum.cosets import transversal_g1_in_g0, transversal_g1_in_sl2
from gdsum.modgroup import I2, Mat2, ts_decompose, ts_reconstruct
from gdsum.rewriter import as_factors, modified_rewrite
from reference_tables import full_alphabet, reduce_word

LEVELS = (6, 9, 28)


@functools.cache
def _tables(N):
    t = transversal_g1_in_sl2(N)
    return transversal_g1_in_g0(N), t, full_alphabet(N, t)


def _matrix_rewrite(w, t, product):
    """Exponent-collecting rewrite by full matrix prefixes (the reference)."""
    out = []
    prefix = I2
    for idx, a in enumerate(w.exponents):
        if a != 0:
            out.append((t.key_of(prefix), "T", a))
            prefix = prefix.mul_t_power(a)
        if idx < len(w.exponents) - 1:
            out.append((t.key_of(prefix), "S", 1))
            prefix = prefix.mul_s()
    if w.negate:
        out.append((t.key_of(prefix), "-I", 1))
        prefix = -prefix
    assert prefix == product
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
def gamma1_elements(draw, max_c=10**60):
    """(N, g1): a Gamma0(N) matrix, or a shear +-T^b, split off its transversal member."""
    N = draw(st.sampled_from(LEVELS))
    shears = st.tuples(st.sampled_from((1, -1)), st.integers(-max_c, max_c)).map(
        lambda sb: Mat2(sb[0], sb[1], 0, sb[0])
    )
    gamma = draw(st.one_of(sl2_matrices(max_c, level=N), shears))
    g1 = gamma * _tables(N)[0].members[gamma.d % N].inv()
    return N, g1


@settings(max_examples=300, deadline=None)
@given(gamma1_elements(max_c=10**12), st.booleans())
def test_key_walk_matches_matrix_prefixes(case, nearest):
    N, g1 = case
    t = _tables(N)[1]
    w = ts_decompose(g1, nearest=nearest)
    factors = as_factors(w, modified_rewrite(w, t, product=g1), N)
    expected = _matrix_rewrite(w, t, g1)
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
            reference.append((key, ("S", 1 if gen == "S" else 2), 1))
    assert [tuple(f) for f in reduce_word(factors, N)] == reference


@settings(max_examples=200, deadline=None)
@given(gamma1_elements())
def test_terms_multiply_to_gamma1(case):
    N, g1 = case
    _, t, alphabet = _tables(N)
    w = ts_decompose(g1, nearest=True)
    terms = reduce_word(as_factors(w, modified_rewrite(w, t, product=g1), N), N)
    prod = I2
    for key, gen, m in terms:
        prod = prod * _power(alphabet[key, gen], m)
    assert prod == g1


@settings(max_examples=500, deadline=None)
@given(sl2_matrices())
def test_nearest_decomposition_is_short_and_exact(m):
    w = ts_decompose(m, nearest=True)
    assert ts_reconstruct(w) == m
    # letters <= log2|c| + 2, in integers
    assert 2 ** (w.letters - 2) <= abs(m.c)
