"""Identities of the coset maps, and the derived rows against the double sum.

The identities hold for the Gamma1(N) transversal at every level, whatever
the character pair, so they are tested here rather than by `gdsum verify`:
at N = 9, 28, 35, 55, 77 and 143, on 20 seeded instances each, the levels
and count the CI `verify` steps ran them at.  No context is built for them;
a key's T-orbit comes from the key itself (`reference_tables.orbit`).

The derived-row check compares every S-step row and every orbit total of a
context whose matrix has |c| <= 2,000 with the double sum on that matrix.
"""

import functools
import random

import pytest

from gdsum.cosets import transversal_g1_in_sl2
from gdsum.modgroup import I2, S, T
from reference_tables import (
    bar,
    derived_mismatches,
    in_gamma1,
    key_of,
    mul_t_power,
    orbit,
    random_sl2,
    t_power,
    u_func,
)

LEVELS = (9, 28, 35, 55, 77, 143)
TRIALS = 20


@functools.cache
def _transversal(N):
    return transversal_g1_in_sl2(N)


def _power(m, k):
    out = I2
    for _ in range(abs(k)):
        out = out * (m if k > 0 else m.inv())
    return out


@pytest.mark.parametrize("N", LEVELS)
def test_nested_coset_law_at_every_level(N):
    t, rng = _transversal(N), random.Random(N)
    for _ in range(TRIALS):
        x, y = random_sl2(rng, 14), random_sl2(rng, 14)
        assert bar(t, x * y) == bar(t, bar(t, x) * y), (x, y)


@pytest.mark.parametrize("N", LEVELS)
def test_u_in_gamma1_at_every_level(N):
    t, rng = _transversal(N), random.Random(N)
    for _ in range(TRIALS):
        x, y = random_sl2(rng, 14), random_sl2(rng, 14)
        assert in_gamma1(u_func(x, y, t), N), (x, y)


@pytest.mark.parametrize("N", LEVELS)
def test_t_power_coset_cycle_at_every_level(N):
    t, rng = _transversal(N), random.Random(N)
    for _ in range(TRIALS):
        m = random_sl2(rng, 14)
        assert bar(t, mul_t_power(m, N)) == bar(t, m), m


@pytest.mark.parametrize("N", LEVELS)
def test_power_product_identities_at_every_level(N):
    """U(bar(a), b^k) is the product of the U(bar(a b^i), b) for 0 <= i < k,
    and U(bar(a), b^-k) that of the inverses U(bar(a b^-i), b)^-1 for
    1 <= i <= k, with b = S or T."""
    t, rng = _transversal(N), random.Random(N)
    for _ in range(TRIALS):
        a, b, k = random_sl2(rng, 10), rng.choice((S, T)), rng.randint(1, 12)
        rhs, cur = I2, a
        for _ in range(k):
            rhs = rhs * u_func(bar(t, cur), b, t)
            cur = cur * b
        assert u_func(bar(t, a), _power(b, k), t) == rhs, (a, b, k)
        rhs, cur = I2, a
        for _ in range(k):
            cur = cur * b.inv()
            rhs = rhs * u_func(bar(t, cur), b, t).inv()
        assert u_func(bar(t, a), _power(b, -k), t) == rhs, (a, b, -k)


@pytest.mark.parametrize("N", LEVELS)
def test_t_power_reduction_at_every_level(N):
    """U(t, T^a) = U(base, T^pos)^-1 U(base, T^length)^w U(base, T^r) with
    pos + a = w * length + r along the T-orbit of t's key."""
    t, rng = _transversal(N), random.Random(N)
    for _ in range(TRIALS):
        m, a = random_sl2(rng, 14), rng.randint(-6 * N, 6 * N)
        base_key, pos, length = orbit(key_of(t, m), N)
        base = t.members[base_key]
        w, r = divmod(pos + a, length)
        climb, wrap, rest = (u_func(base, t_power(i), t) for i in (pos, length, r))
        assert u_func(bar(t, m), t_power(a), t) == climb.inv() * _power(wrap, w) * rest, (m, a)


@pytest.mark.parametrize("name, checked", [("ctx9", 85), ("ctx28", 196), ("ctx35_l12", 259)])
def test_every_derived_row_matches_the_double_sum(request, name, checked):
    """Every S-step row and orbit total whose matrix has |c| <= 2,000 equals
    the double sum's closure on that matrix: 85 of the 88 rows at N = 9,
    196 of 636 at N = 28 and 259 of 1,248 at N = 35 (L = 12).  The rest
    have |c| up to 6.5e5; `test_rows_match_reference_sums` checks every
    row against the Gamma1 generator sums instead."""
    ctx = request.getfixturevalue(name)
    count, bad = derived_mismatches(ctx, cmax=2000)
    assert not bad, bad[:3]
    assert count == checked
