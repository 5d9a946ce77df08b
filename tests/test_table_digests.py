"""The tables a build gives, pinned by digest.

A faster build must give the same context, entry for entry: `den`, the G
rows, every `t_slot` entry (pos, length, total), every `s_slot` entry, and
the SolveStats of its solve.  Each digest is SHA-256 of the repr of plain
tuples and lists of ints, strings and None, so it reads no class name and
no object identity.  The tuples are those of the slot layout the digests
were first taken on, where each key's entries carried its S-step term
(key, "S", 1, row) with the key (c, d) = divmod(i, N): `table_digest`
rebuilds them from the rows.
"""

import hashlib
from fractions import Fraction
from functools import cache
from math import gcd

import pytest

from gdsum import find_character
from gdsum.dedekind import _build

PAIRS = {
    # N: (chi1, chi2) as (modulus, [(generator, value)])
    9: ((3, [(2, "1/2")]), (3, [(2, "1/2")])),  # L = 2
    28: ((4, [(3, "1/2")]), (7, [(3, "5/6")])),  # L = 6
    35: ((5, [(2, "1/4")]), (7, [(3, "1/6")])),  # L = 12
    143: ((11, [(2, "1/2")]), (13, [(2, "1/12")])),  # L = 12
    91: ((7, [(3, "1/2")]), (13, [(2, "1/12")])),  # L = 12, e3 = 4
}

# pairs built for their pivot counts alone, at levels with elliptic points
PIVOT_PAIRS = {
    21: ((3, [(2, "1/2")]), (7, [(3, "1/2")])),  # L = 2, e3 = 2
    65: ((5, [(2, "1/4")]), (13, [(2, "1/12")])),  # L = 12, e2 = 4
    183: ((3, [(2, "1/2")]), (61, [(2, "1/60")])),  # L = 60, e3 = 2
}

STATS = {  # shear, solved, oracle calls (the pivots), oracle total |c|
    9: (20, 2, 2, 18),
    28: (78, 10, 8, 392),
    35: (79, 9, 8, 315),
    143: (272, 36, 28, 4433),
    91: (181, 23, 20, 2184),
}

DIGESTS = {
    9: "eb558e9e4b5c4319cfb578bfd0b9c36ea171e7bbf0211b1814916c9ec6558447",
    28: "1518a73fd1d89a8ac4cd73ef35c62e558c54abac50cb8aa97a7add57af958961",
    35: "1ded17f2a60e82414c40efb393b17313ab35a2d9f11b59e8928df95805aeae2d",
    143: "ef7858e758ad631b346e8f7377210dcbe586ff67d76931df72da06bc3be76191",
    91: "e23508688e666ba417ee892eb5dd672217a4f1ae45a4619743c8a8ef349afa63",
}


def table_digest(ctx, stats) -> str:
    N = ctx.N
    t_slot = [
        (i, *o, divmod(i, N), ctx.s_slot[i] or ctx.zero) for i, o in enumerate(ctx.t_slot) if o is not None
    ]
    s_slot = [(i, divmod(i, N), "S", 1, row) for i, row in enumerate(ctx.s_slot) if row is not None]
    tables = (ctx.den, ctx.g_rows, t_slot, s_slot, tuple(stats))
    return hashlib.sha256(repr(tables).encode()).hexdigest()


@cache
def _built(N):
    return _build(*(find_character(q, gens) for q, gens in {**PAIRS, **PIVOT_PAIRS}[N]), True)[:2]


@pytest.mark.parametrize("N", sorted(PAIRS))
def test_a_build_gives_the_pinned_tables(N):
    ctx, stats = _built(N)
    assert tuple(stats) == STATS[N]
    assert table_digest(ctx, stats) == DIGESTS[N]


@pytest.mark.parametrize(
    "N, pivots", [(9, 2), (28, 8), (35, 8), (143, 28), (21, 6), (65, 16), (91, 20), (183, 42)]
)
def test_the_pivots_are_the_free_dimension_of_the_genus_formula(N, pivots):
    """The solve's pivots are 2g + (cusps - 2) + nu2 + nu3:
    g = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2, with mu the index of
    Gamma0(N), nu2 and nu3 the counts of x mod N with x^2 + 1 = 0 and
    x^2 + x + 1 = 0, its elliptic points of orders 2 and 3, and
    nu_inf = sum over d | N of phi(gcd(d, N/d)) cusps (Diamond and
    Shurman, A First Course in Modular Forms, ch. 3).  N = 21, 91 and 183
    have elliptic points of order 3, N = 65 of order 2, the others none.
    None of it reads the relations the solve peels."""
    mu = N
    for p in {p for p in range(2, N + 1) if N % p == 0 and all(p % f for f in range(2, p))}:
        mu += mu // p
    nu2 = sum((x * x + 1) % N == 0 for x in range(N))
    nu3 = sum((x * x + x + 1) % N == 0 for x in range(N))
    cusps = sum(
        sum(gcd(k, g) == 1 for k in range(1, g + 1))
        for d in range(1, N + 1) if N % d == 0 for g in [gcd(d, N // d)]
    )
    genus = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    assert genus.denominator == 1 and (nu2 > 0, nu3 > 0) == (N == 65, N in (21, 91, 183))
    assert 2 * genus + cusps - 2 + nu2 + nu3 == pivots
    assert _built(N)[1].oracle_calls == pivots
