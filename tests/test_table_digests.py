"""The tables a build gives, pinned by digest.

A faster build must give the same context, entry for entry: `den`, the G
rows, every `t_slot` entry (pos, length, total, step.key, step.row), every
`s_slot` entry, and the SolveStats of its solve.  Each digest is SHA-256 of
the repr of plain tuples and lists of ints, strings and None, so it reads
no class name and no object identity.
"""

import hashlib

import pytest

from gdsum import find_character
from gdsum.dedekind import _build

PAIRS = {
    # N: (chi1, chi2) as (modulus, [(generator, value)])
    9: ((3, [(2, "1/2")]), (3, [(2, "1/2")])),  # L = 2
    28: ((4, [(3, "1/2")]), (7, [(3, "5/6")])),  # L = 6
    35: ((5, [(2, "1/4")]), (7, [(3, "1/6")])),  # L = 12
    143: ((11, [(2, "1/2")]), (13, [(2, "1/12")])),  # L = 12
}

STATS = {  # shear, solved, oracle calls (the pivots), oracle total |c|
    9: (20, 2, 2, 18),
    28: (78, 10, 8, 392),
    35: (79, 9, 8, 315),
    143: (272, 36, 28, 4433),
}

DIGESTS = {
    9: "eb558e9e4b5c4319cfb578bfd0b9c36ea171e7bbf0211b1814916c9ec6558447",
    28: "1518a73fd1d89a8ac4cd73ef35c62e558c54abac50cb8aa97a7add57af958961",
    35: "1ded17f2a60e82414c40efb393b17313ab35a2d9f11b59e8928df95805aeae2d",
    143: "ef7858e758ad631b346e8f7377210dcbe586ff67d76931df72da06bc3be76191",
}


def table_digest(ctx, stats) -> str:
    t_slot = [
        (i, o.pos, o.length, o.total, o.step.key, o.step.row) for i, o in enumerate(ctx.t_slot) if o is not None
    ]
    s_slot = [(i, *o) for i, o in enumerate(ctx.s_slot) if o is not None]
    tables = (ctx.den, ctx.g_rows, t_slot, s_slot, tuple(stats))
    return hashlib.sha256(repr(tables).encode()).hexdigest()


@pytest.mark.parametrize("N", sorted(PAIRS))
def test_a_build_gives_the_pinned_tables(N):
    ctx, stats = _build(*(find_character(q, gens) for q, gens in PAIRS[N]), True)
    assert tuple(stats) == STATS[N]
    assert table_digest(ctx, stats) == DIGESTS[N]
