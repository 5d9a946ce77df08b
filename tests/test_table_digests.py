"""The tables a build gives, pinned by digest.

A faster build must give the same context, entry for entry: `den`, the G
rows, every `t_slot` entry (pos, length, total) and every `s_slot` entry.
Each digest is SHA-256 of the repr of plain tuples and lists of ints,
strings and None, so it reads no class name and no object identity.  The
tuples are those of the slot layout the digests were first taken on,
where each key's entries carried its S-step term (key, "S", 1, row) with
the key (c, d) = divmod(i, N): `table_digest` rebuilds them from the
rows.  `RUNS` pins how many double sums each build runs.
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
    91: ((7, [(3, "1/2")]), (13, [(2, "1/12")])),  # L = 12, e3 = 4
}

RUNS = {9: 5, 28: 19, 35: 28, 143: 128, 91: 81}  # double sums per build

DIGESTS = {
    9: "1608db7938eb35a1c13454475983309c018f851ed9761afd0d0c4cb47352a961",
    28: "93577fbd8c5317b1d9696668d8618d71c8615651c4229496505fecda40c1d72b",
    35: "c83f442d8dc290e94f9ddfc9167d100a17f2002fcb064c47e78fbc4b16f57472",
    143: "3644ab2aa445e5f6eef8c85b56aef349937ddb5e3fca470b5bd5035dddfe2e4a",
    91: "29991241a98a03b4fb1fa69b6cc5909478ac82bf9ec047b4d2940eb80cc9eef9",
}


def table_digest(ctx) -> str:
    N = ctx.N
    t_slot = [
        (i, *o, divmod(i, N), ctx.s_slot[i] or ctx.zero) for i, o in enumerate(ctx.t_slot) if o is not None
    ]
    s_slot = [(i, divmod(i, N), "S", 1, row) for i, row in enumerate(ctx.s_slot) if row is not None]
    tables = (ctx.den, ctx.g_rows, t_slot, s_slot)
    return hashlib.sha256(repr(tables).encode()).hexdigest()


@pytest.mark.parametrize("N", sorted(PAIRS))
def test_a_build_gives_the_pinned_tables(N):
    ctx, runs = _build(*(find_character(q, gens) for q, gens in PAIRS[N]), True)
    assert runs == RUNS[N]
    assert table_digest(ctx) == DIGESTS[N]
