"""Rewriting of Gamma0(N) elements over the Schreier alphabet, as coset keys.

`modified_rewrite` collects exponents and returns one int per slot of the
word: the coset key c*N + d of the prefix before each T-power and each S,
2 * letters - 1 keys.  It multiplies no matrices: T^a maps the key (c, d)
to (c, d + a*c), S to (d, -c).  The walk starts at the identity's key
(0, 1) and ends at (0, lambda), lambda = +-d mod N, whose Gamma1(N)
transversal member is g_lambda: the unsigned word is its U-factors times
g_lambda.  The exact product check is `ts_decompose`'s, done as it emits
the word; here the last key's c must be 0 mod N (gamma in Gamma0(N)).
`reduce_word` then reads the context's two tables indexed by key and
returns the rows to add: each S slot's S-step row, each T^a slot's orbit
total times the number of times a wraps around the T-orbit, and nothing
for a zero row, which has no entry.  `--trace` passes it a list to fill
with each row's kind, slot index and multiplicity.
"""

from __future__ import annotations

from itertools import chain

from .cosets import Transversal
from .modgroup import TSWord, ts_reconstruct


def modified_rewrite(w: TSWord, t: Transversal) -> list[int]:
    """The slot keys of a TS word with product in Gamma0(N).

    c*N + d for the prefix key (c, d) before each T-power and each S, in
    word order, from the identity's key (0, 1).  ValueError is raised
    unless the walk ends at a key (0, lambda), so the product lies in
    Gamma0(N).
    """
    N = t.N
    keys = []
    append = keys.append
    c, d = 0, 1 % N  # key of the prefix before the next letter
    for a in w.exponents:  # T^a S; only the first and last a may be 0
        append(c * N + d)
        d = (d + a * c) % N
        append(c * N + d)
        c, d = d, -c % N
    if keys.pop() >= N:  # the word ends in T^ar: no S after it, and its key is the product's
        raise ValueError(f"word product {ts_reconstruct(w)} is not in Gamma0({N})")
    return keys


def reduce_word(w: TSWord, keys: list[int], ctx, terms: list | None = None) -> list[tuple]:
    """The rows that add up to the sum of the word's U-factors, read from
    the context's tables at the slot keys of `modified_rewrite`.

    A T^a slot at index k gives k's orbit total times m = floor((pos + a) /
    length) when it wraps around the orbit (m != 0).  An S slot gives k's
    S-step row.  A zero row has no table entry (None), so it gives no row.
    When `terms` is a list, (kind, k, m) is appended to it for each row, of
    kind "T" or "S" (m = 1).
    """
    t_slot, s_slot, out = ctx.t_slot, ctx.s_slot, []
    it = iter(keys)  # each T slot, then its S slot; o is (pos, length, total)
    for a, k, s in zip(w.exponents, it, chain(it, (0,))):  # the last S slot: 0 = (0, 0), no key
        if (o := t_slot[k]) is not None and (m := (o[0] + a) // o[1]):
            out.append(o[2] if m == 1 else tuple([m * n for n in o[2]]))
            if terms is not None:
                terms.append(("T", k, m))
        if (row := s_slot[s]) is not None:
            out.append(row)
            if terms is not None:
                terms.append(("S", s, 1))
    return out
