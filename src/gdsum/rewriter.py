"""Rewriting of Gamma1(N) elements over the Schreier alphabet.

`modified_rewrite` collects exponents: one factor per T-power, one per S,
and a trailing +-I factor, so the factor count tracks the word's letter
count.  It multiplies no prefix matrices: a factor needs only the coset key
(c mod N, d mod N) of the word's prefix, and T^a maps that key to
(c, d + a*c), S to (d, -c); the word's product is rebuilt once, in plain
integers, for the checks.  `reduce_word` then reads the context's
potential table: each S factor adds its key's S-step row, each T^a factor
adds its orbit's total only as often as a wraps around the T-orbit, and
-I adds the negation row; a zero row adds no term.
"""

from __future__ import annotations

from typing import NamedTuple

from .cosets import Transversal
from .modgroup import Mat2, TSWord, ts_reconstruct

# A NamedTuple's own constructor is a Python-level call; building the tuple
# directly halves the cost of each factor on the evaluation path.
_new = tuple.__new__


class RewriteFactor(NamedTuple):
    """U(member at base_key, gen^exponent); gen "T", "S" or "-I"."""

    base_key: tuple[int, int]
    gen: str
    exponent: int


class Term(NamedTuple):
    """multiplicity * row, one term `fast_sum` adds; kind "S" (the S-step
    row of key), "T" (the orbit total of key's T-orbit, times the number
    of times the T-power wraps around it) or "-I" (the negation row)."""

    key: tuple[int, int]
    kind: str
    multiplicity: int
    row: tuple[int, ...]


def modified_rewrite(w: TSWord, t: Transversal, product: Mat2 | None = None) -> list[RewriteFactor]:
    """Exponent-collecting rewriting of a TS word with product in Gamma1(N).

    Emits one factor per nonzero T-power, one per S, and a final -I factor
    when the word is negated (+I contributes nothing and is dropped).  The
    exact matrix product of the factors' U-values reconstructs the word.
    `product`, when supplied, must equal the word's exact product, or
    ValueError is raised.
    """
    g1 = ts_reconstruct(w)
    if product is not None and g1 != product:
        raise ValueError(f"word product {g1} is not {product}")
    N = t.N
    if not g1.in_gamma1(N):
        raise ValueError(f"word product {g1} is not in Gamma1({N})")
    factors = []
    c, d = 0, 1 % N  # key of the prefix before the next letter
    for a in w.exponents:  # T^a S; only the first and last a may be 0
        if a:
            factors.append(_new(RewriteFactor, ((c, d), "T", a)))
            d = (d + a * c) % N
        factors.append(_new(RewriteFactor, ((c, d), "S", 1)))
        c, d = d, -c % N
    key = factors.pop()[0]  # the word ends in T^ar: no S after it
    if w.negate:
        factors.append(_new(RewriteFactor, (key, "-I", 1)))
    return factors


def reduce_word(factors, ctx) -> list[Term]:
    """The terms whose rows, times their multiplicities, add up to the sum
    of the factors' product, read from the context's potential table.

    An S factor at key k gives k's S-step term.  A T^a factor at k gives
    k's orbit total, w = floor((pos + a) / length) times, when it wraps
    around the orbit (w != 0).  The -I factor gives the negation term.
    A zero row, which is always the one tuple `ctx.zero`, gives no term.
    """
    table, zero, out = ctx.potential, ctx.zero, []
    for key, gen, exponent in factors:
        if gen == "S":
            if (step := table[key][3])[3] is not zero:
                out.append(step)
        elif gen == "T":
            pos, length, total, _ = table[key]
            if total is not zero and (w := (pos + exponent) // length):
                out.append(_new(Term, (key, "T", w, total)))
        elif gen != "-I":
            raise ValueError(f"unknown factor generator {gen!r}")
        elif ctx.neg[3] is not zero:
            out.append(ctx.neg)
    return out


def format_factor(f: RewriteFactor) -> str:
    if f.gen == "T":
        return f"U({f.base_key}, T^{f.exponent})"
    if f.gen == "S":
        return f"U({f.base_key}, S)"
    return f"U({f.base_key}, -I)"


def format_term(f: Term) -> str:
    what = {"S": "S-step row", "T": "orbit total", "-I": "negation row"}[f.kind]
    if f.multiplicity == 1:
        return f"{what} at {f.key}"
    return f"{f.multiplicity} * {what} at {f.key}"
