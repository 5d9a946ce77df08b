"""Rewriting of Gamma1(N) elements over the Schreier alphabet.

`modified_rewrite` collects exponents: one factor per T-power, one per S,
and a trailing +-I factor, so the factor count tracks the word's letter
count.  It multiplies no prefix matrices: a factor needs only the coset key
(c mod N, d mod N) of the word's prefix, and T^a maps that key to
(c, d + a*c), S to (d, -c); the word's product is rebuilt once, in plain
integers, for the checks.  `reduce_word` then cycles T-exponents into a T^N
part plus a remainder so every factor indexes the finite precomputed
alphabet.  `expand_factor` turns a factor back into its exact matrix.
"""

from __future__ import annotations

from typing import NamedTuple

from .cosets import Transversal, u_func
from .modgroup import Mat2, S, TSWord, ts_reconstruct

# A NamedTuple's own constructor is a Python-level call; building the tuple
# directly halves the cost of each factor on the evaluation path.
_new = tuple.__new__


class RewriteFactor(NamedTuple):
    """U(member at base_key, gen^exponent); gen "T", "S" or "-I"."""

    base_key: tuple[int, int]
    gen: str
    exponent: int


class ReducedFactor(NamedTuple):
    """multiplicity * U(member at base_key, g) with g indexing the alphabet."""

    base_key: tuple[int, int]
    gen: tuple[str, int]
    multiplicity: int


def modified_rewrite(w: TSWord, t: Transversal, product: Mat2 | None = None) -> list[RewriteFactor]:
    """Exponent-collecting rewriting of a TS word with product in Gamma1(N).

    Emits one factor per nonzero T-power, one per S, and a final -I factor
    when the word is negated (+I contributes nothing and is dropped).  The
    exact matrix product of the factors' U-values reconstructs the word.
    `product`, when supplied, must equal the word's exact product.
    """
    g1 = ts_reconstruct(w)
    assert product is None or g1 == product
    N = t.N
    if not g1.in_gamma1(N):
        raise ValueError(f"word product {g1} is not in Gamma1({N})")
    factors = []
    c, d = 0, 1 % N  # key of the prefix before the next letter
    exps = w.exponents
    last = len(exps) - 1
    for idx, a in enumerate(exps):
        if a != 0:
            factors.append(_new(RewriteFactor, ((c, d), "T", a)))
            d = (d + a * c) % N
        if idx < last:
            factors.append(_new(RewriteFactor, ((c, d), "S", 1)))
            c, d = d, -c % N
    if w.negate:
        factors.append(_new(RewriteFactor, ((c, d), "-I", 1)))
    return factors


def expand_factor(f: RewriteFactor, t: Transversal) -> Mat2:
    """The exact U-matrix a rewrite factor stands for."""
    base = t.members[f.base_key]
    if f.gen == "T":
        return u_func(base, Mat2.t_power(f.exponent), t)
    if f.gen == "S":
        return u_func(base, S, t)
    return u_func(base, -Mat2.identity(), t)


def reduce_t_power(a: int, N: int) -> tuple[int, int]:
    """a = q*N + r with 0 <= r < N (floor division, any sign of a)."""
    return a // N, a % N


def reduce_word(factors, N: int) -> list[ReducedFactor]:
    """Map rewrite factors onto alphabet entries, preserving the product.

    T-exponents split as q * (T^N entry) + (T^r entry), dropping q = 0 and
    r = 0 parts; S stays S^1; -I becomes the S^2 entry.
    """
    out = []
    for base_key, gen, exponent in factors:
        if gen == "T":
            q, r = reduce_t_power(exponent, N)
            if q != 0:
                out.append(_new(ReducedFactor, (base_key, ("T", N), q)))
            if r != 0:
                out.append(_new(ReducedFactor, (base_key, ("T", r), 1)))
        elif gen == "S":
            out.append(_new(ReducedFactor, (base_key, ("S", 1), 1)))
        elif gen == "-I":
            out.append(_new(ReducedFactor, (base_key, ("S", 2), 1)))
        else:
            raise ValueError(f"unknown factor generator {gen!r}")
    return out


def format_factor(f: RewriteFactor) -> str:
    if f.gen == "T":
        return f"U({f.base_key}, T^{f.exponent})"
    if f.gen == "S":
        return f"U({f.base_key}, S)"
    return f"U({f.base_key}, -I)"


def format_reduced(f: ReducedFactor) -> str:
    name, k = f.gen
    gen = f"T^{k}" if name == "T" else f"S^{k}"
    if f.multiplicity == 1:
        return f"U({f.base_key}, {gen})"
    return f"{f.multiplicity} * U({f.base_key}, {gen})"
