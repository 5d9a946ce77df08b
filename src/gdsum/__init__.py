"""Exact generalized Dedekind sums for pairs of primitive Dirichlet characters.

The double sum attached to a matrix in Gamma0(q1 q2) is evaluated either
directly (time linear in the lower-left entry) or through precomputed sums
on a finite generating alphabet of Gamma1(q1 q2), reached by an
exponent-collecting coset rewriting of the matrix's T/S word (time
logarithmic in the lower-left entry).  Those sums are derived from the
sums of the Schreier generators of Gamma0(q1 q2), two per point of
P^1(Z/q1 q2): the only sums a precompute stores.  A cache stores the pair
alone, and a load builds its context as a precompute does.  A build logs its
counts and phase times on the `gdsum` logger at DEBUG, and times nothing
when DEBUG is off.  All arithmetic is exact, in cyclotomic fields over the
rationals.
"""

from .characters import (
    DirichletCharacter,
    characters_mod,
    find_character,
    parse_character_spec,
    psi,
)
from .dedekind import (
    Context,
    ParityWarning,
    fast_sum,
    load_context,
    naive_sum,
    precompute,
    save_context,
)
from .exactnum import CycElem, cyclotomic_polynomial, root_of_unity
from .modgroup import Mat2, TSWord, ts_decompose, ts_reconstruct

__all__ = [
    "CycElem",
    "Context",
    "DirichletCharacter",
    "Mat2",
    "ParityWarning",
    "TSWord",
    "characters_mod",
    "cyclotomic_polynomial",
    "fast_sum",
    "find_character",
    "load_context",
    "naive_sum",
    "parse_character_spec",
    "precompute",
    "psi",
    "root_of_unity",
    "save_context",
    "ts_decompose",
    "ts_reconstruct",
]

__version__ = "0.1.0"
