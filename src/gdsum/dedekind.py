"""Generalized Dedekind sums: the double sum, precomputed tables, fast path.

For primitive characters chi1, chi2 with conductors q1, q2 > 1 and a matrix
(a b; c d) with c >= 1 in Gamma0(q1 q2), the sum is

    S(gamma) = sum_{j=1}^{c} sum_{n=1}^{q1}
               conj(chi2(j)) conj(chi1(n)) B1(j/c) B1(n/q1 + a*j/c),

an element of Q(zeta_L) with L = lcm(order chi1, order chi2, 2).
`naive_sum` evaluates it exactly without the inner loop: the sum over n
depends only on floor(q1 (a j mod c)/c), so each j adds 2j - c to one of
q1 integer buckets kept for its residue mod q2, and j and c - j contribute
equally (or cancel, when chi1*chi2(-1) = -1, and then the sum is 0).  That
is about (c/2) phi(q2)/q2 integer steps.

The sum obeys S(g h) = S(g) + psi(g) S(h) with psi(g) = chi1 conj(chi2)(d(g)),
and psi is trivial on Gamma1(N); that single identity powers everything here:

  * values on matrices with c <= 0, where the double sum does not apply,
    are pinned through S(g) = -psi(g) S(g^-1) (the inverse has c >= 1) and,
    for the shears +-T^b, through products with an oracle-valid partner;
  * the fast path splits gamma into a Gamma1(N) part and a transversal
    member, rewrites the Gamma1 part over the Schreier alphabet, and adds
    up precomputed sums with multiplicities;
  * the U(t, T) and U(t, S) sums, two per coset key, are mostly solved
    rather than evaluated: entries that are the identity matrix are 0, and
    the group relations S^4 = I and (ST)^3 = S^2 give one exact linear
    identity per key and relation, which fixes almost every other entry
    once a few come from the double sum (Gamma1(N) is free of rank
    1 + |keys|/12, Reidemeister-Schreier);
  * the context and the cache store only those U(t, T) and U(t, S) sums:
    the same relations check every stored entry at load, and what the
    evaluator reads follows from them in potential form, one S-step row
    and one orbit total per coset key (`Context`).

From the solve or the cache to the context, the generator sums are one
dict keyed like the alphabet, (key, ("T", 1)) and (key, ("S", 1)), with one
shared CycElem per distinct sum (111 behind 2,304 entries at N = 35, L = 12).
`_generator_rows` alone turns them into integer rows over one common
denominator D (1 for every pair tried), each distinct sum once: the relation
checks, the derived rows and `fast_sum`'s accumulation are integer adds.  A
`Context` takes the pair, the two transversals, the generator matrices and
the sums (Gamma0 transversal and generator); it derives N, L and the parity
flag from the pair, and the evaluator's rows from the generator sums.
"""

from __future__ import annotations

import heapq
import json
import logging
import os
import tempfile
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import NamedTuple

from .characters import (
    DirichletCharacter,
    character_spec_string,
    find_character,
    pair_order,
    parity_product,
    psi,
    unit_group_gens,
)
from .cosets import (
    Transversal,
    schreier_alphabet,
    sl2_coset_count,
    transversal_g1_in_g0,
    transversal_g1_in_sl2,
)
from .exactnum import CycElem
from .modgroup import I2, Mat2, ts_decompose
from .rewriter import Term, modified_rewrite, reduce_word

# Guardrail for precompute, lifted by allow_large: |keys| ~ N^2 coset keys,
# and the oracle calls grow with them (N = 77 precomputes in about a second).
DEFAULT_LEVEL_LIMIT = 80

CACHE_VERSION = 3  # bump when the transversal or alphabet construction changes: load rebuilds them

# Generator sums re-evaluated against the double sum at every load.
LOAD_SPOT_CHECKS = 5

log = logging.getLogger(__name__)


class ParityWarning(UserWarning):
    """chi1*chi2(-1) != 1: the defining hypothesis fails, and the double sum
    is 0 on every matrix, so every table entry and every sum is 0."""


def naive_sum(chi1: DirichletCharacter, chi2: DirichletCharacter, gamma: Mat2) -> CycElem:
    """The double sum, evaluated exactly in one pass over j < c/2.

    Requires c >= 1 (and gamma in Gamma0(q1 q2)); the fast path covers the
    rest of the group.  With y = q1 (a j mod c)/c, the inner sum over n is
    A[floor(y)] = (1/q1) sum_k k conj(chi1(k - floor(y))) for non-principal
    chi1, plus conj(chi1(-y))/2 when y is an integer; but y is an integer
    only when c/q1, a multiple of q2, divides j, and then chi2(j) = 0.  So
    the j of each unit residue mod q2 add 2j - c to one of q1 buckets, and
    the buckets are combined once.  Pairing j with c - j multiplies the
    summand by chi1*chi2(-1): only j < c/2 is walked, and the sum is 0 when
    that sign is -1.
    """
    q1, q2 = chi1.modulus, chi2.modulus
    N = q1 * q2
    a, c = gamma.a, gamma.c
    if c <= 0:
        raise ValueError("the defining double sum needs lower-left entry >= 1")
    if not gamma.in_gamma0(N):
        raise ValueError(f"{gamma} is not in Gamma0({N})")
    if chi1.order == 1:
        raise ValueError("the double sum is evaluated for non-principal chi1 only")
    L = pair_order(chi1, chi2)
    # chi(n) = zeta_L^e[n], or None where chi(n) = 0; summands take conjugates
    e1 = [chi1.exponent_at(n, L) for n in range(q1)]
    e2 = [chi2.exponent_at(n, L) for n in range(q2)]
    # integer numerators per zeta-exponent over the common denominator
    # 2*q1*c: the half range doubles (2j - c)/(2c) * A[m]
    acc = [0] * L
    if e1[-1] != e2[-1]:  # chi1*chi2(-1) = -1; both exponents are 0 or L/2
        return CycElem(L, acc)
    M = q1 * c
    qa = q1 * a % M  # floor(y) = (qa * j mod M) // c
    half = (c + 1) // 2
    for u in range(1, q2):
        k2 = e2[u]
        if k2 is None:
            continue
        bucket = [0] * q1
        for j in range(u, half, q2):
            bucket[qa * j % M // c] += 2 * j - c
        for m, w in enumerate(bucket):
            if w:
                for k in range(1, q1):
                    k1 = e1[(k - m) % q1]
                    if k1 is not None:
                        acc[-(k2 + k1) % L] += 2 * k * w
    den = 2 * q1 * c
    return CycElem(L, [Fraction(v, den) for v in acc])


def sum_on_gamma0(chi1, chi2, gamma: Mat2) -> CycElem:
    """S on any Gamma0(N) matrix, via the double sum or its closure.

    c >= 1: the double sum.  c <= -1: -psi(gamma) S(gamma^-1).  c = 0 means
    gamma = +-T^b; T^b is pinned via S(h T^b) - S(h) with h = (1,0;N,1), and
    the -I factor contributes S(-I) = 0 (forced when chi1*chi2(-1) = 1;
    otherwise the double sum, and so S everywhere, is 0).
    """
    N = chi1.modulus * chi2.modulus
    L = pair_order(chi1, chi2)
    c = gamma.c
    if c >= 1:
        return naive_sum(chi1, chi2, gamma)
    if c <= -1:
        return -(psi(chi1, chi2, gamma) * naive_sum(chi1, chi2, gamma.inv()))
    # c == 0: gamma = (s, b; 0, s) with s = +-1
    sgn, b = gamma.a, gamma.b
    if sgn == 1 and b == 0:
        return CycElem.zero(L)
    h = Mat2(1, 0, N, 1)
    if sgn == 1:
        return naive_sum(chi1, chi2, h.mul_t_power(b)) - naive_sum(chi1, chi2, h)
    # gamma = -T^(-b): S(-I) + psi(-I) * S(T^(-b)) with S(-I) = 0
    shear = sum_on_gamma0(chi1, chi2, Mat2.t_power(-b))
    return parity_product(chi1, chi2) * shear


class OrbitRow(NamedTuple):
    """What `fast_sum` reads at one coset key k = (c, d), whose T-orbit
    (c, d + j c) mod N starts at the base key (c, d mod gcd(c, N))."""

    pos: int  # k's position along its T-orbit
    length: int  # the orbit's length, N / gcd(c, N)
    total: tuple  # the orbit total, the sum of U(base, T^length)
    step: Term  # the S-step term 1 * B(k), B(k) = F(k) + s_S[k] - F(kS)


@dataclass
class Context:
    """All precomputed tables for one character pair.

    Immutable after `precompute`; `fast_sum` is pure, so one context can
    serve concurrent evaluations.

    It takes seven inputs: the pair `chi1`, `chi2`; the transversals
    `t_g0` (Gamma1(N) in Gamma0(N), keyed by d mod N) and `t_sl2` (keyed by
    coset key); `sums_g0`, the sums of the `t_g0` members; and `alphabet`
    and `sums_alphabet`, the 2 |keys| Schreier generators U(t, T), U(t, S)
    and their sums, keyed (key, ("T", 1)), (key, ("S", 1)).

    `__post_init__` derives `N`, `L` and `parity_ok` (chi1*chi2(-1) = 1)
    from the pair, and what `fast_sum` reads, integer rows over the common
    denominator `den`: an `OrbitRow` per key in `potential`, and `neg`.
    With F(k) the sum of s_T along k's T-orbit up to k and Sigma the orbit
    total, the cocycle identity gives, for every integer a,

        S(U(t_k, T^a)) = F(k T^a) - F(k) + floor((pos(k) + a) / length) Sigma.

    Over a word the F terms cancel across each S letter into
    B(k) = F(k) + s_S[k] - F(kS), and vanish at both ends: the walk starts
    at key (0, 1) and ends there or, negated, at (0, -1), keys alone on
    their orbits.  `neg` is then the sum of U(t, S^2) at (0, -1).  Every
    zero row is the one tuple `zero`, which `reduce_word` skips.  Nothing
    derived is passed in, so `dataclasses.replace(ctx, sums_alphabet=...)`
    evaluates the table it holds, and replacing a derived field raises.
    It checks no relation: `precompute` and `load_context` do.
    """

    chi1: DirichletCharacter
    chi2: DirichletCharacter
    t_g0: Transversal
    t_sl2: Transversal
    alphabet: dict
    sums_g0: dict
    sums_alphabet: dict
    N: int = field(init=False)
    L: int = field(init=False)
    parity_ok: bool = field(init=False)
    den: int = field(init=False, compare=False)
    potential: dict = field(init=False, compare=False, repr=False)
    neg: Term = field(init=False, compare=False, repr=False)
    zero: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        chi1, chi2 = self.chi1, self.chi2
        self.N = N = chi1.modulus * chi2.modulus
        self.L = L = pair_order(chi1, chi2)
        self.parity_ok = parity_product(chi1, chi2) == CycElem.one(L)
        self.den, rows = _generator_rows(self.sums_alphabet)
        self.zero = zero = (0,) * len(CycElem.zero(L).coeffs)
        # F along each T-orbit from its base (c, d mod g), g = gcd(c, N),
        # where t T^j has the key (c, d + j c)
        f_of, total_of = {}, {}
        for c, d in self.t_sl2.members:
            g = gcd(c, N)
            if (c, d % g) in f_of:
                continue  # its orbit is done
            f = zero
            for pos in range(N // g):
                key = (c, (d % g + pos * c) % N)
                f_of[key] = pos, f
                f = tuple(map(add, f, rows[key, ("T", 1)]))
            total_of[c, d % g] = f if any(f) else zero
        self.potential = {}
        for c, d in self.t_sl2.members:
            (pos, f), g = f_of[c, d], gcd(c, N)
            row = tuple(map(sub, map(add, f, rows[(c, d), ("S", 1)]), f_of[d, -c % N][1]))
            step = Term((c, d), "S", 1, row if any(row) else zero)
            self.potential[c, d] = OrbitRow(pos, N // g, total_of[c, d % g], step)
        row = tuple(map(add, rows[(0, -1 % N), ("S", 1)], rows[(-1 % N, 0), ("S", 1)]))
        self.neg = Term((0, -1 % N), "-I", 1, row if any(row) else zero)


def _validate_pair(chi1, chi2):
    for name, chi in (("chi1", chi1), ("chi2", chi2)):
        if not chi.is_primitive():
            raise ValueError(f"{name} (mod {chi.modulus}) is not primitive")
        if chi.conductor() <= 1:
            raise ValueError(f"{name} must have conductor > 1")


def precompute(
    chi1: DirichletCharacter, chi2: DirichletCharacter, *, allow_large: bool = False
) -> Context:
    """Build the transversals, the Schreier generators and their sums.

    `_solve` finds the U(t, T) and U(t, S) sums, two per coset key, and
    calls the double sum on few of them: within twice the rank
    1 + |keys|/12 of Gamma1(N), e.g. 131 of the 2,304 at N = 35.  Every
    relation of `_relations` is then checked on the whole table, and
    `_tables` builds the context, as it does for `load_context`.  One DEBUG
    line on the `gdsum.dedekind` logger gives the counts, with the
    `SolveStats` attached as `record.solve_stats`.  Levels above
    DEFAULT_LEVEL_LIMIT need allow_large.
    """
    _validate_pair(chi1, chi2)
    N = chi1.modulus * chi2.modulus
    if N > DEFAULT_LEVEL_LIMIT and not allow_large:
        raise ValueError(
            f"level N = {N} exceeds the guardrail {DEFAULT_LEVEL_LIMIT}; pass allow_large=True "
            f"(the tables would have {sl2_coset_count(N):,} coset keys)"
        )
    t_sl2 = transversal_g1_in_sl2(N)
    alphabet = schreier_alphabet(N, t_sl2)
    sums, stats = _solve(chi1, chi2, t_sl2, alphabet)
    _check_relations(N, sums)
    ctx = _tables(chi1, chi2, t_sl2, alphabet, sums)
    log.debug(
        "precompute N=%d: %d keys, %d identity entries, %d solved, "
        "%d oracle calls, oracle total |c| %d",
        N, len(t_sl2), *stats, extra={"solve_stats": stats},
    )
    if not ctx.parity_ok:
        warnings.warn(
            f"chi1*chi2(-1) != 1 for the pair mod ({chi1.modulus}, {chi2.modulus}); "
            "the double sum vanishes for such a pair, so every sum is 0",
            ParityWarning,
            stacklevel=2,
        )
    return ctx


def _row(den: int, coeffs) -> tuple[int, ...]:
    """Fraction coefficients as integer numerators over den."""
    return tuple([x.numerator * den // x.denominator for x in coeffs])


def _generator_rows(sums: dict) -> tuple[int, dict]:
    """The common denominator D of the generator sums and, keyed like sums,
    their integer numerator rows over D: one per distinct CycElem object."""
    distinct = {id(v): v for v in sums.values()}
    den = lcm(*{x.denominator for v in distinct.values() for x in v.coeffs})
    row_of = {i: _row(den, v.coeffs) for i, v in distinct.items()}
    return den, {k: row_of[id(v)] for k, v in sums.items()}


class SolveStats(NamedTuple):
    """How `_solve` found the 2 |keys| U(t, T) and U(t, S) sums."""

    identity: int  # entries whose matrix is the identity, so 0
    solved: int  # entries solved from one relation
    oracle_calls: int  # entries evaluated by `sum_on_gamma0`
    oracle_c: int  # sum of |c| over those entries


def _solve(chi1, chi2, t_sl2: Transversal, alphabet: dict) -> tuple[dict, SolveStats]:
    """The U(t, T) and U(t, S) sums, found with as few double sums as the
    peel allows.

    An entry whose matrix is the identity is 0.  A relation of `_relations`,
    read as sum(lhs) - sum(rhs) = 0, with one unknown left at coefficient
    +-1 gives that unknown as a sum of known rows.  When none is left, the
    unknown entry of smallest |c| goes to the double sum; a value with a
    new denominator rescales the known rows, so every row stays exact over
    the running denominator.  Returns (sums, stats): the sums keyed like
    `alphabet`, one CycElem per distinct row.
    """
    L = pair_order(chi1, chi2)
    zero = (0,) * len(CycElem.zero(L).coeffs)
    known = {v: zero for v, m in alphabet.items() if m == I2}
    relations = []
    uses = {v: [] for v in alphabet}  # entry -> relations it enters
    for _, _, lhs, rhs in _relations(t_sl2.N, t_sl2.members):
        rel = Counter(lhs)
        rel.subtract(rhs)
        rel = {v: coef for v, coef in rel.items() if coef}
        for v in rel:
            uses[v].append(len(relations))
        relations.append(rel)
    open_ = [sum(v not in known for v in rel) for rel in relations]
    ready = [i for i, n in enumerate(open_) if n == 1]
    # ties in |c|: S before T, then by key
    by_c = iter(sorted((abs(m.c), v[1], v) for v, m in alphabet.items() if v not in known))
    den = 1
    identity, solved, calls, total_c = len(known), 0, 0, 0

    def settle(v, row):
        known[v] = row
        for i in uses[v]:
            open_[i] -= 1
            if open_[i] == 1:
                ready.append(i)

    while len(known) < len(alphabet):
        if ready:
            rel = relations[ready.pop()]
            left = [v for v in rel if v not in known]
            if len(left) != 1 or rel[left[0]] not in (1, -1):
                continue
            x = left[0]
            # rel[x] * x = -sum(coef * known), and 1 / rel[x] = rel[x] for +-1
            acc = list(zero)
            for v, coef in rel.items():
                if v != x:
                    for i, n in enumerate(known[v]):
                        acc[i] -= coef * n
            settle(x, tuple([rel[x] * n for n in acc]))
            solved += 1
            continue
        c, _, x = next(e for e in by_c if e[2] not in known)
        value = sum_on_gamma0(chi1, chi2, alphabet[x])
        calls, total_c = calls + 1, total_c + c
        new_den = lcm(den, *(q.denominator for q in value.coeffs))
        if new_den != den:
            scale, den = new_den // den, new_den
            for v, row in known.items():
                known[v] = tuple([scale * n for n in row])
        settle(x, _row(den, value.coeffs))
    cyc = {r: CycElem._raw(L, tuple(Fraction(n, den) for n in r)) for r in set(known.values())}
    return {v: cyc[known[v]] for v in alphabet}, SolveStats(identity, solved, calls, total_c)


def _tables(chi1, chi2, t_sl2: Transversal, alphabet: dict, sums: dict) -> Context:
    """The context with the generator sums `sums`, keyed like `alphabet`.

    The Gamma0 transversal sums come from the double sum (each member other
    than the identity has c = N); `Context.__post_init__` derives the rows
    the evaluator reads.
    """
    L = pair_order(chi1, chi2)
    t_g0 = transversal_g1_in_g0(t_sl2.N)
    sums_g0 = {
        d: CycElem.zero(L) if m == I2 else naive_sum(chi1, chi2, m) for d, m in t_g0.members.items()
    }
    return Context(chi1, chi2, t_g0, t_sl2, alphabet, sums_g0, sums)


def split_gamma0(ctx: Context, gamma: Mat2) -> tuple[Mat2, Mat2, int]:
    """gamma = g1 * g with g1 in Gamma1(N) and g the member at d mod N."""
    if not gamma.in_gamma0(ctx.N):
        raise ValueError(f"{gamma} is not in Gamma0({ctx.N})")
    d_key = gamma.d % ctx.N
    g = ctx.t_g0.members[d_key]
    g1 = gamma * g.inv()
    return g1, g, d_key


def fast_sum(ctx: Context, gamma: Mat2) -> CycElem:
    """S(gamma) from the precomputed tables; O(log|c|) work.

    `reduce_word` turns the word's factors into terms: the S-step row at
    each S letter, a multiple of the orbit total at each T letter that
    wraps around its T-orbit, and the negation row, none for a zero row.
    Their rows, times m, are summed column by column into numerators over
    `ctx.den`; each nonzero one becomes a Fraction added to the Gamma0
    transversal sum.
    """
    g1, _, d_key = split_gamma0(ctx, gamma)
    word = ts_decompose(g1, nearest=True)
    terms = reduce_word(modified_rewrite(word, ctx.t_sl2, product=g1), ctx)
    rows = [row if m == 1 else [m * n for n in row] for _, _, m, row in terms]
    acc = map(sum, zip(ctx.zero, *rows))  # ctx.zero keeps every column when no term is left
    return CycElem._raw(
        ctx.L,
        tuple(x + Fraction(n, ctx.den) if n else x for x, n in zip(ctx.sums_g0[d_key].coeffs, acc)),
    )


def crossed_hom_check(chi1, chi2, ga: Mat2, gb: Mat2) -> bool:
    """Whether S(ga gb) = S(ga) + psi(ga) S(gb) under the double sum.

    All three lower-left entries must be >= 1.
    """
    lhs = naive_sum(chi1, chi2, ga * gb)
    rhs = naive_sum(chi1, chi2, ga) + psi(chi1, chi2, ga) * naive_sum(chi1, chi2, gb)
    return lhs == rhs


# ---------------------------------------------------------------------------
# cache serialization

def _parse_fraction(s: str) -> Fraction:
    # "p/q" or "p" only: Fraction(s) would also take "1.5" and "1e3"
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _chi_to_json(chi: DirichletCharacter) -> dict:
    gens = []
    for g, _ in unit_group_gens(chi.modulus):
        k = chi.exponent(g)
        gens.append({"g": g, "v": str(Fraction(k, chi.order))})
    return {"q": chi.modulus, "gens": gens}


def _chi_from_json(obj) -> DirichletCharacter:
    return find_character(obj["q"], [(g["g"], Fraction(g["v"])) for g in obj["gens"]])


def context_to_json(ctx: Context) -> dict:
    """The cache document: the pair, and the sums S(U(t, T)) and S(U(t, S))
    keyed by "c,d", the coset key of t.  Nothing else costs oracle time."""
    keys = sorted(ctx.t_sl2.members)
    return {
        "version": CACHE_VERSION,
        "q1": ctx.chi1.modulus,
        "q2": ctx.chi2.modulus,
        "chi1": _chi_to_json(ctx.chi1),
        "chi2": _chi_to_json(ctx.chi2),
        "L": ctx.L,
        "sums_alphabet": {
            name: {
                f"{c},{d}": [str(x) for x in ctx.sums_alphabet[(c, d), (name, 1)].coeffs]
                for c, d in keys
            }
            for name in ("T", "S")
        },
    }


def save_context(ctx: Context, path) -> None:
    """Write the cache atomically: into a temporary file in the same
    directory, then renamed over `path`, so a write that fails midway
    leaves any previous cache as it was."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(context_to_json(ctx), fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class LoadStats(NamedTuple):
    """What `load_context` validated."""

    keys: int  # coset keys, two stored sums each
    relations: int  # relation identities checked on the stored sums
    spot_checks: int  # stored sums compared with the double sum
    gamma0_sums: int  # Gamma0 transversal sums re-evaluated by the double sum


def load_context(path) -> Context:
    """Load a cached context and validate every stored sum.

    The file holds the pair, which must pass `precompute`'s checks, and
    the U(t, T) and U(t, S) sums, each distinct vector parsed once.  The
    transversals, the generator matrices, the Gamma0 transversal sums and
    the rows are rebuilt by the code `precompute` runs, so they hold by
    construction.  Each stored sum must satisfy the two group relations of
    `_check_relations`, and the LOAD_SPOT_CHECKS generators of smallest
    positive lower-left entry must match the double sum.  A malformed
    structure (a missing key, a value of the wrong type) raises ValueError
    like any other failed check.  One DEBUG line on the `gdsum.dedekind`
    logger says what was validated, with the `LoadStats` attached as
    `record.load_stats`.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        chi1, chi2, sums = _sums_from_json(data)
    except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed cache {path}: {type(exc).__name__}: {exc}") from exc
    _validate_pair(chi1, chi2)
    N = chi1.modulus * chi2.modulus
    t_sl2 = transversal_g1_in_sl2(N)
    if set(sums) != {(k, (g, 1)) for k in t_sl2.members for g in ("T", "S")}:
        raise ValueError(f"cached sums are not keyed by the {len(t_sl2)} coset keys mod {N}")
    try:
        relations = _check_relations(N, sums)
    except ValueError as exc:
        raise ValueError(f"cache {path}: {exc}") from None
    ctx = _tables(chi1, chi2, t_sl2, schreier_alphabet(N, t_sl2), sums)

    # spot-check the cheapest oracle-valid entries against the double sum
    checkable = heapq.nsmallest(
        LOAD_SPOT_CHECKS, ((m.c, key) for key, m in ctx.alphabet.items() if m.c >= 1)
    )
    for _, key in checkable:
        if naive_sum(chi1, chi2, ctx.alphabet[key]) != ctx.sums_alphabet[key]:
            raise ValueError(f"cached sum for alphabet entry {key} fails the oracle")
    if log.isEnabledFor(logging.DEBUG):
        stats = LoadStats(len(t_sl2), relations, len(checkable), len(ctx.t_g0) - 1)
        log.debug(
            "load_context N=%d: %d keys, %d relations checked, %d spot checks, "
            "%d Gamma0 sums re-evaluated",
            N, *stats, extra={"load_stats": stats},
        )
    return ctx


def _sums_from_json(data):
    """The pair and the stored U(t, T), U(t, S) sums, keyed (key, ("T", 1))
    and (key, ("S", 1)), with one CycElem per distinct stored vector."""
    if data.get("version") != CACHE_VERSION:
        raise ValueError(
            f"cache version {data.get('version')!r} is not {CACHE_VERSION}; "
            "rebuild it with `gdsum precompute --force`"
        )
    chi1 = _chi_from_json(data["chi1"])
    chi2 = _chi_from_json(data["chi2"])
    if chi1.modulus != data["q1"] or chi2.modulus != data["q2"]:
        raise ValueError("cache moduli do not match the stored characters")
    L = pair_order(chi1, chi2)
    if data["L"] != L:
        raise ValueError(f"cache order {data['L']} != expected {L}")
    deg = len(CycElem.zero(L).coeffs)
    cyc, sums = {}, {}
    for name in ("T", "S"):
        for key, v in data["sums_alphabet"][name].items():
            if len(v) != deg:
                raise ValueError("coefficient vector of wrong length")
            v = tuple(v)
            if v not in cyc:
                cyc[v] = CycElem._raw(L, tuple([_parse_fraction(x) for x in v]))
            sums[tuple(map(int, key.split(","))), (name, 1)] = cyc[v]
    return chi1, chi2, sums


def _relations(N: int, keys):
    """Every per-key relation among the U(t, T) and U(t, S) sums, as
    (name, key, lhs, rhs): the sums s_gen[k'] at the (k', (gen, 1)) of lhs,
    the keys of `Context.sums_alphabet`, add up to those of rhs.

    On keys, k S = (d, -c) and k T = (c, d + c) mod N.  Through the cocycle
    identity, each group relation gives one exact identity per key k (per
    cycle k, kS, kS^2, kS^3 for the first):
      S^4 = I:                s_S[k] + s_S[kS] + s_S[kS^2] + s_S[kS^3] = 0
      (ST)^3 = S^2, i.e. TSTST = S:
                              s_T[k] + s_S[kT] + s_T[kTS] + s_S[kTST] + s_T[kTSTS] = s_S[k]
    `_solve` peels these to find the sums and `_check_relations` checks
    them; no other code lists them.
    """

    def mul_s(k):
        return k[1], -k[0] % N

    def mul_t(k):
        return k[0], (k[1] + k[0]) % N

    t1, s1 = ("T", 1), ("S", 1)
    for k in keys:
        k_s = mul_s(k)
        k_ss = mul_s(k_s)
        cycle = (k, k_s, k_ss, mul_s(k_ss))
        if k == min(cycle):  # the cycle's four keys share one identity
            yield "S^4 = I", k, tuple((j, s1) for j in cycle), ()
        k_t = mul_t(k)
        k_ts = mul_s(k_t)
        k_tst = mul_t(k_ts)
        k_tsts = mul_s(k_tst)
        lhs = ((k, t1), (k_t, s1), (k_ts, t1), (k_tst, s1), (k_tsts, t1))
        yield "(ST)^3 = S^2", k, lhs, ((k, s1),)


def _check_relations(N: int, sums: dict) -> int:
    """Raise ValueError unless the generator sums obey every relation of
    `_relations`; return how many identities were checked.

    The identities are checked on the rows of `_generator_rows`.  Each
    s_S[k] enters the S^4 identity of its cycle once (the four keys differ
    for N >= 3), and s_T enters the (ST)^3 identity only on its left side,
    so a single wrong entry breaks at least one identity.
    """
    _, row = _generator_rows(sums)
    zero = [0] * len(next(iter(row.values())))
    checked = 0
    keys = dict.fromkeys(k for k, _ in sums)
    for checked, (name, k, lhs, rhs) in enumerate(_relations(N, keys), 1):
        total = list(map(sum, zip(*map(row.__getitem__, lhs))))
        if total != (list(map(sum, zip(*map(row.__getitem__, rhs)))) if rhs else zero):
            raise ValueError(f"U(t, T) and U(t, S) sums at key {k} break {name}")
    return checked


def cache_filename(chi1: DirichletCharacter, chi2: DirichletCharacter) -> str:
    def slug(chi):
        return character_spec_string(chi).replace(";", "_").replace("=", "").replace("/", "-")

    return f"sums_{slug(chi1)}__{slug(chi2)}.json"
