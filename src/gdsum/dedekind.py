"""Generalized Dedekind sums: the double sum, precomputed tables, fast path.

For primitive characters chi1, chi2 with conductors q1, q2 > 1 and a matrix
(a b; c d) with c >= 1 in Gamma0(q1 q2), the sum is

    S(gamma) = sum_{j=1}^{c} sum_{n=1}^{q1}
               conj(chi2(j)) conj(chi1(n)) B1(j/c) B1(n/q1 + a*j/c),

an element of Q(zeta_L) with L = lcm(order chi1, order chi2, 2).
`naive_sum` evaluates it exactly without the inner loop: the sum over n
depends only on floor(q1 (a j mod c)/c), so each j adds +-(2j - c) to one
of q1 integer buckets kept per value of chi2(j) up to sign, and j and c - j
contribute equally, as chi1*chi2(-1) = 1 (a pair with -1 is refused).  That
is about (c/2) phi(q2)/q2 integer steps; each nonzero bucket then adds one
row of a per-pair table, already reduced mod Phi_L.

The sum obeys S(g h) = S(g) + psi(g) S(h) with psi(g) = chi1 conj(chi2)(d(g))
on all of Gamma0(N), and psi is trivial on Gamma1(N); that single identity
powers everything here:

  * the double sum reads only a mod c and c, so S(g T^b) = S(g) and the
    shears +-T^b have sum 0, and S(-g) = psi(-1) S(g) = S(g): a matrix
    with c <= -1, where the double sum does not apply, has the double sum
    of its negation, as `naive_sum` gives it;
  * the fast path rewrites gamma's own word over the Schreier alphabet of
    Gamma1(N), adds up precomputed sums with multiplicities, and adds the
    sum of the transversal member g_{+-d} at which the walk ends;
  * the sums s0 of the 2 mu Gamma0(N) Schreier generators U(r_k, T) and
    U(r_k, S), over the mu points k of P^1(Z/N), are read from the double
    sum, whose inputs there are small (|c| <= 9,063 at N = 1007); the
    shears +-T^b among them have sum 0, and S^2 = -I and (ST)^3 = S^2 give
    twisted identities among them that each context checks on its key rows;
  * those 2 mu sums are the one sum format: a `Context` is built from them
    and the sums G(d) at the Gamma0 transversal members g_d, deriving the
    two slot tables the evaluator reads (`_slot_tables`).  `_build` runs
    the double sum once per input (a mod c, c): G at each member gives
    every generator sum with c = +-N.  A cache stores only the pair: a load
    builds its context as a precompute does (`_build`), and requires the
    file to be exactly what that context writes.

The generator sums are a dict keyed like their alphabet, (k, ("T", 1)) and
(k, ("S", 1)), one CycElem per double-sum input.  `exactnum` turns
them into integer rows over one common denominator D (3 at N = 9, 5 at
N = 35 with L = 12) and back, so the checks, the derived rows and
`fast_sum`'s column sums are integer adds and root-of-unity turns;
`characters` gives the exponents of chi1, chi2 and psi at the order L.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import add, sub

from .characters import (
    DirichletCharacter,
    _find_character,
    _psi_odd,
    _spec_text,
    _twists,
    pair_order,
    parse_spec_fields,
    unit_group_gens,
)
from .cosets import (
    Transversal,
    schreier_alphabet,
    sl2_coset_count,
    transversal_g0_in_sl2,
    transversal_g1_in_g0,
    transversal_g1_in_sl2,
)
from .exactnum import CycElem, _cyc, _rotations, _rows, cyclotomic_polynomial
from .modgroup import I2, Mat2, _clip, _short, ts_decompose
from .rewriter import modified_rewrite, reduce_word

# Guardrail for precompute and load, lifted by allow_large: the tables hold a
# row per coset key, |keys| ~ N^2, while the double sums grow with mu ~ N.
DEFAULT_LEVEL_LIMIT = 80

CACHE_VERSION = 6  # bump when what context_to_json writes changes: load rebuilds it and compares
_REBUILD = "rebuild it with `save_context(precompute(chi1, chi2), path)`"

log = logging.getLogger(__name__)


def naive_sum(chi1: DirichletCharacter, chi2: DirichletCharacter, gamma: Mat2) -> CycElem:
    """S on any Gamma0(q1 q2) matrix, by the double sum evaluated exactly in
    one pass over j < c/2.

    Raises ValueError off Gamma0(N), naming gamma as given, for a
    principal chi1, or for chi1*chi2(-1) = -1 (`_term_table`).  By the
    module's closure, c = 0 is 0 and c <= -1 has the double sum of -gamma.  With y = q1 (a j mod c)/c, the
    inner sum over n is A[floor(y)] = (1/q1) sum_k k conj(chi1(k - floor(y)))
    for non-principal chi1, plus conj(chi1(-y))/2 when y is an integer; but
    y is an integer only when c/q1, a multiple of q2, divides j, and then
    chi2(j) = 0.  So each j adds 2j - c to one of the q1 buckets of its chi2
    exponent k2 mod L/2, or subtracts it when k2 >= L/2, as zeta_L^(L/2) is
    -1; each nonzero bucket m then adds its weight times its row, A[m]
    zeta_L^-k2 reduced mod Phi_L, into deg Phi_L integer numerators over
    2 q1 c, which `_cyc` reads as they are.  One `_term_table` lookup gives
    L, chi2's exponents and the rows.  Pairing j with c - j multiplies the
    summand by chi1*chi2(-1) = 1: only j < c/2 is walked.
    """
    q1, q2 = chi1.modulus, chi2.modulus
    N = q1 * q2
    if not gamma.in_gamma0(N):
        raise ValueError(f"{gamma} is not in Gamma0({N})")
    if chi1.order == 1:
        raise ValueError("the double sum is evaluated for non-principal chi1 only")
    # chi2(j) = zeta_L^e2[j], or None where chi2(j) = 0; summands take conjugates
    L, e2, table = _term_table(chi1, chi2)
    if gamma.c == 0:
        return CycElem.zero(L)
    a, c = (gamma.a, gamma.c) if gamma.c > 0 else (-gamma.a, -gamma.c)
    # integer numerators per power of zeta_L below deg Phi_L, over the common
    # denominator 2*q1*c: the half range doubles (2j - c)/(2c) * A[m]
    M = q1 * c
    qa = q1 * a % M  # floor(y) = (qa * j mod M) // c
    half, h = (c + 1) // 2, L // 2
    buckets = {}  # chi2 exponent mod L/2 -> the buckets of the j with that exponent
    for u in range(1, min(q2, half)):  # j = u + t q2 < c/2
        if (k2 := e2[u]) is not None:
            bucket = buckets.setdefault(k2 % h, [0] * q1)
            slope, shift = (2, -c) if k2 < h else (-2, c)  # zeta_L^(L/2) = -1
            for j in range(u, half, q2):
                bucket[qa * j % M // c] += slope * j + shift
    acc = [0] * (len(cyclotomic_polynomial(L)) - 1)
    for k2, bucket in buckets.items():
        rows = table[k2]
        for m, w in enumerate(bucket):
            if w:
                for i, x in rows[m]:
                    acc[i] += x * w
    return _cyc(L, 2 * q1 * c, acc)


@lru_cache(maxsize=16)  # the CLI and `verify` build one pair, cold-start two; a sweep of thousands keeps 16
def _term_table(chi1: DirichletCharacter, chi2: DirichletCharacter) -> tuple:
    """(L, e2, rows), everything `naive_sum` reads of a pair: its order L;
    chi2's exponents at L; and per exponent k2 < L/2 that chi2 takes up to
    a sign (one of k2 and k2 + L/2) and per bucket m < q1, the sparse row
    ((i, x), ...) of 2 q1 A[m] zeta_L^-k2 reduced mod Phi_L, its nonzero
    coefficients in order.  Each k < q1 with chi1(k - m) = zeta_L^e adds 2k
    times the row of zeta_L^-(e + k2), read sparse from the `_rotations` of
    1, so no L-long row is built or reduced.  A pair with chi1*chi2(-1) = -1
    is refused here, the one place that reads a pair's parity."""
    if _psi_odd(chi1, chi2):
        raise ValueError(f"chi1*chi2(-1) = -1 for the pair mod ({chi1.modulus}, {chi2.modulus}): "
                         "the generalized Dedekind sum is defined for chi1*chi2(-1) = 1 only")
    L = pair_order(chi1, chi2)
    e1, e2 = chi1.exponent_table(L), chi2.exponent_table(L)
    deg = len(cyclotomic_polynomial(L)) - 1
    powers = [[(i, x) for i, x in enumerate(row) if x] for row in _rotations(L, (1,) + (0,) * (deg - 1))]
    table = {}
    for k2 in {e % (L // 2) for e in e2 if e is not None}:
        rows = []
        for m in range(chi1.modulus):
            row = [0] * deg
            for k in range(1, chi1.modulus):
                if (e := e1[k - m]) is not None:  # k - m < 0 wraps to k - m mod q1
                    for i, y in powers[-(e + k2) % L]:
                        row[i] += 2 * k * y
            rows.append(tuple([(i, x) for i, x in enumerate(row) if x]))
        table[k2] = tuple(rows)
    return L, e2, table


@dataclass
class Context:
    """All precomputed tables for one character pair.

    Immutable once `precompute` or `load_context` has built it; `fast_sum`
    is pure, so one context can serve concurrent evaluations.  Its inputs
    are the pair `chi1`, `chi2`; `p1`, the transversal of Gamma0(N) over
    P^1(Z/N) with the T and S edges and orbit-base scalars its walk found;
    `sums_alphabet`, the sums s0 of the 2 mu generators U(r_k, T),
    U(r_k, S) of `alphabet` (built on each access), keyed (k, ("T", 1)),
    (k, ("S", 1)), as `_build` reads them; and `sums_g0`, lambda -> G(lambda),
    the sum of the member g_lambda of `t_g0` (Gamma1(N) in Gamma0(N), keyed
    by d mod N), 0 at I, one of which ends each walk; each double sum the
    build ran is one object in them.  `__post_init__` derives only what
    `fast_sum` reads, in integers over the common denominator `den`: `N`
    and `L`; `g_rows[lambda]`, the row of G(lambda), None off the units;
    the slot tables, the only lists of size N^2 it keeps; and `relations`,
    the count `_check_relations` read on their key rows and the first
    broken (key, name), or None.
    With F(k) the sum of the Gamma1 generator sums s_T along k's T-orbit
    up to k and Sigma the orbit total, the cocycle identity gives, for
    every integer a,

        S(U(t_k, T^a)) = F(k T^a) - F(k) + floor((pos(k) + a) / length) Sigma.

    Over a word the F terms cancel across each S letter into
    B(k) = F(k) + s_S[k] - F(kS), and vanish at both ends: the walk starts
    at key (0, 1) and ends at some (0, lambda), keys alone on their orbits.
    At the index i = c*N + d of a key k = (c, d), `reduce_word` reads
    `t_slot[i]` = (pos, length, total): k's position along its T-orbit
    (c, d + j c) mod N from the base key (c, d mod gcd(c, N)), the orbit's
    length N / gcd(c, N) and Sigma; and `s_slot[i]` = B(k).  Each is None
    where its row is zero or i is no key; every zero row is the tuple `zero`.
    `t_g0` and `t_sl2`, the Gamma1(N) transversals in Gamma0(N) and in
    SL2(Z) (N^2 members), are built on first access and then kept, for
    `--trace`, the benchmark's table comparison and the tests.  Nothing
    derived is passed in, so `dataclasses.replace(ctx, sums_alphabet=...)`
    evaluates the sums it holds, and replacing a derived field raises; a broken relation does not, and `_build` refuses
    it, then checks G.
    """

    chi1: DirichletCharacter
    chi2: DirichletCharacter
    p1: Transversal = field(compare=False)  # N, compared, fixes it
    sums_alphabet: dict
    sums_g0: dict
    N: int = field(init=False)
    L: int = field(init=False)
    g_rows: list = field(init=False, compare=False, repr=False)
    den: int = field(init=False, compare=False)
    zero: tuple = field(init=False, compare=False, repr=False)
    t_slot: list = field(init=False, compare=False, repr=False)
    s_slot: list = field(init=False, compare=False, repr=False)
    relations: tuple = field(init=False, compare=False, repr=False)

    @property
    def alphabet(self) -> dict:
        return schreier_alphabet(self.N, self.p1)

    @cached_property
    def t_g0(self) -> Transversal:
        return transversal_g1_in_g0(self.N)

    @cached_property
    def t_sl2(self) -> Transversal:
        return transversal_g1_in_sl2(self.N, self.p1)

    def __post_init__(self):
        chi1, chi2, p1 = self.chi1, self.chi2, self.p1
        self.N = N = chi1.modulus * chi2.modulus
        if p1.kind != "p1" or p1.N != N:
            raise ValueError(f"the generator sums need a transversal over P^1(Z/{N})")
        self.L = L = pair_order(chi1, chi2)
        self.zero = zero = (0,) * (len(cyclotomic_polynomial(L)) - 1)
        twist = _twists(chi1, chi2)
        if self.sums_g0.keys() != twist.keys():
            raise ValueError(f"G needs one sum per unit mod {N}")
        self.den, rows = _rows({**self.sums_alphabet, **self.sums_g0})
        self.g_rows = [rows[lam] if lam in twist else None for lam in range(N)]
        t_rows, s_rows = _key_rows(L, p1, rows, twist, zero)
        self.relations = _check_relations(p1, t_rows, s_rows)
        self.t_slot, self.s_slot = _slot_tables(N, p1.bases, t_rows, s_rows, self.g_rows, zero)


def _validate_pair(chi1, chi2, allow_large: bool):
    """The one check of a pair: each character primitive with conductor
    > 1, then the level (`_check_level`), then chi1*chi2(-1) = 1, which
    `_term_table` checks as it builds the table `naive_sum` reads."""
    for name, chi in (("chi1", chi1), ("chi2", chi2)):
        if not chi.is_primitive():
            raise ValueError(f"{name} (mod {chi.modulus}) is not primitive")
        if chi.conductor() <= 1:
            raise ValueError(f"{name} must have conductor > 1")
    _check_level(chi1.modulus, chi2.modulus, allow_large)
    _term_table(chi1, chi2)


def _check_level(q1: int, q2: int, allow_large: bool, lift: str = "allow_large=True"):
    """The one level check, on the moduli alone: N = q1 q2 above the
    guardrail without allow_large is refused, naming `lift`, the caller's
    way to lift it (`--allow-large-n` in the CLI)."""
    if q1 * q2 > DEFAULT_LEVEL_LIMIT and not allow_large:
        raise ValueError(
            f"level N = {_short(q1)} * {_short(q2)} = {_short(q1 * q2)} exceeds the guardrail "
            f"{DEFAULT_LEVEL_LIMIT}; pass {lift} to lift it"
        )


def _read_pair(texts, allow_large: bool, lift: str = "allow_large=True", at_level=None):
    """The pair two specs name, read one way for `load_context` and the
    CLI: both are parsed and the level checked, then handed to `at_level`,
    before any character is built; an unmatched spec is named as written."""
    (q1, _), (q2, _) = fields = [parse_spec_fields(t) for t in texts]
    _check_level(q1, q2, allow_large, lift)
    if at_level:
        at_level(q1 * q2)
    return tuple(_find_character(q, g, _clip(t)) for t, (q, g) in zip(texts, fields))


def precompute(
    chi1: DirichletCharacter, chi2: DirichletCharacter, *, allow_large: bool = False
) -> Context:
    """The context of a pair, built by `_build` (whose counts it drops).
    Levels above DEFAULT_LEVEL_LIMIT need allow_large, and a pair with
    chi1*chi2(-1) = -1 is refused."""
    return _build(chi1, chi2, allow_large)[0]


def _build(chi1, chi2, allow_large: bool) -> tuple[Context, int]:
    """The context of a pair and the number of double sums it ran, built
    one way for `precompute`, `load_context` and the CLI.

    After `_validate_pair`, which refuses a pair with chi1*chi2(-1) = -1,
    every sum the context stores comes from one memo keyed by the double
    sum's input (a mod c, c), c >= 1, read as ((-a) mod (-c), -c) when
    c <= -1, which runs the double sum once per input, so its size is the
    count; a shear (c = 0) is the one shared zero.  Through it
    come G at each member g_lambda of the Gamma0 transversal (at I, a
    shear, 0), whose input is (1/lambda mod N, N), and the sums of the
    2 mu Gamma0(N) generators U(r_k, T), U(r_k, S), whose inputs with
    c = +-N are G's: 28 double sums at N = 35.  No input is read off
    another, so a wrong double sum sits at its own input alone.  The
    Context's first broken relation (of 72 at N = 35) is refused, so no sum
    is made to meet one; then `fast_sum` at each member but I is checked
    against G, on the one Gamma0 transversal the build makes.  One DEBUG
    line on `gdsum.dedekind` gives the counts and the seconds per phase,
    timed only when logged, as
    `record.oracle_calls`/`record.phases`."""
    _validate_pair(chi1, chi2, allow_large)
    N, L = chi1.modulus * chi2.modulus, pair_order(chi1, chi2)
    laps = [time.perf_counter()] if log.isEnabledFor(logging.DEBUG) else None
    p1 = transversal_g0_in_sl2(N)
    gens = schreier_alphabet(N, p1)
    zero, known = CycElem.zero(L), {}  # input (a mod c, c), c >= 1 -> its double sum

    def sum_of(m):
        if m.c == 0:
            return zero
        key = (m.a % m.c, m.c) if m.c > 0 else (-m.a % -m.c, -m.c)
        if (value := known.get(key)) is None:
            # looked up at call time for a test's replacement; c >= 1, as perfbench sums it
            value = known[key] = naive_sum(chi1, chi2, m if m.c > 0 else -m)
        return value

    members = transversal_g1_in_g0(N).members.items()
    g = {lam: sum_of(m) for lam, m in members}
    sums = {v: sum_of(m) for v, m in gens.items()}
    _lap(laps)
    ctx = Context(chi1, chi2, p1, sums, g)
    if broken := ctx.relations[1]:
        raise ValueError("U(r, T) and U(r, S) sums over P^1 at key %s break %s" % broken)
    _lap(laps)
    if bad := next((d for d, m in members if m != I2 and _numerators(ctx, m) != [*ctx.g_rows[d]]), None):
        raise ValueError(f"the Gamma0 transversal sum at d = {bad} breaks the cocycle identity")
    if laps:
        _lap(laps)
        phases = tuple(map(sub, laps[1:], laps))
        log.debug(
            "precompute N=%d: %d points of P^1, %d keys, %d oracle calls; %d relations checked; "
            "sums %.4f s, context %.4f s, G check %.4f s",
            N, len(p1), sl2_coset_count(N), len(known), ctx.relations[0], *phases,
            extra={"oracle_calls": len(known), "phases": phases},
        )
    return ctx, len(known)


def _lap(laps):
    if laps is not None:
        laps.append(time.perf_counter())


def _key_rows(L: int, p1: Transversal, rows: dict, twist: dict, zero: tuple):
    """The rows psi(lambda) s0[k, x] that a letter x = T, S adds at each key
    lambda k, in lists indexed by c*N + d (`zero` for none), read from the L
    `_rotations` of each nonzero row s0[k, x]."""
    N = p1.N
    t_rows, s_rows = [zero] * N * N, [zero] * N * N
    for c, d in p1.members:
        for x, out in (("T", t_rows), ("S", s_rows)):
            if any(row := rows[(c, d), (x, 1)]):
                turns = _rotations(L, row)
                for u, e in twist.items():
                    out[u * c % N * N + u * d % N] = turns[e]
    return t_rows, s_rows


def _check_relations(p1: Transversal, t: list, s: list) -> tuple:
    """(the number of relations checked, the first broken (key, name) or
    None) on the key rows t and s of `_key_rows`.  A group relation read
    from the member r_k walks the keys from k, T taking (c, d) to
    (c, d + c) and S to (d, -c) mod N; each letter adds its row at the key
    it leaves, psi of the word before it inside.  Per point k (pair k, kS):
      S^2 = -I:      s[k] + s[kS] = S(-I) = 0
      (ST)^3 = S^2:  t[k] + s[kT] + t[kTS] + s[kTST] + t[kTSTS] = s[k]
    """
    N, checked, broken = p1.N, 0, None

    def at(c, d):  # the index of the key (c, d) mod N
        return c % N * N + d % N

    for k in p1.members:
        c, d = k
        word = t[at(c, d)], s[at(c, c + d)], t[at(c + d, -c)], s[at(c + d, d)], t[at(d, -c - d)]
        relations = [("(ST)^3 = S^2", map(sub, map(sum, zip(*word)), s[at(c, d)]))]
        if k <= p1.edges[k, ("S", 1)][0]:  # k and kS share one identity
            relations.insert(0, ("S^2 = -I", map(add, s[at(c, d)], s[at(d, -c)])))
        checked += len(relations)
        broken = broken or next(((k, name) for name, row in relations if any(row)), None)
    return checked, broken


def _slot_tables(N: int, bases: dict, t_rows: list, s_rows: list, g_rows: list, zero: tuple):
    """`t_slot` and `s_slot`, in two passes over the keys c*N + d: at each
    key, (pos, length, total) and the S-step row B(k), None for a zero
    total or row.  At the key lambda k the Gamma1 generator sum is
    psi(lambda) s0[k, x] + G(lambda) - G(lambda u), lambda u the scalar of
    the key after x, so along each T-orbit (c, d0 + j c) F(k) + G(lambda)
    is G at the base plus the T key rows before k, the total their sum, and
    B(k) = F(k) + G(lambda) - F(kS) - G(lambda u) + the S key row, each
    difference computed once."""
    label, f_of, orbits = {}, [None] * N * N, []  # value of F + G -> its number; each key's number
    for (c, d0), lam in bases.items():  # the orbit bases, each lambda k
        f = base = g_rows[lam]
        a, d, length = label.setdefault(f, len(label)), d0, N // gcd(c, N)
        for _ in range(length):
            f_of[c * N + d] = a
            if (row := t_rows[c * N + d]) is not zero:
                f = tuple(map(add, f, row))
                a = label.setdefault(f, len(label))
            d = (d + c) % N
        total = tuple(map(sub, f, base))
        orbits.append((c, d0, length, total if any(total) else zero))
    sums, n, diffs = list(label), len(label), {}  # a * n + b -> sums[a] - sums[b]
    t_slot, s_slot = [None] * N * N, [None] * N * N
    for c, d0, length, total in orbits:
        d, back = d0, -c % N
        for pos in range(length):
            i = c * N + d
            a, b, row = f_of[i], f_of[d * N + back], s_rows[i]  # kS = (d, -c)
            if a != b:
                if (diff := diffs.get(a * n + b)) is None:
                    diff = tuple(map(sub, sums[a], sums[b]))
                    diff = diffs[a * n + b] = diff if any(diff) else zero
                if row is zero:
                    row = diff
                elif diff is not zero and not any(row := tuple(map(add, diff, row))):
                    row = zero
            if row is not zero:
                s_slot[i] = row
            if total is not zero:
                t_slot[i] = (pos, length, total)
            d = (d + c) % N
    return t_slot, s_slot


def split_gamma0(ctx: Context, gamma: Mat2) -> int:
    """d mod N, the key of gamma's coset of Gamma1(N) in Gamma0(N); raises
    ValueError off Gamma0(N)."""
    if not gamma.in_gamma0(ctx.N):
        raise ValueError(f"{gamma} is not in Gamma0({ctx.N})")
    return gamma.d % ctx.N


def fast_sum(ctx: Context, gamma: Mat2) -> CycElem:
    """S(gamma) from the precomputed tables; O(log|c|) work.

    `modified_rewrite` walks the slot keys of gamma's word from (0, 1) to
    (0, lambda), lambda = d mod N, or -d mod N when the word is negated.
    The unsigned word is then its U-factors times g_lambda, and
    S(-W) = psi(-1) S(W) = S(W), as psi(-1) = 1, so S(gamma)
    is the sum of the U-factors plus G(lambda).
    `reduce_word` turns the keys into rows: the S-step row at each S slot
    and a multiple of the orbit total at each T slot that wraps around its
    T-orbit, none for a zero row.  They and G's integer row
    `ctx.g_rows[lambda]` are summed column by column into numerators over
    `ctx.den` (`_numerators`), which `exactnum._cyc` turns into the value.
    `ts_decompose` checks the word's exact product, so no matrix is rebuilt.
    """
    return _cyc(ctx.L, ctx.den, _numerators(ctx, gamma))


def _numerators(ctx: Context, gamma: Mat2) -> list:
    """The integer row of S(gamma) over ctx.den, as `fast_sum` reads it."""
    d = split_gamma0(ctx, gamma)
    word = ts_decompose(gamma)
    rows = reduce_word(word, modified_rewrite(word, ctx.p1), ctx)
    g = ctx.g_rows[-d % ctx.N if word.negate else d]
    return [*map(sum, zip(g, *rows))]


# ---------------------------------------------------------------------------
# cache serialization: the pair's two specs only

def context_to_json(ctx: Context) -> dict:
    """The cache document: each character's spec, its values at the
    `unit_group_gens` generators, and nothing a load would recompute."""
    chi1, chi2 = (
        _spec_text(chi.modulus, [(g, Fraction(chi.exponent(g), chi.order)) for g, _ in unit_group_gens(chi.modulus)])
        for chi in (ctx.chi1, ctx.chi2)
    )
    return {"version": CACHE_VERSION, "chi1": chi1, "chi2": chi2}


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


def load_context(path, *, allow_large: bool = False) -> Context:
    """Load a cached context: after the version, read the two stored specs
    as the CLI reads --chi1 and --chi2 (`_read_pair`), so the level passes
    the guardrail (unless allow_large) before any character is built; then
    build the pair's context as `precompute` does (`_build`, so a pair
    with chi1*chi2(-1) = -1 is refused), and require each
    top-level field of its `context_to_json` to serialize as the file's
    does, none missing or extra, or a ValueError names the first
    that differs.  A malformed file raises ValueError too."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        if data.get("version") != CACHE_VERSION:
            raise ValueError(f"cache version {data.get('version')!r} is not {CACHE_VERSION}; {_REBUILD}")
        texts = data["chi1"], data["chi2"]
    except (LookupError, AttributeError) as exc:
        raise ValueError(f"malformed cache {path}: {type(exc).__name__}: {exc}") from exc
    ctx, _ = _build(*_read_pair(texts, allow_large), allow_large)
    rebuilt = context_to_json(ctx)
    for name in {**rebuilt, **data}:
        if name not in data or name not in rebuilt or json.dumps(data[name]) != json.dumps(rebuilt[name]):
            raise ValueError(f"cache {path}: its field {name!r} is not what the stored pair gives; {_REBUILD}")
    return ctx
