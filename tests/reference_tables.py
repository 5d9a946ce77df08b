"""Reference constructions the library does not use, kept for comparison.

`lift_transversal` picks each key's member by lifting (c, d) to integers
and completing the top row by extended gcd: a valid transversal that is
not a Schreier transversal, so the sums must not depend on the choice.
`lift_p1_transversal` does the same for each point of P^1(Z/N), keeping
the library's class keys, edges and orbit bases.  `p1_classes` maps every
key (c, d) of a P^1 transversal to its class key k and the scalar lambda
with (c, d) = lambda k, rebuilt from the members times the units: the
library keeps no such map.  `gamma1_relations` lists the relations among
the U(t, T) and U(t, S) sums that the derived ones must obey.
`all_oracle_context` evaluates every Gamma0 generator sum U(r, T), U(r, S)
and every Gamma0 transversal sum with the double sum, once per matrix,
and `oracle_gamma1` every Gamma0 transversal sum and every Gamma1 generator
sum U(t, T), U(t, S), whose running sums a context's rows are.  `gamma1_rows` derives those
Gamma1 sums from the Gamma0 ones, as integer rows, by the formula the
context's rows telescope, and `gamma1_sums` gives them as CycElems.
`twisted_sum` turns rows by powers of zeta_L in CycElem arithmetic, for
`gamma1_rows` and the tests' twisted walk, apart from the key rows the
library turns and checks the group relations on.
`full_alphabet` builds every U(t, T^i) and U(t, S^k) matrix, and
`alphabet_sum` rebuilds their sums from the derived generator sums in
CycElem arithmetic, apart from the integer rows the context derives
from them.  `reduce_word` maps rewrite factors onto that alphabet, each T^a as q * T^N + T^r, so a word's sum can be added up
without the potential table; `derived_rows` pairs every row of the
context's potential table with its value from `alphabet_sum`.
`factor_rewrite` and `factor_terms` are the evaluator's rewrite and
reduction in their factor form: a `RewriteFactor` per letter, and a `Term`
per row, read from the keyed `potential` table, with its multiplicity;
`slot_factors` spells `modified_rewrite`'s slot keys in that form.
`unsigned_product` is a word's product without its sign, the matrix its
factors times the transversal member at the walk's end key multiply to.
`strip_letters` is the Euclidean decomposition on the whole matrix, which
carries b and d through every step and reads the last exponent and the
sign off the +-T^b it ends at; `ts_decompose`, which runs Euclid on the
first column alone, must give the same words.  `floor_word` is the
floor-quotient word within a letter cap, a second word the rewrite must
walk as it walks the nearest one.

The coset maps the evaluator never calls live here too: `key_of` and `bar`
read a matrix's coset off a transversal, `u_func` builds any
U(x, y) = x y (coset rep of x y)^-1, `in_gamma1` and `random_sl2` test and
draw matrices, and `gamma1_alphabet` builds the Schreier generators of the
Gamma1(N) transversal.  `orbit` gives a key's position and length along its
T-orbit from the key alone, `potential` reads every key's two slot entries
off a context's slot tables, and `derived_mismatches` checks each S-step row and
orbit total there against the double sum on the matrix it is the sum of.

Helpers only the tests call: `t_power` and `mul_t_power` build T^n and
m T^n, `conj` conjugates an element of Q(zeta_L), and `embed` rewrites
one at a multiple of its order.  `crossed_hom_check` tests the double
sum's twisted additivity S(g h) = S(g) + psi(g) S(h), which reads no table.
"""

import dataclasses
import functools
import math
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import NamedTuple

from gdsum import characters, dedekind, exactnum
from gdsum.cosets import Transversal, schreier_alphabet, transversal_g0_in_sl2, transversal_g1_in_g0
from gdsum.exactnum import CycElem, root_of_unity
from gdsum.modgroup import I2, Mat2, S, T, TSWord, ts_decompose, ts_reconstruct


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with a*x + b*y = g
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def lift_transversal(N: int, lift: str = "least_abs") -> Transversal:
    """One representative per key (c mod N, d mod N) with gcd(c, d, N) = 1.

    Lift: c' = c (or N when c = 0); scan d' = d, d+N, ... until coprime to
    c'; complete the top row by extended gcd.  "least_abs" picks the top-left
    entry of smallest absolute value (ties positive), "least_pos" the smallest
    positive one.
    """
    if lift not in ("least_abs", "least_pos"):
        raise ValueError(f"unknown lift style {lift!r}")
    members = {}
    id_key = (0, 1 % N)
    for cm in range(N):
        for dm in range(N):
            if gcd(gcd(cm, dm), N) != 1:
                continue
            if (cm, dm) == id_key:
                members[(cm, dm)] = I2
                continue
            cp = cm if cm != 0 else N
            dp = dm
            while gcd(cp, dp) != 1:
                dp += N
            _, x, _ = _egcd(dp, cp)  # x*dp = 1 mod cp
            r = x % cp
            if lift == "least_abs":
                a = r if r <= cp - r else r - cp
            else:
                a = r if r > 0 else cp
            b = (a * dp - 1) // cp
            members[(cm, dm)] = Mat2(a, b, cp, dp)
    return Transversal(N, "sl2", members)


def lift_p1_transversal(N: int, lift: str = "least_abs") -> Transversal:
    """`transversal_g0_in_sl2(N)` with each point's member replaced by a
    lift of its class key (c, d): the bottom row c' = c or c - N (N when
    c = 0) and d' = d + j N, coprime, of least max(|c'|, |d'|), and the top
    row by extended gcd as `lift_transversal` picks it.  The same keys,
    and so the same edges and orbit bases, small entries, and a
    transversal that is not a Schreier transversal."""
    if lift not in ("least_abs", "least_pos"):
        raise ValueError(f"unknown lift style {lift!r}")
    p1 = transversal_g0_in_sl2(N)
    members = {}
    for c, d in p1.members:
        if (c, d) == (0, 1 % N):
            members[c, d] = I2
            continue
        _, cp, dp = min(
            (max(abs(cp), abs(dp)), cp, dp)
            for cp in ((c, c - N) if c else (N,))
            for dp in range(d - 3 * N, d + 3 * N + 1, N)
            if gcd(cp, dp) == 1
        )
        _, x, _ = _egcd(dp, abs(cp))  # x*dp = 1 mod |cp|
        r = x % abs(cp)
        if lift == "least_abs":
            a = r if r <= abs(cp) - r else r - abs(cp)
        else:
            a = r if r > 0 else abs(cp)
        members[c, d] = Mat2(a, (a * dp - 1) // cp, cp, dp)
    return Transversal(N, "p1", members, p1.edges, p1.bases)


@functools.cache
def p1_classes(p1: Transversal) -> dict:
    """Every key (c, d) with gcd(c, d, N) = 1 -> (k, lambda), its class key
    in the P^1 transversal p1 and the unit with (c, d) = lambda k mod N, in
    the order of p1's members, then of the units."""
    N = p1.N
    units = [u for u in range(N) if gcd(u, N) == 1]
    return {(u * c % N, u * d % N): ((c, d), u) for c, d in p1.members for u in units}


def all_oracle_context(chi1, chi2, p1: Transversal):
    """The context over the P^1 transversal p1 with every U(r, T) and
    U(r, S) sum, two double sums per point, and every G(d) evaluated by
    `dedekind.naive_sum` (looked up at call time, so a test's
    replacement oracle applies)."""
    oracle = dedekind.naive_sum
    sums = {entry: oracle(chi1, chi2, m) for entry, m in schreier_alphabet(p1.N, p1).items()}
    return dedekind.Context(chi1, chi2, p1, sums, oracle_g0(chi1, chi2))


def oracle_g0(chi1, chi2) -> dict:
    """G(d) by `dedekind.naive_sum` (looked up at call time) at each
    member g_d of the Gamma0 transversal, keyed by d, and 0 at I."""
    zero = CycElem.zero(characters.pair_order(chi1, chi2))
    members = transversal_g1_in_g0(chi1.modulus * chi2.modulus).members
    return {d: zero if m == I2 else dedekind.naive_sum(chi1, chi2, m) for d, m in members.items()}


def oracle_gamma1(ctx) -> tuple[dict, dict]:
    """What ctx derives, by `dedekind.naive_sum` instead (looked up at
    call time): the sums of its Gamma0 transversal members, keyed by d, and
    of the Schreier generators U(t, T), U(t, S) of its Gamma1 transversal,
    keyed like `gamma1_alphabet(N, ctx.t_sl2)`, two double sums per key."""
    oracle = dedekind.naive_sum
    alphabet = gamma1_alphabet(ctx.N, ctx.t_sl2)
    return oracle_g0(ctx.chi1, ctx.chi2), {entry: oracle(ctx.chi1, ctx.chi2, m) for entry, m in alphabet.items()}


def crossed_hom_check(chi1, chi2, ga: Mat2, gb: Mat2) -> bool:
    """Whether S(ga gb) = S(ga) + psi(ga) S(gb) under `naive_sum`, for any
    ga, gb in Gamma0(N)."""
    lhs = dedekind.naive_sum(chi1, chi2, ga * gb)
    rhs = dedekind.naive_sum(chi1, chi2, ga) + characters.psi(chi1, chi2, ga) * dedekind.naive_sum(chi1, chi2, gb)
    return lhs == rhs


def gamma1_rows(ctx) -> tuple[int, dict]:
    """The common denominator and the integer rows over it of the U(t, T)
    and U(t, S) sums over ctx.t_sl2, keyed like
    `gamma1_alphabet(N, ctx.t_sl2)`, by the derivation formula
    s1[lambda k, x] = psi(lambda) s0[k, x] + G(lambda) - G(lambda u), with
    u the scalar of k x over P^1, from the context's Gamma0 generator sums
    and its G rows `ctx.g_rows`.  The context itself keeps no such row: its
    slot tables add them up along each T-orbit."""
    N, L, classes = ctx.N, ctx.L, p1_classes(ctx.p1)
    twist = characters._twists(ctx.chi1, ctx.chi2)
    den, rows = exactnum._rows(ctx.sums_alphabet)
    g_rows = ctx.g_rows
    out = {}
    for key, ((c, d), lam) in classes.items():
        for x, kx in (("T", (c, (d + c) % N)), ("S", (d, -c % N))):
            turned = twisted_sum(L, rows, [(((c, d), (x, 1)), twist[lam])])
            moved = g_rows[lam * classes[kx][1] % N]
            out[key, (x, 1)] = tuple(p + q - r for p, q, r in zip(turned, g_rows[lam], moved))
    return den, out


def twisted_sum(L: int, rows: dict, terms) -> tuple:
    """The integer row of the sum of zeta_L^e rows[v] over the terms
    (v, e), each distinct term turned once, in CycElem arithmetic:
    `root_of_unity(L, e) * CycElem(L, row)`, apart from the rows the
    library turns with `exactnum._rotations`."""
    total = CycElem.zero(L)
    for (v, e), n in Counter((v, e % L) for v, e in terms).items():
        total += n * (root_of_unity(L, e) * CycElem(L, rows[v]))
    return tuple(x.numerator for x in total.coeffs)


def gamma1_sums(ctx) -> dict:
    """The rows of `gamma1_rows` as CycElems.  Memoized on the context."""
    memo = vars(ctx)
    if "_gamma1_sums" not in memo:
        den, rows = gamma1_rows(ctx)
        memo["_gamma1_sums"] = {v: CycElem(ctx.L, [Fraction(n, den) for n in row]) for v, row in rows.items()}
    return memo["_gamma1_sums"]


def gamma1_relations(N: int, keys):
    """The group relations S^4 = I and (ST)^3 = S^2 read from each coset
    key of Gamma1(N), where psi is trivial, as (name, key, lhs, rhs): the
    generator entries (key', (gen, 1)) whose sums add up to equal totals,
    one S^4 identity per cycle k, kS, kS^2, kS^3 of keys."""

    def mul_s(k):
        return k[1], -k[0] % N

    def mul_t(k):
        return k[0], (k[1] + k[0]) % N

    t1, s1 = ("T", 1), ("S", 1)
    for k in keys:
        cycle = [k, mul_s(k), mul_s(mul_s(k)), mul_s(mul_s(mul_s(k)))]
        if k == min(cycle):
            yield "S^4 = I", k, [(j, s1) for j in cycle], []
        k_t = mul_t(k)
        k_ts = mul_s(k_t)
        k_tst = mul_t(k_ts)
        lhs = [(k, t1), (k_t, s1), (k_ts, t1), (k_tst, s1), (mul_s(k_tst), t1)]
        yield "(ST)^3 = S^2", k, lhs, [(k, s1)]


def full_alphabet(N: int, t: Transversal) -> dict:
    """All U(member, T^i) for 1 <= i <= N and U(member, S^k) for 0 <= k <= 2,
    keyed by (coset key, generator): (N+3) * len(t) matrices in Gamma1(N)."""
    members = t.members

    def u_entry(a, b, c, d):
        # (a b; c d) times the inverse (rd, -rb; -rc, ra) of its coset rep
        r = members[c % N, d % N]
        return Mat2(a * r.d - b * r.c, b * r.a - a * r.b, c * r.d - d * r.c, d * r.a - c * r.b)

    out = {}
    for key, mem in members.items():
        a, b, c, d = mem.entries()
        for i in range(1, N + 1):
            b += a  # times T
            d += c
            out[(key, ("T", i))] = u_entry(a, b, c, d)
        a, b, c, d = mem.entries()
        for k in range(0, 3):
            out[(key, ("S", k))] = u_entry(a, b, c, d)
            a, b, c, d = b, -a, d, -c  # times S
    return out


def alphabet_sum(ctx, key, gen) -> CycElem:
    """The sum of U(t, T^i) or U(t, S^k) at coset key `key`, from the
    derived generator sums `gamma1_sums(ctx)` through the cocycle identity
    U(t, g^i) = U(t, g^(i-1)) U(rep(t g^(i-1)), g), added as CycElems.

    Memoized on the context, so a sweep over every entry costs one CycElem
    add per entry.
    """
    memo = vars(ctx).setdefault("_reference_sums", {})
    if (key, gen) not in memo:
        name, i = gen
        if i == 0:
            value = CycElem.zero(ctx.L)
        else:
            c, d = key  # becomes the key of t g^(i-1)
            if name == "T":
                d = (d + (i - 1) * c) % ctx.N
            else:
                for _ in range(i - 1):
                    c, d = d, -c % ctx.N
            value = alphabet_sum(ctx, key, (name, i - 1)) + gamma1_sums(ctx)[(c, d), (name, 1)]
        memo[key, gen] = value
    return memo[key, gen]


def as_cyc(ctx, row) -> CycElem:
    """An integer row of the context as a CycElem."""
    return CycElem(ctx.L, [Fraction(n, ctx.den) for n in row])


def orbit_f(ctx, key) -> CycElem:
    """F(key): the sum of U(base, T^j) by `alphabet_sum`, where the walk
    base T^j from the base key (c, d mod gcd(c, N)) of key's T-orbit
    reaches key, found by walking rather than read from the context."""
    (c, d), N = key, ctx.N
    g = gcd(c, N)
    j = next(j for j in range(N // g) if (d % g + j * c) % N == d)
    return alphabet_sum(ctx, (c, d % g), ("T", j))


def derived_rows(ctx):
    """(kind, key, the context's row as a CycElem, its value from
    `alphabet_sum`) for every S-step row and orbit total."""
    N = ctx.N
    for (c, d), ((pos, length, total), step) in potential(ctx).items():
        expect = orbit_f(ctx, (c, d)) + gamma1_sums(ctx)[(c, d), ("S", 1)]
        expect = expect - orbit_f(ctx, (d, -c % N))
        yield "S", (c, d), as_cyc(ctx, step), expect
        if pos == 0:
            yield "T", (c, d), as_cyc(ctx, total), alphabet_sum(ctx, (c, d), ("T", length))


class RewriteFactor(NamedTuple):
    """U(member at base_key, gen^exponent); gen "T" or "S"."""

    base_key: tuple[int, int]
    gen: str
    exponent: int


class Term(NamedTuple):
    """One row of a word's sum in factor form, of kind "S" (the S-step row
    of key) or "T" (the orbit total of key's T-orbit, `multiplicity` times
    as often as the T-power wraps around it)."""

    key: tuple[int, int]
    kind: str
    multiplicity: int
    row: tuple[int, ...]


class ReducedFactor(NamedTuple):
    """multiplicity * U(member at base_key, g) with g indexing the full alphabet."""

    base_key: tuple[int, int]
    gen: tuple[str, int]
    multiplicity: int


def reduce_t_power(a: int, N: int) -> tuple[int, int]:
    """a = q*N + r with 0 <= r < N (floor division, any sign of a)."""
    return a // N, a % N


def reduce_word(factors, N: int) -> list[ReducedFactor]:
    """Map rewrite factors onto full-alphabet entries, preserving the product.

    T-exponents split as q * (T^N entry) + (T^r entry), dropping q = 0 and
    r = 0 parts; S stays S^1.
    """
    out = []
    for base_key, gen, exponent in factors:
        if gen == "T":
            q, r = reduce_t_power(exponent, N)
            if q != 0:
                out.append(ReducedFactor(base_key, ("T", N), q))
            if r != 0:
                out.append(ReducedFactor(base_key, ("T", r), 1))
        elif gen == "S":
            out.append(ReducedFactor(base_key, ("S", 1), 1))
        else:
            raise ValueError(f"unknown factor generator {gen!r}")
    return out


def expand_factor(f, t: Transversal) -> Mat2:
    """The exact U-matrix a rewrite factor stands for."""
    base = t.members[f.base_key]
    if f.gen == "T":
        return u_func(base, t_power(f.exponent), t)
    return u_func(base, S, t)


def factor_rewrite(w, t: Transversal, product=None) -> list:
    """Exponent-collecting rewriting of a TS word with product in Gamma0(N)
    as factors: one per nonzero T-power and one per S.  Raises ValueError
    like `modified_rewrite`."""
    g = ts_reconstruct(w)
    if product is not None and g != product:
        raise ValueError(f"word product {g} is not {product}")
    N = t.N
    if not g.in_gamma0(N):
        raise ValueError(f"word product {g} is not in Gamma0({N})")
    factors = []
    c, d = 0, 1 % N  # key of the prefix before the next letter
    for a in w.exponents:
        if a:
            factors.append(RewriteFactor((c, d), "T", a))
            d = (d + a * c) % N
        factors.append(RewriteFactor((c, d), "S", 1))
        c, d = d, -c % N
    factors.pop()  # the word ends in T^ar: no S after it
    return factors


def slot_factors(w, keys: list[int], N: int) -> list[RewriteFactor]:
    """`factor_rewrite`'s form of the factors `modified_rewrite`'s slot keys stand for."""
    gens = [g for a in w.exponents for g in (("T", a), ("S", 1))]  # zip drops the last S
    return [RewriteFactor(divmod(k, N), *g) for k, g in zip(keys, gens) if g[1]]


def factor_terms(factors, ctx) -> list:
    """The `Term`s (key, kind, multiplicity, row) of the factors, read from
    `potential(ctx)`: multiplicity times row adds up to the sum of the
    factors' product, and a zero row gives no term."""
    out, rows = [], potential(ctx)
    for key, gen, exponent in factors:
        (pos, length, total), step = rows[key]
        if gen == "S":
            if step is not ctx.zero:
                out.append(Term(key, "S", 1, step))
        elif gen == "T":
            if total is not ctx.zero and (w := (pos + exponent) // length):
                out.append(Term(key, "T", w, total))
        else:
            raise ValueError(f"unknown factor generator {gen!r}")
    return out


def unsigned_product(w) -> Mat2:
    """T^a1 S T^a2 ... T^ar, the word's product without its sign: its
    bottom row mod N is the walk's end key (0, +-d)."""
    return ts_reconstruct(dataclasses.replace(w, negate=False))


def strip_letters(m: Mat2, nearest: bool, cap: int | None):
    """The T/S word of m from Euclid on all four entries, or None when more
    than `cap` letters would be stripped.  Each step strips T^q S from the
    left, leaving S^-1 T^-q (a b; c d), until the tail is +-T^b; r has the
    sign of c, and a nearest q rounds up past c/2."""
    a, b, c, d = m.entries()
    exps = []
    for _ in repeat(None) if cap is None else range(cap):
        if not c:
            break
        q, r = divmod(a, c)
        if nearest and ((r + r > c) if c > 0 else (r + r < c)):
            q += 1
            r -= c
        exps.append(q)
        a, b, c, d = c, d, -r, q * d - b
    if c:
        return None  # the cap ran out
    if a == 1:
        exps.append(b)
        return TSWord(False, tuple(exps))
    exps.append(-b)
    return TSWord(True, tuple(exps))


def floor_word(m: Mat2) -> TSWord:
    """m's floor-quotient word, or its nearest word when the floor one would
    pass 4 ln(|c| + 2) + 4 letters: near ratio 1, floor chains descend
    arithmetically."""
    cap = int(4 * math.log(abs(m.c) + 2)) + 4
    return strip_letters(m, nearest=False, cap=cap) or ts_decompose(m)


def key_of(t: Transversal, m: Mat2):
    """The key of m's right coset in t: d mod N for kind "gamma0" (ValueError
    off Gamma0(N)), else (c mod N, d mod N), or its class key over P^1."""
    N = t.N
    if t.kind == "gamma0":
        if m.c % N:
            raise ValueError(f"{m} is not in Gamma0({N})")
        return m.d % N
    key = (m.c % N, m.d % N)
    return p1_classes(t)[key][0] if t.kind == "p1" else key


def bar(t: Transversal, m: Mat2) -> Mat2:
    """The member of t sharing m's right coset."""
    return t.members[key_of(t, m)]


def u_func(x: Mat2, y: Mat2, t: Transversal) -> Mat2:
    """U(x, y) = x y (coset rep of x y)^-1, in the subgroup t is a transversal of."""
    m = x * y
    return m * bar(t, m).inv()


def in_gamma1(m: Mat2, N: int) -> bool:
    return m.c % N == 0 and m.a % N == 1 % N and m.d % N == 1 % N


def random_sl2(rng, max_len: int = 30) -> Mat2:
    """Random product of S, T, T^-1 letters."""
    m = I2
    for _ in range(rng.randint(1, max_len)):
        m = m * rng.choice((S, T, Mat2(1, -1, 0, 1)))
    return m


def t_power(n: int) -> Mat2:
    """T^n = (1 n; 0 1)."""
    return Mat2(1, n, 0, 1)


def mul_t_power(m: Mat2, n: int) -> Mat2:
    """m * T^n, without building the power."""
    return Mat2(m.a, m.a * n + m.b, m.c, m.c * n + m.d)


def conj(x: CycElem) -> CycElem:
    """Complex conjugation: zeta_L -> zeta_L^(L-1)."""
    L = x.order
    raw = [Fraction(0)] * L
    for k, c in enumerate(x.coeffs):
        raw[(L - k) % L] += c
    return CycElem(L, raw)


def embed(x: CycElem, M: int) -> CycElem:
    """x rewritten at order M (zeta_L = zeta_M^(M/L)); L must divide M."""
    L = x.order
    if M % L != 0:
        raise ValueError(f"cannot embed order {L} into order {M}")
    raw = [Fraction(0)] * M
    for k, c in enumerate(x.coeffs):
        raw[k * (M // L) % M] += c
    return CycElem(M, raw)


def gamma1_alphabet(N: int, t: Transversal) -> dict:
    """U(t, T) and U(t, S) for every member of the Gamma1(N) transversal t,
    keyed (key, ("T", 1)) and (key, ("S", 1)); ValueError unless each lies
    in Gamma1(N)."""
    out = {}
    for key, mem in t.members.items():
        for name, g in (("T", T), ("S", S)):
            u = out[key, (name, 1)] = u_func(mem, g, t)
            if not in_gamma1(u, N):
                raise ValueError(f"U entry {u} at {key} is not in Gamma1({N})")
    return out


def orbit(key, N: int) -> tuple[tuple[int, int], int, int]:
    """The base key (c, d mod gcd(c, N)) of key's T-orbit (c, d + j c) mod N,
    key's position j along it and the orbit's length N / gcd(c, N)."""
    c, d = key
    g = gcd(c, N)
    pos = d // g * pow(c // g, -1, N // g) % (N // g)  # d = d mod g + pos c mod N
    return (c, d % g), pos, N // g


def potential(ctx) -> dict:
    """Each key's slot entries as `reduce_word` reads them, with the zero
    rows filled in: its `t_slot` entry (pos, length, total), or where there
    is none (pos, length, `ctx.zero`) from the key alone, and its `s_slot`
    S-step row, or `ctx.zero` where there is none."""
    N, out = ctx.N, {}
    for c, d in p1_classes(ctx.p1):
        i = c * N + d
        row = ctx.t_slot[i] or (*orbit((c, d), N)[1:], ctx.zero)
        out[c, d] = row, ctx.s_slot[i] or ctx.zero
    return out


def derived_mismatches(ctx, cmax: int) -> tuple[int, list]:
    """Every S-step row and every orbit total of `potential(ctx)` whose
    matrix has |c| <= cmax, against the double sum's closure on that
    matrix: how many were checked, and (kind, key, matrix) for each that
    differs.  Over the Gamma1 transversal, the S-step row at k is the sum of
    U(base, T^pos S T^-pos(kS)) and the orbit total that of U(base, T^length)."""
    N, t, checked, bad = ctx.N, ctx.t_sl2, 0, []
    for key, ((_, _, total), step) in potential(ctx).items():
        base_key, pos, length = orbit(key, N)
        back = orbit((key[1], -key[0] % N), N)[1]
        entries = [("S", t_power(pos) * S * t_power(-back), step)]
        if pos == 0:
            entries.append(("T", t_power(length), total))
        for kind, word, value in entries:
            m = u_func(t.members[base_key], word, t)
            if abs(m.c) <= cmax:
                checked += 1
                if dedekind.naive_sum(ctx.chi1, ctx.chi2, m) != as_cyc(ctx, value):
                    bad.append((kind, key, m))
    return checked, bad
