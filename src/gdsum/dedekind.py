"""Generalized Dedekind sums: naive double sum, precomputed tables, fast path.

For primitive characters chi1, chi2 with conductors q1, q2 > 1 and a matrix
(a b; c d) with c >= 1 in Gamma0(q1 q2), the sum is

    S(gamma) = sum_{j=1}^{c} sum_{n=1}^{q1}
               conj(chi2(j)) conj(chi1(n)) B1(j/c) B1(n/q1 + a*j/c),

an element of Q(zeta_L) with L = lcm(order chi1, order chi2, 2).  It obeys
S(g h) = S(g) + psi(g) S(h) with psi(g) = chi1 conj(chi2)(d(g)), and psi is
trivial on Gamma1(N); that single identity powers everything here:

  * values on matrices with c <= 0, where the double sum does not apply,
    are pinned through S(g) = -psi(g) S(g^-1) (the inverse has c >= 1) and,
    for the shears +-T^b, through products with an oracle-valid partner;
  * the fast path splits gamma into a Gamma1(N) part and a transversal
    member, rewrites the Gamma1 part over the Schreier alphabet, and adds
    up precomputed sums with multiplicities.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction

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
    gamma0_coset_count,
    schreier_alphabet,
    sl2_coset_count,
    transversal_g1_in_g0,
    transversal_g1_in_sl2,
)
from .exactnum import CycElem
from .modgroup import I2, Mat2, ts_decompose
from .rewriter import modified_rewrite, reduce_word

# Default guardrail for precompute: table sizes grow like N^3.
DEFAULT_LEVEL_LIMIT = 60

# Conjugation convention for the double sum: the conjugation spans both
# character values.  The switch exists to investigate the alternative
# (conjugate chi2 only); the crossed-homomorphism suite validates the
# default end to end.
CONJUGATE_CHI1 = True

CACHE_VERSION = 1


class ParityWarning(UserWarning):
    """chi1*chi2(-1) != 1; sums are computed anyway but the defining
    hypothesis fails and fast/naive agreement is not guaranteed."""


def common_order(chi1: DirichletCharacter, chi2: DirichletCharacter) -> int:
    return pair_order(chi1, chi2)


def naive_sum(
    chi1: DirichletCharacter,
    chi2: DirichletCharacter,
    gamma: Mat2,
    *,
    conjugate_chi1: bool | None = None,
) -> CycElem:
    """The double sum, evaluated exactly; O(c * q1) summand evaluations.

    Requires c >= 1 (and gamma in Gamma0(q1 q2)); the fast path covers the
    rest of the group.
    """
    if conjugate_chi1 is None:
        conjugate_chi1 = CONJUGATE_CHI1
    q1, q2 = chi1.modulus, chi2.modulus
    N = q1 * q2
    a, c = gamma.a, gamma.c
    if c <= 0:
        raise ValueError("the defining double sum needs lower-left entry >= 1")
    if not gamma.in_gamma0(N):
        raise ValueError(f"{gamma} is not in Gamma0({N})")
    L = common_order(chi1, chi2)
    sign1 = -1 if conjugate_chi1 else 1
    e1 = [None] * q1
    for n in range(q1):
        k = chi1.exponent(n)
        if k is not None:
            e1[n] = (sign1 * k * (L // chi1.order)) % L
    e2 = [None] * q2
    for n in range(q2):
        k = chi2.exponent(n)
        if k is not None:
            e2[n] = (-k * (L // chi2.order)) % L
    # Accumulate integer numerators per zeta-exponent over the common
    # denominator 4*q1*c^2: B1(j/c) = (2j-c)/(2c) for 0 < j < c, and
    # B1(x) = (2r - q1*c)/(2*q1*c) with r = (n*c + a*j*q1) mod q1*c.
    acc = [0] * L
    den = q1 * c
    for j in range(1, c):
        k2 = e2[j % q2]
        if k2 is None:
            continue
        bj = 2 * j - c
        ajq1 = a * j * q1
        for n in range(1, q1):
            k1 = e1[n]
            if k1 is None:
                continue
            r = (ajq1 + n * c) % den
            if r == 0:
                continue
            acc[(k2 + k1) % L] += bj * (2 * r - den)
    scale = 4 * q1 * c * c
    return CycElem(L, [Fraction(v, scale) for v in acc])


def sum_on_gamma0(chi1, chi2, gamma: Mat2, *, parity_ok: bool | None = None) -> CycElem:
    """S on any Gamma0(N) matrix, via the double sum or its closure.

    c >= 1: the double sum.  c <= -1: -psi(gamma) S(gamma^-1).  c = 0 means
    gamma = +-T^b; T^b is pinned via S(h T^b) - S(h) with h = (1,0;N,1), and
    the -I factor contributes S(-I) = 0 (forced when chi1*chi2(-1) = 1; kept
    as the convention otherwise, after the parity warning).
    """
    N = chi1.modulus * chi2.modulus
    L = common_order(chi1, chi2)
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


@dataclass
class Context:
    """All precomputed tables for one character pair.

    Immutable after `precompute`; `fast_sum` is pure, so one context can
    serve concurrent evaluations.
    """

    chi1: DirichletCharacter
    chi2: DirichletCharacter
    q1: int
    q2: int
    N: int
    L: int
    parity_ok: bool
    t_g0: Transversal
    t_sl2: Transversal
    alphabet: dict
    sums_g0: dict
    sums_alphabet: dict


def _validate_pair(chi1, chi2):
    for name, chi in (("chi1", chi1), ("chi2", chi2)):
        if not chi.is_primitive():
            raise ValueError(f"{name} (mod {chi.modulus}) is not primitive")
        if chi.conductor() <= 1:
            raise ValueError(f"{name} must have conductor > 1")


def precompute(
    chi1: DirichletCharacter,
    chi2: DirichletCharacter,
    *,
    sl2_lift: str = "least_abs",
    level_limit: int = DEFAULT_LEVEL_LIMIT,
    allow_large: bool = False,
    derive_powers: bool = True,
) -> Context:
    """Build transversals, the alphabet, and all precomputed sums.

    With derive_powers (the default), only the U(t, T) and U(t, S) sums are
    evaluated from the double sum; higher T-powers and S^2 follow from the
    exponent product identities, which cuts the precompute cost by roughly
    a factor of N without changing any value.  derive_powers=False evaluates
    every entry directly.
    """
    _validate_pair(chi1, chi2)
    N = chi1.modulus * chi2.modulus
    if N > level_limit and not allow_large:
        raise ValueError(
            f"level N = {N} exceeds the guardrail {level_limit}; "
            "pass allow_large=True (tables grow like N^3)"
        )
    L = common_order(chi1, chi2)
    parity_ok = parity_product(chi1, chi2) == CycElem.one(L)
    if not parity_ok:
        warnings.warn(
            f"chi1*chi2(-1) != 1 for the pair mod ({chi1.modulus}, {chi2.modulus}); "
            "computing anyway, but fast and naive values may disagree",
            ParityWarning,
            stacklevel=2,
        )
    t_g0 = transversal_g1_in_g0(N)
    t_sl2 = transversal_g1_in_sl2(N, lift=sl2_lift)
    alphabet = schreier_alphabet(N, t_sl2)

    sums_g0 = {}
    for d, mem in t_g0.members.items():
        sums_g0[d] = CycElem.zero(L) if mem == I2 else naive_sum(chi1, chi2, mem)

    sums_alphabet = {}
    if derive_powers:
        s_t = {}
        s_s = {}
        for key in t_sl2.members:
            s_t[key] = sum_on_gamma0(chi1, chi2, alphabet[(key, ("T", 1))])
            s_s[key] = sum_on_gamma0(chi1, chi2, alphabet[(key, ("S", 1))])
        zero = CycElem.zero(L)
        for key, mem in t_sl2.members.items():
            sums_alphabet[(key, ("S", 0))] = zero
            sums_alphabet[(key, ("S", 1))] = s_s[key]
            # U(t, S^2) = U(t, S) U(rep(t S), S)
            sums_alphabet[(key, ("S", 2))] = s_s[key] + s_s[t_sl2.key_of(mem.mul_s())]
            # U(t, T^i) = U(t, T) U(rep(t T), T) ... U(rep(t T^(i-1)), T)
            ck, dk = key
            acc = s_t[key]
            sums_alphabet[(key, ("T", 1))] = acc
            for i in range(2, N + 1):
                acc = acc + s_t[(ck, (dk + (i - 1) * ck) % N)]
                sums_alphabet[(key, ("T", i))] = acc
    else:
        for entry_key, mat in alphabet.items():
            sums_alphabet[entry_key] = sum_on_gamma0(chi1, chi2, mat)

    return Context(
        chi1=chi1,
        chi2=chi2,
        q1=chi1.modulus,
        q2=chi2.modulus,
        N=N,
        L=L,
        parity_ok=parity_ok,
        t_g0=t_g0,
        t_sl2=t_sl2,
        alphabet=alphabet,
        sums_g0=sums_g0,
        sums_alphabet=sums_alphabet,
    )


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

    The table's rational coefficients are added as integer numerators, one
    running sum per (denominator, coefficient); each becomes one Fraction
    at the end.
    """
    g1, _, d_key = split_gamma0(ctx, gamma)
    word = ts_decompose(g1, nearest=True)
    terms = reduce_word(modified_rewrite(word, ctx.t_sl2, product=g1), ctx.N)
    out = list(ctx.sums_g0[d_key].coeffs)
    deg = len(out)
    table = ctx.sums_alphabet
    rows = {}  # denominator -> numerators, one per coefficient
    for key, gen, m in terms:
        for i, x in enumerate(table[key, gen].coeffs):
            n, den = x.as_integer_ratio()
            if n:
                row = rows.get(den)
                if row is None:
                    row = rows[den] = [0] * deg
                row[i] += m * n
    for den, row in rows.items():
        for i, n in enumerate(row):
            if n:
                out[i] += Fraction(n, den)
    return CycElem._raw(ctx.L, tuple(out))


def crossed_hom_check(chi1, chi2, ga: Mat2, gb: Mat2) -> bool:
    """Whether S(ga gb) = S(ga) + psi(ga) S(gb) under the double sum.

    All three lower-left entries must be >= 1.
    """
    lhs = naive_sum(chi1, chi2, ga * gb)
    rhs = naive_sum(chi1, chi2, ga) + psi(chi1, chi2, ga) * naive_sum(chi1, chi2, gb)
    return lhs == rhs


# ---------------------------------------------------------------------------
# cache serialization

def _mat_to_json(m: Mat2) -> list[str]:
    return [str(x) for x in m.entries()]


def _mat_from_json(v) -> Mat2:
    if len(v) != 4:
        raise ValueError("matrix entry must have four components")
    return Mat2(*(int(x) for x in v))


def _cyc_to_json(e: CycElem) -> list[str]:
    return [str(c) for c in e.coeffs]


def _parse_fraction(s: str) -> Fraction:
    # much faster than Fraction's regex constructor on "p/q" strings
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _cyc_from_json(L: int, v, deg: int) -> CycElem:
    if len(v) != deg:
        raise ValueError("coefficient vector of wrong length")
    # length == deg Phi_L means the vector is already canonical
    return CycElem._raw(L, tuple(_parse_fraction(x) for x in v))


def _chi_to_json(chi: DirichletCharacter) -> dict:
    gens = []
    for g, _ in unit_group_gens(chi.modulus):
        k = chi.exponent(g)
        gens.append({"g": g, "v": str(Fraction(k, chi.order))})
    return {"q": chi.modulus, "gens": gens}


def _chi_from_json(obj) -> DirichletCharacter:
    return find_character(obj["q"], [(g["g"], Fraction(g["v"])) for g in obj["gens"]])


def _gen_to_str(gen: tuple[str, int]) -> str:
    return f"{gen[0]}^{gen[1]}"


def _gen_from_str(s: str) -> tuple[str, int]:
    name, _, power = s.partition("^")
    if name not in ("T", "S") or not power:
        raise ValueError(f"bad generator label {s!r}")
    return (name, int(power))


def context_to_json(ctx: Context) -> dict:
    return {
        "version": CACHE_VERSION,
        "q1": ctx.q1,
        "q2": ctx.q2,
        "chi1": _chi_to_json(ctx.chi1),
        "chi2": _chi_to_json(ctx.chi2),
        "L": ctx.L,
        "t_g0": [
            {"d": d, "m": _mat_to_json(m)} for d, m in sorted(ctx.t_g0.members.items())
        ],
        "t_sl2": [
            {"key": f"{k[0]},{k[1]}", "m": _mat_to_json(m)}
            for k, m in sorted(ctx.t_sl2.members.items())
        ],
        "sums_g0": [
            {"d": d, "v": _cyc_to_json(v)} for d, v in sorted(ctx.sums_g0.items())
        ],
        "sums_alphabet": [
            {
                "key": f"{key[0]},{key[1]}",
                "gen": _gen_to_str(gen),
                "m": _mat_to_json(ctx.alphabet[(key, gen)]),
                "v": _cyc_to_json(v),
            }
            for (key, gen), v in sorted(ctx.sums_alphabet.items())
        ],
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


def load_context(path, *, spot_checks: int = 5) -> Context:
    """Load and validate a cached context.

    Validation: version, transversal sizes against the index formulas,
    member/key consistency, alphabet membership in Gamma1(N), coefficient
    vector lengths, and `spot_checks` alphabet sums re-evaluated against
    the double sum (the entries of smallest positive lower-left entry).
    A malformed structure (a missing key, a value of the wrong type)
    raises ValueError like any other failed check.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        ctx = _context_from_json(data)
    except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed cache {path}: {type(exc).__name__}: {exc}") from exc

    # spot-check the cheapest oracle-valid entries against the double sum
    checkable = sorted(
        (m.c, key) for key, m in ctx.alphabet.items() if m.c >= 1
    )[:spot_checks]
    for _, key in checkable:
        if naive_sum(ctx.chi1, ctx.chi2, ctx.alphabet[key]) != ctx.sums_alphabet[key]:
            raise ValueError(f"cached sum for alphabet entry {key} fails the oracle")
    return ctx


def _context_from_json(data) -> Context:
    if data.get("version") != CACHE_VERSION:
        raise ValueError(f"unsupported cache version {data.get('version')!r}")
    chi1 = _chi_from_json(data["chi1"])
    chi2 = _chi_from_json(data["chi2"])
    if chi1.modulus != data["q1"] or chi2.modulus != data["q2"]:
        raise ValueError("cache moduli do not match the stored characters")
    N = data["q1"] * data["q2"]
    L = common_order(chi1, chi2)
    if data["L"] != L:
        raise ValueError(f"cache order {data['L']} != expected {L}")
    deg = len(CycElem.zero(L).coeffs)

    g0_members = {}
    for row in data["t_g0"]:
        m = _mat_from_json(row["m"])
        if m.d % N != row["d"] % N or m.c % N != 0:
            raise ValueError(f"transversal member {m} does not match key {row['d']}")
        g0_members[row["d"] % N] = m
    if len(g0_members) != gamma0_coset_count(N):
        raise ValueError("wrong Gamma0 transversal size")
    if g0_members.get(1 % N) != I2:
        raise ValueError("Gamma0 transversal must contain the identity at d = 1")
    t_g0 = Transversal(N, "gamma0", g0_members)

    sl2_members = {}
    for row in data["t_sl2"]:
        cm, dm = (int(x) for x in row["key"].split(","))
        m = _mat_from_json(row["m"])
        if (m.c % N, m.d % N) != (cm, dm):
            raise ValueError(f"transversal member {m} does not match key {(cm, dm)}")
        sl2_members[(cm, dm)] = m
    if len(sl2_members) != sl2_coset_count(N):
        raise ValueError("wrong full-group transversal size")
    if sl2_members.get((0, 1 % N)) != I2:
        raise ValueError("transversal must contain the identity at its key")
    t_sl2 = Transversal(N, "sl2", sl2_members)

    sums_g0 = {}
    for row in data["sums_g0"]:
        sums_g0[row["d"] % N] = _cyc_from_json(L, row["v"], deg)
    if set(sums_g0) != set(g0_members):
        raise ValueError("sums_g0 keys do not match the transversal")

    alphabet = {}
    sums_alphabet = {}
    for row in data["sums_alphabet"]:
        cm, dm = (int(x) for x in row["key"].split(","))
        gen = _gen_from_str(row["gen"])
        m = _mat_from_json(row["m"])
        if not m.in_gamma1(N):
            raise ValueError(f"alphabet value {m} is not in Gamma1({N})")
        alphabet[((cm, dm), gen)] = m
        sums_alphabet[((cm, dm), gen)] = _cyc_from_json(L, row["v"], deg)
    if len(alphabet) != (N + 3) * len(sl2_members):
        raise ValueError("wrong alphabet size")

    parity_ok = parity_product(chi1, chi2) == CycElem.one(L)
    return Context(
        chi1=chi1,
        chi2=chi2,
        q1=data["q1"],
        q2=data["q2"],
        N=N,
        L=L,
        parity_ok=parity_ok,
        t_g0=t_g0,
        t_sl2=t_sl2,
        alphabet=alphabet,
        sums_g0=sums_g0,
        sums_alphabet=sums_alphabet,
    )


def cache_filename(chi1: DirichletCharacter, chi2: DirichletCharacter) -> str:
    def slug(chi):
        return character_spec_string(chi).replace(";", "_").replace("=", "").replace("/", "-")

    return f"sums_{slug(chi1)}__{slug(chi2)}.json"
