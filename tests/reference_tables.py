"""Reference constructions the library does not use, kept for comparison.

`lift_transversal` picks each key's member by lifting (c, d) to integers
and completing the top row by extended gcd: a valid transversal that is
not a Schreier transversal, so the sums must not depend on the choice.
`all_oracle_context` evaluates every U(t, T) and U(t, S) sum with the
double sum instead of solving the relations.  `full_alphabet` builds every
U(t, T^i) and U(t, S^k) matrix, and `alphabet_sum` rebuilds their sums from
a context's generator sums in CycElem arithmetic, apart from the integer
rows the context derives.
"""

from fractions import Fraction
from math import gcd

from gdsum import dedekind
from gdsum.cosets import Transversal, schreier_alphabet
from gdsum.exactnum import CycElem
from gdsum.modgroup import I2, Mat2


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


def all_oracle_context(chi1, chi2, t_sl2: Transversal):
    """The context over t_sl2 with every U(t, T) and U(t, S) sum evaluated
    by `dedekind.sum_on_gamma0` (looked up at call time, so a test's
    replacement oracle applies), two double sums per coset key."""
    alphabet = schreier_alphabet(t_sl2.N, t_sl2)
    oracle = dedekind.sum_on_gamma0
    s_t = {key: oracle(chi1, chi2, alphabet[key, ("T", 1)]) for key in t_sl2.members}
    s_s = {key: oracle(chi1, chi2, alphabet[key, ("S", 1)]) for key in t_sl2.members}
    return dedekind._tables(chi1, chi2, t_sl2, alphabet, *dedekind._numerators(s_t, s_s))


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
    generator sums `ctx.sums_alphabet` through the cocycle identity
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
            value = alphabet_sum(ctx, key, (name, i - 1)) + ctx.sums_alphabet[(c, d), (name, 1)]
        memo[key, gen] = value
    return memo[key, gen]


def row_sum(ctx, key, gen) -> CycElem:
    """The context's own integer row for (key, gen) as a CycElem."""
    return CycElem(ctx.L, [Fraction(n, ctx.den) for n in ctx.rows[key][gen]])
