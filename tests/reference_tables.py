"""Reference constructions the library does not use, kept for comparison.

`lift_transversal` picks each key's member by lifting (c, d) to integers
and completing the top row by extended gcd: a valid transversal that is
not a Schreier transversal, so the sums must not depend on the choice.
`all_oracle_context` evaluates every U(t, T) and U(t, S) sum with the
double sum instead of solving the relations.
"""

from math import gcd

from gdsum import dedekind
from gdsum.cosets import Transversal, schreier_alphabet
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
