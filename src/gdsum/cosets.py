"""Right transversals of Gamma1(N), the coset map, and the Schreier alphabet.

Cosets of Gamma1(N) in Gamma0(N) are keyed by d mod N, cosets in the full
unimodular group by the pair (c mod N, d mod N) with gcd(c, d, N) = 1, so
the coset representative lookup is a dictionary access.  The alphabet
collects U(t, T^i) for 1 <= i <= N and U(t, S^k) for 0 <= k <= 2 over all
transversal members t, where U(x, y) = x y (coset rep of x y)^-1 always
lands in Gamma1(N).
"""

from __future__ import annotations

from math import gcd

from .characters import euler_phi, _factorize
from .modgroup import I2, Mat2, S, T

GenLabel = tuple[str, int]  # ("T", i) with 1 <= i <= N, or ("S", k) with 0 <= k <= 2


def gamma0_coset_count(N: int) -> int:
    """Number of Gamma1(N) cosets inside Gamma0(N): phi(N)."""
    return euler_phi(N)


def sl2_coset_count(N: int) -> int:
    """Number of Gamma1(N) cosets in the unimodular group: N^2 prod(1-1/p^2)."""
    out = N * N
    for p, _ in _factorize(N):
        out = out // (p * p) * (p * p - 1)
    return out


class Transversal:
    """One representative per right coset, keyed for O(1) lookup.

    kind "gamma0": keys d mod N, ambient group Gamma0(N).
    kind "sl2":    keys (c mod N, d mod N), ambient the whole group.
    Contains the identity at the identity coset.  Built once, then treated
    as immutable; safe to share across threads.
    """

    __slots__ = ("N", "kind", "members")

    def __init__(self, N: int, kind: str, members: dict):
        if kind not in ("gamma0", "sl2"):
            raise ValueError(f"unknown transversal kind {kind!r}")
        self.N = N
        self.kind = kind
        self.members = members

    def key_of(self, m: Mat2):
        if self.kind == "gamma0":
            if m.c % self.N != 0:
                raise ValueError(f"{m} is not in Gamma0({self.N})")
            return m.d % self.N
        return (m.c % self.N, m.d % self.N)

    def bar(self, m: Mat2) -> Mat2:
        """The transversal member sharing m's right coset."""
        key = self.key_of(m)
        try:
            return self.members[key]
        except KeyError:
            raise ValueError(f"corrupted transversal: no member for key {key}") from None

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members.values())


def transversal_g1_in_g0(N: int) -> Transversal:
    """Representatives (a, (ad-1)/N; N, d) over units d, identity at d = 1."""
    members = {1 % N: I2}
    for d in range(2, N):
        if gcd(d, N) != 1:
            continue
        a = pow(d, -1, N)
        members[d] = Mat2(a, (a * d - 1) // N, N, d)
    return Transversal(N, "gamma0", members)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with a*x + b*y = g
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def transversal_g1_in_sl2(N: int, lift: str = "least_abs") -> Transversal:
    """One representative per key (c mod N, d mod N) with gcd(c, d, N) = 1.

    Lift: c' = c (or N when c = 0); scan d' = d, d+N, ... until coprime to
    c'; complete the top row by extended gcd.  "least_abs" picks the top-left
    entry of smallest absolute value (ties positive), "least_pos" the smallest
    positive one; either yields a valid transversal, and downstream sums do
    not depend on the choice.
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


def u_func(x: Mat2, y: Mat2, t: Transversal) -> Mat2:
    """U(x, y) = x y (coset rep of x y)^-1, an element of Gamma1(N)."""
    m = x * y
    return m * t.bar(m).inv()


def schreier_alphabet(N: int, t: Transversal) -> dict[tuple, Mat2]:
    """All U(member, T^i) and U(member, S^k), keyed by (coset key, generator).

    Every value lies in Gamma1(N); the table has (N+3) * len(t) entries.
    Products are walked in plain integers, one Mat2 per entry.
    """
    if t.kind != "sl2":
        raise ValueError("the alphabet is built over the full-group transversal")
    members = t.members

    def u_entry(a, b, c, d):
        # (a b; c d) times the inverse (rd, -rb; -rc, ra) of its coset rep
        r = members.get((c % N, d % N))
        if r is None:
            raise ValueError(f"corrupted transversal: no member for key {(c % N, d % N)}")
        u = Mat2(a * r.d - b * r.c, b * r.a - a * r.b, c * r.d - d * r.c, d * r.a - c * r.b)
        assert u.in_gamma1(N)
        return u

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
