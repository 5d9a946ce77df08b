"""Right transversals of Gamma1(N), the coset map, and the Schreier generators.

Cosets of Gamma1(N) in Gamma0(N) are keyed by d mod N, cosets in the full
unimodular group by the pair (c mod N, d mod N) with gcd(c, d, N) = 1, so
the coset representative lookup is a dictionary access.  The full-group
transversal is a Schreier transversal, built breadth-first over keys, so
one U(t, T) or U(t, S) per key other than the identity's is the identity
matrix.  The alphabet holds the Schreier generators U(t, T) and U(t, S),
two per transversal member t, where U(x, y) = x y (coset rep of x y)^-1
always lands in Gamma1(N).  By Reidemeister-Schreier they generate
Gamma1(N), and every U(t, T^i) or U(t, S^k) is a product of them; `u_func`
builds any such matrix on demand.
"""

from __future__ import annotations

from math import gcd

from .characters import euler_phi, _factorize
from .modgroup import I2, Mat2


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


def transversal_g1_in_sl2(N: int) -> Transversal:
    """One representative per key (c mod N, d mod N) with gcd(c, d, N) = 1.

    Built in one breadth-first pass over keys from the identity, multiplying
    on the right by T, T^-1 and S: a key's member is the first one found,
    its parent's member times one letter.  So every prefix of a member's
    word is a member too (a Schreier transversal), and each tree edge gives
    an alphabet entry equal to the identity: U(t, T) or U(t, S) for an edge
    t -> t T or t -> t S, and U(t T^-1, T) for an edge t -> t T^-1.
    """
    members = {(0, 1 % N): I2}
    found = [(1, 0, 0, 1)]
    for a, b, c, d in found:  # grows while walked
        # (a b; c d) times T, T^-1 and S
        for m in ((a, a + b, c, c + d), (a, b - a, c, d - c), (b, -a, d, -c)):
            key = (m[2] % N, m[3] % N)
            if key not in members:
                members[key] = Mat2(*m)
                found.append(m)
    return Transversal(N, "sl2", members)


def u_func(x: Mat2, y: Mat2, t: Transversal) -> Mat2:
    """U(x, y) = x y (coset rep of x y)^-1, an element of Gamma1(N)."""
    m = x * y
    return m * t.bar(m).inv()


def schreier_alphabet(N: int, t: Transversal) -> dict[tuple, Mat2]:
    """The Schreier generators U(member, T) and U(member, S), keyed by
    (coset key, ("T", 1)) and (coset key, ("S", 1)).

    Every value lies in Gamma1(N); the table has 2 * len(t) entries.
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
        if not u.in_gamma1(N):
            raise ValueError(f"corrupted transversal: U entry {u} is not in Gamma1({N})")
        return u

    out = {}
    for key, mem in members.items():
        a, b, c, d = mem.entries()
        out[key, ("T", 1)] = u_entry(a, a + b, c, c + d)  # times T
        out[key, ("S", 1)] = u_entry(b, -a, d, -c)  # times S
    return out
