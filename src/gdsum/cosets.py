"""Right transversals, the coset maps, and the Schreier generators.

Cosets of Gamma1(N) in Gamma0(N) are keyed by d mod N, cosets of Gamma1(N)
in the unimodular group by the pair (c mod N, d mod N) with
gcd(c, d, N) = 1, and cosets of Gamma0(N) in it by the points of
P^1(Z/N), such pairs up to a unit scalar.  The P^1 transversal r_k is a
Schreier transversal, and its breadth-first walk records the point and
scalar that T and S take each point to; the full-group transversal is
t = g_lambda r_k, a member per point and unit.  The alphabet of the P^1
transversal holds its Schreier generators U(r, T) and U(r, S), where
U(x, y) = x y (coset rep of x y)^-1 lies in Gamma0(N); by
Reidemeister-Schreier they generate it.
"""

from __future__ import annotations

from math import gcd

from .characters import _factorize
from .modgroup import I2, Mat2


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
    kind "p1":     cosets of Gamma0(N) in the whole group, keyed by one
                   (c, d) per point of P^1(Z/N), its class key; `edges`
                   maps (k, ("T", 1)) and (k, ("S", 1)) to (k', lambda)
                   with k x = lambda k' mod N, and `bases` each T-orbit
                   base (c, d mod gcd(c, N)) to the lambda of its class.
    Contains the identity at the identity coset.  Built once, then treated
    as immutable; safe to share across threads.
    """

    __slots__ = ("N", "kind", "members", "edges", "bases")

    def __init__(self, N: int, kind: str, members: dict, edges: dict = None, bases: dict = None):
        if kind not in ("gamma0", "sl2", "p1"):
            raise ValueError(f"unknown transversal kind {kind!r}")
        self.N, self.kind, self.members, self.edges, self.bases = N, kind, members, edges, bases

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members.values())


def transversal_g1_in_g0(N: int) -> Transversal:
    """The member (a, (ad-1)/N; N, d), a = 1/d mod N, at each unit d mod N,
    d > 1, and the identity at d = 1."""
    members = {1 % N: I2}
    for d in range(2, N):
        if gcd(d, N) == 1:
            a = pow(d, -1, N)
            members[d] = Mat2(a, (a * d - 1) // N, N, d)
    return Transversal(N, "gamma0", members)


def transversal_g0_in_sl2(N: int) -> Transversal:
    """One representative r_k per point k of P^1(Z/N), the Gamma0(N) cosets.

    Built in one breadth-first pass from the identity, multiplying on the
    right by T, T^-1 and S: a point's member is the first one found, and
    its class key that member's bottom row mod N.  So every prefix of a
    member's word is a member too (a Schreier transversal), and each tree
    edge gives a generator equal to the identity: U(r, T) or U(r, S) for an
    edge r -> r T or r -> r S, and U(r T^-1, T) for an edge r -> r T^-1.
    It keeps what the build reads, the `edges` and `bases`; its map from
    each key to its point and scalar is two lists, freed on return.
    """
    units = [u for u in range(N) if gcd(u, N) == 1]
    point, scalar = [None] * N * N, [0] * N * N  # at c*N + d: (c, d) = scalar * point
    members, edges, found = {}, {}, []

    def visit(m):  # the point and scalar of m's bottom row, a new member if its point is new
        i = m[2] % N * N + m[3] % N
        if point[i] is None:
            c, d = k = divmod(i, N)
            members[k] = Mat2(*m)
            for u in units:
                j = u * c % N * N + u * d % N
                point[j], scalar[j] = k, u
            found.append((k, *m))
        return point[i], scalar[i]

    visit((1, 0, 0, 1))
    for k, a, b, c, d in found:  # grows while walked
        # (a b; c d) times T, T^-1 and S
        edges[k, ("T", 1)] = visit((a, a + b, c, c + d))
        visit((a, b - a, c, d - c))
        edges[k, ("S", 1)] = visit((b, -a, d, -c))
    bases = {(c, d): scalar[c * N + d] for c in range(N) for d in range(gcd(c, N)) if gcd(c, d, N) == 1}
    return Transversal(N, "p1", members, edges, bases)


def transversal_g1_in_sl2(N: int, p1: Transversal | None = None) -> Transversal:
    """One representative per key (c mod N, d mod N) with gcd(c, d, N) = 1:
    g_lambda r_k at the key lambda k, whose bottom row it has mod N, with
    r_k the member of `p1` (by default `transversal_g0_in_sl2(N)`) and
    g_lambda the `transversal_g1_in_g0` member at d = lambda.  A member off
    its key raises: else some U(t, x) = t x (rep of t x)^-1 is not in Gamma1."""
    p1 = p1 or transversal_g0_in_sl2(N)
    g = transversal_g1_in_g0(N).members
    members = {(lam * c % N, lam * d % N): g[lam] * r for (c, d), r in p1.members.items() for lam in g}
    if off := [(key, m) for key, m in members.items() if (m.c % N, m.d % N) != key]:
        raise ValueError(f"corrupted transversal: member {off[0][1]} is off its key {off[0][0]} mod {N}")
    return Transversal(N, "sl2", members)


def schreier_alphabet(N: int, p1: Transversal) -> dict[tuple, Mat2]:
    """The Schreier generators U(r, T) and U(r, S) of Gamma0(N) over the
    P^1 transversal `p1`, keyed by (k, ("T", 1)) and (k, ("S", 1)): two
    per point k.  Products are walked in plain integers, one Mat2 per entry.
    """
    if p1.kind != "p1":
        raise ValueError("the alphabet is built over the transversal of P^1(Z/N)")
    members, edges = p1.members, p1.edges

    def u_entry(k, a, b, c, d):
        # (a b; c d), of point k, times the inverse (rd, -rb; -rc, ra) of its coset rep
        if (r := members.get(k)) is None:
            raise ValueError(f"corrupted transversal: no member for key {k}")
        u = Mat2(a * r.d - b * r.c, b * r.a - a * r.b, c * r.d - d * r.c, d * r.a - c * r.b)
        if not u.in_gamma0(N):
            raise ValueError(f"corrupted transversal: U entry {u} is not in Gamma0({N})")
        return u

    out = {}
    for key, mem in members.items():
        a, b, c, d = mem.entries()
        out[key, ("T", 1)] = u_entry(edges[key, ("T", 1)][0], a, a + b, c, c + d)  # times T
        out[key, ("S", 1)] = u_entry(edges[key, ("S", 1)][0], b, -a, d, -c)  # times S
    return out
