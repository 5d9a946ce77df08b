from math import gcd

import pytest

from gdsum.characters import euler_phi
from gdsum.cosets import (
    Transversal,
    schreier_alphabet,
    sl2_coset_count,
    transversal_g0_in_sl2,
    transversal_g1_in_g0,
    transversal_g1_in_sl2,
)
from gdsum.modgroup import I2, Mat2, S, T
from reference_tables import (
    bar,
    full_alphabet,
    gamma1_alphabet,
    in_gamma1,
    key_of,
    lift_p1_transversal,
    lift_transversal,
    mul_t_power,
    p1_classes,
    t_power,
    u_func,
)

LEVELS = (6, 9, 12, 28, 35)


def test_gamma0_transversal_known_members():
    t = transversal_g1_in_g0(9)
    assert t.members[1] == I2
    assert t.members[2] == Mat2(5, 1, 9, 2)
    assert t.members[4] == Mat2(7, 3, 9, 4)
    assert t.members[5] == Mat2(2, 1, 9, 5)
    assert t.members[7] == Mat2(4, 3, 9, 7)
    assert t.members[8] == Mat2(8, 7, 9, 8)
    assert len(t) == 6


def test_gamma0_transversal_structure():
    for N in LEVELS:
        t = transversal_g1_in_g0(N)
        assert len(t) == euler_phi(N)
        for d, m in t.members.items():
            assert m.d % N == d and m.c % N == 0
            assert key_of(t, m) == d


def test_sl2_coset_count_formula_matches_enumeration():
    for N in LEVELS:
        brute = sum(
            1
            for c in range(N)
            for d in range(N)
            if gcd(gcd(c, d), N) == 1
        )
        assert sl2_coset_count(N) == brute


def test_sl2_transversal_structure():
    expected = {6: 24, 9: 72, 12: 96, 28: 576, 35: 1152}
    for N in LEVELS:
        t = transversal_g1_in_sl2(N)
        assert len(t) == sl2_coset_count(N) == expected[N]
        assert t.members[(0, 1 % N)] == I2
        for key, m in t.members.items():
            assert (m.c % N, m.d % N) == key
            assert key_of(t, m) == key


def test_bar_basics():
    t = transversal_g1_in_sl2(9)
    g1 = Mat2(-152, 137, -81, 73)  # in Gamma1(9)
    assert bar(t, g1) == I2
    assert bar(t, Mat2(1, -1, 1, 0)) == t.members[(1, 0)]
    # members are their own representatives
    for m in t:
        assert bar(t, m) == m


def test_u_func_properties():
    # U(identity, h) = h for h in Gamma1, and U(member, identity) = identity;
    # that U lands in Gamma1 is tested at every level in test_group_identities
    t = transversal_g1_in_sl2(9)
    h = Mat2(-152, 137, -81, 73)
    assert u_func(I2, h, t) == h
    for m in list(t)[:10]:
        assert u_func(m, I2, t) == I2


def test_alphabet_structure():
    for N in (6, 9):
        t = transversal_g1_in_sl2(N)
        full = full_alphabet(N, t)
        assert len(full) == (N + 3) * len(t)
        assert full[((0, 1 % N), ("S", 0))] == I2
        for (key, (name, k)), u in full.items():
            assert in_gamma1(u, N)
            g = t_power(k) if name == "T" else [I2, S, S * S][k]
            assert u == u_func(t.members[key], g, t)
        # identity-based T entries are the plain shears
        for i in range(1, N + 1):
            assert full[((0, 1 % N), ("T", i))] == t_power(i)
        # the Schreier generators are the 2 |T| entries at T^1 and S^1
        alpha = gamma1_alphabet(N, t)
        assert len(alpha) == 2 * len(t)
        assert alpha == {e: u for e, u in full.items() if e[1] in (("T", 1), ("S", 1))}


def test_alphabet_deterministic():
    a1 = schreier_alphabet(9, transversal_g0_in_sl2(9))
    a2 = schreier_alphabet(9, transversal_g0_in_sl2(9))
    assert a1 == a2
    # the alphabet is built over the P^1 transversal only
    with pytest.raises(ValueError, match="P\\^1"):
        schreier_alphabet(9, transversal_g1_in_sl2(9))
    # and refuses one with a point's member missing, or off its point
    p1 = transversal_g0_in_sl2(9)
    missing = Transversal(9, "p1", {k: m for k, m in p1.members.items() if k != (1, 0)}, p1.edges, p1.bases)
    with pytest.raises(ValueError, match=r"^corrupted transversal: no member for key \(1, 0\)$"):
        schreier_alphabet(9, missing)
    off = Transversal(9, "p1", {**p1.members, (1, 0): T}, p1.edges, p1.bases)
    with pytest.raises(ValueError, match=r"^corrupted transversal: U entry .* is not in Gamma0\(9\)$"):
        schreier_alphabet(9, off)
    with pytest.raises(ValueError, match="^unknown transversal kind 'bogus'$"):
        Transversal(9, "bogus", p1.members)


def test_alt_lift_is_valid_transversal():
    for N in (9, 12):
        t = lift_transversal(N, lift="least_pos")
        assert len(t) == sl2_coset_count(N)
        assert t.members[(0, 1 % N)] == I2
        for key, m in t.members.items():
            assert (m.c % N, m.d % N) == key
    with pytest.raises(ValueError):
        lift_transversal(9, lift="bogus")


def test_sl2_transversal_rejects_a_member_off_its_key():
    """Every member of the Gamma1 transversal has its key as bottom row mod
    N, which puts every U(t, T) and U(t, S) in Gamma1(N); a P^1 member off
    its class key breaks that, and the build raises."""
    p1 = transversal_g0_in_sl2(9)
    assert p1.members[1, 0] == S
    bad = type(p1)(9, "p1", {**p1.members, (1, 0): T}, p1.edges, p1.bases)
    with pytest.raises(ValueError, match="corrupted transversal: member .* is off its key"):
        transversal_g1_in_sl2(9, bad)


@pytest.mark.parametrize("N", LEVELS)
def test_sl2_transversal_is_schreier(N):
    """The P^1 transversal r_k is prefix-closed: every member but the
    identity is another member times T, T^-1 or S, so at least mu - 1 of
    its U(r, T), U(r, S) entries are the identity, and the lifted P^1
    transversal has fewer.  The Gamma1 transversal is t_{lambda k} =
    g_lambda r_k at key lambda k."""
    p1 = transversal_g0_in_sl2(N)
    members = set(p1)
    for m in p1:
        if m != I2:
            assert {mul_t_power(m, -1), mul_t_power(m, 1), m * S * S * S} & members
    alpha = schreier_alphabet(N, p1)
    identity = sum(u == I2 for u in alpha.values())
    assert identity >= len(p1) - 1
    lifted = schreier_alphabet(N, lift_p1_transversal(N))
    assert lifted.keys() == alpha.keys()
    assert sum(u == I2 for u in lifted.values()) < identity
    assert max(abs(x) for m in p1 for x in m.entries()).bit_length() <= 8
    g = transversal_g1_in_g0(N).members
    t = transversal_g1_in_sl2(N)
    classes = p1_classes(p1)
    assert len(classes) == len(t) == len(p1) * len(g)
    for key, (k, lam) in classes.items():
        assert key == (lam * k[0] % N, lam * k[1] % N)
        assert t.members[key] == g[lam] * p1.members[k]


def _containers(root) -> list:
    """Every dict, list, tuple and set reachable from root through the
    slots of a Transversal and the items of a container."""
    out, stack, seen = [], [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Transversal):
            stack += [getattr(obj, name) for name in obj.__slots__]
        elif isinstance(obj, dict):
            out.append(obj)
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            out.append(obj)
            stack += obj
    return out


@pytest.mark.parametrize("N", LEVELS)
def test_p1_edges_are_the_point_map(N, request):
    """Each edge (k', lambda) of a member k and a letter x = T, S has
    k x = lambda k' mod N, with k' a member key; each T-orbit base
    (c, d mod gcd(c, N)) has the scalar of its class.  Nothing the P^1
    transversal holds has N^2 entries: no container reachable from it, or
    from the `p1` of a built context, is larger than 2 mu plus the number
    of orbit bases."""
    p1 = transversal_g0_in_sl2(N)
    for c, d in p1.members:
        for x, (xc, xd) in (("T", (c, d + c)), ("S", (d, -c))):
            k, lam = p1.edges[(c, d), (x, 1)]
            assert k in p1.members
            assert (xc % N, xd % N) == (lam * k[0] % N, lam * k[1] % N)
    assert len(p1.edges) == 2 * len(p1)
    classes = p1_classes(p1)
    assert list(p1.bases) == [(c, d) for c in range(N) for d in range(gcd(c, N)) if gcd(c, d, N) == 1]
    for key, lam in p1.bases.items():
        assert lam == classes[key][1]
    built = {9: "ctx9", 28: "ctx28", 35: "ctx35"}
    for t in [p1] + ([request.getfixturevalue(built[N]).p1] if N in built else []):
        assert max(map(len, _containers(t))) <= 2 * len(t) + len(t.bases)


def test_bar_requires_gamma0_membership():
    t = transversal_g1_in_g0(9)
    with pytest.raises(ValueError):
        bar(t, Mat2(1, 0, 1, 1))
