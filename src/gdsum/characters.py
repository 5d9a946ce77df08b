"""Dirichlet characters with exact root-of-unity values.

A character mod q is stored as an exponent table: chi(n) = zeta_order^k(n)
for units n, and 0 when gcd(n, q) > 1.  Exponents (rather than field
elements) make re-embedding at any common cyclotomic order a cheap integer
rescale.

Construction enumerates the full dual group of (Z/qZ)^* from a generating
set built by CRT over the prime powers dividing q: a primitive root for an
odd prime power, and the pair -1, 5 for 2^k with k >= 3.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .exactnum import CycElem, _divisors, root_of_unity


def euler_phi(n: int) -> int:
    out = n
    for p, _ in _factorize(n):
        out -= out // p
    return out


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _multiplicative_order(a: int, m: int) -> int:
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order = euler_phi(m)
    for p, _ in _factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def _primitive_root(m: int) -> int:
    # m an odd prime power (or 2, 4); small moduli, brute scan is fine
    target = euler_phi(m)
    for g in range(2, m):
        if gcd(g, m) == 1 and _multiplicative_order(g, m) == target:
            return g
    raise ValueError(f"no primitive root mod {m}")


def unit_group_gens(q: int) -> list[tuple[int, int]]:
    """Independent generators (g, order) of (Z/qZ)^*, product of cyclics."""
    gens = []
    for p, e in _factorize(q):
        pe = p**e
        rest = q // pe
        if p == 2:
            if e == 1:
                continue
            local = [(3, 2)] if e == 2 else [(pe - 1, 2), (5, 2 ** (e - 2))]
        else:
            local = [(_primitive_root(pe), euler_phi(pe))]
        for g, s in local:
            # CRT lift: g mod pe, 1 mod rest
            if rest == 1:
                gens.append((g % q, s))
            else:
                inv = pow(pe, -1, rest)
                lifted = (g + pe * ((1 - g) * inv % rest)) % q
                gens.append((lifted, s))
    return gens


class DirichletCharacter:
    """Character mod q given by exponents of zeta_order on each residue."""

    __slots__ = ("modulus", "order", "_exps", "_conductor")

    def __init__(self, modulus: int, order: int, exps):
        self.modulus = modulus
        self.order = order
        self._exps = tuple(exps)
        self._conductor = None
        if len(self._exps) != max(modulus, 1):
            raise ValueError("exponent table must cover all residues")

    def exponent(self, n: int):
        """k with chi(n) = zeta_order^k, or None when gcd(n, q) > 1."""
        return self._exps[n % self.modulus]

    def exponent_at(self, n: int, L: int):
        """Exponent of chi(n) rewritten as a power of zeta_L."""
        if L % self.order != 0:
            raise ValueError(f"character order {self.order} does not divide {L}")
        k = self.exponent(n)
        return None if k is None else (k * (L // self.order)) % L

    def eval(self, n: int) -> CycElem:
        k = self.exponent(n)
        if k is None:
            return CycElem.zero(self.order)
        return root_of_unity(self.order, k)

    __call__ = eval

    def conductor(self) -> int:
        """Least divisor d of q with chi trivial on units congruent 1 mod d."""
        if self._conductor is None:
            q = self.modulus
            for d in _divisors(q):
                if all(
                    self._exps[u] == 0
                    for u in range(q)
                    if self._exps[u] is not None and u % d == 1 % d
                ):
                    self._conductor = d
                    break
        return self._conductor

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (self.modulus, self.order, self._exps) == (
            other.modulus,
            other.order,
            other._exps,
        )

    def __hash__(self):
        return hash((self.modulus, self.order, self._exps))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, order {self.order})"


@lru_cache(maxsize=None)
def _characters_mod_cached(q: int) -> tuple[DirichletCharacter, ...]:
    if q == 1:
        return (DirichletCharacter(1, 1, [0]),)
    gens = unit_group_gens(q)
    orders = [s for _, s in gens]
    # discrete log of every unit with respect to the generator tuple
    unit_log = {}
    for ks in itertools.product(*[range(s) for s in orders]):
        n = prod(pow(g, k, q) for (g, _), k in zip(gens, ks)) % q
        unit_log[n] = ks
    assert len(unit_log) == euler_phi(q)
    E = lcm(*orders) if orders else 1
    chars = []
    for ts in itertools.product(*[range(s) for s in orders]):
        w = {
            n: sum(k * t * (E // s) for k, t, s in zip(ks, ts, orders)) % E
            for n, ks in unit_log.items()
        }
        g0 = E
        for v in w.values():
            g0 = gcd(g0, v)
        order = E // g0
        exps = [None] * q
        for n, v in w.items():
            exps[n] = (v // g0) % order if order > 1 else 0
        chars.append(DirichletCharacter(q, order, exps))
    return tuple(chars)


def characters_mod(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q."""
    if q < 1:
        raise ValueError("modulus must be a positive integer")
    return list(_characters_mod_cached(q))


def find_character(q: int, assignments) -> DirichletCharacter:
    """The unique primitive character mod q with chi(g) = exp(2*pi*i*t)
    for every (g, t) in assignments; raises if none or several match.
    """
    assignments = [(g, Fraction(t)) for g, t in assignments]
    matches = []
    for chi in characters_mod(q):
        if not chi.is_primitive():
            continue
        ok = True
        for g, t in assignments:
            k = chi.exponent(g)
            if k is None or (Fraction(k, chi.order) - t).denominator != 1:
                ok = False
                break
        if ok:
            matches.append(chi)
    if len(matches) != 1:
        spec = ";".join([f"q={q}", *(f"g={g};v={t}" for g, t in assignments)])
        raise ValueError(f"character spec '{spec}' matches {len(matches)} primitive characters, need exactly 1")
    return matches[0]


def parse_spec_fields(spec: str) -> tuple[int, list[tuple[int, Fraction]]]:
    """The modulus and the (generator, value) pairs of a spec "q=5;g=2;v=3/4",
    read without building any character."""
    q = None
    pairs: list[tuple[int, Fraction]] = []
    pending_g = None
    for field in spec.split(";"):
        field = field.strip()
        if not field:
            continue
        key, _, val = field.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "q":
            if q is not None:
                raise ValueError(f"character spec {spec!r} gives q= twice")
            q = _spec_int("modulus", val, spec)
        elif key == "g":
            if pending_g is not None:
                raise ValueError(f"dangling generator in character spec {spec!r}")
            pending_g = _spec_int("generator", val, spec)
        elif key == "v":
            if pending_g is None:
                raise ValueError(f"value without generator in character spec {spec!r}")
            try:
                pairs.append((pending_g, Fraction(val)))
            except ZeroDivisionError:
                raise ValueError(f"value {val!r} in character spec {spec!r} divides by 0") from None
            except ValueError:
                raise ValueError(f"value {val!r} in character spec {spec!r} is not a rational") from None
            pending_g = None
        else:
            raise ValueError(f"unknown field {key!r} in character spec {spec!r}")
    if q is None:
        raise ValueError(f"character spec {spec!r} is missing q=")
    if q < 1:
        raise ValueError(f"modulus q={q} in character spec {spec!r} must be a positive integer")
    if pending_g is not None:
        raise ValueError(f"dangling generator in character spec {spec!r}")
    return q, pairs


def _spec_int(name: str, val: str, spec: str) -> int:
    try:
        return int(val)
    except ValueError:
        raise ValueError(f"{name} {val!r} in character spec {spec!r} is not an integer") from None


def parse_character_spec(spec: str) -> DirichletCharacter:
    """Parse "q=5;g=2;v=3/4" (repeatable g=..;v=.. pairs) to a character."""
    return find_character(*parse_spec_fields(spec))


def pair_order(chi1: DirichletCharacter, chi2: DirichletCharacter) -> int:
    """Common cyclotomic order for a character pair; even so -1 embeds."""
    return lcm(chi1.order, chi2.order, 2)


def parity_product(chi1: DirichletCharacter, chi2: DirichletCharacter) -> CycElem:
    """chi1(-1) * chi2(-1) at the pair's common order."""
    L = pair_order(chi1, chi2)
    e = (chi1.exponent_at(-1, L) + chi2.exponent_at(-1, L)) % L
    return root_of_unity(L, e)


def psi(chi1: DirichletCharacter, chi2: DirichletCharacter, gamma) -> CycElem:
    """Twist chi1 * conj(chi2) evaluated at the lower-right entry of gamma."""
    L = pair_order(chi1, chi2)
    d = gamma.d
    k1 = chi1.exponent_at(d, L)
    k2 = chi2.exponent_at(d, L)
    if k1 is None or k2 is None:
        raise ValueError(
            f"lower-right entry {d} shares a factor with "
            f"{chi1.modulus * chi2.modulus}"
        )
    return root_of_unity(L, (k1 - k2) % L)
