"""Dirichlet characters with exact root-of-unity values.

A character mod q is stored as an exponent table: chi(n) = zeta_order^k(n)
for units n, and 0 when gcd(n, q) > 1.  Exponents (rather than field
elements) make re-embedding at any common cyclotomic order a cheap integer
rescale (`exponent_table`), and a pair's psi is read from those tables.

Construction enumerates the full dual group of (Z/qZ)^* from a generating
set built by CRT over the prime powers dividing q: a primitive root for an
odd prime power, and the pair -1, 5 for 2^k with k >= 3.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .exactnum import CycElem, _divisors, root_of_unity
from .modgroup import _clip, _refusal, _short


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

    __slots__ = ("modulus", "order", "_exps", "_conductor", "_tables")

    def __init__(self, modulus: int, order: int, exps):
        self.modulus = modulus
        self.order = order
        self._exps = tuple(exps)
        self._conductor = None
        self._tables = {}
        if len(self._exps) != max(modulus, 1):
            raise ValueError("exponent table must cover all residues")

    def exponent(self, n: int):
        """k with chi(n) = zeta_order^k, or None when gcd(n, q) > 1."""
        return self._exps[n % self.modulus]

    def exponent_table(self, L: int) -> tuple:
        """e with chi(n) = zeta_L^e[n mod q], None where gcd(n, q) > 1, for
        an order L that the character's order divides."""
        if L not in self._tables:
            if L % self.order != 0:
                raise ValueError(f"character order {self.order} does not divide {L}")
            self._tables[L] = tuple([None if k is None else k * (L // self.order) for k in self._exps])
        return self._tables[L]

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
        return (self.modulus, self.order, self._exps) == (other.modulus, other.order, other._exps)

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
        g0 = gcd(E, *w.values())
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
    for every (g, t) in assignments; raises if none or several match,
    naming the spec that q and the assignments spell; a string t is read
    as a spec's value is, so exponent notation is refused, and an infinity
    or a NaN is refused as a string is; so is a t of any other type, and a
    q or g that is no int.
    """
    assignments = list(assignments)
    for name, n in [("modulus", q), *(("generator", g) for g, _ in assignments)]:
        if not isinstance(n, int):
            raise ValueError(f"{name} of type {type(n).__name__} is not an int")
    assignments = [(g, _spec_number("value", t, f"at g={_short(g)}", Fraction)) for g, t in assignments]
    return _find_character(q, assignments, f"'{_spec_text(q, assignments)}'")


def _spec_text(q: int, assignments) -> str:
    """The spec "q=..;g=..;v=.." of q and (g, Fraction) pairs, as an error
    names it and a cache stores it, an int past 256 bits by its size."""
    return ";".join([f"q={_short(q)}"] + [
        f"g={_short(g)};v={_short(t.numerator)}{f'/{_short(t.denominator)}' if t.denominator > 1 else ''}"
        for g, t in assignments])


def _find_character(q: int, assignments, spec: str) -> DirichletCharacter:
    """`find_character` on Fraction values, its error naming `spec`."""
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
        raise ValueError(f"character spec {spec} matches {len(matches)} primitive characters, need exactly 1")
    return matches[0]


def parse_spec_fields(spec: str) -> tuple[int, list[tuple[int, Fraction]]]:
    """The modulus and the (generator, value) pairs of a spec "q=5;g=2;v=3/4",
    read without building any character; an error says when a number is
    past the interpreter's int_max_str_digits, and cuts a long text."""
    if not isinstance(spec, str):
        raise ValueError(f"character spec of type {type(spec).__name__} is not a string")
    q = None
    pairs: list[tuple[int, Fraction]] = []
    pending_g = None
    at = f"in character spec {_clip(spec)}"
    for field in spec.split(";"):
        field = field.strip()
        if not field:
            continue
        key, _, val = field.partition("=")
        key, val = key.strip(), val.strip()
        if key == "q":
            if q is not None:
                raise ValueError(f"character spec {_clip(spec)} gives q= twice")
            q = _spec_number("modulus", val, at)
        elif key == "g":
            if pending_g is not None:
                raise ValueError(f"dangling generator {at}")
            pending_g = _spec_number("generator", val, at)
        elif key == "v":
            if pending_g is None:
                raise ValueError(f"value without generator {at}")
            pairs.append((pending_g, _spec_number("value", val, at, Fraction)))
            pending_g = None
        else:
            raise ValueError(f"unknown field {_clip(key)} {at}")
    if q is None:
        raise ValueError(f"character spec {_clip(spec)} is missing q=")
    if q < 1:
        raise ValueError(f"modulus q={_short(q)} {at} must be a positive integer")
    if pending_g is not None:
        raise ValueError(f"dangling generator {at}")
    return q, pairs


def _spec_number(name: str, val, at: str, parse=int):
    if parse is Fraction and type(val) is str and re.search("[0-9.][eE]", val):  # Fraction("1e1000000000"): 10^9 digits
        raise ValueError(f"{name} {_clip(val)} {at} is in exponent notation; write it p/q or as a decimal")
    try:
        return parse(val)
    except ZeroDivisionError:
        raise ValueError(f"{name} {_clip(val)} {at} divides by 0") from None
    except (ValueError, TypeError, OverflowError):  # OverflowError: Fraction() of a float or Decimal infinity
        raise ValueError(f"{name} {_clip(str(val))} {at} {_refusal(str(val), parse is Fraction)}") from None


def parse_character_spec(spec: str) -> DirichletCharacter:
    """Parse "q=5;g=2;v=3/4" (repeatable g=..;v=.. pairs) to a character."""
    return _find_character(*parse_spec_fields(spec), _clip(spec))


def pair_order(chi1: DirichletCharacter, chi2: DirichletCharacter) -> int:
    """Common cyclotomic order for a character pair; even so -1 embeds."""
    return lcm(chi1.order, chi2.order, 2)


def _psi_odd(chi1: DirichletCharacter, chi2: DirichletCharacter) -> bool:
    """Whether psi(-1) = chi1*chi2(-1) is -1: the two exponents at L, each 0 or L/2, differ."""
    L = pair_order(chi1, chi2)
    return chi1.exponent_table(L)[-1] != chi2.exponent_table(L)[-1]


def _twists(chi1: DirichletCharacter, chi2: DirichletCharacter) -> dict[int, int]:
    """e with psi(lambda) = zeta_L^e, L the pair's order, per unit lambda mod q1 q2."""
    L, q1, q2 = pair_order(chi1, chi2), chi1.modulus, chi2.modulus
    e1, e2, N = chi1.exponent_table(L), chi2.exponent_table(L), q1 * q2
    return {u: (e1[u % q1] - e2[u % q2]) % L for u in range(N) if gcd(u, N) == 1}


def psi(chi1: DirichletCharacter, chi2: DirichletCharacter, gamma) -> CycElem:
    """Twist chi1 * conj(chi2) evaluated at the lower-right entry of gamma."""
    L, d = pair_order(chi1, chi2), gamma.d
    k1, k2 = chi1.exponent_table(L)[d % chi1.modulus], chi2.exponent_table(L)[d % chi2.modulus]
    if k1 is None or k2 is None:
        raise ValueError(f"lower-right entry {_short(d)} shares a factor with {chi1.modulus * chi2.modulus}")
    return root_of_unity(L, k1 - k2)
