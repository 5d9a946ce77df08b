"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Everything downstream (character values, Dedekind sums) lives in some
Q(zeta_L) with rational coefficients.  Elements are stored reduced modulo
the L-th cyclotomic polynomial Phi_L, so that equality of two elements of
the same order is literally coefficient-wise equality; exact zero-testing
is what the rest of the engine leans on.  No floats anywhere except the
display-only `approx`.  `_rows`/`_cyc` convert to and from integer rows
over one denominator, and `_rotations` turns a row by each power of zeta_L.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm


def _divisors(n: int) -> list[int]:
    ds = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            ds.append(i)
            if i != n // i:
                ds.append(n // i)
        i += 1
    return sorted(ds)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division in Z[x]; den must be monic and must divide num.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for k in range(len(den)):
                num[i + k] -= c * den[k]
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients of Phi_L, ascending degree, monic.

    Computed by exact division of x^L - 1 by Phi_d over the proper
    divisors d of L.
    """
    _order(L)
    poly = [-1] + [0] * (L - 1) + [1]
    for d in _divisors(L)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _int(name: str, n):
    """n, refused with a ValueError naming it and its type unless it is an int."""
    if not isinstance(n, int):
        raise ValueError(f"{name} {n!r:.40} of type {type(n).__name__} is not an int")
    return n


def _iter(name: str, xs):
    """iter(xs), refused with a ValueError naming xs and its type unless it is iterable."""
    try:
        return iter(xs)
    except TypeError:
        raise ValueError(f"{name} {xs!r:.40} of type {type(xs).__name__} is not iterable") from None


def _order(L) -> int:
    """L, refused with a ValueError unless it is a positive int."""
    if _int("order", L) < 1:
        raise ValueError("order must be a positive integer")
    return L


def _fraction(x) -> Fraction:
    """Fraction(x), refused with a ValueError naming x and its type unless it reads x."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an infinity
        raise ValueError(f"coefficient {x!r:.40} of type {type(x).__name__} is not a rational") from None


def _reduce(L: int, raw: list) -> tuple:
    """Polynomial remainder of raw mod Phi_L (monic, integral), reusing raw;
    exact for Fraction and for integer coefficients, which stay integers."""
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    terms = [(k, a) for k, a in enumerate(phi[:deg]) if a]
    if len(raw) < deg:
        raw = raw + [Fraction(0)] * (deg - len(raw))
    for i in range(len(raw) - 1, deg - 1, -1):
        c = raw[i]
        if c:
            for k, a in terms:
                raw[i - deg + k] -= c * a
    return tuple(raw[:deg])


class CycElem:
    """Element of Q(zeta_L): sum coeffs[k] * zeta_L^k, degree < deg Phi_L.

    Immutable after construction.  Binary operations require equal orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        object.__setattr__(self, "order", _order(order))
        raw = [c if isinstance(c, Fraction) else _fraction(c) for c in _iter("coefficient list", coeffs)]
        object.__setattr__(self, "coeffs", _reduce(order, raw))

    def __setattr__(self, name, value):
        raise AttributeError("CycElem is immutable")

    @classmethod
    def _raw(cls, order: int, coeffs: tuple) -> "CycElem":
        # trusted constructor: coeffs already canonical for this order
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def zero(cls, order: int) -> "CycElem":
        return cls(order, [])

    @classmethod
    def one(cls, order: int) -> "CycElem":
        return cls(order, [Fraction(1)])

    @classmethod
    def from_rational(cls, order: int, r) -> "CycElem":
        return cls(order, [r])

    def _check_order(self, other: "CycElem"):
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, CycElem):
            self._check_order(other)
            return CycElem._raw(
                self.order, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
            )
        if isinstance(other, (int, Fraction)):
            c = list(self.coeffs)
            c[0] += other
            return CycElem._raw(self.order, tuple(c))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CycElem):
            self._check_order(other)
            return CycElem._raw(
                self.order, tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
            )
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return CycElem._raw(self.order, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CycElem):
            self._check_order(other)
            n = len(self.coeffs)
            raw = [Fraction(0)] * (2 * n)
            for i, ci in enumerate(self.coeffs):
                if ci:
                    for j, cj in enumerate(other.coeffs):
                        if cj:
                            raw[i + j] += ci * cj
            return CycElem(self.order, raw)
        if isinstance(other, (int, Fraction)):
            return CycElem._raw(self.order, tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CycElem):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == CycElem.from_rational(self.order, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def approx(self) -> complex:
        """Floating approximation for display; never used in exact code."""
        z = 0j
        for k, c in enumerate(self.coeffs):
            if c:
                z += float(c) * cmath.exp(2j * cmath.pi * k / self.order)
        return z

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                t = str(c)
            else:
                z = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    t = z
                elif c == -1:
                    t = f"-{z}"
                else:
                    t = f"{c}*{z}"
            terms.append(t)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"CycElem({self.order}, {list(self.coeffs)!r})"


def root_of_unity(L: int, k: int) -> CycElem:
    """zeta_L^(k mod L) in canonical form: the basis row of k mod L, reduced
    mod Phi_L.  An L or a k that is not an int is refused, naming it."""
    row = [0] * _order(L)
    row[_int("exponent", k) % L] = 1
    return _cyc(L, 1, _reduce(L, row))


def _rotations(L: int, row) -> list:
    """The rows zeta_L^e row, e < L, each the previous times zeta_L: a shift, the top folded by Phi_L."""
    fold, out = [(k, a) for k, a in enumerate(cyclotomic_polynomial(L)[:-1]) if a], [tuple(row)]
    for _ in range(L - 1):
        top, row = row[-1], [0, *row[:-1]]
        for k, a in fold:
            row[k] -= top * a
        out.append(tuple(row))
    return out


def _rows(values: dict) -> tuple[int, dict]:
    """D = lcm(the CycElems' denominators) and their rows over D, one tuple
    per distinct object, however many keys share it."""
    distinct = {id(v): v for v in values.values()}
    den = lcm(*{x.denominator for v in distinct.values() for x in v.coeffs})
    row_of = {i: tuple([x.numerator * (den // x.denominator) for x in v.coeffs]) for i, v in distinct.items()}
    return den, {k: row_of[id(v)] for k, v in values.items()}


def _cyc(order: int, den: int, row) -> CycElem:
    """row/den as a CycElem, row holding deg Phi_order integers, reduced."""
    self = object.__new__(CycElem)  # as `CycElem._raw` does, one call less per `fast_sum`
    object.__setattr__(self, "order", order)
    object.__setattr__(self, "coeffs", tuple([Fraction(n, den) for n in row]))
    return self
