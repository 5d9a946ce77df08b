"""Unimodular 2x2 integer matrices and their T/S generator words.

T = (1 1; 0 1) is the unit shear, S = (0 -1; 1 0) the order-4 rotation;
together they generate the full group of determinant-1 integer matrices,
and -I = S^2.  `ts_decompose` writes any such matrix as
+-T^a1 S T^a2 S ... T^ar via nearest-integer Euclidean steps on the first
column, so |c| at least halves with every letter.  Each word's exact
product is checked to be the matrix as the word is emitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd


def _short(x: int) -> str:
    """x in decimal, or past 256 bits its bit length, so that a message stays
    one short line and needs no int-to-str conversion (CPython refuses one
    past 4,300 digits)."""
    return str(x) if x.bit_length() <= 256 else f"{'-' if x < 0 else ''}<{x.bit_length():,}-bit integer>"


def _clip(text: str) -> str:
    """repr(text), or past 80 characters that of its first 40 and its length."""
    return repr(text) if len(text) <= 80 else f"{text[:40]!r}... ({len(text):,} characters)"


def _refusal(text: str, ratio: bool = False) -> str:
    """Why int(text), or Fraction(text) with ratio, refused text: one so written only for its length."""
    if re.fullmatch(r"\s*[+-]?\d+(_\d+)*" + (r"(/\d+(_\d+)*)?" if ratio else "") + r"\s*", text):
        return "is past the interpreter's int-to-str digit limit; see sys.set_int_max_str_digits"
    return f"is not {'a rational' if ratio else 'an integer'}"


class Mat2:
    """Integer matrix (a b; c d) with ad - bc = 1; immutable.  An entry
    that is not an int is refused with a ValueError naming it."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int) and isinstance(d, int)):
            name, x = next((n, x) for n, x in zip("abcd", (a, b, c, d)) if not isinstance(x, int))
            raise ValueError(f"matrix entry {name} of type {type(x).__name__} is not an int")
        if a * d - b * c != 1:
            a, b, c, d = map(_short, (a, b, c, d))
            raise ValueError(f"determinant of ({a},{b};{c},{d}) is not 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def parse(cls, text: str) -> "Mat2":
        """Parse "a,b;c,d" with optional whitespace.  An entry longer than
        the interpreter's int_max_str_digits does not parse, and the error
        says so; the CLI lifts that limit."""
        rows = text.strip().split(";")
        if len(rows) != 2:
            raise ValueError(f"matrix spec {_clip(text)} must have two ;-separated rows")
        entries = []
        for row in rows:
            cols = row.split(",")
            if len(cols) != 2:
                raise ValueError(f"matrix row {_clip(row)} must have two ,-separated entries")
            for col in cols:
                try:
                    entries.append(int(col))
                except ValueError:
                    why = _refusal(col)
                    raise ValueError(f"matrix entry {_clip(col.strip())} in {_clip(text)} {why}") from None
        return cls(*entries)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def in_gamma0(self, N: int) -> bool:
        return self.c % N == 0

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        try:  # past the int-to-str digit limit, the entries as str() gives them
            return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"
        except ValueError:
            return "Mat2({}, {}, {}, {})".format(*map(_short, self.entries()))

    def __str__(self):
        """(a, b; c, d), each entry past 256 bits given by its bit length."""
        a, b, c, d = map(_short, self.entries())
        return f"({a}, {b}; {c}, {d})"


I2 = Mat2.identity()
S = Mat2(0, -1, 1, 0)
T = Mat2(1, 1, 0, 1)


@dataclass(frozen=True)
class TSWord:
    """Sign plus exponents for +-T^a1 S T^a2 S ... T^ar (r-1 S letters).

    Interior exponents are nonzero; zeros may appear only at the ends.
    """

    negate: bool
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not self.exponents:
            raise ValueError("a TS word needs at least one exponent")
        if 0 in self.exponents[1:-1]:
            raise ValueError("interior exponents must be nonzero")

    @property
    def letters(self) -> int:
        return len(self.exponents)


def _continuants(exps) -> tuple[int, int, int, int]:
    """(x, z, x', z') with T^q1 S T^q2 S ... T^qk S = (x, -x'; z, -z')."""
    x, z, xp, zp = 1, 0, 0, -1
    for q in exps:
        x, xp = x * q - xp, x
        z, zp = z * q - zp, z
    return x, z, xp, zp


def _entries(w: TSWord, x: int, z: int, xp: int, zp: int) -> tuple[int, int, int, int]:
    """w's product +-(x, -x'; z, -z') T^e from the continuants of all but its last exponent e."""
    e, s = w.exponents[-1], -1 if w.negate else 1
    return s * x, s * (x * e - xp), s * z, s * (z * e - zp)


def ts_decompose(m: Mat2) -> TSWord:
    """Euclidean T/S decomposition; deterministic, at most log2|c| + 2 exponents.

    Nearest-integer quotients (ties toward floor) at least halve |c| every
    step.  Euclid runs on (a, c) alone, the continuants of its quotients
    give the last exponent and the sign, and ValueError is raised unless
    the word's exact product is m: the evaluation path's one product check.
    """
    a, c, exps = m.a, m.c, []
    while c:
        q, r = divmod(a, c)  # r has the sign of c; a nearest q rounds up past c/2
        if (r + r > c) if c > 0 else (r + r < c):
            q += 1
            r -= c
        exps.append(q)
        a, c = c, -r
    # m = +-P T^e with P = (x, -x'; z, -z'), so +-T^e = P^-1 m = (-z', x'; -z, x) m
    _, _, xp, zp = cont = _continuants(exps)
    e = xp * m.d - zp * m.b
    w = TSWord(a != 1, (*exps, e if a == 1 else -e))
    if (p := _entries(w, *cont)) != m.entries():
        raise ValueError(f"word product {Mat2(*p)} is not {m}")
    return w


def ts_reconstruct(w: TSWord) -> Mat2:
    """Exact matrix product of the word."""
    return Mat2(*_entries(w, *_continuants(w.exponents[:-1])))


def random_gamma0(N: int, rng, kmin: int = 1, kmax: int = 100, d_shift: int = 0) -> Mat2:
    """Random (a b; c d) with c = N*k, 0 < a < c, gcd(a, c) = 1, det 1.

    d may be shifted by random multiples of c (up to d_shift) for variety.
    """
    while True:
        c = N * rng.randint(kmin, kmax)
        a = rng.randrange(1, c) if c > 1 else 1
        if gcd(a, c) == 1:
            break
    d = pow(a, -1, c) if c > 1 else rng.randint(-5, 5)
    if d_shift:
        d += c * rng.randint(-d_shift, d_shift)
    b = (a * d - 1) // c
    return Mat2(a, b, c, d)
