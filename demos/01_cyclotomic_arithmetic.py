"""Exact arithmetic in cyclotomic fields.

Every value in this package is an element of some Q(zeta_L): a polynomial
in a primitive L-th root of unity with rational coefficients, kept reduced
modulo the L-th cyclotomic polynomial.  That canonical form is what makes
equality testing exact, with no epsilon anywhere.
"""

from fractions import Fraction

from gdsum import CycElem, cyclotomic_polynomial, root_of_unity


def poly_str(coeffs):
    return " + ".join(f"{c}*x^{k}" for k, c in enumerate(coeffs) if c)


def conj(x):
    """Complex conjugation: each zeta_L^k goes to zeta_L^(L-k)."""
    raw = [0] * x.order
    for k, c in enumerate(x.coeffs):
        raw[-k % x.order] = c
    return CycElem(x.order, raw)


def embed(x, M):
    """x seen in Q(zeta_M), for L dividing M: each zeta_L^k is zeta_M^(k M/L)."""
    raw = [0] * M
    for k, c in enumerate(x.coeffs):
        raw[k * (M // x.order)] = c
    return CycElem(M, raw)


def b1(x):
    """First Bernoulli function: 0 at integers, else x - floor(x) - 1/2."""
    x = Fraction(x)
    return Fraction(0) if x.denominator == 1 else x - (x.numerator // x.denominator) - Fraction(1, 2)


print("Cyclotomic polynomials (ascending coefficients):")
for L in (1, 2, 3, 4, 6, 12):
    print(f"  Phi_{L:<2} = {poly_str(cyclotomic_polynomial(L))}")

print()
print("zeta_6 = primitive 6th root of unity, z for short.")
z = root_of_unity(6, 1)
print(f"  z          -> {z}")
print(f"  z^2        -> {z * z}        (reduced mod Phi_6 = x^2 - x + 1)")
print(f"  z^3        -> {z * z * z}")
print(f"  z * z^5    -> {z * root_of_unity(6, 5)}")
print(f"  conj(z)    -> {conj(z)}   (= z^5)")

print()
print("1 + zeta_3 + zeta_3^2 vanishes, and the zero test is exact:")
z3 = root_of_unity(3, 1)
total = CycElem.one(3) + z3 + z3 * z3
print(f"  sum = {total}, equals zero: {total == CycElem.zero(3)}")

print()
print("Embedding into a larger field is a ring homomorphism:")
print(f"  zeta_3 seen in Q(zeta_6): {embed(z3, 6)}   (= zeta_6^2 reduced)")
a = CycElem(3, [Fraction(1, 2), Fraction(-2, 3)])
b = CycElem(3, [Fraction(0), Fraction(5, 7)])
assert embed(a * b, 6) == embed(a, 6) * embed(b, 6)
print(f"  ({a}) * ({b}) embeds consistently: check passed")

print()
print("Floating approximations exist for display only:")
for e in (z, a):
    print(f"  {str(e):24} ~ {e.approx():.6f}")

print()
print("The sawtooth B1 feeding the sums, exact rationals in and out:")
for x in (0, Fraction(1, 3), Fraction(7, 4), Fraction(-5, 6)):
    print(f"  b1({x}) = {b1(x)}")
