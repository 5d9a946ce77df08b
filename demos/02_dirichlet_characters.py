"""Dirichlet characters with exact root-of-unity values.

Characters are enumerated from the structure of the unit group, selected by
their values on generators, and evaluated as exact cyclotomic elements.
The twist psi(gamma) = chi1 * conj(chi2) at the lower-right entry is the
multiplier in the sums' twisted additivity.
"""

from gdsum import characters_mod, find_character, psi
from gdsum.characters import pair_order
from gdsum.modgroup import I2, Mat2

print("All characters mod 7 (values as exponents k with chi(3) = zeta_order^k):")
for chi in characters_mod(7):
    vals = ", ".join(f"chi({n})={chi.eval(n)}" for n in (2, 3, 6))
    print(
        f"  order {chi.order}, conductor {chi.conductor()}, "
        f"primitive={chi.is_primitive()}: {vals}"
    )

print()
print("Selecting characters by generator values:")
chi1 = find_character(5, [(2, "3/4")])  # chi1(2) = exp(2*pi*i*3/4) = -i
chi2 = find_character(7, [(3, "5/6")])  # chi2(3) = exp(2*pi*i*5/6)
print(f"  chi1: {chi1}, chi1(2) = {chi1.eval(2)} ~ {chi1.eval(2).approx():.3f}")
print(f"  chi2: {chi2}, chi2(3) = {chi2.eval(3)} ~ {chi2.eval(3).approx():.3f}")

print()
print("Multiplicativity is exact, zeros off the unit group:")
print(f"  chi1(3) * chi1(4) = {chi1.eval(3) * chi1.eval(4)} = chi1(12) = {chi1.eval(12)}")
print(f"  chi1(10) = {chi1.eval(10)} (10 shares a factor with 5)")

print()
print("Parity of a pair decides whether the double sum's hypothesis holds:")
for q2_spec, label in (("5/6", "odd*odd"), ("1/3", "odd*even")):
    c2 = find_character(7, [(3, q2_spec)])
    p = psi(chi1, c2, -I2)  # chi1(-1) * conj(chi2(-1)) = chi1*chi2(-1)
    print(f"  chi1 mod 5 with chi2(3)=e(2pi i {q2_spec}): chi1*chi2(-1) = {p} ({label})")

print()
print("The twist psi at matrices in Gamma0(35):")
L = pair_order(chi1, chi2)
for d in (1, 2, 3):
    a = pow(d, -1, 35) if d > 1 else 1
    gamma = Mat2(a, (a * d - 1) // 35, 35, d) if d > 1 else Mat2(1, 0, 35, 1)
    v = psi(chi1, chi2, gamma)
    print(f"  psi(d={d}) = {v}  ~ {v.approx():.3f}")
print("  (psi = 1 whenever the lower-right entry is 1 mod 35)")
