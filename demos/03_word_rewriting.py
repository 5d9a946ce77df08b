"""From a matrix to a short word over a finite alphabet of Gamma1(9).

The fast evaluator rests on three moves, shown here end to end on one
matrix: split off a Gamma0-transversal factor, decompose the Gamma1 part
into a T/S word of logarithmic length, and rewrite that word as a product
of U-values indexed by a finite table.  The rewrite walks only the coset
key (c mod N, d mod N) of each prefix; beside each factor this script
prints the matrix-level reference: the key of the full prefix matrix and
the U-value itself.
"""

from gdsum.cosets import schreier_alphabet, transversal_g1_in_g0, transversal_g1_in_sl2, u_func
from gdsum.modgroup import I2, Mat2, S, ts_decompose, ts_reconstruct
from gdsum.rewriter import (
    expand_factor,
    format_factor,
    format_reduced,
    modified_rewrite,
    reduce_word,
)

N = 9
gamma0 = Mat2(17, 32, 9, 17)
print(f"Target: gamma0 = {gamma0} in Gamma0({N})")

t_g0 = transversal_g1_in_g0(N)
print(f"\nTransversal of Gamma1({N}) in Gamma0({N}), one member per unit d mod {N}:")
for d, m in sorted(t_g0.members.items()):
    print(f"  d={d}: {m}")

g = t_g0.members[gamma0.d % N]
gamma1 = gamma0 * g.inv()
print(f"\nSplit gamma0 = gamma1 * g with g = {g}:")
print(f"  gamma1 = {gamma1}, in Gamma1({N}): {gamma1.in_gamma1(N)}")


def spell(w):
    return ("-" if w.negate else "") + " S ".join(f"T^{e}" for e in w.exponents)


w = ts_decompose(gamma1, nearest=True)
floor = ts_decompose(gamma1)
print(f"\nT/S word, nearest-integer quotients ({w.letters} exponents): {spell(w)}")
print(f"(floor quotients would give {floor.letters}: {spell(floor)})")
assert ts_reconstruct(w) == gamma1

t_sl2 = transversal_g1_in_sl2(N)
print(f"\nFull-group transversal has {len(t_sl2)} members, keyed by (c, d) mod {N}.")
factors = modified_rewrite(w, t_sl2)
print(
    f"Rewriting gives {len(factors)} U-factors (one per T-power, one per S).  The walk\n"
    "carries only the key: T^a maps (c, d) to (c, d + a*c), S maps it to (d, -c).\n"
    "Beside each factor, the key of the full prefix matrix and the U-matrix:"
)
prefix = I2
prod = I2
for f in factors:
    u = expand_factor(f, t_sl2)
    print(f"  {format_factor(f):<20} prefix key {t_sl2.key_of(prefix)}  U = {u}")
    assert t_sl2.key_of(prefix) == f.base_key
    if f.gen == "T":
        prefix = prefix.mul_t_power(f.exponent)
    elif f.gen == "S":
        prefix = prefix.mul_s()
    else:
        prefix = -prefix
    prod = prod * u
print(f"\nExact product of the factors equals gamma1: {prod == gamma1}")

reduced = reduce_word(factors, N)
print(
    f"\nT-exponents cycle mod {N} into U(t, T^i) with 1 <= i <= {N}, and -I into U(t, S^2)\n"
    f"({len(reduced)} terms), each shown with its matrix:"
)
prod = I2
for f in reduced:
    name, k = f.gen
    g = Mat2.t_power(k) if name == "T" else [I2, S, S * S][k]
    u = u_func(t_sl2.members[f.base_key], g, t_sl2)
    print(f"  {format_reduced(f):<22} U = {u}")
    for _ in range(abs(f.multiplicity)):
        prod = prod * (u if f.multiplicity > 0 else u.inv())
print(f"Exact product of the terms equals gamma1: {prod == gamma1}")

generators = schreier_alphabet(N, t_sl2)
print(f"\nThe tables store sums for the {len(generators)} Schreier generators only: U(t, T)")
print(f"and U(t, S) for each of the {len(t_sl2)} members t.  Every term above is a product")
print("of them, so its sum is a sum of theirs, derived once; a sum over the terms")
print("evaluates the whole matrix in time proportional to the word length.")
