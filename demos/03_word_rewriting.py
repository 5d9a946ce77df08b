"""From a matrix to a short word over a finite alphabet of Gamma1(9).

The fast evaluator rests on two moves, shown here end to end on one
matrix: decompose the Gamma0 matrix into a T/S word of logarithmic length,
and rewrite that word as a product of U-values indexed by a finite table,
times the Gamma1-in-Gamma0 transversal member at which the walk ends.  The
rewrite walks only the coset key (c mod N, d mod N) of each prefix; beside
each factor this script prints the matrix-level reference: the key of the
full prefix matrix and the U-value itself.  Last, it regroups the factors
the way the evaluator's slot tables do, one matrix per S letter plus
powers of one matrix per T-orbit, and checks that they too multiply back
to the target.
"""

from math import gcd

from gdsum.cosets import (
    schreier_alphabet,
    transversal_g0_in_sl2,
    transversal_g1_in_g0,
    transversal_g1_in_sl2,
)
from gdsum.modgroup import I2, Mat2, S, ts_decompose, ts_reconstruct
from gdsum.rewriter import modified_rewrite

N = 9
gamma0 = Mat2(17, 32, 9, 17)
print(f"Target: gamma0 = {gamma0} in Gamma0({N})")

t_g0 = transversal_g1_in_g0(N)
print(f"\nTransversal of Gamma1({N}) in Gamma0({N}), one member per unit d mod {N}:")
for d, m in sorted(t_g0.members.items()):
    print(f"  d={d}: {m}")


def spell(w):
    return ("-" if w.negate else "") + " S ".join(f"T^{e}" for e in w.exponents)


w = ts_decompose(gamma0)
print(f"\nT/S word, nearest-integer quotients ({w.letters} exponents): {spell(w)}")
assert ts_reconstruct(w) == gamma0 and not w.negate

t_sl2 = transversal_g1_in_sl2(N)
print(f"\nFull-group transversal has {len(t_sl2)} members, keyed by (c, d) mod {N}.")


def key(m):
    return m.c % N, m.d % N


def u_func(x, y):
    """U(x, y) = x y (coset rep of x y)^-1, an element of Gamma1(N)."""
    return x * y * t_sl2.members[key(x * y)].inv()


def t_power(n):
    """T^n = (1 n; 0 1)."""
    return Mat2(1, n, 0, 1)


keys = modified_rewrite(w, t_sl2)
# one U-factor (base key, generator, exponent) per nonzero T-power and per S,
# based at its slot key (c, d); zip drops the S after the last T-power
letters = [x for a in w.exponents for x in (("T", a), ("S", 1))]
factors = [(divmod(k, N), gen, e) for k, (gen, e) in zip(keys, letters) if e]
print(
    f"Rewriting walks {len(keys)} slot keys c*{N} + d, one before each T-power and each S:\n"
    f"  {keys}\n"
    "The walk carries only the key: T^a maps (c, d) to (c, d + a*c), S maps it to (d, -c).\n"
    f"As U-factors (one per nonzero T-power, one per S) that is {len(factors)} factors.\n"
    "Beside each factor, the key of the full prefix matrix and the U-matrix:"
)


def step(gen, e):
    return t_power(e) if gen == "T" else S


prefix = I2
prod = I2
for base, gen, e in factors:
    u = u_func(t_sl2.members[base], step(gen, e))
    spelled = f"U({base}, T^{e})" if gen == "T" else f"U({base}, S)"
    print(f"  {spelled:<20} prefix key {key(prefix)}  U = {u}")
    assert key(prefix) == base
    prefix = prefix * step(gen, e)
    prod = prod * u
end = key(prefix)
g = t_sl2.members[end]
print(
    f"\nThe walk ends at the key {end} = (0, d mod {N}), whose member is the Gamma0\n"
    f"transversal member g = {g} at d = {end[1]}, so gamma0 = (factors) * g and\n"
    "S(gamma0) = (their sums) + S(g).  Exact product of the factors times g equals\n"
    f"gamma0: {prod * g == gamma0}"
)
negated = Mat2(101, 33, 153, 50)
print(
    f"A negated word, such as {spell(ts_decompose(negated))} for\n"
    f"{negated}, multiplies to -gamma without its sign, so its walk ends at\n"
    f"{key(-negated)} = (0, -d mod {N}); S(-gamma) = psi(-1) S(gamma) = S(gamma), as\n"
    "psi(-1) = 1 for every pair that is not refused."
)


def orbit(key):
    """The base member of key's T-orbit (c, d + j c), key's position and the orbit length."""
    c, d = key
    g = gcd(c, N)
    pos = next(j for j in range(N // g) if (d % g + j * c) % N == d)
    return t_sl2.members[c, d % g], pos, N // g


def climb(key):
    """P(key) = U(base, T^pos): the walk along key's T-orbit from its base."""
    base, pos, _ = orbit(key)
    return u_func(base, t_power(pos))


print(
    "\nThe evaluator never indexes T-powers.  Along the T-orbit of a key k, with\n"
    "P(k) = U(base, T^pos) and Z = U(base, T^length), every T-power factor is\n"
    "U(t, T^a) = P(k)^-1 Z^w P(k T^a) with w = floor((pos + a) / length).  The P's\n"
    "cancel between letters, and the walk starts and ends on orbits of length 1, so\n"
    "the word is one matrix P(k) U(t, S) P(kS)^-1 per S letter (the S-step) and Z^w\n"
    "for each T-power that wraps around its orbit:"
)
prod = I2
for k, gen, e in factors:
    if gen == "T":
        base, pos, length = orbit(k)
        w = (pos + e) // length
        if w:
            z = u_func(base, t_power(length))
            print(f"  {f'{w} * orbit total at {k}':<28}  Z = {z}")
            for _ in range(abs(w)):
                prod = prod * (z if w > 0 else z.inv())
    else:
        m = climb(k) * u_func(t_sl2.members[k], S) * climb((k[1], -k[0] % N)).inv()
        print(f"  {f'S-step row at {k}':<28}  U = {m}")
        prod = prod * m
print(f"Exact product of the terms times g equals gamma0: {prod * g == gamma0}")

generators = 2 * len(t_sl2)
print(f"\nThe evaluator reads sums of the {generators} Schreier generators only: U(t, T)")
print(f"and U(t, S) for each of the {len(t_sl2)} members t.  Every matrix above is a")
print("product of them, so its sum is a sum of theirs, derived once per key: one")
print("S-step row per key and one total per T-orbit.  A sum over the terms evaluates")
print("the whole matrix in time proportional to the word length; a row that is 0")
print("(most orbit totals, and the S-step row at (0, 1)) adds no term at all.")
p1 = transversal_g0_in_sl2(N)
print(f"A context derives those {generators} sums, once, from the {len(schreier_alphabet(N, p1))}")
print(f"sums of the Gamma0({N}) generators over the {len(p1)} points of P^1(Z/{N}): the only")
print("sums a precompute reads from the double sum and a context is built from.")
