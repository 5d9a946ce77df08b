"""The payoff: table-driven evaluation against the defining double sum.

After a one-time precomputation per character pair, any matrix evaluates in
time logarithmic in its lower-left entry; the double sum is linear in it.
Both paths are exact and must agree wherever the double sum applies.
"""

import random
import time

from gdsum import fast_sum, find_character, naive_sum, precompute
from gdsum.cosets import sl2_coset_count
from gdsum.modgroup import Mat2, random_gamma0

chi1 = find_character(4, [(3, "1/2")])
chi2 = find_character(7, [(3, "5/6")])

t0 = time.perf_counter()
ctx = precompute(chi1, chi2)
print(
    f"Precomputed tables for the pair mod (4, 7): level N = {ctx.N}, "
    f"{len(ctx.sums_alphabet)} Gamma0 generator sums over {len(ctx.p1)} points of P^1, "
    f"rows for {sl2_coset_count(ctx.N)} coset keys, {time.perf_counter() - t0:.2f} s (one-time)"
)

print("\nAgreement with the double sum on random matrices in Gamma0(28):")
rng = random.Random(0)
for _ in range(4):
    gamma = random_gamma0(28, rng, kmax=40, d_shift=1)
    fast = fast_sum(ctx, gamma)
    slow = naive_sum(chi1, chi2, gamma)
    mark = "==" if fast == slow else "!="
    print(f"  S{gamma} = {fast} {mark} {slow}")

print("\nTiming as the lower-left entry grows (seconds per evaluation):")
print(f"  {'c':>14}  {'table path':>12}  {'double sum':>12}")
for k in (10, 100, 1000):
    c = 28 * k
    gamma = random_gamma0(28, rng, kmin=k, kmax=k)
    fast_sum(ctx, gamma)
    t0 = time.perf_counter()
    for _ in range(10):
        fast_sum(ctx, gamma)
    tf = (time.perf_counter() - t0) / 10
    t0 = time.perf_counter()
    naive_sum(chi1, chi2, gamma)
    tn = time.perf_counter() - t0
    print(f"  {c:>14}  {tf:>12.6f}  {tn:>12.6f}")

huge = random_gamma0(28, random.Random(1), kmin=10**10, kmax=10**10)
t0 = time.perf_counter()
value = fast_sum(ctx, huge)
tf = time.perf_counter() - t0
print(f"  {huge.c:>14}  {tf:>12.6f}  {'(skipped)':>12}")
print(f"\nS of the c = {huge.c} matrix: {value} ~ {value.approx():.6f}")
print("The double sum would need hours there; the table path stays exact")
print("because every step is an identity in the group algebra, not a float.")
