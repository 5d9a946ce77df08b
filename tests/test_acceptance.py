"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every equality here is exact (field-element or matrix equality);
the only tolerances are the two wall-clock bounds and the scaling envelope,
which are stated inline.
"""

import random
import time

from gdsum.characters import euler_phi
from gdsum.cosets import sl2_coset_count, transversal_g1_in_g0, transversal_g1_in_sl2
from gdsum.dedekind import (
    fast_sum,
    load_context,
    naive_sum,
    precompute,
    save_context,
)
from gdsum.exactnum import CycElem
from gdsum.modgroup import (
    I2,
    Mat2,
    S,
    T,
    TSWord,
    random_gamma0,
    ts_reconstruct,
)
from reference_tables import (
    bar,
    crossed_hom_check,
    gamma1_alphabet,
    in_gamma1,
    mul_t_power,
    random_sl2,
    strip_letters,
    t_power,
    u_func,
)

KERNEL_MATRIX = Mat2(17, 32, 9, 17)
GAMMA1_MATRIX = Mat2(-152, 137, -81, 73)
BIG_MATRIX = Mat2(46741638, 43234369, 43234205, 39990117)
NAIVE_CUTOFF = 10**5


def _report(num: int, ok: bool, text: str):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_worked_example(chi3):
    t0 = time.perf_counter()
    ctx = precompute(chi3, chi3)
    fast = fast_sum(ctx, KERNEL_MATRIX)
    elapsed = time.perf_counter() - t0
    slow = naive_sum(chi3, chi3, KERNEL_MATRIX)
    ok = fast == CycElem.zero(2) and slow == fast and elapsed < 1.0
    _report(
        1,
        ok,
        f"fast and naive sums of (17,32;9,17) are exactly 0 at N=9 "
        f"({elapsed:.3f} s incl. precompute)",
    )


def test_criterion_2_decomposition():
    # the floor-quotient word of the worked case, by Euclid on the whole matrix
    w = strip_letters(GAMMA1_MATRIX, nearest=False, cap=None)
    reconstructs = ts_reconstruct(w) == GAMMA1_MATRIX
    regression = w == TSWord(True, (1, -2, -2, -2, -2, -2, -2, -2, -11, -1))
    _report(
        2,
        reconstructs and regression,
        "T/S word of (-152,137;-81,73) reconstructs exactly and matches "
        f"the reference exponents {list(w.exponents)}",
    )


def test_criterion_3_oracle_equivalence(ctx9, ctx28, chi3, chi4, chi7_56):
    t0 = time.perf_counter()
    results = {}
    for label, ctx, (ca, cb) in (
        ("mod (3,3)", ctx9, (chi3, chi3)),
        ("mod (4,7)", ctx28, (chi4, chi7_56)),
    ):
        rng = random.Random(100)
        hits = 0
        for _ in range(100):
            gamma = random_gamma0(ctx.N, rng, kmax=10**4 // ctx.N, d_shift=1)
            assert 1 <= gamma.c <= 10**4
            hits += fast_sum(ctx, gamma) == naive_sum(ca, cb, gamma)
        results[label] = hits
    elapsed = time.perf_counter() - t0
    ok = all(v == 100 for v in results.values()) and elapsed < 300
    _report(3, ok, f"fast = naive exactly on 100/100 seeded matrices per pair "
                   f"{results} ({elapsed:.1f} s)")


def test_criterion_4_crossed_homomorphism(chi3, chi4, chi7_56):
    results = {}
    for label, (ca, cb), N in (("mod (3,3)", (chi3, chi3), 9), ("mod (4,7)", (chi4, chi7_56), 28)):
        rng = random.Random(200)
        hits = 0
        done = 0
        while done < 50:
            ga = random_gamma0(N, rng, kmax=6)
            gb = random_gamma0(N, rng, kmax=6)
            if (ga * gb).c < 1:
                continue
            done += 1
            hits += crossed_hom_check(ca, cb, ga, gb)
        results[label] = hits
    ok = all(v == 50 for v in results.values())
    _report(4, ok, f"twisted additivity holds exactly on 50/50 seeded pairs per "
                   f"character pair {results}")


def test_criterion_5_structural_counts():
    sizes = {}
    ok = True
    for N in (6, 9, 12, 28, 35):
        t0 = transversal_g1_in_g0(N)
        t1 = transversal_g1_in_sl2(N)
        alpha = gamma1_alphabet(N, t1)
        sizes[N] = (len(t0), len(t1))
        ok &= len(t0) == euler_phi(N)
        ok &= len(t1) == sl2_coset_count(N)
        ok &= len(alpha) <= (N + 3) * len(t1)
    ok &= sizes[9] == (6, 72)
    _report(5, ok, f"transversal sizes match the index formulas, N=9 gives (6, 72); "
                   f"alphabet within (N+3)*|T| for N in {sorted(sizes)}")


def test_criterion_6_identity_suite():
    N = 9
    t = transversal_g1_in_sl2(N)
    rng = random.Random(300)
    trials = 200

    def pow_of(m, k):
        out, base = I2, (m if k >= 0 else m.inv())
        for _ in range(abs(k)):
            out = out * base
        return out

    nested = all(
        bar(t, x * y) == bar(t, bar(t, x) * y)
        for x, y in ((random_sl2(rng, 14), random_sl2(rng, 14)) for _ in range(trials))
    )
    lands = all(
        in_gamma1(u_func(random_sl2(rng, 14), random_sl2(rng, 14), t), N)
        for _ in range(trials)
    )
    cycle = all(
        bar(t, mul_t_power(m, N)) == bar(t, m)
        for m in (random_sl2(rng, 14) for _ in range(trials))
    )

    powers = True
    for _ in range(trials):
        a, b, k = random_sl2(rng, 10), rng.choice((S, T)), rng.randint(1, 12)
        lhs = u_func(bar(t, a), pow_of(b, k), t)
        rhs, cur = I2, a
        for _ in range(k):
            rhs = rhs * u_func(bar(t, cur), b, t)
            cur = cur * b
        powers &= lhs == rhs
        lhs = u_func(bar(t, a), pow_of(b, -k), t)
        rhs, cur = I2, a
        for _ in range(k):
            cur = cur * b.inv()
            rhs = rhs * u_func(bar(t, cur), b, t).inv()
        powers &= lhs == rhs

    reduction = True
    for _ in range(trials):
        m, a = random_sl2(rng, 12), rng.randint(-60, 60)
        q, r = a // N, a % N
        lhs = u_func(bar(t, m), t_power(a), t)
        un = u_func(bar(t, m), t_power(N), t)
        reduction &= lhs == pow_of(un, q) * u_func(bar(t, m), t_power(r), t)

    ok = nested and lands and cycle and powers and reduction
    _report(6, ok, f"coset and U-function identities hold exactly on {trials} seeded "
                   f"instances each (nested={nested}, membership={lands}, "
                   f"cycle={cycle}, powers={powers}, reduction={reduction})")


def test_criterion_7_scaling(ctx9, ctx35):
    decades = list(range(2, 13))
    rng = random.Random(400)
    mats = {}
    for dec in decades:
        k = max(1, 10**dec // 9)
        mats[dec] = [random_gamma0(9, rng, kmin=k, kmax=k) for _ in range(6)]

    def measure():
        means = {}
        for dec in decades:
            times = []
            for m in mats[dec]:
                t0 = time.perf_counter()
                for _ in range(3):
                    fast_sum(ctx9, m)
                times.append((time.perf_counter() - t0) / 3)
            times.sort()
            means[dec] = times[len(times) // 2]
        return means

    for m in mats[2] + mats[12]:
        fast_sum(ctx9, m)  # warm-up

    envelope_ok = False
    means = {}
    for _ in range(3):
        means = measure()
        base = means[2]
        envelope_ok = all(means[d] <= 2.0 * base * (d / 2.0) for d in decades)
        if envelope_ok:
            break

    t0 = time.perf_counter()
    value = fast_sum(ctx35, BIG_MATRIX)
    big_elapsed = time.perf_counter() - t0
    big_ok = big_elapsed < 1.0
    skipped_naive = BIG_MATRIX.c > NAIVE_CUTOFF  # the double sum is not attempted

    ok = envelope_ok and big_ok and skipped_naive
    scale = " ".join(f"1e{d}:{means[d]*1e6:.0f}us" for d in (2, 6, 12))
    _report(7, ok, f"evaluation time grows within 2x linear-in-log(c) envelope "
                   f"({scale}); c=4.3e7 matrix evaluates to {value} in "
                   f"{big_elapsed*1e3:.1f} ms without touching the double sum")


def test_criterion_8_cache_round_trip(tmp_path, ctx9, chi3):
    path = tmp_path / "ctx9.json"
    save_context(ctx9, path)
    loaded = load_context(path)

    c1 = fast_sum(loaded, KERNEL_MATRIX) == CycElem.zero(2) and naive_sum(
        chi3, chi3, KERNEL_MATRIX
    ) == CycElem.zero(2)

    rng = random.Random(100)  # same seed as criterion 3
    c3 = True
    for _ in range(100):
        gamma = random_gamma0(9, rng, kmax=10**4 // 9, d_shift=1)
        from_loaded = fast_sum(loaded, gamma)
        c3 &= from_loaded == fast_sum(ctx9, gamma) == naive_sum(chi3, chi3, gamma)

    _report(8, c1 and c3, "loaded cache reproduces the worked example and the "
                          "100-matrix equivalence suite identically")
