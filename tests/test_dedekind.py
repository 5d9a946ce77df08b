import dataclasses
import hashlib
import json
import logging
import random
import re
import time
import warnings
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdsum import characters, cli, cosets, dedekind, exactnum, find_character
from gdsum.characters import _psi_odd, characters_mod, pair_order, parse_character_spec, psi
from gdsum.cosets import schreier_alphabet, transversal_g0_in_sl2, transversal_g1_in_g0
from gdsum.dedekind import (
    CACHE_VERSION,
    ParityWarning,
    fast_sum,
    load_context,
    naive_sum,
    precompute,
    save_context,
    split_gamma0,
)
from gdsum.exactnum import CycElem, root_of_unity
from gdsum.modgroup import I2, Mat2, S, T, random_gamma0, ts_decompose, ts_reconstruct
from gdsum.rewriter import modified_rewrite, reduce_word
from reference_tables import (
    all_oracle_context,
    alphabet_sum,
    as_cyc,
    conj,
    crossed_hom_check,
    derived_rows,
    factor_rewrite,
    factor_terms,
    floor_word,
    full_alphabet,
    gamma1_alphabet,
    gamma1_relations,
    gamma1_rows,
    gamma1_sums,
    in_gamma1,
    lift_p1_transversal,
    mul_t_power,
    oracle_gamma1,
    orbit_f,
    p1_classes,
    potential,
    slot_factors,
    strip_letters,
    t_power,
    twisted_sum,
    u_func,
    unsigned_product,
)
from reference_tables import reduce_word as alphabet_terms


def test_naive_sum_kernel_matrix(chi3):
    assert naive_sum(chi3, chi3, Mat2(17, 32, 9, 17)) == CycElem.zero(2)


def test_naive_sum_regression_constants(chi3):
    # pinned from the oracle itself on first build
    assert naive_sum(chi3, chi3, Mat2(8, 7, 9, 8)) == CycElem.zero(2)
    assert naive_sum(chi3, chi3, Mat2(5, 1, 9, 2)) == CycElem.from_rational(
        2, Fraction(-2, 3)
    )
    assert naive_sum(chi3, chi3, Mat2(7, 3, 9, 4)) == CycElem.from_rational(
        2, Fraction(2, 3)
    )


def test_naive_sum_regression_complex_pair(chi4, chi7_56):
    # order-6 values pinned from the oracle on first build
    assert naive_sum(chi4, chi7_56, Mat2(1, 0, 28, 1)) == CycElem.zero(6)
    assert naive_sum(chi4, chi7_56, Mat2(3, 2, 28, 19)) == CycElem(
        6, [Fraction(0), Fraction(1)]
    )
    assert naive_sum(chi4, chi7_56, Mat2(5, 4, 56, 45)) == CycElem(
        6, [Fraction(-1), Fraction(1)]
    )


# sha256 of the coefficients of every sweep value, pinned from `naive_sum`
# when it still reduced mod Phi_L in Fractions
SWEEP_DIGESTS = {
    "ctx9": "3df3e42476aaacadc3605236cb9d41f576d80bb0be414d0403dbea5a8d4d6d51",
    "ctx28": "67b86320f31d5c219bf00a44712385ae842da6e72ac04d3c368920ff12495d9b",
    "ctx35_l12": "f8d9efab99a2e47cc16e2a58e0edeedd360426d2e007fbc335f9e7f6c6a814a5",
}


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_naive_sum_reduces_its_integers_like_fractions(request, monkeypatch, name):
    """`naive_sum` reduces its integer numerators mod Phi_L before it
    builds a Fraction: on three matrices per c = N, 2N, ... <= 2000, each
    value is the Fraction reduction of the same numerators over 2 q1 c,
    and all of them together are the values pinned before the change."""
    ctx = request.getfixturevalue(name)
    q1, numerators, reduce = ctx.chi1.modulus, [], exactnum._reduce
    monkeypatch.setattr(exactnum, "_reduce", lambda L, raw: numerators.append(raw[:]) or reduce(L, raw))
    values = []
    for gamma in _sweep_matrices(ctx.N):
        numerators.clear()
        value = naive_sum(ctx.chi1, ctx.chi2, gamma)
        (raw,) = numerators
        assert all(type(n) is int for n in raw) and len(raw) == ctx.L
        assert value == CycElem(ctx.L, [Fraction(n, 2 * q1 * gamma.c) for n in raw])
        values.append(",".join(map(str, value.coeffs)))
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == SWEEP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_fast_sum_gives_the_pinned_sweep_values(request, name):
    """`fast_sum` on the matrices of the `naive_sum` sweep gives the values
    pinned there, each coefficient a Fraction whose denominator divides
    the context's `den`."""
    ctx, values = request.getfixturevalue(name), []
    for gamma in _sweep_matrices(ctx.N):
        value = fast_sum(ctx, gamma)
        assert all(type(x) is Fraction and ctx.den % x.denominator == 0 for x in value.coeffs), gamma
        values.append(",".join(map(str, value.coeffs)))
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == SWEEP_DIGESTS[name]


def _sweep_matrices(N):
    """Three Gamma0(N) matrices per c = N, 2N, ... <= 2000: a = 1, c - 1
    and a unit drawn with seed c."""
    for c in range(N, 2001, N):
        for a in (1, c - 1, random.Random(c).choice([a for a in range(1, c) if gcd(a, c) == 1])):
            d = pow(a, -1, c)
            yield Mat2(a, (a * d - 1) // c, c, d)


def test_naive_sum_closes_over_nonpositive_c(chi3):
    """The shears +-T^b, +-I among them, sum to 0, and a matrix with c < 0
    has the double sum of its negation: the pinned value of (5, 1; 9, 2)."""
    for m in (I2, -I2, Mat2(1, 7, 0, 1), Mat2(-1, 3, 0, -1)):
        assert naive_sum(chi3, chi3, m) == CycElem.zero(2), m
    assert naive_sum(chi3, chi3, Mat2(-5, -1, -9, -2)) == CycElem.from_rational(2, Fraction(-2, 3))
    assert naive_sum(chi3, chi3, Mat2(1, 0, -9, 1)) == naive_sum(chi3, chi3, Mat2(-1, 0, 9, -1))


def test_naive_sum_rejects_non_members(chi3):
    with pytest.raises(ValueError):
        naive_sum(chi3, chi3, Mat2(1, 0, 5, 1))
    # a 5,000-digit c is named by its bit length, past CPython's int-to-str limit
    with pytest.raises(ValueError, match=r"^\(1, 0; <16,610-bit integer>, 1\) is not in Gamma0\(9\)$"):
        naive_sum(chi3, chi3, Mat2(1, 0, 9 * 10**4999 + 1, 1))


def test_homomorphism_on_gamma1(chi3):
    # random Gamma1(9) elements built as short generator products; only
    # triples where all three lower-left entries are oracle-valid count
    rng = random.Random(0)
    gens = [Mat2(1, 1, 0, 1), Mat2(1, -1, 0, 1), Mat2(1, 0, 9, 1), Mat2(1, 0, -9, 1)]

    def rand_gamma1():
        m = I2
        for _ in range(rng.randint(1, 6)):
            m = m * rng.choice(gens)
        return m

    done = 0
    while done < 20:
        h1, h2 = rand_gamma1(), rand_gamma1()
        if h1.c < 1 or h2.c < 1 or (h1 * h2).c < 1:
            continue
        done += 1
        assert in_gamma1(h1, 9) and in_gamma1(h2, 9)
        assert naive_sum(chi3, chi3, h1 * h2) == naive_sum(chi3, chi3, h1) + naive_sum(
            chi3, chi3, h2
        )


def test_crossed_homomorphism_random_pairs(chi3, chi4, chi7_56):
    for chi_a, chi_b, N in ((chi3, chi3, 9), (chi4, chi7_56, 28)):
        rng = random.Random(1)
        done = 0
        while done < 20:
            ga = random_gamma0(N, rng, kmax=8)
            gb = random_gamma0(N, rng, kmax=8)
            if (ga * gb).c < 1:
                continue
            done += 1
            assert crossed_hom_check(chi_a, chi_b, ga, gb)


def test_crossed_hom_gamma1_left_factor(chi3):
    # psi factor is 1 when the left factor is in Gamma1
    ga = Mat2(10, 1, 9, 1)
    rng = random.Random(2)
    for _ in range(10):
        gb = random_gamma0(9, rng, kmax=10)
        if (ga * gb).c < 1:
            continue
        assert naive_sum(chi3, chi3, ga * gb) == naive_sum(chi3, chi3, ga) + naive_sum(
            chi3, chi3, gb
        )


def test_naive_sum_closure_on_gamma0(request):
    """c = 0 gives 0 and c < 0 the double sum of -gamma: on each pair that
    equals what the cocycle identity derives, -psi(gamma) S(gamma^-1) for
    c < 0 and S(h T^b) - S(h), h = (1, 0; N, 1), for the shears T^b (times
    psi(-1) for -T^b), at N = 9 and 28, at N = 35 with L = 12 and psi not
    real, and on the N = 35 pair that breaks the parity hypothesis.  A
    matrix off Gamma0(N) is named as given, not negated."""
    for pair in ("9", "28", "35-l12", "35-odd"):
        chi1, chi2 = _pair(request, pair)
        N, L = chi1.modulus * chi2.modulus, pair_order(chi1, chi2)
        rng = random.Random(3)
        for _ in range(10):
            g = random_gamma0(N, rng, kmax=15)
            neg = -g  # c < 0
            v = naive_sum(chi1, chi2, neg)
            assert v == naive_sum(chi1, chi2, g) == -(psi(chi1, chi2, neg) * naive_sum(chi1, chi2, neg.inv()))
        h = Mat2(1, 0, N, 1)
        for b in (-7, -1, 1, 2, 9, 30):
            partner = naive_sum(chi1, chi2, mul_t_power(h, b)) - naive_sum(chi1, chi2, h)
            assert naive_sum(chi1, chi2, t_power(b)) == partner, (pair, b)
            assert naive_sum(chi1, chi2, -t_power(b)) == psi(chi1, chi2, -I2) * partner
        assert naive_sum(chi1, chi2, I2) == naive_sum(chi1, chi2, -I2) == CycElem.zero(L)
        off = Mat2(-1, 0, -1, -1)
        with pytest.raises(ValueError, match=re.escape(f"{off} is not in Gamma0({N})")):
            naive_sum(chi1, chi2, off)


@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35_l12", "ctx35"])
def test_the_build_reads_each_double_sum_as_a_row_in_lowest_terms(request, name):
    """The row `exactnum._rows` gives a build for S(gamma) alone, on the
    sweep's matrices, their negations and the shears +-T^b, is (den, row)
    with gcd(den, *row) = 1, and row/den is `naive_sum` coefficient by
    coefficient; ctx35's pair has psi(-1) = -1, so every row there is 0
    over 1."""
    ctx = request.getfixturevalue(name)
    mats = list(_sweep_matrices(ctx.N))
    mats += [-m for m in mats] + [t_power(b) for b in (-3, 0, 2)] + [-t_power(b) for b in (-1, 0, 5)]
    for gamma in mats:
        den, rows = exactnum._rows({0: naive_sum(ctx.chi1, ctx.chi2, gamma)})
        row = rows[0]
        assert den >= 1 and gcd(den, *row) == 1 and all(type(n) is int for n in row), gamma
        assert tuple(Fraction(n, den) for n in row) == naive_sum(ctx.chi1, ctx.chi2, gamma).coeffs, gamma
        assert name != "ctx35" or (den, any(row)) == (1, False)


@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35_l12"])
def test_the_bucket_terms_are_the_exponents_of_chi1(request, name):
    """Per bucket m, the double sum combines the pairs (e, 2k) with
    conj(chi1(k - m)) = zeta_L^e over 0 < k < q1 where chi1(k - m) != 0,
    read here from chi1's own exponents; the table is built once per
    character and order."""
    ctx = request.getfixturevalue(name)
    chi1, L = ctx.chi1, ctx.L
    q1, table = chi1.modulus, dedekind._bucket_terms(chi1, L)
    assert len(table) == q1 and dedekind._bucket_terms(chi1, L) is table
    for m, pairs in enumerate(table):
        units = [k for k in range(1, q1) if gcd(k - m, q1) == 1]
        assert list(pairs) == [(-chi1.exponent(k - m) * L // chi1.order % L, 2 * k) for k in units], m


@pytest.mark.parametrize("name, double_sums", [("ctx28", 19), ("ctx35_l12", 28)])
def test_a_build_reads_its_double_sums_as_rows(monkeypatch, request, name, double_sums):
    """A build turns its sums into integer rows once, with `exactnum._rows`:
    in the Context, for its generator sums and G, whose key rows the
    relations are checked on; `_cyc` runs once per double sum, for the
    value `naive_sum` returns, and nowhere else."""
    ctx, calls = request.getfixturevalue(name), Counter()
    for f in ("_rows", "_cyc"):
        real = getattr(exactnum, f)
        monkeypatch.setattr(dedekind, f, lambda *a, f=f, real=real: calls.update([f]) or real(*a))
    _, runs = dedekind._build(ctx.chi1, ctx.chi2, False)
    assert runs == double_sums
    assert calls == {"_rows": 1, "_cyc": double_sums}


def test_the_double_sum_at_minus_lambda_is_minus_chi2_of_minus_one_times_it():
    """j -> c - j gives S(-a, c) = -chi2(-1) S(a, c), and the members g_lambda
    and g_-lambda of the Gamma0 transversal have c = N and a = 1/lambda and
    -1/lambda mod N: so `naive_sum` at g_-lambda is -chi2(-1) times its value
    at g_lambda, at every member but I and g_-1, for every primitive pair at
    N = 9, 28, 35 and 91, with chi2 odd or even and psi(-1) = 1 or -1."""
    seen = set()
    for q1, q2 in [(3, 3), (4, 7), (5, 7), (7, 13)]:
        N, members = q1 * q2, transversal_g1_in_g0(q1 * q2).members
        chars = [[chi for chi in characters_mod(q) if chi.is_primitive()] for q in (q1, q2)]
        for chi1, chi2 in ((chi1, chi2) for chi1 in chars[0] for chi2 in chars[1]):
            even = chi2.exponent(-1) == 0
            seen.add((N, even, _psi_odd(chi1, chi2)))
            for lam, m in members.items():
                if I2 not in (m, twin := members[-lam % N]):
                    value = naive_sum(chi1, chi2, m)
                    assert naive_sum(chi1, chi2, twin) == (-value if even else value), (chi1, chi2, lam)
    assert {(even, odd) for _, even, odd in seen} == {(e, o) for e in (True, False) for o in (True, False)}
    assert {(N, even) for N, even, odd in seen if not odd} >= {(9, False), (28, False), (35, True), (91, True)}


@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35_l12"])
def test_every_generator_on_c_plus_minus_n_has_the_double_sum_of_g(request, name):
    """A Gamma0 generator (a b; +-N d) has the double sum's input (a mod N,
    N), up to the sign of the matrix, which G has at the member g_+-d:
    `naive_sum` there equals G(+-d mod N), so the build's memo reads
    it from G.  No such generator has the key 1 of I, where G is 0 and no
    double sum, and the build would run the double sum."""
    ctx = request.getfixturevalue(name)
    on_n = [m for m in ctx.alphabet.values() if abs(m.c) == ctx.N]
    keys = [m.d * m.c // ctx.N % ctx.N for m in on_n]
    assert len(on_n) >= 4 and 1 not in keys
    for m, lam in zip(on_n, keys):
        assert naive_sum(ctx.chi1, ctx.chi2, m) == ctx.sums_g0[lam], m


@pytest.mark.parametrize("pair", ["9", "28", "35-odd", "35-l12", "35-even", "143"])
def test_a_build_runs_each_double_sum_once(request, monkeypatch, pair):
    """A build runs the double sum once per input (a mod c, c), read off
    -gamma when c < 0: as many times as there are such inputs, counted here
    from the Gamma0 transversal and the Schreier alphabet, the shears
    (c = 0) aside.  It runs G's first, at each member but I, and returns
    how many it ran."""
    if pair == "143":
        chi1, chi2 = find_character(11, [(2, "1/2")]), find_character(13, [(2, "1/12")])
    elif pair == "35-even":  # chi2 even, psi(-1) = 1
        chi1, chi2 = find_character(5, [(2, "1/2")]), request.getfixturevalue("chi7_13")
    else:
        chi1, chi2 = _pair(request, pair)
    N = chi1.modulus * chi2.modulus

    def inputs(mats):
        return [(m.a % m.c, m.c) if m.c > 0 else (-m.a % -m.c, -m.c) for m in mats if m.c]

    members = [m for m in transversal_g1_in_g0(N).members.values() if m != I2]
    expected = set(inputs(members + list(schreier_alphabet(N, transversal_g0_in_sl2(N)).values())))
    calls = _counting_oracle(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParityWarning)
        ctx, runs = dedekind._build(chi1, chi2, True)
    assert runs == len(calls) == len(set(inputs(calls))) == len(expected)
    assert set(inputs(calls)) == expected
    assert calls[: len(members)] == members


@pytest.mark.parametrize(
    "spec1, spec2",
    [
        ("q=3;g=2;v=1/2", "q=4;g=3;v=1/2"),
        ("q=3;g=2;v=1/2", "q=5;g=2;v=1/4"),
        ("q=3;g=2;v=1/2", "q=7;g=3;v=1/6"),
        ("q=4;g=3;v=1/2", "q=7;g=3;v=5/6"),  # the pair of ctx28
        ("q=5;g=2;v=1/2", "q=7;g=3;v=1/3"),  # chi1 and chi2 even
    ],
    ids=["12", "15", "21", "28", "35-even"],
)
def test_a_build_refuses_one_wrong_double_sum(monkeypatch, spec1, spec2):
    """`naive_sum` off by 1/3 at one input (a mod c, c) at a time, for each
    input the build runs: every such build raises ValueError.  Were the
    input (-a mod N, N) read off (a, N) as -chi2(-1) times it, the fault
    would sit at both, and at N = 12, 15 and 21 such a pair met every
    relation and the G check."""
    chi1, chi2 = map(parse_character_spec, (spec1, spec2))
    calls = _counting_oracle(monkeypatch)
    dedekind._build(chi1, chi2, False)
    inputs = [(m.a % m.c, m.c) for m in calls]
    assert len(set(inputs)) == len(inputs) > 0

    def wrong(fault, chi1, chi2, m):
        value = naive_sum(chi1, chi2, m)
        return value + Fraction(1, 3) if (m.a % m.c, m.c) == fault else value

    for fault in inputs:
        monkeypatch.setattr(dedekind, "naive_sum", partial(wrong, fault))
        with pytest.raises(ValueError):
            dedekind._build(chi1, chi2, False)


@pytest.mark.parametrize("N, pairs", [(21, 3), (65, 17), (91, 28), (183, 30)])
def test_every_even_pair_builds_at_a_level_with_elliptic_points(N, pairs):
    """At N = 21 (e3 = 2), 65 (e2 = 4), 91 (e3 = 4) and 183 (e3 = 2) S or
    ST fixes a point of P^1, and an (ST)^3 = S^2 walk there can meet one
    generator twice with terms that cancel.  Every primitive pair mod
    (q1, q2), q1 < q2, with psi(-1) = 1 builds, and `fast_sum` equals
    `naive_sum` on 10 seeded matrices per pair."""
    q1 = next(p for p in range(2, N) if N % p == 0)
    chars = [[chi for chi in characters_mod(q) if chi.is_primitive()] for q in (q1, N // q1)]
    even = [(chi1, chi2) for chi1 in chars[0] for chi2 in chars[1] if not _psi_odd(chi1, chi2)]
    assert len(even) == pairs
    rng = random.Random(N)
    for chi1, chi2 in even:
        ctx = precompute(chi1, chi2, allow_large=True)
        for gamma in (random_gamma0(N, rng, kmax=40, d_shift=1) for _ in range(10)):
            assert fast_sum(ctx, gamma) == naive_sum(chi1, chi2, gamma), (chi1, chi2, gamma)


def test_every_primitive_pair_builds_up_to_level_80():
    """Every primitive pair with 3 <= q1, q2 <= 9 and q1 q2 <= 80 builds, of
    either parity: 240 pairs at 20 levels, q1 = q2 and the prime powers 16,
    25, 27, 32, 49 and 64 among them.  `fast_sum` equals `naive_sum` on 4
    seeded matrices per pair."""
    chars = {q: [chi for chi in characters_mod(q) if chi.is_primitive()] for q in range(3, 10)}
    pairs = [(a, b) for q1 in chars for q2 in chars if q1 * q2 <= 80 for a in chars[q1] for b in chars[q2]]
    levels = {chi1.modulus * chi2.modulus for chi1, chi2 in pairs}
    assert len(pairs) == 240 and len(levels) == 20 and {16, 25, 27, 32, 49, 64} <= levels
    rng = random.Random(80)
    for chi1, chi2 in pairs:
        ctx, N = _precompute(chi1, chi2), chi1.modulus * chi2.modulus
        for gamma in (random_gamma0(N, rng, kmax=40, d_shift=1) for _ in range(4)):
            assert fast_sum(ctx, gamma) == naive_sum(chi1, chi2, gamma), (chi1, chi2, gamma)


def _log_uniform_draws(N: int, rng, n: int, top: int = 60) -> list:
    """n matrices of Gamma0(N) with c = kN log-uniform up to 10^top."""
    ks = (max(1, int(10 ** rng.uniform(0, top)) // N) for _ in range(n))
    return [random_gamma0(N, rng, kmin=k, kmax=k, d_shift=1) for k in ks]


def _fricke_breaks(ctx, swapped, mats, sign) -> list:
    """The draws g at which D(g) = S'(W g W^-1) - sign S(g), W = (0 -1; N 0)
    and S' the sum of the swapped pair's context, is not x (psi(g) - 1)
    for one x across `mats`: D(g) (psi(h) - 1) != D(h) (psi(g) - 1) for
    some h, or D(g) != 0 where psi(g) = 1."""
    N = ctx.N
    pts = [
        (g, fast_sum(swapped, Mat2(g.d, -g.c // N, -N * g.b, g.a)) - sign * fast_sum(ctx, g),
         psi(ctx.chi1, ctx.chi2, g) - 1)
        for g in mats
    ]
    return [g for g, dg, tg in pts if (not tg and dg) or any(dg * th != dh * tg for _, dh, th in pts)]


FRICKE_PAIRS = {  # (chi1 spec, chi2 spec), as the CLI reads them
    "28-odd": ("q=4;g=3;v=1/2", "q=7;g=3;v=5/6"),
    "35-odd": ("q=5;g=2;v=1/4", "q=7;g=3;v=1/6"),  # L = 12
    "49-odd": ("q=7;g=3;v=1/6", "q=7;g=3;v=5/6"),
    "91-odd": ("q=7;g=3;v=1/2", "q=13;g=2;v=1/12"),
    "143-odd": ("q=11;g=2;v=1/10", "q=13;g=2;v=1/12"),  # L = 60
    "25-even": ("q=5;g=2;v=1/2", "q=5;g=2;v=1/2"),
    "35-even": ("q=5;g=2;v=1/2", "q=7;g=3;v=1/3"),
    "40-even": ("q=5;g=2;v=1/2", "q=8;g=7;v=0;g=5;v=1/2"),
    "91-even": ("q=7;g=3;v=1/3", "q=13;g=2;v=1/3"),
    "15-psi-odd": ("q=3;g=2;v=1/2", "q=5;g=2;v=1/2"),  # every sum is 0
}


@pytest.mark.filterwarnings("ignore::gdsum.dedekind.ParityWarning")  # the psi-odd pairs warn
@pytest.mark.parametrize("name", list(FRICKE_PAIRS))
def test_fricke_reciprocity_holds_with_the_parity_sign(name):
    """With W = (0 -1; N 0), the sums of a pair and of its swap obey
    S_{chi2,chi1}(W g W^-1) - chi1(-1) S_{chi1,chi2}(g) = x (psi(g) - 1),
    one x per pair, on 12 seeded matrices with c up to 10^60.  `verify`
    does not check it, since it needs the swapped pair's tables too: it is
    a library identity, checked here and by CI's sweep job on every pair
    with N <= 200.  Without the sign chi1(-1) the law breaks on each pair
    with chi1 and chi2 even."""
    chi1, chi2 = map(parse_character_spec, FRICKE_PAIRS[name])
    (ctx, _), (swapped, _) = dedekind._build(chi1, chi2, True), dedekind._build(chi2, chi1, True)
    mats = _log_uniform_draws(ctx.N, random.Random(ctx.N), 12)
    sign = 1 if chi1.exponent(-1) == 0 else -1
    assert _fricke_breaks(ctx, swapped, mats, sign) == []
    if name.endswith("-even"):
        assert _fricke_breaks(ctx, swapped, mats, -sign)


def _primes_prime_to(N: int, n: int = 2) -> list:
    """The n smallest primes that do not divide N."""
    return [p for p in range(2, 50) if N % p and all(p % r for r in range(2, p))][:n]


def _hecke_reference(g: Mat2, p: int, N: int) -> list:
    """alpha_i g alpha_j^-1 for alpha_b = (1 b; 0 p), b < p, then
    alpha_p = (p 0; 0 1), each j found by trying all p + 1: the one whose
    product alpha_i g adj(alpha_j) is p times a Gamma0(N) matrix."""
    alphas = [(1, b, 0, p) for b in range(p)] + [(p, 0, 0, 1)]

    def times(m, n):
        (a, b, c, d), (e, f, g_, h) = m, n
        return a * e + b * g_, a * f + b * h, c * e + d * g_, c * f + d * h

    images = []
    for alpha in alphas:
        left, found = times(alpha, g.entries()), []
        for a, b, c, d in alphas:
            m = times(left, (d, -b, -c, a))
            if all(e % p == 0 for e in m) and m[2] // p % N == 0:
                found.append(Mat2(*(e // p for e in m)))
        assert len(found) == 1, (g, p, alpha)
        images += found
    return images


def _hecke_sides(chi1, chi2, g: Mat2, p: int, sum_of) -> tuple:
    """The two sides of the relation in its psi(p) multiple,
    sum_{b<p} S(g_b) + psi(p) S(g_p) = (p conj(chi2(p)) + chi1(p)) S(g),
    with S read through `sum_of` on `_hecke_reference`'s matrices."""
    L = pair_order(chi1, chi2)
    k1, k2 = (chi.exponent(p) * (L // chi.order) for chi in (chi1, chi2))
    *images, last = map(sum_of, _hecke_reference(g, p, chi1.modulus * chi2.modulus))
    lhs = sum(images, CycElem.zero(L)) + psi(chi1, chi2, SimpleNamespace(d=p)) * last
    return lhs, (p * root_of_unity(L, -k2) + root_of_unity(L, k1)) * sum_of(g)


@pytest.mark.filterwarnings("ignore::gdsum.dedekind.ParityWarning")  # the psi-odd pairs warn
@pytest.mark.parametrize("name", list(FRICKE_PAIRS))
def test_the_hecke_relation_holds_at_two_primes(name):
    """At the two smallest primes p prime to N, with no free constant, on 6
    seeded matrices per p with c up to 10^60: the relation `verify`'s
    hecke suite checks, at p + 1 matrices built here by trying every
    partner.  The suite's own matrices equal them, and the suite, which
    reads the three smallest primes, passes on the first p's draws."""
    chi1, chi2 = map(parse_character_spec, FRICKE_PAIRS[name])
    ctx, _ = dedekind._build(chi1, chi2, True)
    rng, N = random.Random(ctx.N), ctx.N
    p1, p2, p3 = _primes_prime_to(N, 3)
    for p in (p1, p2):
        mats = _log_uniform_draws(N, rng, 6)
        for g in mats:
            assert cli._hecke_images(g, p) == _hecke_reference(g, p, N)
            lhs, rhs = _hecke_sides(chi1, chi2, g, p, partial(fast_sum, ctx))
            assert lhs == rhs, (p, g)
        if p == p1:
            assert cli._hecke(ctx, mats) == (True, f"p = {p1}, {p2} and {p3}, 6 matrices, c up to 10^60")


@pytest.mark.parametrize("name", ["28-odd", "35-odd", "35-even"])
def test_the_hecke_relation_holds_on_the_double_sum(name):
    """Both sides by `naive_sum`, at the two smallest primes p prime to N,
    on 3 seeded matrices per p with c <= 10^4: the relation holds on the
    double sum itself, with no table read."""
    chi1, chi2 = map(parse_character_spec, FRICKE_PAIRS[name])
    N, rng = chi1.modulus * chi2.modulus, random.Random(4)
    for p in _primes_prime_to(N):
        for g in _log_uniform_draws(N, rng, 3, top=4):
            lhs, rhs = _hecke_sides(chi1, chi2, g, p, partial(naive_sum, chi1, chi2))
            assert lhs == rhs, (p, g)


@pytest.mark.parametrize("name", ["ctx28", "ctx35_l12"])
def test_one_raised_generator_sum_breaks_fricke_reciprocity(request, name):
    """Each stored generator sum raised by 1 on a copy of the context, 96
    at N = 28 and at N = 35, breaks the signed Fricke law against the
    swapped pair's tables on 12 seeded matrices with c up to 10^60, and
    fails `verify`'s hecke suite, read from that one copy, on the first 4."""
    ctx = request.getfixturevalue(name)
    assert len(ctx.sums_alphabet) == 96
    swapped, _ = dedekind._build(ctx.chi2, ctx.chi1, True)
    sign = 1 if ctx.chi1.exponent(-1) == 0 else -1
    mats = _log_uniform_draws(ctx.N, random.Random(ctx.N), 12)
    for key, value in ctx.sums_alphabet.items():
        raised = dataclasses.replace(ctx, sums_alphabet={**ctx.sums_alphabet, key: value + 1})
        assert _fricke_breaks(raised, swapped, mats, sign), key
        ok, detail = cli._hecke(raised, mats[:4])
        assert not ok and detail.startswith("g="), key


@pytest.mark.parametrize("name", ["ctx28", "ctx35_l12"])
def test_the_hecke_suite_alone_catches_a_raised_u_i_s_on_one_draw(request, name):
    """U(I, S), which opens every word with an S letter, raised by 1: the
    hecke suite with one matrix fails, on each of 10 seeded draws."""
    ctx = request.getfixturevalue(name)
    key = ((0, 1), ("S", 1))
    raised = dataclasses.replace(ctx, sums_alphabet={**ctx.sums_alphabet, key: ctx.sums_alphabet[key] + 1})
    for g in _log_uniform_draws(ctx.N, random.Random(0), 10):
        assert not cli._hecke(raised, [g])[0], g


def test_a_build_checks_the_evaluator_at_the_gamma0_members(monkeypatch, chi4, chi7_56):
    """The build runs `fast_sum`'s own walk at each Gamma0 transversal
    member but I and compares it with G, the double sum there: a
    `reduce_word` that adds one more row, 1 in its first coefficient, fails
    the build."""
    real = dedekind.reduce_word
    monkeypatch.setattr(
        dedekind, "reduce_word", lambda w, keys, ctx: [*real(w, keys, ctx), (ctx.den, *ctx.zero[1:])]
    )
    with pytest.raises(ValueError, match=r"the Gamma0 transversal sum at d = \d+ "):
        precompute(chi4, chi7_56)


def test_precompute_structure(ctx9):
    assert len(ctx9.t_g0) == 6
    assert len(ctx9.t_sl2) == 72
    # the stored sums: two Gamma0 generators per point of P^1(Z/9)
    assert len(ctx9.p1) == 12 and len(ctx9.alphabet) == 2 * 12
    assert ctx9.sums_alphabet.keys() == ctx9.alphabet.keys()
    assert all(u.in_gamma0(9) for u in ctx9.alphabet.values())
    assert ctx9.sums_g0[1] == CycElem.zero(2)
    assert alphabet_sum(ctx9, (0, 1), ("S", 0)) == CycElem.zero(2)
    assert ctx9.L == 2 and psi(ctx9.chi1, ctx9.chi2, -I2) == CycElem.one(2)
    # the derived sums: two Gamma1 generators per coset key
    full = full_alphabet(9, ctx9.t_sl2)
    assert gamma1_sums(ctx9).keys() == gamma1_alphabet(9, ctx9.t_sl2).keys()
    for entry, u in gamma1_alphabet(9, ctx9.t_sl2).items():
        assert u == full[entry] and in_gamma1(u, 9)
    # one (pos, length, total) per key: its position along its T-orbit
    # (c, d + j c), counted from the base key (c, d mod gcd(c, N))
    rows = potential(ctx9)
    assert rows.keys() == ctx9.t_sl2.members.keys()
    for (c, d), ((pos, length, total), _) in rows.items():
        assert length == 9 // gcd(c, 9) and 0 <= pos < length
        assert (d - pos * c) % 9 == d % gcd(c, 9)
        assert rows[c, d % gcd(c, 9)][0][2] is total


def test_precompute_rejects_bad_characters(chi3):
    from gdsum.characters import characters_mod

    trivial = [c for c in characters_mod(3) if c.order == 1][0]
    with pytest.raises(ValueError):
        precompute(trivial, chi3)
    induced = [c for c in characters_mod(6) if c.order != 1][0]
    with pytest.raises(ValueError):
        precompute(induced, chi3)


def test_precompute_guardrail(chi3):
    from gdsum.characters import find_character

    chi61 = find_character(61, [(2, "1/60")])
    with pytest.raises(ValueError):
        precompute(chi3, chi61)


def test_parity_warning(chi5, chi7_13):
    with pytest.warns(ParityWarning):
        precompute(chi5, chi7_13)


def test_load_context_warns_like_precompute(tmp_path, ctx35):
    """A pair with chi1*chi2(-1) = -1: `precompute` and a load of its cache
    each raise one ParityWarning, pointing at the line that called them."""
    path = tmp_path / "ctx35.json"
    save_context(ctx35, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        precompute(ctx35.chi1, ctx35.chi2)
        load_context(path)
    assert [(w.category, w.filename) for w in caught] == [(ParityWarning, __file__)] * 2
    assert caught[0].message.args == caught[1].message.args


def test_a_build_makes_the_gamma0_transversal_once(monkeypatch, chi5_14, chi7_16):
    """`_build` reads G and checks it on one Gamma0 transversal; the
    context makes none until `t_g0` is read."""
    calls, real = [], dedekind.transversal_g1_in_g0
    monkeypatch.setattr(dedekind, "transversal_g1_in_g0", lambda N: calls.append(N) or real(N))
    dedekind._build(chi5_14, chi7_16, False)
    assert calls == [35]


def test_t_g0_is_built_on_access(ctx35_l12):
    ctx = dataclasses.replace(ctx35_l12)
    assert "t_g0" not in vars(ctx)
    assert ctx.t_g0.members == transversal_g1_in_g0(ctx.N).members
    assert ctx.t_g0 is ctx.t_g0


def test_table_consistency_spot_checks(ctx9, chi3):
    rng = random.Random(4)
    full = full_alphabet(9, ctx9.t_sl2)
    checkable = [e for e, m in full.items() if m.c >= 1]
    for key, gen in rng.sample(checkable, 20):
        expect = naive_sum(chi3, chi3, full[key, gen])
        assert alphabet_sum(ctx9, key, gen) == expect


def test_table_consistency_complex_pair(ctx28, chi4, chi7_56):
    rng = random.Random(5)
    full = full_alphabet(28, ctx28.t_sl2)
    checkable = [e for e, m in full.items() if m.c >= 1]
    for key, gen in rng.sample(checkable, 20):
        expect = naive_sum(chi4, chi7_56, full[key, gen])
        assert alphabet_sum(ctx28, key, gen) == expect


def test_derive_powers_matches_direct(ctx9, chi3):
    # precompute evaluates only U(t, T) and U(t, S); every derived entry
    # must equal the closure of the double sum on its matrix, and so every
    # row of the potential table, which is made of those sums
    for (key, gen), mat in full_alphabet(9, ctx9.t_sl2).items():
        direct = naive_sum(chi3, chi3, mat)
        assert alphabet_sum(ctx9, key, gen) == direct, (key, gen)
    for kind, key, row, expect in derived_rows(ctx9):
        assert row == expect, (kind, key)
    for d, mem in ctx9.t_g0.members.items():
        assert ctx9.sums_g0[d] == naive_sum(chi3, chi3, mem), d


@pytest.mark.parametrize("name", ["ctx28", "ctx35_l12"])
def test_rows_match_reference_sums(request, name):
    """Every Gamma1 generator sum `gamma1_rows` derives equals the double sum
    on its matrix, and every integer row of the potential table (S-step rows
    and orbit totals) equals the sum the cocycle identity gives from those
    generator sums in CycElem arithmetic."""
    ctx = request.getfixturevalue(name)
    assert gamma1_sums(ctx) == oracle_gamma1(ctx)[1]
    kinds = Counter()
    for kind, key, row, expect in derived_rows(ctx):
        assert row == expect, (kind, key)
        kinds[kind] += 1
    # one S-step row per key and one total per T-orbit (their lengths add up
    # to the number of keys), nothing else
    assert set(kinds) == {"S", "T"} and kinds["S"] == len(ctx.t_sl2)
    bases = [length for (pos, length, _), _ in potential(ctx).values() if pos == 0]
    assert kinds["T"] == len(bases) and sum(bases) == len(ctx.t_sl2)


@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35_l12"])
def test_wrap_formula_every_key(request, name):
    """S(U(t_k, T^a)) = F(k T^a) - F(k) + floor((pos + a) / length) * total
    for every key k and every a in [-2N, 2N], against `alphabet_sum`; the
    sums are compared as integer numerators over the context's denominator."""
    ctx = request.getfixturevalue(name)
    N = ctx.N

    def row(v):
        assert all(ctx.den % x.denominator == 0 for x in v.coeffs)
        return [x.numerator * ctx.den // x.denominator for x in v.coeffs]

    rows = potential(ctx)
    f = {key: row(orbit_f(ctx, key)) for key in rows}
    power = {
        key: [row(alphabet_sum(ctx, key, ("T", a))) for a in range(2 * N + 1)]
        for key in rows
    }
    for (c, d), ((pos, length, total), _) in rows.items():
        for a in range(-2 * N, 2 * N + 1):
            w = (pos + a) // length
            moved = (c, (d + a * c) % N)
            wrap = [x - y + w * z for x, y, z in zip(f[moved], f[c, d], total)]
            if a >= 0:
                assert wrap == power[c, d][a], ((c, d), a)
            else:  # U(t, T^a) is the inverse of U(rep(t T^a), T^-a)
                assert wrap == [-x for x in power[moved][-a]], ((c, d), a)


def test_fast_sum_kernel_matrix(ctx9):
    assert fast_sum(ctx9, Mat2(17, 32, 9, 17)) == CycElem.zero(2)


def test_fast_sum_transversal_members(ctx9):
    for d, g in ctx9.t_g0.members.items():
        assert fast_sum(ctx9, g) == ctx9.sums_g0[d]


def test_fast_sum_handles_nonpositive_c(contexts):
    """The fast path equals the double sum's closure on every Gamma0
    transversal member and its negation, on +-I, on +-T^b and the shears
    (+-1, 0; Nb, +-1) for |b| <= 5, and on -g, g^-1 and -g^-1 for seeded g
    with c <= 50 N, for each pair, the parity-violating one included."""
    rng = random.Random(6)
    for name in ("ctx9", "ctx28", "ctx35_l12", "ctx35"):
        ctx = contexts[name]
        N = ctx.N
        mats = [m for g in ctx.t_g0 for m in (g, -g)] + [I2, -I2]
        for b in range(-5, 6):
            mats += [t_power(b), -t_power(b), Mat2(1, 0, N * b, 1), Mat2(-1, 0, N * b, -1)]
        for _ in range(10):
            g = random_gamma0(N, rng, kmax=50, d_shift=1)
            mats += [-g, g.inv(), -g.inv()]
        for m in mats:
            assert fast_sum(ctx, m) == naive_sum(ctx.chi1, ctx.chi2, m), (name, m)
    assert fast_sum(contexts["ctx9"], I2) == CycElem.zero(2)


def test_fast_sum_rejects_non_members(ctx9):
    with pytest.raises(ValueError):
        fast_sum(ctx9, Mat2(1, 0, 5, 1))
    # a 5,000-digit c is named by its bit length, past CPython's int-to-str limit
    with pytest.raises(ValueError, match=r"^\(1, 0; -<16,610-bit integer>, 1\) is not in Gamma0\(9\)$"):
        fast_sum(ctx9, Mat2(1, 0, -9 * 10**4999 - 1, 1))


def test_oracle_equivalence_sample(ctx9, chi3):
    rng = random.Random(7)
    for _ in range(30):
        g = random_gamma0(9, rng, kmax=200, d_shift=1)
        assert fast_sum(ctx9, g) == naive_sum(chi3, chi3, g)


def test_oracle_equivalence_complex_pair(ctx28, chi4, chi7_56):
    rng = random.Random(8)
    for _ in range(25):
        g = random_gamma0(28, rng, kmax=100, d_shift=1)
        assert fast_sum(ctx28, g) == naive_sum(chi4, chi7_56, g)


def test_transversal_independence(chi3, ctx9, monkeypatch):
    monkeypatch.setattr(
        dedekind, "transversal_g0_in_sl2", lambda N: lift_p1_transversal(N, lift="least_pos")
    )
    alt = precompute(chi3, chi3)
    # the tables genuinely differ...
    assert any(
        alt.t_sl2.members[k] != ctx9.t_sl2.members[k] for k in alt.t_sl2.members
    )
    # ...but the sums do not
    rng = random.Random(9)
    for _ in range(25):
        g = random_gamma0(9, rng, kmax=300, d_shift=1)
        assert fast_sum(alt, g) == fast_sum(ctx9, g)


def test_split_gamma0(ctx9):
    """split_gamma0 returns d mod N on Gamma0(N), negated and inverted
    matrices included, and raises ValueError off it."""
    rng = random.Random(10)
    for _ in range(20):
        gamma = random_gamma0(9, rng, kmax=50)
        for m in (gamma, -gamma, gamma.inv()):
            assert split_gamma0(ctx9, m) == m.d % 9 in ctx9.t_g0.members
    for m in (Mat2(1, 0, 1, 1), Mat2(2, 1, 3, 2), S):
        with pytest.raises(ValueError, match="not in Gamma0"):
            split_gamma0(ctx9, m)


def test_common_order(chi3, chi4, chi5, chi7_56, chi7_13):
    assert pair_order(chi3, chi3) == 2
    assert pair_order(chi4, chi7_56) == 6
    assert pair_order(chi5, chi7_13) == 12
    assert pair_order(chi5, chi7_56) == 12


def test_save_context_is_atomic(tmp_path, ctx9, monkeypatch):
    path = tmp_path / "ctx9.json"
    save_context(ctx9, path)
    before = path.read_bytes()

    def dump_then_fail(obj, fh):
        fh.write('{"version": 1, "q1": 3, "q2"')
        raise OSError("disk full")

    monkeypatch.setattr(dedekind.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_context(ctx9, path)
    assert [p.name for p in tmp_path.iterdir()] == ["ctx9.json"]
    assert path.read_bytes() == before
    gamma = Mat2(20, 17, 27, 23)
    assert fast_sum(load_context(path), gamma) == fast_sum(ctx9, gamma)


@pytest.mark.filterwarnings("ignore::gdsum.dedekind.ParityWarning")  # the psi-odd pairs warn
@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35"])
def test_cache_round_trip_rebuilds_tables(tmp_path, request, name):
    ctx = request.getfixturevalue(name)
    path = tmp_path / "ctx.json"
    save_context(ctx, path)
    data = json.loads(path.read_text())
    # only the pair is stored: a load computes every sum again
    assert set(data) == {"version", "chi1", "chi2"}
    loaded = load_context(path)
    assert loaded.t_g0.members == ctx.t_g0.members
    assert loaded.t_sl2.members == ctx.t_sl2.members
    assert loaded.alphabet == ctx.alphabet
    assert loaded.sums_g0 == ctx.sums_g0
    assert loaded.sums_alphabet == ctx.sums_alphabet
    assert (loaded.chi1, loaded.chi2) == (ctx.chi1, ctx.chi2)


@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35_l12"])
def test_cache_survives_a_round_trip_unchanged(tmp_path, request, name):
    """A loaded cache saved again is the same file, byte for byte: the
    loaded context holds the pair the cache names, and writes it back."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_context(request.getfixturevalue(name), first)
    save_context(load_context(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_alphabet_is_built_on_access_only(tmp_path, monkeypatch, ctx28):
    """precompute and load build the Schreier generators of the P^1
    transversal once each, and a context builds none: it builds them again
    each time `alphabet` is read, and stores none."""
    kinds, real = [], dedekind.schreier_alphabet
    monkeypatch.setattr(dedekind, "schreier_alphabet", lambda N, t: kinds.append(t.kind) or real(N, t))
    ctx = precompute(ctx28.chi1, ctx28.chi2)
    path = tmp_path / "ctx28.json"
    save_context(ctx, path)
    loaded = load_context(path)
    sums = dict(ctx.sums_alphabet)
    sums[(0, 1), ("S", 1)] = sums[(0, 1), ("S", 1)] + CycElem.one(ctx.L)
    replaced = dataclasses.replace(ctx, sums_alphabet=sums)
    assert kinds == ["p1", "p1"]
    for c in (ctx, loaded, replaced):
        assert "alphabet" not in vars(c)
        assert c.alphabet == schreier_alphabet(28, c.p1)
        assert len(c.alphabet) == 2 * len(c.p1) and c.alphabet.keys() == c.sums_alphabet.keys()


def test_setup_and_evaluation_build_no_gamma1_transversal(tmp_path, monkeypatch, capsys, ctx28):
    """precompute, save, load, fast_sum and `sum --trace` never build the
    Gamma1 transversal: the slot tables are all they read.  `t_sl2` is a
    view, built on its first access and then kept, and the rows the slot
    tables hold are those of the context the fixture precomputed."""

    real, members = cosets.transversal_g1_in_sl2, ctx28.t_sl2.members

    def refuse(*args, **kwargs):
        raise AssertionError("the Gamma1 transversal was built")

    for mod in (cosets, dedekind, cli):
        if hasattr(mod, "transversal_g1_in_sl2"):
            monkeypatch.setattr(mod, "transversal_g1_in_sl2", refuse)
    ctx = precompute(ctx28.chi1, ctx28.chi2)
    save_context(ctx, tmp_path / "ctx28.json")
    loaded = load_context(tmp_path / "ctx28.json")
    rng = random.Random(12)
    for _ in range(100):  # 200 evaluations, c up to 10^40
        gamma = random_gamma0(28, rng, kmax=10**40 // 28, d_shift=3)
        gamma = rng.choice((gamma, -gamma, gamma.inv()))
        assert fast_sum(ctx, gamma) == fast_sum(loaded, gamma) == fast_sum(ctx28, gamma)
    args = ["--chi1", "q=4;g=3;v=1/2", "--chi2", "q=7;g=3;v=5/6"]
    for matrix in ("3,1;140,47", "-3,-1;-140,-47"):
        assert cli.main(["sum", *args, "--matrix", matrix, "--trace"]) == 0, matrix
    assert capsys.readouterr().out.count("factors add a zero row") == 2
    built = []
    monkeypatch.setattr(dedekind, "transversal_g1_in_sl2", lambda *a: built.append(a) or real(*a))
    for c in (ctx, loaded):
        assert c.t_sl2 is c.t_sl2
        assert c.t_sl2.members == members and potential(c) == potential(ctx28)
    assert built == [(28, ctx.p1), (28, loaded.p1)]


@pytest.mark.parametrize("name", ["N", "L"])
def test_context_derives_pair_fields(ctx35, name):
    # a context takes its pair, the P^1 transversal and the Gamma0 generator
    # sums, and derives the rest, so no replace can set a level or order
    # its pair does not have, nor any other derived field
    inputs = [f.name for f in dataclasses.fields(ctx35) if f.init]
    assert inputs == ["chi1", "chi2", "p1", "sums_alphabet", "sums_g0"]
    assert (ctx35.N, ctx35.L) == (35, 12)
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(ctx35, **{name: getattr(ctx35, name)})
    for f in dataclasses.fields(ctx35):
        if not f.init:
            with pytest.raises(ValueError, match=f.name):
                dataclasses.replace(ctx35, **{f.name: getattr(ctx35, f.name)})
    # G needs a sum at every unit mod 35
    with pytest.raises(ValueError, match="^G needs one sum per unit mod 35$"):
        dataclasses.replace(ctx35, sums_g0={d: v for d, v in ctx35.sums_g0.items() if d != 2})
    # the sums are keyed by the points of P^1(Z/35): no other transversal fits
    for p1 in (ctx35.t_sl2, transversal_g0_in_sl2(28)):
        with pytest.raises(ValueError, match="P\\^1"):
            dataclasses.replace(ctx35, p1=p1)


def test_contexts_of_one_pair_are_equal(tmp_path, chi4, chi7_56):
    """Two builds of a pair, and a load of its cache, are equal contexts:
    `p1` is not compared, since N, which is, fixes it.  A copy with one
    generator sum changed is not equal."""
    ctx = precompute(chi4, chi7_56)
    save_context(ctx, tmp_path / "ctx.json")
    assert ctx == precompute(chi4, chi7_56) == load_context(tmp_path / "ctx.json")
    key = next(k for k, v in ctx.sums_alphabet.items() if v)
    changed = dataclasses.replace(ctx, sums_alphabet={**ctx.sums_alphabet, key: 2 * ctx.sums_alphabet[key]})
    assert changed != ctx and changed.p1 is ctx.p1


def test_load_logs_what_it_validated(tmp_path, monkeypatch, caplog, ctx28):
    """One DEBUG line per load, the one a precompute logs, with the count
    of double sums and the seconds per phase on the record; nothing is
    logged or timed when DEBUG is off."""
    path = tmp_path / "ctx28.json"
    save_context(ctx28, path)
    oracle, clock = [], []
    monkeypatch.setattr(
        dedekind, "naive_sum", lambda *args: oracle.append(args[2]) or naive_sum(*args)
    )
    monkeypatch.setattr(
        dedekind, "time", SimpleNamespace(perf_counter=lambda: clock.append(1) or time.perf_counter())
    )
    with caplog.at_level(logging.INFO, logger="gdsum"):
        load_context(path)
    assert not caplog.records and not clock
    oracle.clear()
    with caplog.at_level(logging.DEBUG, logger="gdsum"):
        load_context(path)
    (record,) = caplog.records
    assert record.name == "gdsum.dedekind" and record.levelno == logging.DEBUG
    phases = record.phases
    # G at each member but I, then the generators whose input G does not give
    assert len(oracle) == record.oracle_calls == 19
    assert len(clock) == 4 and len(phases) == 3
    assert record.getMessage() == (
        "precompute N=28: 48 points of P^1, 576 keys, 19 oracle calls; 72 relations checked; "
        "sums {:.4f} s, context {:.4f} s, G check {:.4f} s".format(*phases)
    )


@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35_l12"])
def test_a_build_walks_the_relations_once(tmp_path, monkeypatch, request, name):
    """A precompute and a load each run `_check_relations` once, on the
    key rows of their context: one (ST)^3 identity per point of P^1 and one
    S^2 identity per pair k, kS, all of which hold."""
    ctx = request.getfixturevalue(name)
    path = tmp_path / "ctx.json"
    save_context(ctx, path)
    walks, real = [], dedekind._check_relations
    monkeypatch.setattr(dedekind, "_check_relations", lambda *args: walks.append(real(*args)) or walks[-1])
    precompute(ctx.chi1, ctx.chi2)
    load_context(path)
    points = len(ctx.p1)
    assert walks == [(points + points // 2, None)] * 2 == [ctx.relations] * 2


def test_the_level_guardrail_raises_a_plain_value_error():
    """Above DEFAULT_LEVEL_LIMIT, precompute raises ValueError itself, no
    subclass, naming the two moduli, N and allow_large=True, in the text
    the CLI gives with --allow-large-n in its place."""
    chi1, chi2 = find_character(11, [(2, "1/2")]), find_character(13, [(2, "1/12")])
    with pytest.raises(ValueError) as info:
        precompute(chi1, chi2)
    assert type(info.value) is ValueError
    assert str(info.value) == "level N = 11 * 13 = 143 exceeds the guardrail 80; pass allow_large=True to lift it"


def test_a_build_checks_every_relation_on_its_rows(monkeypatch, ctx28):
    """A double sum off by one at one generator, off c = +-N so that G
    does not read it, breaks a relation, which the build names from the
    break its context recorded, and returns no context."""
    wrong = []

    def off_by_one(chi1, chi2, gamma):
        value = naive_sum(chi1, chi2, gamma)
        if abs(gamma.c) != 28 and not wrong:
            wrong.append(gamma)
            return value + 1
        return value

    monkeypatch.setattr(dedekind, "naive_sum", off_by_one)
    built, real = [], dedekind.Context
    monkeypatch.setattr(dedekind, "Context", lambda *a: built.append(real(*a)) or built[-1])
    with pytest.raises(ValueError, match=r"U\(r, T\) and U\(r, S\) sums over P\^1 at key .* break ") as info:
        precompute(ctx28.chi1, ctx28.chi2)
    (ctx,) = built
    assert str(info.value).endswith("at key %s break %s" % ctx.relations[1])
    assert len(wrong) == 1


@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35_l12"])
def test_the_relations_are_checked_on_the_key_rows(tmp_path, monkeypatch, request, name):
    """The relations are read on the key rows the slot tables are built
    from, not on a copy: an S-row raised by 1 as `_key_rows` returns it, at
    a point k of P^1 with c != 0 whose key no walk of the G check reads as
    an S slot, breaks a named relation, and a precompute and a load refuse
    it.  The context records the break and raises nothing."""
    ctx = request.getfixturevalue(name)
    N, real, path = ctx.N, dedekind._key_rows, tmp_path / "ctx.json"
    save_context(ctx, path)
    read = {s for m in ctx.t_g0.members.values() for s in modified_rewrite(ts_decompose(m), ctx.p1)[1::2]}
    i = next(c * N + d for c, d in ctx.p1.members if c and c * N + d not in read)

    def raised(*args):
        t_rows, s_rows = real(*args)
        s_rows[i] = (s_rows[i][0] + 1, *s_rows[i][1:])
        return t_rows, s_rows

    monkeypatch.setattr(dedekind, "_key_rows", raised)
    assert dataclasses.replace(ctx).relations[1][0] in ctx.p1.members
    for build in (lambda: precompute(ctx.chi1, ctx.chi2), lambda: load_context(path)):
        with pytest.raises(ValueError, match=r"U\(r, T\) and U\(r, S\) sums over P\^1 at key .* break "):
            build()


def test_load_rejects_a_double_sum_wrong_off_c_n(tmp_path, monkeypatch, ctx28):
    """An input off c = +-N has a double sum that gives generator sums and
    no G: a load whose double sum reads a value wrong by 1/3 at one such
    input, its denominator new to the build, is refused, as a precompute
    is, and no context is returned to it; so is each of the 8 in turn, a
    twin input included."""
    path = tmp_path / "ctx28.json"
    save_context(ctx28, path)
    monkeypatch.setattr(dedekind, "context_to_json", lambda *a: pytest.fail("a context was returned"))
    for wrong in range(8):
        off_n = []

        def wrong_at_one(chi1, chi2, gamma):
            value = naive_sum(chi1, chi2, gamma)
            if abs(gamma.c) != 28:
                off_n.append(gamma)
                return value + Fraction(len(off_n) == wrong + 1, 3)
            return value

        monkeypatch.setattr(dedekind, "naive_sum", wrong_at_one)
        with pytest.raises(ValueError, match=r"U\(r, T\) and U\(r, S\) sums over P\^1 at key .* break "):
            load_context(path)
        assert len(off_n) == 8


@pytest.mark.parametrize(
    "coeff",
    [0, 0.0, 1.5, "0.0", "0e3", "1.5", "1e3", "", "0/", "0_0", " 0", "+0", "0/ 1", "0/1/1"]
    + ["3/", "1_0", " 3", "+3", "2/ 4", "3 ", "1/-2", "\u0663"]
    + [0.5, "0.5", " 1/2", "+1/2", "2/4", "3/2", "-1/2", "1e1000000000"],
    ids=repr,
)
def test_load_rejects_coefficients_not_written_p_q(tmp_path, ctx9, coeff):
    """The fractions a cache stores, the values of its characters at their
    generators, are written "p/q" or "p" in its specs, as str(Fraction)
    writes them.  chi1's value at 2, stored as "v=1/2", is refused written
    as a number's str(), a decimal or any other form Fraction() would take,
    even one that names the same character, and any other value; one in
    exponent notation, whose Fraction() would have 10^9 digits, is refused
    as the CLI refuses it, before it is parsed."""
    path = tmp_path / "ctx9.json"
    save_context(ctx9, path)
    data = json.loads(path.read_text())
    assert data["chi1"] == "q=3;g=2;v=1/2"
    data["chi1"] = f"q=3;g=2;v={coeff}"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_context(path)


@pytest.mark.parametrize("extra", ["field", "entry"])
def test_load_rejects_anything_the_pair_does_not_give(tmp_path, ctx9, extra):
    """A cache must be exactly what its pair gives: one more top-level
    field, or one more generator and value, true as it is, in a stored
    character's spec, is refused, naming the field that differs."""
    path = tmp_path / "ctx9.json"
    save_context(ctx9, path)
    data = json.loads(path.read_text())
    if extra == "field":
        data["note"], name = "rebuilt by hand", "note"
    else:
        data["chi2"] += ";g=2;v=1/2"
        name = "chi2"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"field '{name}' is not what the stored pair gives; rebuild it"):
        load_context(path)


def test_load_checks_the_stored_level_before_any_character(tmp_path, monkeypatch, ctx9):
    """A stored modulus far above the guardrail is refused before any
    character is built: building every character mod 1601 alone takes
    seconds.  So is 2^61 - 1, whose level the guardrail's message does not
    factorize.  A modulus that is no positive integer is refused too."""
    path = tmp_path / "ctx9.json"
    save_context(ctx9, path)
    data = json.loads(path.read_text())
    monkeypatch.setattr(dedekind, "_find_character", lambda *a: pytest.fail("a character was built"))
    levels = {1601: 4803, 2**61 - 1: 6917529027641081853}
    for q in (*levels, 0, 3.0, True):
        message = {0: "must be a positive integer", 3.0: "is not an integer", True: "is not an integer"}.get(q)
        message = message or f"level N = 3 \\* {q} = {levels[q]} exceeds the guardrail 80"
        data["chi2"] = f"q={q};g=2;v=1/2"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=message):
            load_context(path)


def test_load_calls_the_double_sum_as_a_precompute_does(tmp_path, monkeypatch, ctx28):
    """A load rebuilds the context without calling `precompute`: the double
    sum runs at each Gamma0 transversal member but I, for G, and at the
    generators whose input G does not give, as in a
    precompute, never once per sum, and the loaded context equals the
    precomputed one."""
    path = tmp_path / "ctx28.json"
    save_context(ctx28, path)
    calls = _counting_oracle(monkeypatch)
    ctx = precompute(ctx28.chi1, ctx28.chi2)
    built = list(calls)
    calls.clear()
    monkeypatch.setattr(dedekind, "precompute", lambda *a, **k: pytest.fail("load called precompute"))
    loaded = load_context(path)
    assert calls == built and (len(built), len(ctx.sums_alphabet)) == (19, 96)
    for name in ("sums_alphabet", "sums_g0", "g_rows", "den", "t_slot", "s_slot"):
        assert getattr(loaded, name) == getattr(ctx, name), name


@pytest.mark.parametrize("name, distinct", [("ctx28", 8), ("ctx35_l12", 13)])
def test_equal_sums_share_one_object(tmp_path, request, name, distinct):
    """Precompute and load both hold one CycElem per distinct Gamma0
    generator sum."""
    ctx = request.getfixturevalue(name)
    path = tmp_path / "ctx.json"
    save_context(ctx, path)
    for c in (ctx, load_context(path)):
        sums = c.sums_alphabet.values()
        assert len({id(v) for v in sums}) == len(set(sums)) == distinct


def test_load_rejects_a_pair_precompute_rejects(tmp_path, monkeypatch):
    chi1, chi2 = find_character(5, [(2, "1/2")]), find_character(1, [])
    with pytest.raises(ValueError, match="chi2 must have conductor > 1"):
        precompute(chi1, chi2)
    with monkeypatch.context() as m:
        m.setattr(dedekind, "_validate_pair", lambda *pair: None)
        ctx = precompute(chi1, chi2)
    path = tmp_path / "ctx5.json"
    save_context(ctx, path)
    with pytest.raises(ValueError, match="chi2 must have conductor > 1"):
        load_context(path)


def test_load_rejects_v1_cache(tmp_path, ctx9):
    path = tmp_path / "ctx9.json"
    save_context(ctx9, path)
    data = json.loads(path.read_text())
    assert data["version"] == CACHE_VERSION == 6
    # version 5 stored each character's values as a list of JSON objects,
    # version 4 the Gamma0 generator sums, version 3 the Gamma1 ones,
    # version 2 those over the lift transversal, version 1 more fields
    for old in (5, 4, 3, 2, 1):
        data["version"] = old
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"cache version {old} is not 6; rebuild it"):
            load_context(path)


CONTEXTS = ("ctx9", "ctx28", "ctx35", "ctx35_l12")


@pytest.fixture(scope="session")
def contexts(ctx9, ctx28, ctx35, ctx35_l12):
    return {
        "ctx9": ctx9,
        "ctx28": ctx28,
        "ctx35": ctx35,
        "ctx35_l12": ctx35_l12,
        # U(I, T) and U(I, S) moved: the orbit total and S-step row at
        # (0, 1) and the S-step row at (0, -1), 0 in every real table, are
        # not 0 here, since s1[(0, lambda), x] = psi(lambda) s0[(0, 1), x]
        "ctx28_shifted": _shifted(ctx28, [((0, 1), ("T", 1)), ((0, 1), ("S", 1))]),
    }


def _shifted(ctx, keys):
    """ctx with the Gamma0 generator sums at `keys` moved by 1/3.  The rows
    follow through `dataclasses.replace`; relations are not checked, so
    only comparisons with the same generator sums mean anything."""
    sums = dict(ctx.sums_alphabet)
    for key in keys:
        sums[key] = sums[key] + CycElem.from_rational(ctx.L, Fraction(1, 3))
    return dataclasses.replace(ctx, sums_alphabet=sums)


def _zero_row_words(N):
    """Words whose factors add zero rows in a real table: -I and a negated
    shear (negated words whose walk stays at (0, 1)), a shear wrapping
    around the orbit of (0, 1), and at N = 9 words with some or all of
    their factors on zero rows."""
    words = [-I2, -t_power(5), t_power(5 * N + 1), Mat2(1, 0, N, 1)]
    return words + ([Mat2(17, 32, 9, 17), Mat2(101, 33, 153, 50)] if N == 9 else [])


@st.composite
def gamma0_matrices(draw, N, max_c=10**60):
    """A Gamma0(N) matrix with 1 <= c <= max_c, or its negation or inverse,
    or a shear +-T^b with |b| <= max_c."""
    if draw(st.integers(0, 9)) == 0:
        s = draw(st.sampled_from((1, -1)))
        return Mat2(s, draw(st.integers(-max_c, max_c)), 0, s)
    c = N * draw(st.integers(1, max_c // N))
    a = draw(st.integers(1, c))
    while gcd(a, c) != 1:
        a += 1
    d = pow(a, -1, c) + c * draw(st.integers(-3, 3))
    m = Mat2(a, (a * d - 1) // c, c, d)
    return draw(st.sampled_from((m, -m, m.inv())))


def _slots(ctx, gamma):
    """The walk's end key lambda, read off the word's unsigned product,
    and gamma's word with its slot keys."""
    w = ts_decompose(gamma)
    keys = modified_rewrite(w, ctx.t_sl2)
    return unsigned_product(w).d % ctx.N, w, keys


def _terms(ctx, gamma):
    """The walk's end key lambda and the word's terms over the full alphabet."""
    lam, w, keys = _slots(ctx, gamma)
    return lam, alphabet_terms(slot_factors(w, keys, ctx.N), ctx.N)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CONTEXTS), st.data())
def test_fast_sum_matches_fraction_reference(contexts, name, data):
    """The integer accumulation equals the word's full-alphabet terms
    summed as CycElems, plus G at the walk's end key."""
    ctx = contexts[name]
    gamma = data.draw(gamma0_matrices(ctx.N))
    lam, terms = _terms(ctx, gamma)
    expected = ctx.sums_g0[lam]
    for key, gen, m in terms:
        expected = expected + m * alphabet_sum(ctx, key, gen)
    assert fast_sum(ctx, gamma) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((*CONTEXTS, "ctx28_shifted")), st.data())
def test_potential_terms_match_alphabet_terms(contexts, name, data):
    """The potential terms of a word, summed as CycElems, equal its
    full-alphabet terms summed as CycElems, and none has a zero row: zero
    rows are skipped, and only they.  Besides random matrices, the inputs
    include words on zero rows and a table where the usual zero rows are
    not 0."""
    ctx = contexts[name]
    if data.draw(st.integers(0, 4)) == 0:
        gamma = data.draw(st.sampled_from(_zero_row_words(ctx.N)))
    else:
        gamma = data.draw(gamma0_matrices(ctx.N))
    _, w, keys = _slots(ctx, gamma)
    summed, terms = CycElem.zero(ctx.L), []
    rows = reduce_word(w, keys, ctx, terms)
    assert len(rows) == len(terms)
    for (kind, _, m), row in zip(terms, rows):
        assert m != 0 and (m == 1 or kind == "T")
        assert any(row), kind
        summed = summed + as_cyc(ctx, row)  # the row already holds m times the total
    reference = CycElem.zero(ctx.L)
    for key, gen, m in alphabet_terms(slot_factors(w, keys, ctx.N), ctx.N):
        reference = reference + m * alphabet_sum(ctx, key, gen)
    assert summed == reference


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("ctx9", "ctx28", "ctx35_l12", "ctx28_shifted")), st.data())
def test_slot_keys_match_the_factor_reference(contexts, name, data):
    """The slot keys, spelled as factors by `slot_factors`, are the
    factor-form rewrite of `reference_tables.factor_rewrite`, and
    `reduce_word`'s rows, with the kind, slot index and multiplicity it
    lists, are the factor-form terms with each row times its multiplicity.
    The Gamma0 words come from either decomposition, negated or not, and
    T^k gamma T^l, also in Gamma0, puts T^0 at either end."""
    ctx, N = contexts[name], contexts[name].N
    gamma = data.draw(st.one_of(gamma0_matrices(N), st.sampled_from(_zero_row_words(N))))
    decompose = data.draw(st.sampled_from((ts_decompose, floor_word)))
    trim = data.draw(st.sampled_from(("", "left", "right", "both")))
    if trim in ("left", "both"):
        gamma = t_power(-decompose(gamma).exponents[0]) * gamma
    if trim in ("right", "both"):
        gamma = mul_t_power(gamma, -decompose(gamma).exponents[-1])
    w = decompose(gamma)
    assert trim not in ("left", "both") or w.exponents[0] == 0
    assert trim not in ("right", "both") or w.exponents[-1] == 0
    keys = modified_rewrite(w, ctx.t_sl2)
    assert len(keys) == 2 * w.letters - 1 and keys[0] == 1
    factors = factor_rewrite(w, ctx.t_sl2, product=gamma)
    assert slot_factors(w, keys, N) == factors
    terms = factor_terms(factors, ctx)
    expected = [(k, kind, m, tuple([m * n for n in row])) for k, kind, m, row in terms]
    terms = []
    rows = reduce_word(w, keys, ctx, terms)
    listed = [(divmod(i, N), kind, m, row) for (kind, i, m), row in zip(terms, rows, strict=True)]
    assert listed == expected


@pytest.mark.filterwarnings("ignore::gdsum.dedekind.ParityWarning")  # the psi-odd pairs warn
@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35", "ctx35_l12"])
def test_fast_sum_on_the_sweep(tmp_path, contexts, sweep, name):
    """On the decomposition sweep's members of Gamma0(N), the parity-violating
    N = 35 pair included, `fast_sum` on a loaded context equals it on the
    precomputed one, and on every 12th matrix it equals the full-alphabet
    terms of the whole-matrix Euclid word, checked against gamma by
    `ts_reconstruct`, summed as CycElems, plus G at the walk's end key."""
    ctx = contexts[name]
    save_context(ctx, tmp_path / "ctx.json")
    loaded = load_context(tmp_path / "ctx.json")
    mats = [m for m in sweep if m.in_gamma0(ctx.N)]
    assert len(mats) > 1700
    for i, gamma in enumerate(mats):
        value = fast_sum(ctx, gamma)
        assert fast_sum(loaded, gamma) == value, gamma
        if i % 12:
            continue
        w = strip_letters(gamma, nearest=True, cap=None)
        assert ts_reconstruct(w) == gamma
        keys = modified_rewrite(w, ctx.t_sl2)
        expected = ctx.sums_g0[unsigned_product(w).d % ctx.N]
        for key, gen, m in alphabet_terms(slot_factors(w, keys, ctx.N), ctx.N):
            expected = expected + m * alphabet_sum(ctx, key, gen)
        assert value == expected, gamma


@pytest.mark.parametrize("name", ["ctx9", "ctx28", "ctx35_l12", "ctx28_shifted"])
def test_slot_tables_hold_the_potential_objects(contexts, name):
    """Each list has one entry per key index c*N + d, and an entry only at
    a coset key whose row is not zero: there it is the same object as the
    key's (pos, length, total) (t_slot) or S-step row (s_slot)."""
    ctx = contexts[name]
    N, zero = ctx.N, ctx.zero
    assert len(ctx.t_slot) == len(ctx.s_slot) == N * N
    rows = potential(ctx)
    for i, (orbit, step) in enumerate(zip(ctx.t_slot, ctx.s_slot)):
        row = rows.get(divmod(i, N))
        if row is None:
            assert orbit is None and step is None, i
            continue
        assert orbit is (None if row[0][2] is zero else row[0]), i
        assert step is (None if row[1] is zero else row[1]), i
    if name == "ctx28_shifted":  # rows that are 0 in every real table
        assert ctx.t_slot[1] is rows[0, 1][0]
        assert ctx.s_slot[N - 1] is rows[0, N - 1][1]


def test_slot_tables_follow_the_generator_sums(ctx35_l12):
    """Shifting the S generator sum at one point k of P^1 through
    `dataclasses.replace` moves the S-step row at each key lambda k, so
    the lists are derived from `sums_alphabet`: `fast_sum` moves by
    psi(lambda)/3 per S slot of the word at a key lambda k.  This word's S
    slots over the point (31, 34) have three distinct psi(lambda)."""
    ctx, N, classes = ctx35_l12, ctx35_l12.N, p1_classes(ctx35_l12.p1)
    gamma = Mat2(2507577, 1826678, 6538315, 4762923)
    _, _, keys = _slots(ctx, gamma)
    point = (31, 34)
    k = next(s for s in keys[1::2] if classes[divmod(s, N)][0] == point)
    shifted = _shifted(ctx, [(point, ("S", 1))])
    assert shifted.s_slot[k] is potential(shifted)[divmod(k, N)][1] is not ctx.s_slot[k]
    twist = characters._twists(ctx.chi1, ctx.chi2)
    over = [classes[divmod(s, N)][1] for s in keys[1::2] if classes[divmod(s, N)][0] == point]
    assert len({twist[lam] for lam in over}) == 3
    third = CycElem.from_rational(ctx.L, Fraction(1, 3))
    delta = sum((third * root_of_unity(ctx.L, twist[lam]) for lam in over), CycElem.zero(ctx.L))
    assert fast_sum(shifted, gamma) == fast_sum(ctx, gamma) + delta


def test_fast_sum_reads_sums_g0_at_the_end_key(contexts):
    """Shifting G at one lambda != -lambda on a copy of the context moves
    `fast_sum` by exactly the shift on the matrices whose walk ends at
    (0, lambda), negated words included, and leaves every other one.
    A real table cannot tell: G(d) = G(-d) in each."""
    for name in ("ctx9", "ctx28", "ctx35_l12"):
        g = contexts[name].sums_g0
        assert all(g[d] == g[-d % contexts[name].N] for d in g), name
    ctx, lam = contexts["ctx28"], 3
    N = ctx.N
    one = CycElem.one(ctx.L)
    # the slot tables are derived from G too: shift G's integer row by den on a copy alone
    shifted = dataclasses.replace(ctx)
    shifted.g_rows = list(ctx.g_rows)
    shifted.g_rows[lam] = (ctx.g_rows[lam][0] + ctx.den, *ctx.g_rows[lam][1:])
    assert exactnum._cyc(ctx.L, ctx.den, shifted.g_rows[lam]) == ctx.sums_g0[lam] + one
    rng = random.Random(12)
    mats = [random_gamma0(N, rng, kmax=10**20, d_shift=2) for _ in range(150)]
    mats = [m for g in mats for m in (g, -g, g.inv(), -g.inv())]
    mats += [Mat2(s, 0, N * b, s) for s in (1, -1) for b in range(-5, 6)]
    seen = Counter()
    for m in mats:
        w = ts_decompose(m)
        end = unsigned_product(w).d % N  # the walk's end key (0, end)
        delta = fast_sum(shifted, m) - fast_sum(ctx, m)
        assert delta == (one if end == lam else CycElem.zero(ctx.L)), m
        seen[end == lam, w.negate, m.d % N == lam] += 1
    # the end key is lambda for words that are negated or not, and a matrix
    # with d = lambda whose walk ends at -lambda is left alone
    assert seen[True, False, True] and seen[True, True, False] and seen[False, True, True]


@pytest.mark.parametrize("name", ["ctx28", "ctx35_l12"])
def test_stored_g_is_a_gauge_off_the_identity(request, name):
    """G(lambda) + 1 at any unit lambda != 1, the context derived afresh
    from the sums it holds, leaves `fast_sum` unchanged, negations
    included: the slot tables and the end row telescope it away.  G(1),
    which `_build` fixes at 0, moves the sums.  So `verify` checks no
    stored G against the double sum; `_build`'s G check ties G to the
    generator sums."""
    ctx = request.getfixturevalue(name)
    rng = random.Random(35)
    mats = [random_gamma0(ctx.N, rng, kmax=10**20, d_shift=2) for _ in range(30)]
    mats += [-m for m in mats]
    values = [fast_sum(ctx, m) for m in mats]
    assert len(ctx.sums_g0) in (12, 24)  # phi(28), phi(35)
    for lam, value in ctx.sums_g0.items():
        shifted = dataclasses.replace(ctx, sums_g0={**ctx.sums_g0, lam: value + 1})
        assert ([fast_sum(shifted, m) for m in mats] == values) == (lam != 1), lam


@pytest.fixture(scope="module")
def arbitrary_contexts(ctx28, ctx35_l12):
    """Contexts for the N = 28 and N = 35 (L = 12) pairs, both with
    psi(-1) = 1, built from seeded random Gamma0 generator sums that break
    every relation: nothing but the derivation ties their rows together.
    Each context records the first break and raises nothing."""
    rng, out = random.Random(13), {}
    for name, ctx in (("ctx28", ctx28), ("ctx35_l12", ctx35_l12)):
        deg = len(ctx.zero)
        sums = {
            v: CycElem(ctx.L, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg)])
            for v in ctx.sums_alphabet
        }
        out[name] = dedekind.Context(ctx.chi1, ctx.chi2, ctx.p1, sums, ctx.sums_g0)
        assert out[name].relations[1] is not None
    return out


def _twisted_walk(ctx, gamma) -> CycElem:
    """The sum of psi(lambda_i) s0[k_i, x_i] over the letters of gamma's
    nearest-integer word, walked from the key (0, 1) over P^1, where the
    i-th prefix key is lambda_i k_i: S(gamma) by Reidemeister-Schreier
    over Gamma0(N) itself, with no Gamma1 row and no G.  A T^-1 steps back
    first and subtracts the T it undoes, read from there."""
    N, L, classes = ctx.N, ctx.L, p1_classes(ctx.p1)
    twist = characters._twists(ctx.chi1, ctx.chi2)
    den, rows = exactnum._rows(ctx.sums_alphabet)
    terms, (c, d) = [], (0, 1 % N)
    for i, a in enumerate(ts_decompose(gamma).exponents):
        if i:  # the S before T^a
            k, lam = classes[c, d]
            terms.append(((k, ("S", 1)), twist[lam]))
            c, d = d, -c % N
        for _ in range(abs(a)):
            d = (d - c) % N if a < 0 else d
            k, lam = classes[c, d]
            terms.append(((k, ("T", 1)), twist[lam] + (L // 2 if a < 0 else 0)))
            d = (d + c) % N if a > 0 else d
    return CycElem(L, [Fraction(n, den) for n in twisted_sum(L, rows, terms)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("ctx28", "ctx35_l12")), st.data())
def test_fast_sum_is_the_twisted_walk_on_arbitrary_sums(arbitrary_contexts, name, data):
    """On a context built from arbitrary Gamma0 generator sums, `fast_sum`
    equals the twisted walk over gamma's word: the G terms of the derived
    Gamma1 rows telescope along the walk, and the G(+-d) at its end cancels
    the last one, whatever the sums.  gamma is a Gamma0 matrix with c up to
    10^6 N, negated or inverted, whose word has at most 100 N letters T,
    so that the reference walks them one by one, or a shear +-T^b with
    |b| <= 3N."""
    ctx = arbitrary_contexts[name]
    N = ctx.N

    def short(m):
        return m.c and sum(map(abs, ts_decompose(m).exponents)) <= 100 * N

    sign = st.sampled_from((1, -1))
    shears = st.builds(lambda s, b: Mat2(s, b, 0, s), sign, st.integers(-3 * N, 3 * N))
    gamma = data.draw(st.one_of(gamma0_matrices(N, 10**6 * N).filter(short), shears))
    assert fast_sum(ctx, gamma) == _twisted_walk(ctx, gamma)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("ctx9", "ctx28", "ctx35_l12")), st.data())
def test_derivation_formula_matches_the_double_sum(contexts, name, data):
    """On a random Gamma1 generator U(t, x), t = g_lambda r_k, the
    derivation formula psi(lambda) S(U(r_k, x)) + G(lambda) - G(lambda u),
    u = d(U(r_k, x)) mod N, with every sum on the right from
    `naive_sum`, equals `naive_sum` on U(t, x) and the context's
    derived sum; and u is the scalar of the key k x over P^1."""
    ctx = contexts[name]
    chi1, chi2, N, g, p1 = ctx.chi1, ctx.chi2, ctx.N, ctx.t_g0.members, ctx.p1
    classes = p1_classes(p1)
    key = data.draw(st.sampled_from(sorted(classes)))
    gen = data.draw(st.sampled_from((("T", 1), ("S", 1))))
    k, lam = classes[key]
    x = T if gen[0] == "T" else S
    u0 = u_func(p1.members[k], x, p1)
    assert u0.in_gamma0(N)
    assert u0.d % N == classes[(k[0] * x.a + k[1] * x.c) % N, (k[0] * x.b + k[1] * x.d) % N][1]
    oracle = partial(naive_sum, chi1, chi2)
    formula = psi(chi1, chi2, g[lam]) * oracle(u0) + oracle(g[lam]) - oracle(g[lam * u0.d % N])
    u1 = u_func(ctx.t_sl2.members[key], x, ctx.t_sl2)
    assert formula == oracle(u1) == gamma1_sums(ctx)[key, gen]


def test_fast_sum_over_common_denominator_3(ctx28):
    """Shift the Gamma0 generators U(I, T) and U(I, S) by 1/3: the rows
    follow `sums_alphabet` through `dataclasses.replace`, the denominator
    becomes 3, and every derived row still equals its sum from the derived
    generators.  Over a word the G terms telescope, so each sum moves by
    psi(lambda)/3 per S slot at a key (0, lambda), the keys over the point
    (0, 1), and by a psi(lambda)/3 per T^a slot there."""
    assert ctx28.den == 1
    N, L = ctx28.N, ctx28.L
    shifted = _shifted(ctx28, [((0, 1), ("T", 1)), ((0, 1), ("S", 1))])  # U(I, T), U(I, S)
    assert shifted.den == 3
    for kind, key, row, expect in derived_rows(shifted):
        assert row == expect, (kind, key)
    # the T-orbit of (0, 1) is (0, 1) alone: its total is U(I, T)'s sum
    third = CycElem.from_rational(L, Fraction(1, 3))
    totals = [as_cyc(ctx, potential(ctx)[0, 1][0][2]) for ctx in (ctx28, shifted)]
    assert totals[1] == totals[0] + third
    twist = characters._twists(ctx28.chi1, ctx28.chi2)
    rng = random.Random(3)
    mats = [random_gamma0(N, rng, kmax=10**30) for _ in range(40)]
    mats += [t_power(10**40 + 5), t_power(-(10**25)), -t_power(7 * 10**18)]
    moved = []
    for gamma in mats:
        _, w, keys = _slots(ctx28, gamma)
        slots = [*zip(keys[::2], w.exponents), *((k, 1) for k in keys[1::2])]
        m = CycElem.zero(L)
        for k, a in slots:
            if k < N:  # the key (0, k)
                m = m + a * root_of_unity(L, twist[k])
        delta = fast_sum(shifted, gamma) - fast_sum(ctx28, gamma)
        assert delta == third * m
        moved.append(max(abs(x) for x in m.coeffs))
    # every word opens at (0, 1), and the shears' T slots there are huge
    assert min(moved[:40]) > 0 and max(moved) > 10**20


# (chi1, chi2) fixture names per pair: N = 12 has q1 = 3 and q1 = 4, and the
# "-odd" pairs break the parity hypothesis, so every sum is 0
PAIRS = {
    "9": ("chi3", "chi3"),
    "12": ("chi3", "chi4"),
    "12-swapped": ("chi4", "chi3"),
    "28": ("chi4", "chi7_56"),
    "28-odd": ("chi4", "chi7_13"),
    "35-odd": ("chi5", "chi7_13"),
    "35-l12": ("chi5_14", "chi7_16"),
}


def _pair(request, name):
    return tuple(request.getfixturevalue(f) for f in PAIRS[name])


def _precompute(chi1, chi2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParityWarning)
        return precompute(chi1, chi2)


# the session contexts that precompute these pairs over the Schreier transversal
FIXTURE_OF = {"9": "ctx9", "28": "ctx28", "35-odd": "ctx35", "35-l12": "ctx35_l12"}


@pytest.mark.parametrize("transversal", ["schreier", "lift"])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_solved_table_matches_all_oracle(request, monkeypatch, pair, transversal):
    """Every Gamma0 generator sum and Gamma0 transversal sum a build reads,
    and every Gamma1 generator sum derived from them, equals the double sum
    on its matrix, over the Schreier transversal and over the lift one."""
    chi1, chi2 = _pair(request, pair)
    if transversal == "lift":
        monkeypatch.setattr(dedekind, "transversal_g0_in_sl2", lift_p1_transversal)
        ctx = _precompute(chi1, chi2)
    elif pair in FIXTURE_OF:
        ctx = request.getfixturevalue(FIXTURE_OF[pair])
    else:
        ctx = _precompute(chi1, chi2)
    ref = all_oracle_context(chi1, chi2, ctx.p1)
    assert ctx.alphabet == ref.alphabet
    assert ctx.sums_alphabet == ref.sums_alphabet
    sums_g0, sums1 = oracle_gamma1(ctx)
    assert ctx.sums_g0 == ref.sums_g0 == sums_g0
    assert gamma1_sums(ctx) == gamma1_sums(ref) == sums1
    if pair.endswith("-odd"):
        assert not any(ctx.sums_alphabet.values()) and not any(sums1.values())
    else:
        assert any(ctx.sums_alphabet.values()) and any(sums1.values())


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_derived_sums_obey_the_gamma1_relations(request, pair):
    """Every relation S^4 = I and (ST)^3 = S^2 read from a coset key of
    Gamma1(N) holds on the derived U(t, T) and U(t, S) sums, as integer
    rows from `gamma1_rows`.  The twisted relations imply them, so
    precompute does not check them; a derived entry at the wrong key would
    break one."""
    chi1, chi2 = _pair(request, pair)
    ctx = request.getfixturevalue(FIXTURE_OF[pair]) if pair in FIXTURE_OF else _precompute(chi1, chi2)
    rows = gamma1_rows(ctx)[1]
    zero = list(ctx.zero)
    checked = 0
    for checked, (name, k, lhs, rhs) in enumerate(gamma1_relations(ctx.N, ctx.t_sl2.members), 1):
        total = [list(map(sum, zip(zero, *(rows[v] for v in side)))) for side in (lhs, rhs)]
        assert total[0] == total[1], (name, k)
    keys = len(ctx.t_sl2)
    assert checked == keys + keys // 4


def _counting_oracle(monkeypatch):
    calls = []

    def oracle(chi1, chi2, gamma):
        calls.append(gamma)
        return naive_sum(chi1, chi2, gamma)

    monkeypatch.setattr(dedekind, "naive_sum", oracle)
    return calls


@pytest.mark.parametrize("pair", ["9", "28", "35-odd"])
def test_precompute_rejects_a_shifted_oracle(request, monkeypatch, pair):
    """An oracle that adds 1 to every value is no crossed homomorphism: the
    relations or the Gamma0 transversal sums, checked on the sums it gives,
    reject its table."""
    chi1, chi2 = _pair(request, pair)
    L = pair_order(chi1, chi2)
    monkeypatch.setattr(
        dedekind,
        "naive_sum",
        lambda a, b, gamma: naive_sum(a, b, gamma) + CycElem.one(L),
    )
    with pytest.raises(ValueError, match="break") as info:
        _precompute(chi1, chi2)
    assert "cached" not in str(info.value)


def test_a_build_rescales_to_a_new_denominator(request, monkeypatch):
    """The Fricke conjugation (a b; c d) -> (d, -c/N; -N b, a) maps Gamma0(N)
    onto itself and psi to its conjugate, so the complex conjugate of
    S(its conjugate) is a crossed homomorphism with the same psi, and so is
    f(g) = S(g) + (S(g) + conj S(its conjugate))/3, whose values have
    denominators the double sum's lack.  A build under f as its oracle
    passes its checks and has the denominator 3; the table, and the Gamma1
    generator sums derived from it, equal the all-oracle ones under the
    same oracle."""
    chi1, chi2 = _pair(request, "28")
    N = 28
    third = CycElem.from_rational(pair_order(chi1, chi2), Fraction(1, 3))

    def oracle(a, b, g):
        fricke = Mat2(g.d, -g.c // N, -N * g.b, g.a)
        s = naive_sum(a, b, g)
        return s + third * (s + conj(naive_sum(a, b, fricke)))

    monkeypatch.setattr(dedekind, "naive_sum", oracle)
    ctx = precompute(chi1, chi2)
    assert ctx.den == 3
    ref = all_oracle_context(chi1, chi2, ctx.p1)
    assert ctx.sums_alphabet == ref.sums_alphabet
    assert gamma1_sums(ctx) == oracle_gamma1(ctx)[1]
