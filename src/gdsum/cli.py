"""Command-line front end: precompute, sum, verify.

Each run builds the pair's context in-process, at most once, as
`precompute` does, and writes no file: `verify` checks the one it builds.
The pair is checked once, by the build or, in `sum --naive`, which builds
none, by `_validate_pair`, which refuses a pair with chi1*chi2(-1) = -1
as any bad input is, with exit 1 and one `error:` line.  It leaves the
`gdsum` logger as it finds it, so a build times its phases only when the
caller has turned on DEBUG.  A matrix entry may have any
number of digits: `main` lifts CPython's int-to-str digit limit for the
run, and a message gives an entry past 256 bits by its bit length.  Exit
codes: 0 success, 1 usage/configuration error, or any other error as one
`error: internal error:` line, its traceback logged at DEBUG on
`gdsum.cli`, 2 verification failure.  All randomness is driven by --seed,
so reports are reproducible.
"""

from __future__ import annotations

import argparse
import logging
import random
import sys
import time
from itertools import count, islice
from math import log10

from .cosets import sl2_coset_count
from .dedekind import (
    DEFAULT_LEVEL_LIMIT,
    Context,
    _build,
    _read_pair,
    _validate_pair,
    fast_sum,
    naive_sum,
    split_gamma0,
)
from .exactnum import root_of_unity
from .modgroup import Mat2, _short, random_gamma0, ts_decompose
from .rewriter import modified_rewrite, reduce_word

# Largest lower-left entry for which the double sum is run: the limit of
# `sum --naive` and `verify --cmax`.
# `naive_sum` walks j < c/2 once, about (c/2) phi(q2)/q2 integer steps:
# ~5 ms at c = 10^5 for N = 28 (CPython 3.11.7, one core of a shared 2-core VM).
NAIVE_CUTOFF = 10**5


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them to exit 1
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gdsum",
        description="Exact generalized Dedekind sums for primitive character pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--chi1", required=True, help='character spec, e.g. "q=5;g=2;v=3/4"')
        p.add_argument("--chi2", required=True, help='character spec, e.g. "q=7;g=3;v=5/6"')
        p.add_argument(
            "--allow-large-n",
            action="store_true",
            help=f"lift the N = q1*q2 <= {DEFAULT_LEVEL_LIMIT} guardrail, checked before "
            "any character is built (the tables hold |keys| ~ N^2 rows)",
        )

    p = sub.add_parser("precompute", help="build the tables for a pair and summarize them")
    add_common(p, cmd_precompute)

    p = sub.add_parser("sum", help="evaluate one sum")
    add_common(p, cmd_sum)
    p.add_argument("--matrix", required=True, help='matrix "a,b;c,d"')
    p.add_argument(
        "--naive",
        action="store_true",
        help=f"evaluate the double sum instead (|lower-left entry| <= {NAIVE_CUTOFF})",
    )
    p.add_argument("--trace", action="store_true", help="print the word and the terms it adds")

    p = sub.add_parser("verify", help="randomized exact verification suites")
    add_common(p, cmd_verify)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cmax", type=int, default=2000, help=f"largest c tested, N to {NAIVE_CUTOFF}")
    return parser


def _pair(args, at_level=None):
    """The requested pair, read by `_read_pair` as a cache's is."""
    return _read_pair((args.chi1, args.chi2), args.allow_large_n, "--allow-large-n", at_level)


def _context(args, at_level=None) -> Context:
    """The requested pair's context, built by `_build` as `precompute`
    builds it."""
    return _build(*_pair(args, at_level), args.allow_large_n)[0]


def _format_value(v) -> str:
    z = v.approx()
    return f"{v}\n  ~ ({z.real:.12g}, {z.imag:.12g})"


def cmd_precompute(args) -> int:
    t0 = time.perf_counter()
    ctx, calls = _build(*_pair(args), args.allow_large_n)
    elapsed = time.perf_counter() - t0
    print(
        f"precomputed N={ctx.N}: |T_g0|={len(ctx.sums_g0)}, |T_sl2|={sl2_coset_count(ctx.N)} keys, "
        f"{len(ctx.p1)} points of P^1, {len(ctx.sums_alphabet)} stored generator sums, "
        f"order L={ctx.L}, {calls} oracle calls ({elapsed:.2f} s)"
    )
    return 0


def cmd_sum(args) -> int:
    gamma = Mat2.parse(args.matrix)
    if args.naive and abs(gamma.c) > NAIVE_CUTOFF:
        raise ValueError(
            f"--naive runs the double sum, O(|c|) terms; c = {_short(gamma.c)} is beyond the "
            f"cutoff {NAIVE_CUTOFF}, so drop --naive to use the table path"
        )
    if args.naive and not args.trace:
        # the double sum needs the pair alone: no table is built
        chi1, chi2 = _pair(args)
        _validate_pair(chi1, chi2, args.allow_large_n)
        print(_format_value(naive_sum(chi1, chi2, gamma)))
        return 0
    ctx = _context(args)
    if args.trace:
        _print_trace(ctx, gamma)
    value = naive_sum(ctx.chi1, ctx.chi2, gamma) if args.naive else fast_sum(ctx, gamma)
    print(_format_value(value))
    return 0


def _print_trace(ctx: Context, gamma: Mat2) -> None:
    d = split_gamma0(ctx, gamma)
    w = ts_decompose(gamma)
    sign = "-" if w.negate else ""
    word = " S ".join(f"T^{e}" for e in w.exponents)
    print(f"gamma = {gamma} = {sign}{word}")
    lam = -d % ctx.N if w.negate else d
    # the Gamma1 transversal member at (0, lambda) is g_lambda r_(0, 1) = g_lambda
    print(f"the walk ends at key (0, {lam}), whose member is g = {ctx.t_g0.members[lam]}")
    N, keys = ctx.N, modified_rewrite(w, ctx.p1)
    # a factor per nonzero T-power and per S, at its slot key; zip drops the last S
    letters = [x for a in w.exponents for x in ((f"T^{a}" if a else None, ctx.t_slot), ("S", ctx.s_slot))]
    factors = [(k, gen, table) for k, (gen, table) in zip(keys, letters) if gen]
    print("rewritten factors:")
    for k, gen, _ in factors:
        print(f"  U({divmod(k, N)}, {gen})")
    terms = []  # (kind, slot index, multiplicity) per row added
    reduce_word(w, keys, ctx, terms)
    print(f"terms added to the Gamma0 transversal sum at d = {lam}:")
    for kind, i, m in terms:
        what = f"{'S-step row' if kind == 'S' else 'orbit total'} at {divmod(i, N)}"
        print(f"  {what}" if m == 1 else f"  {m} * {what}")
    if not terms:
        print("  none")
    zero = sum(table[k] is None for k, _, table in factors)
    print(f"{zero} of {len(factors)} factors add a zero row")


def run_verify(ctx: Context, *, trials: int, seed: int, cmax: int) -> list:
    """(name, ok, detail) per suite: `fast_sum` against the double sum on
    `trials` seeded matrices with c <= cmax, then `_hecke` on `trials`
    more, drawn after them with c log-uniform from N to 10^60.  Both
    suites read `ctx` alone."""
    rng, N, bad = random.Random(seed), ctx.N, []
    kmax = max(1, cmax // N)
    for _ in range(trials):
        gamma = random_gamma0(N, rng, kmax=kmax, d_shift=1)
        fast = fast_sum(ctx, gamma)
        slow = naive_sum(ctx.chi1, ctx.chi2, gamma)
        if fast != slow:
            bad.append(f"gamma={gamma}: fast {fast} vs naive {slow}")
    oracle = ("oracle-equivalence", not bad, bad[0] if bad else f"{trials} matrices")
    ks = (max(1, int(10 ** rng.uniform(log10(N), 60)) // N) for _ in range(trials))
    return [oracle, ("hecke", *_hecke(ctx, [random_gamma0(N, rng, kmin=k, kmax=k, d_shift=1) for k in ks]))]


def _hecke(ctx: Context, draws: list) -> tuple[bool, str]:
    """(whether the Hecke relation holds at each p on every draw, a detail),
    p the three smallest primes not dividing N, on the same draws.  With
    `_hecke_images` g_0..g_p of g,
        conj(psi(p)) sum_{b<p} S(g_b) + S(g_p) = (p conj(chi1(p)) + chi2(p)) S(g)
    exactly, with no free constant: Knopp's identity for the classical
    Dedekind sums, whose eigenvalue is p + 1.  It ties the tables at words
    far apart, so one context checks itself at every c; a wrong row can
    meet it at one p on most draws and break it at another."""
    N, L = ctx.N, ctx.L
    primes = list(islice((p for p in count(2) if N % p and all(p % r for r in range(2, p))), 3))
    for p in primes:
        e1, e2 = (chi.exponent_table(L)[p % chi.modulus] for chi in (ctx.chi1, ctx.chi2))
        scale = p * root_of_unity(L, -e1) + root_of_unity(L, e2)
        for g in draws:
            *images, last = (fast_sum(ctx, h) for h in _hecke_images(g, p))
            if root_of_unity(L, e2 - e1) * sum(images) + last != scale * fast_sum(ctx, g):
                return False, f"g={g}: the relation at p = {p} breaks"
    return True, f"p = {primes[0]}, {primes[1]} and {primes[2]}, {len(draws)} matrices, c up to 10^60"


def _hecke_images(g: Mat2, p: int) -> list:
    """g_i = alpha_i g alpha_j^-1 in Gamma0(N) for alpha_b = (1 b; 0 p),
    b < p, then alpha_p = (p 0; 0 1), for a prime p not dividing N: one row
    (u, v) of alpha_i g is 0 mod p, and the other gives j = v/u mod p, or p
    if p divides u; g_i is alpha_i g adj(alpha_j), divided by p."""
    a, b, c, d = g.entries()
    images = []
    for i in range(p + 1):
        x, y, z, w = (a + i * c, b + i * d, p * c, p * d) if i < p else (p * a, p * b, c, d)
        u, v = (x, y) if i < p else (z, w)
        j = v * pow(u, -1, p) % p if u % p else p
        # adj(alpha_j) is (p -j; 0 1), or (1 0; 0 p) for j = p
        m = (p * x, y - j * x, p * z, w - j * z) if j < p else (x, p * y, z, p * w)
        images.append(Mat2(*(e // p for e in m)))
    return images


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")

    def cmax_range(N):
        if not N <= args.cmax <= NAIVE_CUTOFF:
            raise ValueError(f"--cmax must lie between N = {_short(N)} and the double-sum cutoff {NAIVE_CUTOFF}")

    lines = run_verify(_context(args, at_level=cmax_range), trials=args.trials, seed=args.seed, cmax=args.cmax)
    for name, ok, detail in lines:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    if failed := sum(not ok for _, ok, _ in lines):
        print(f"{failed} suite(s) failed; first counterexamples above")
        return 2
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse takes a separate "-1,0;0,-1" for an option
        if argv[i] == "--matrix" and argv[i + 1][:1] == "-" and argv[i + 1][1:2].isdigit():
            argv[i : i + 2] = ["--matrix=" + argv[i + 1]]
    # CPython >= 3.10.7 refuses int <-> str conversions past `limit` digits;
    # a matrix entry may have more, so the limit is lifted for this run
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # never a raw traceback; KeyboardInterrupt and SystemExit propagate
        logging.getLogger(__name__).debug("internal error", exc_info=True)
        print(" ".join(f"error: internal error: {type(exc).__name__}: {exc}".split())[:200], file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
