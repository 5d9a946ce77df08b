"""gdsum benchmark workloads: seeded inputs, a timed closed loop, exact checks.

One caller, one thread: each call starts when the previous one returned.
Every timed result is checked outside the timed call, and an operation
whose check fails or that raises counts as failed.

* tabulate   -- every (a b; c d) with c = N*k, k <= 40, 0 < a < c coprime,
                d = a^-1 mod c, in seeded order; a seeded sample is
                compared with the double sum.
* huge-c     -- a fixed pool of matrices with log10(c) spread evenly over
                6..60, in seeded order; a seeded sample is checked through
                S(g h) = S(g) + psi(g) S(h) with small anchors h whose S(h)
                is checked against the double sum.
* cold-start -- for two pairs, round after round: precompute, then save,
                load and a few evaluations, several times; each loaded
                context must equal the precomputed one and evaluate
                identically.

Every workload starts with cold starts of its pair(s); `setup_s` is the
median time from nothing to a loaded, usable context.  Every timing is
read from RefClock: CPU time counted at a reference speed.
"""

from __future__ import annotations

import functools
import gc
import os
import random
import resource
import signal
import statistics
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from time import perf_counter, thread_time_ns

from gdsum import characters, dedekind
from gdsum.modgroup import Mat2

import tracer as tracing

WORKLOADS = ("tabulate", "huge-c", "cold-start")

PAIR_28 = ("q=4;g=3;v=1/2", "q=7;g=3;v=5/6")  # N = 28, L = 6
PAIR_35 = ("q=5;g=2;v=1/4", "q=7;g=3;v=1/6")  # N = 35, L = 12
PAIR_9 = ("q=3;g=2;v=1/2", "q=3;g=2;v=1/2")  # N = 9, L = 2
PAIR_12 = ("q=4;g=3;v=1/2", "q=3;g=2;v=1/2")  # N = 12, L = 2


@dataclass(frozen=True)
class Sizes:
    pair: tuple[str, str]  # evaluated by tabulate and huge-c
    cold_pairs: tuple[tuple[str, str], ...]  # cold-started by cold-start
    setup_reps: int  # cold starts in the set-up of tabulate and huge-c
    cycles: dict  # workload -> save-load cycles per untraced cold start
    tabulate_kmax: int
    tabulate_checks: int
    huge_log10_c: tuple[int, int]
    huge_blocks: int  # one matrix per decade of c in each block
    huge_checks: int
    huge_anchor_kmax: int
    cold_evals: int  # evaluations per pair per cold-start round
    cold_min_rounds: int
    min_passes: int  # timed passes over the inputs of tabulate and huge-c
    block: dict  # workload -> evaluations per block; a traced run alternates by block


FULL = Sizes(
    pair=PAIR_28,
    cold_pairs=(PAIR_28, PAIR_35),
    setup_reps=8,
    cycles={"tabulate": 2, "huge-c": 2, "cold-start": 4},
    tabulate_kmax=40,
    tabulate_checks=400,
    huge_log10_c=(6, 60),
    huge_blocks=24,
    huge_checks=200,
    huge_anchor_kmax=20,
    cold_evals=500,
    cold_min_rounds=2,
    min_passes=3,
    block={"tabulate": 100, "huge-c": 10},
)
# For the benchmark's own tests: every path in well under a second.
TINY = Sizes(
    pair=PAIR_9,
    cold_pairs=(PAIR_9, PAIR_12),
    setup_reps=2,
    cycles={"tabulate": 2, "huge-c": 2, "cold-start": 2},
    tabulate_kmax=6,
    tabulate_checks=20,
    huge_log10_c=(6, 20),
    huge_blocks=2,
    huge_checks=10,
    huge_anchor_kmax=5,
    cold_evals=20,
    cold_min_rounds=1,
    min_passes=3,
    block={"tabulate": 10, "huge-c": 5},
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # a traced run's spans

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def parse_pair(pair):
    return tuple(characters.parse_character_spec(s) for s in pair)


def pair_label(chars) -> str:
    return f"N={chars[0].modulus * chars[1].modulus}"


# ---------------------------------------------------------------------------
# machine speed


REF_NS = 200_000  # one probe's CPU time at the reference speed
PROBE_PERIOD_S = 0.02  # CPU time between probes


class _Step:
    """A small immutable object per Euclid step, built the way Mat2 is."""

    __slots__ = ("q", "r")

    def __init__(self, q, r):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)


class RefClock:
    """This process's CPU time, counted in nanoseconds at a reference speed.

    On cores shared with other tenants, the speed of the same Python code
    drifts by up to 2x over seconds to minutes, and no run is long enough
    to average that out.  So a SIGPROF timer interrupts the program every
    20 ms of CPU time and runs a fixed probe: bigint Euclid steps, a small
    object per step, a table lookup and two Fraction additions, which is
    what fast_sum and precompute do most.  The probe runs once to warm up
    and is then timed with the collector off.  Each slice of CPU time
    between two probes counts at REF_NS over the first probe's time, and
    the probes' own time is left out, so `now()` reads the work done so
    far as reference-speed nanoseconds.  CPU time rather than wall time
    leaves out the time the host ran other tenants on this core.

    The probe shares no code or data with gdsum, and its table is small,
    so a change to the package cannot move it.  Over ten precomputes of
    the N=35 pair on a 2-core cloud VM, raw CPU time varied by 12% (CV)
    and the reference-speed reading by 2.3%.

    Signal handlers run between bytecodes of the main thread, so `now()`
    rereads until no probe ran while it read.
    """

    def __init__(self):
        rng = random.Random(0)
        self._table = {
            (i % 97, i // 97): tuple(Fraction(rng.randrange(-99, 99), rng.randrange(1, 12)) for _ in range(2))
            for i in range(1000)
        }
        self._keys = list(self._table)
        self.samples = []  # each probe's CPU time, ns
        self._ref = 0.0  # reference ns up to the latest probe
        self._mark = 0  # work ns at the latest probe
        self._excluded = 0  # ns spent in probes
        self._speed = 1.0  # reference ns per work ns since the latest probe
        self._gen = 0  # probes run so far
        self._probing = False
        self._old_handler = None

    def _work(self) -> None:
        table, keys, nk = self._table, self._keys, len(self._keys)
        for rep in range(6):
            a, c = 10**18 + 39 + rep, 7 * 10**17 + 3
            acc0 = acc1 = Fraction(0)
            k = rep
            while c:
                q, r = divmod(a, c)
                a, c = c, r
                step = _Step(q, r)
                v = table[keys[(step.q * 7919 + k) % nk]]
                acc0 += v[0]
                acc1 += v[1]
                k += 1

    def _probe(self, signum=None, frame=None) -> None:
        if self._probing:  # the timer fired again inside a slow probe
            return
        self._probing = True
        c0 = thread_time_ns()
        work = c0 - self._excluded
        self._ref += (work - self._mark) * self._speed
        self._mark = work
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._work()  # warm-up
            c1 = thread_time_ns()
            self._work()
            dt = thread_time_ns() - c1
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        self._speed = REF_NS / dt
        self._excluded += thread_time_ns() - c0
        self._gen += 1
        self._probing = False

    def now(self) -> float:
        """Reference-speed nanoseconds of work since the clock started."""
        while True:
            gen = self._gen
            t = self._ref + (thread_time_ns() - self._excluded - self._mark) * self._speed
            if gen == self._gen:
                return t

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGPROF, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        return False


# ---------------------------------------------------------------------------
# inputs


def tabulate_inputs(N: int, kmax: int, rng: random.Random) -> list[Mat2]:
    mats = []
    for k in range(1, kmax + 1):
        c = N * k
        for a in range(1, c):
            if gcd(a, c) == 1:
                d = pow(a, -1, c)
                mats.append(Mat2(a, (a * d - 1) // c, c, d))
    rng.shuffle(mats)
    return mats


def random_member(N: int, lo: int, hi: int, rng: random.Random, shifts=(-1, 0, 1)) -> Mat2:
    """(a b; c d) in Gamma0(N) with lo <= c < hi and d = a^-1 mod c + s*c, s from `shifts`.

    Like gdsum.modgroup.random_gamma0, but kept here so that a change to
    the package cannot change the benchmark's inputs.
    """
    c = N * rng.randrange(max(lo // N, 1), max(hi // N, 2))
    while True:
        a = rng.randrange(1, c)
        if gcd(a, c) == 1:
            break
    d = pow(a, -1, c) + c * rng.choice(shifts)
    return Mat2(a, (a * d - 1) // c, c, d)


# The matrix pools of huge-c and cold-start are drawn from fixed seeds, and
# the run's seed only orders them, as it orders tabulate's fixed set.  The
# cost of fast_sum spreads widely over these pools, so a pool drawn per
# seed moved huge-c's median by 7-8% between seeds by sampling alone.
POOL_SEED = "gdsum-perfbench-pool"


def huge_inputs(N: int, decades: tuple[int, int], blocks: int, rng: random.Random) -> list[Mat2]:
    """A fixed pool with one matrix per decade of c in every block, in seeded order.

    Blocks are shuffled whole, so any whole number of blocks covers all
    decades equally.
    """
    pool = random.Random(f"{POOL_SEED}/huge-c/{N}")
    groups = [[random_member(N, 10**e, 10 ** (e + 1), pool) for e in range(*decades)] for _ in range(blocks)]
    rng.shuffle(groups)
    for group in groups:
        rng.shuffle(group)
    return [g for group in groups for g in group]


def cold_inputs(N: int, count: int, rng: random.Random) -> list[Mat2]:
    """A fixed pool of `count` matrices with c < 10^4, in seeded order."""
    pool = random.Random(f"{POOL_SEED}/cold-start/{N}")
    mats = [random_member(N, 1, 10**4, pool) for _ in range(count)]
    rng.shuffle(mats)
    return mats


# ---------------------------------------------------------------------------
# timed operations


@dataclass
class ColdStart:
    precompute_s: float
    save_s: list  # one per save-load cycle
    load_s: list
    cache_bytes: int

    @property
    def total_s(self) -> float:
        """From nothing to a usable context: the precompute and the first cycle."""
        return self.precompute_s + self.save_s[0] + self.load_s[0]


def hide_heap() -> None:
    """Collect, then hide every live object from the collector (gc.freeze)."""
    gc.collect()
    gc.freeze()


@contextmanager
def fresh_heap():
    try:
        hide_heap()
        yield
    finally:
        gc.unfreeze()


def cold_start(chars, path, clock: RefClock, cycles: int = 1, after_load=None):
    """Precompute one pair, then save and load it `cycles` times.

    Returns the context, the last loaded one and the timings, and calls
    `after_load(ctx, loaded)` after each load.  Each phase starts from a
    collected heap with everything alive before it hidden from the
    collector, as in a new process.  Otherwise its full collections would
    also walk the objects of earlier work, which took about half of a
    load; that memory-bound walk is not the phase's own cost, and it is
    the part whose speed the probe tracks worst.
    """
    with fresh_heap():
        t0 = clock.now()
        ctx = dedekind.precompute(*chars)
        precompute_s = (clock.now() - t0) / 1e9
        saves, loads = [], []
        for _ in range(cycles):
            loaded = None
            hide_heap()
            t0 = clock.now()
            dedekind.save_context(ctx, path)
            saves.append((clock.now() - t0) / 1e9)
            hide_heap()
            t0 = clock.now()
            loaded = dedekind.load_context(path)
            loads.append((clock.now() - t0) / 1e9)
            if after_load is not None:
                after_load(ctx, loaded)
    return ctx, loaded, ColdStart(precompute_s, saves, loads, os.path.getsize(path))


def tables_equal(a, b) -> bool:
    return (
        (a.N, a.L) == (b.N, b.L)
        and a.t_g0.members == b.t_g0.members
        and a.t_sl2.members == b.t_sl2.members
        and a.alphabet == b.alphabet
        and a.sums_g0 == b.sums_g0
        and a.sums_alphabet == b.sums_alphabet
    )


def timed_evals(ctx, mats, indices, clock: RefClock, out: Outcome):
    """fast_sum on mats[i] for i in indices; returns the values and reference ns per call.

    A call that raises yields the exception as its value.
    """
    fast, now = dedekind.fast_sum, clock.now
    values, times = [], []
    for i in indices:
        g = mats[i]
        t0 = now()
        try:
            v = fast(ctx, g)
        except Exception as exc:  # counted as a failed operation; the run goes on
            v = exc
        times.append(now() - t0)
        if isinstance(v, Exception) and "first_error" not in out.info:
            out.info["first_error"] = f"fast_sum{g}: " + "".join(traceback.format_exception(v))
        values.append(v)
    return values, times


def eval_passes(ctx, mats, seconds, min_passes, block, clock, out, tracer=None):
    """Evaluate `mats` pass after pass, in blocks, for at least `seconds` and `min_passes`.

    The first block is evaluated once beforehand, untimed, to warm up.
    Returns each matrix's untraced times, each matrix's first value, and
    the summed untraced and traced times.  With a tracer every block runs
    untraced and traced, alternating which goes first, so both timings
    cover the same matrices, and no per-matrix times are kept.  Every
    later value must equal the first one.
    """
    n = len(mats)
    times = [[] for _ in range(n)]
    first = [None] * n
    both_ns = [0, 0]  # untraced, traced
    timed_evals(ctx, mats, range(min(block, n)), clock, Outcome())
    deadline = perf_counter() + seconds
    passes = 0
    while passes < min_passes or perf_counter() < deadline:
        for start in range(0, n, block):
            if passes >= min_passes and perf_counter() >= deadline:
                break
            idx = range(start, min(start + block, n))
            traced_first = tracer is not None and start // block % 2 == 1
            if traced_first:
                with tracer:
                    again, traced_ns = timed_evals(ctx, mats, idx, clock, out)
            values, plain_ns = timed_evals(ctx, mats, idx, clock, out)
            if tracer is not None and not traced_first:
                with tracer:
                    again, traced_ns = timed_evals(ctx, mats, idx, clock, out)
            if tracer is None:
                for i, t in zip(idx, plain_ns):
                    times[i].append(t)
            else:
                both_ns[0] += sum(plain_ns)
                both_ns[1] += sum(traced_ns)
                values = values + again
            for i, v in zip(list(idx) * 2, values):
                if first[i] is None:
                    first[i] = v
                    out.record(not isinstance(v, Exception))
                else:
                    out.record(not isinstance(v, Exception) and v == first[i])
        passes += 1
    return times, first, both_ns


# ---------------------------------------------------------------------------
# metrics


def eval_metrics(times_ns: list) -> dict:
    """Throughput over every timed evaluation, and latency quantiles over
    the matrices of each matrix's median time; `times_ns` holds each
    matrix's times."""
    q = statistics.quantiles([statistics.median(t) for t in times_ns if t], n=100, method="inclusive")
    return {
        "evals_per_s": sum(map(len, times_ns)) / (sum(map(sum, times_ns)) / 1e9),
        "eval_p50_us": q[49] / 1e3,
        "eval_p99_us": q[98] / 1e3,
    }


def setup_metrics(starts_by_pair: dict) -> dict:
    """Per pair, the median of each phase over its cold starts and cycles; summed over the pairs."""

    def summed(values):
        return sum(statistics.median(values(starts)) for starts in starts_by_pair.values())

    return {
        "setup_s": summed(lambda starts: [s.total_s for s in starts]),
        "precompute_s": summed(lambda starts: [s.precompute_s for s in starts]),
        "cache_save_s": summed(lambda starts: [t for s in starts for t in s.save_s]),
        "cache_load_s": summed(lambda starts: [t for s in starts for t in s.load_s]),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(starts_by_pair: dict, times_ns: list, clock: RefClock, out: Outcome) -> None:
    out.metrics.update(setup_metrics(starts_by_pair))
    out.metrics.update(eval_metrics(times_ns))
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.info["timed_evals"] = sum(map(len, times_ns))
    out.info["probes"] = len(clock.samples)
    out.info["probe_median_us"] = statistics.median(clock.samples) / 1e3


# ---------------------------------------------------------------------------
# workloads


def run(workload: str, seed: int, seconds: float, trace: bool, workdir, sizes: Sizes = FULL) -> Outcome:
    """Run one workload; metrics are end-to-end, or per-layer when `trace`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    out = Outcome()
    with RefClock() as clock:
        tracer = tracing.Tracer(clock.now) if trace else None
        if workload == "cold-start":
            _cold_start_workload(rng, seconds, clock, tracer, workdir, sizes, out)
        else:
            _eval_workload(workload, rng, seconds, clock, tracer, workdir, sizes, out)
    return out


def _eval_workload(workload, rng, seconds, clock, tracer, workdir, sizes, out):
    chars = parse_pair(sizes.pair)
    N = chars[0].modulus * chars[1].modulus
    if workload == "tabulate":
        mats = tabulate_inputs(N, sizes.tabulate_kmax, rng)
    else:
        mats = huge_inputs(N, sizes.huge_log10_c, sizes.huge_blocks, rng)

    path = os.path.join(workdir, "context.json")
    cycles = 1 if tracer is not None else sizes.cycles[workload]
    starts = []
    for _ in range(sizes.setup_reps):
        ctx = loaded = None  # free the previous contexts before building the next
        with tracer if tracer is not None else nullcontext():
            ctx, loaded, timing = cold_start(chars, path, clock, cycles)
        out.record(tables_equal(ctx, loaded))
        starts.append(timing)
    ctx = loaded

    min_passes = 1 if tracer is not None else sizes.min_passes
    times, first, both_ns = eval_passes(ctx, mats, seconds, min_passes, sizes.block[workload], clock, out, tracer)
    evaluated = [i for i, v in enumerate(first) if not isinstance(v, Exception)]
    if workload == "tabulate":
        bad, checked = _check_against_oracle(ctx, mats, first, evaluated, sizes.tabulate_checks, rng)
    else:
        bad, checked = _check_crossed_hom(ctx, mats, first, evaluated, sizes, rng, out)
    out.failed += bad
    out.info.update(
        pair=list(sizes.pair),
        matrices=len(mats),
        evals=out.attempted - len(starts),
        checked=checked,
        setup_reps=len(starts),
        cache_bytes=starts[-1].cache_bytes,
    )

    if tracer is None:
        end_to_end({N: starts}, times, clock, out)
        return
    overhead = both_ns[1] / both_ns[0] - 1
    _traced_metrics(tracer, out, rounds=len(starts), cache_bytes=starts[-1].cache_bytes, overhead=overhead)
    layers = sum(out.metrics[f"{layer}_s"] for layer in tracing.EVAL_LAYERS)
    untraced = both_ns[0] / 1e9 / out.info["traced_evals"]
    out.lines.append(
        f"fast path: layer self times sum to {layers * 1e6:.1f} us/eval, untraced eval "
        f"{untraced * 1e6:.1f} us/eval, gap {100 * (layers / untraced - 1):+.1f}% "
        f"against tracing overhead {100 * overhead:+.1f}%"
    )


def _check_against_oracle(ctx, mats, values, evaluated, k, rng):
    sample = rng.sample(evaluated, min(k, len(evaluated)))
    bad = sum(values[i] != dedekind.naive_sum(ctx.chi1, ctx.chi2, mats[i]) for i in sample)
    return bad, len(sample)


def _check_crossed_hom(ctx, mats, values, evaluated, sizes, rng, out):
    """S(g h) = S(g) + psi(g) S(h), with S(h) itself checked against the double sum."""
    anchors = []
    for _ in range(4):
        h = random_member(ctx.N, ctx.N, ctx.N * sizes.huge_anchor_kmax, rng)
        s_h = dedekind.naive_sum(ctx.chi1, ctx.chi2, h)
        out.record(dedekind.fast_sum(ctx, h) == s_h)
        anchors.append((h, s_h))
    sample = rng.sample(evaluated, min(sizes.huge_checks, len(evaluated)))
    bad = 0
    for j, i in enumerate(sample):
        g = mats[i]
        h, s_h = anchors[j % len(anchors)]
        expect = values[i] + characters.psi(ctx.chi1, ctx.chi2, g) * s_h
        bad += dedekind.fast_sum(ctx, g * h) != expect
    return bad, len(sample)


def _cold_start_workload(rng, seconds, clock, tracer, workdir, sizes, out):
    pairs = [parse_pair(p) for p in sizes.cold_pairs]
    labels = [pair_label(chars) for chars in pairs]
    evals = {
        label: cold_inputs(chars[0].modulus * chars[1].modulus, sizes.cold_evals, rng)
        for label, chars in zip(labels, pairs)
    }
    expected = {}  # label -> fast_sum on the precomputed context
    starts = {label: [] for label in labels}
    times = {label: [[] for _ in mats] for label, mats in evals.items()}
    round_s = {False: [], True: []}  # traced? -> duration of each round
    contexts = {}

    def use(label, traced, eval_s, ctx, loaded):
        """Check a loaded context and time fast_sum on it, right after the load."""
        out.record(tables_equal(ctx, loaded))
        mats = evals[label]
        got, eval_ns = timed_evals(loaded, mats, range(len(mats)), clock, out)
        if label not in expected:
            expected[label] = [dedekind.fast_sum(ctx, g) for g in mats]
        for v, want in zip(got, expected[label]):
            out.record(not isinstance(v, Exception) and v == want)
        eval_s.append(sum(eval_ns) / 1e9)
        if not traced:
            for ts, t in zip(times[label], eval_ns):
                ts.append(t)

    # A traced run alternates untraced and traced rounds; only the untraced
    # ones give timings, the traced ones give spans and the overhead.
    rounds = 0
    min_rounds = max(sizes.cold_min_rounds, 2 if tracer is not None else 1)
    cycles = 1 if tracer is not None else sizes.cycles["cold-start"]
    deadline = perf_counter() + seconds
    while rounds < min_rounds or perf_counter() < deadline:
        traced = tracer is not None and rounds % 2 == 1
        spent = 0.0
        for label, chars in zip(labels, pairs):
            contexts.pop(label, None)
            path = os.path.join(workdir, f"context-{label}.json")
            eval_s = []
            with tracer if traced else nullcontext():
                _, loaded, timing = cold_start(
                    chars, path, clock, cycles, functools.partial(use, label, traced, eval_s)
                )
            spent += timing.total_s + sum(eval_s)
            if not traced:  # traced rounds give spans, not timings
                starts[label].append(timing)
            contexts[label] = loaded
        round_s[traced].append(spent)
        rounds += 1

    out.info.update(
        pairs=[list(p) for p in sizes.cold_pairs],
        rounds=rounds,
        matrices=sum(len(v) for v in evals.values()),
        cache_bytes={label: v[-1].cache_bytes for label, v in starts.items()},
        per_pair={label: setup_metrics({label: v}) for label, v in starts.items()},
    )
    if tracer is None:
        end_to_end(starts, [ts for v in times.values() for ts in v], clock, out)
        return
    overhead = statistics.fmean(round_s[True]) / statistics.fmean(round_s[False]) - 1
    cache_bytes = sum(v[-1].cache_bytes for v in starts.values())
    _traced_metrics(tracer, out, rounds=len(round_s[True]), cache_bytes=cache_bytes, overhead=overhead)
    out.lines.extend(baseline_table(contexts, starts, workdir, clock, rng))


def _traced_metrics(tracer, out, *, rounds, cache_bytes, overhead):
    evals = sum(1 for s in tracer.spans if s[3] == "dedekind.fast_sum")
    out.metrics.update(tracing.layer_metrics(tracer.spans, evals=evals, rounds=rounds))
    out.metrics["dedekind.cache_bytes"] = cache_bytes
    out.metrics["trace.overhead_pct"] = 100 * overhead
    out.info["traced_evals"] = evals
    out.info["traced_rounds"] = rounds
    out.spans = tracer.spans


# ---------------------------------------------------------------------------
# the re-anchor baseline table, reprinted for the record (never gated)


def baseline_table(contexts: dict, starts: dict, workdir, clock: RefClock, rng) -> list[str]:
    """Untraced precompute, cache and fast_sum timings in the layout of the
    ROADMAP baseline table: N=9 measured here, N=28 from the cold starts."""
    chars9 = parse_pair(PAIR_9)
    path = os.path.join(workdir, "context-baseline-9.json")
    starts9 = []
    for _ in range(5):
        _, loaded9, timing = cold_start(chars9, path, clock)
        starts9.append(timing)
    columns = {"N=9": (loaded9, starts9)}
    if "N=28" in contexts:
        columns["N=28"] = (contexts["N=28"], starts["N=28"])

    def median_us(fn, mats):
        samples = []
        for g in mats:
            t0 = clock.now()
            fn(g)
            samples.append(clock.now() - t0)
        return statistics.median(samples) / 1e3

    rows = {"precompute": [], "cache load / size": []}
    for ctx, timings in columns.values():
        rows["precompute"].append(f"{statistics.median(t.precompute_s for t in timings):.3f} s")
        load = statistics.median(t for s in timings for t in s.load_s)
        rows["cache load / size"].append(f"{load:.3f} s / {timings[-1].cache_bytes / 1e3:.0f} KB")
    for scale, name in ((10, "c ~ N*10"), (10**12, "c ~ N*1e12"), (10**60, "c ~ N*1e60")):
        cells = []
        for label, (ctx, _) in columns.items():
            mats = [random_member(ctx.N, ctx.N * scale, 2 * ctx.N * scale, rng, (0,)) for _ in range(30)]
            cell = f"{median_us(lambda g: dedekind.fast_sum(ctx, g), mats):.0f} us"
            if scale == 10 and label == "N=28":
                naive = median_us(lambda g: dedekind.naive_sum(ctx.chi1, ctx.chi2, g), mats)
                cell += f" (naive {naive:.0f} us)"
            cells.append(cell)
        rows[f"fast_sum, {name}"] = cells
    lines = ["baseline table (untraced medians at the reference speed; not gated):"]
    lines.append("| what | " + " | ".join(columns) + " |")
    lines += [f"| {what} | " + " | ".join(cells) + " |" for what, cells in rows.items()]
    return lines
