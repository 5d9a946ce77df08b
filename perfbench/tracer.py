"""Span recording around gdsum's layers, installed from outside the package.

`Tracer.install` rebinds every public function of the traced modules, in
every loaded `gdsum` module that refers to it (so `gdsum.dedekind.fast_sum`
reaching `gdsum.dedekind.modified_rewrite` goes through the wrapper too).
Each call appends one span to an in-memory list; `uninstall` puts the
originals back.  `layer_metrics` turns the spans into per-layer self times
and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

TRACED_MODULES = ("gdsum.dedekind", "gdsum.rewriter", "gdsum.modgroup", "gdsum.cosets")

# Called once per factor inside reduce_word: a span there would cost more
# than the work it measures, so its time stays in rewriter.reduce.
UNWRAPPED = frozenset({"rewriter.reduce_t_power"})


def _entry_bits(m) -> int:
    return max(abs(x) for x in m.entries()).bit_length()


# Counts recorded on a span, computed from the call's arguments and result.
ANNOTATE = {
    "modgroup.ts_decompose": lambda args, out: (out.letters, _entry_bits(args[0])),
    "rewriter.modified_rewrite": lambda args, out: (len(out),),
    "rewriter.reduce_word": lambda args, out: (len(out),),
    "cosets.schreier_alphabet": lambda args, out: (len(out),),
    "dedekind.naive_sum": lambda args, out: (args[2].c,),
}

# Span name -> layer.  A span not listed belongs to its parent's layer, so
# helpers such as dedekind.common_order or cosets.sl2_coset_count add to
# whichever layer called them.
LAYER_OF = {
    "dedekind.fast_sum": "dedekind.accumulate",
    "dedekind.split_gamma0": "dedekind.split",
    "modgroup.ts_decompose": "modgroup.decompose",
    "rewriter.modified_rewrite": "rewriter.rewrite",
    "rewriter.reduce_word": "rewriter.reduce",
    "dedekind.precompute": "dedekind.derive",
    "cosets.transversal_g1_in_g0": "cosets.transversals",
    "cosets.transversal_g1_in_sl2": "cosets.transversals",
    "cosets.schreier_alphabet": "cosets.alphabet",
    "dedekind.save_context": "dedekind.save_encode",
    "dedekind.load_context": "dedekind.load_decode",
}
ORACLE = frozenset({"dedekind.naive_sum", "dedekind.sum_on_gamma0"})
EVAL_LAYERS = (
    "dedekind.split",
    "modgroup.decompose",
    "rewriter.rewrite",
    "rewriter.reduce",
    "dedekind.accumulate",
)


class Tracer:
    """In-memory span recorder; spans are (id, parent, root, name, t0_ns, t1_ns, counts).

    `clock` returns nanoseconds; the benchmark passes its reference clock so
    that spans and untraced timings share a unit.
    """

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []
        self._current = 0  # id of the open span, 0 outside any span
        self._root = 0
        self._next_id = 1
        self._wrappers: dict = {}  # original function -> (name, wrapper)
        self._rebound: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        spans, clock = self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, root = self._current, self._root
            sid = self._next_id
            self._next_id = sid + 1
            self._current = sid
            if not parent:
                self._root = sid
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._current, self._root = parent, root
            spans.append(
                (sid, parent, root or sid, name, t0, t1, annotate(args, out) if annotate else ())
            )
            return out

        return traced

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for modname in TRACED_MODULES:
                mod = importlib.import_module(modname)
                short = modname.rsplit(".", 1)[1]
                for attr, fn in vars(mod).items():
                    name = f"{short}.{attr}"
                    if (
                        inspect.isfunction(fn)
                        and fn.__module__ == modname
                        and not attr.startswith("_")
                        and name not in UNWRAPPED
                    ):
                        self._wrappers[fn] = self._wrap(name, fn)
        loaded = [m for n, m in list(sys.modules.items()) if n == "gdsum" or n.startswith("gdsum.")]
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._rebound.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_totals(spans) -> tuple[dict, dict]:
    """Self time (seconds) per layer and summed counts per (span name, layer).

    A span's self time is its duration minus its children's durations.
    Oracle calls are split by caller: under `load_context` they are the
    load's spot checks, anywhere else the precompute's table evaluations.
    """
    child_ns = defaultdict(int)
    for _, parent, _, _, t0, t1, _ in spans:
        child_ns[parent] += t1 - t0
    layer_of_id = {}
    self_s = defaultdict(float)
    counts = defaultdict(lambda: [0, 0, 0])  # calls, first count summed, second count summed
    for sid, parent, _, name, t0, t1, extra in sorted(spans):  # parents before children
        parent_layer = layer_of_id.get(parent)
        if name in ORACLE:
            load = parent_layer in ("dedekind.load_decode", "dedekind.load_oracle")
            layer = "dedekind.load_oracle" if load else "dedekind.oracle"
        else:
            layer = LAYER_OF.get(name, parent_layer or "unattributed")
        layer_of_id[sid] = layer
        self_s[layer] += (t1 - t0 - child_ns[sid]) / 1e9
        c = counts[(name, layer)]
        c[0] += 1
        for i, v in enumerate(extra[:2]):
            c[i + 1] += v
    return dict(self_s), dict(counts)


def layer_metrics(spans, *, evals: int, rounds: int) -> dict[str, float]:
    """Per-layer metrics: eval layers per fast_sum call, set-up layers per round.

    A round is one cold start (precompute, save, load) of each of the
    workload's pairs.
    """
    self_s, counts = layer_totals(spans)

    def count(name, layer, which=0):
        return counts.get((name, layer), (0, 0, 0))[which]

    per_eval = {f"{layer}_s": self_s.get(layer, 0.0) / evals for layer in EVAL_LAYERS}
    letters_calls = count("modgroup.ts_decompose", "modgroup.decompose")
    per_eval.update(
        {
            "modgroup.letters": count("modgroup.ts_decompose", "modgroup.decompose", 1) / evals,
            "modgroup.max_entry_bits": count("modgroup.ts_decompose", "modgroup.decompose", 2)
            / max(letters_calls, 1),
            "rewriter.factors": count("rewriter.modified_rewrite", "rewriter.rewrite", 1) / evals,
            "rewriter.terms": count("rewriter.reduce_word", "rewriter.reduce", 1) / evals,
        }
    )
    per_round = {
        f"{layer}_s": self_s.get(layer, 0.0) / rounds
        for layer in (
            "cosets.transversals",
            "cosets.alphabet",
            "dedekind.oracle",
            "dedekind.derive",
            "dedekind.save_encode",
            "dedekind.load_decode",
            "dedekind.load_oracle",
        )
    }
    per_round.update(
        {
            "cosets.alphabet_entries": count("cosets.schreier_alphabet", "cosets.alphabet", 1)
            / rounds,
            "dedekind.oracle_calls": count("dedekind.naive_sum", "dedekind.oracle") / rounds,
            "dedekind.oracle_total_c": count("dedekind.naive_sum", "dedekind.oracle", 1) / rounds,
            "dedekind.load_oracle_checks": count("dedekind.naive_sum", "dedekind.load_oracle")
            / rounds,
        }
    )
    return {**per_eval, **per_round}
