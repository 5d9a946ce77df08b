"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from gdsum import dedekind  # noqa: E402
from gdsum.exactnum import CycElem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    out = bench.run(workload, 3, 0.2, trace, tmp_path, bench.TINY)
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(out.metrics) == declared
    assert out.attempted > 0 and out.failed == 0
    for name, value in out.metrics.items():
        if name != "trace.overhead_pct":
            assert value > 0, name
    # the tracer put every original function back
    assert not hasattr(dedekind.fast_sum, "__wrapped__")


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_corrupted_entry_counts_as_failed(workload, tmp_path, monkeypatch):
    real_load = dedekind.load_context

    def corrupted_load(path, **kwargs):
        ctx = real_load(path, **kwargs)
        # U(I, S) opens every word with an S letter, so most sums use it.
        key = ((0, 1 % ctx.N), ("S", 1))
        sums = dict(ctx.sums_alphabet)
        sums[key] = sums[key] + CycElem.one(ctx.L)
        return dataclasses.replace(ctx, sums_alphabet=sums)

    monkeypatch.setattr(dedekind, "load_context", corrupted_load)
    # With the table comparison switched off, only the evaluation checks
    # can catch the corrupted copy.
    monkeypatch.setattr(bench, "tables_equal", lambda a, b: True)
    out = bench.run(workload, 3, 0.1, False, tmp_path, bench.TINY)
    assert 0 < out.failed <= out.attempted


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = SPEC["command"] + ["--workload", "tabulate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    args[0] = sys.executable
    proc = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
