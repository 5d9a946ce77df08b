"""Run one gdsum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list.  The lines before it report the environment
(Python version, CPU count, commit) and details.  A JSON record of the run,
and in a traced run its spans, are written under perfbench/out/.
Workloads, metrics and the layer-to-metric map are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("tabulate", "huge-c", "cold-start"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gdsum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gdsum" / "__init__.py").is_file():
        print(f"error: no gdsum sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gdsum

    if Path(gdsum.__file__).resolve().parent != (SRC / "gdsum").resolve():
        print(f"error: imported gdsum from {gdsum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        outcome = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    if set(outcome.metrics) != set(units):
        print(
            f"error: metrics {sorted(outcome.metrics)} do not match BENCHMARK.json {sorted(units)}",
            file=sys.stderr,
        )
        return 1
    bad = [n for n, v in outcome.metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1

    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": outcome.metrics[n], "unit": u} for n, u in units.items()},
    }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    info.update(env)
    info["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    info.update(outcome.info)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "lines": outcome.lines, **result}, fh, indent=1)
    if outcome.spans:
        with gzip.open(f"{stem}.spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump([list(s) for s in outcome.spans], fh)
    for line in outcome.lines:
        print(line)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
