"""Benchmark of cifpoint: three workloads, output checks, per-layer tracing.

Run from the repository root:

    python3 bench/run.py --workload grid-small --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; nothing
needs installing.  With ``--trace 0`` the end-to-end metrics are
measured; with ``--trace 1`` a separate fixed amount of work is traced
layer by layer.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record of the run,
with the machine description, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def machine() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "cifpoint").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cifpoint" / "__init__.py").is_file():
        print(f"bench: no cifpoint package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    spec = _load_spec()
    wanted = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                      bool(args.trace), Path(tmp))

    failed = len(outcome.failed_ops)
    attempted = max(outcome.attempted, 1)
    meta = machine()
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("meta " + json.dumps(meta))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for name, unit in wanted:
        print(f"{name} = {outcome.metrics[name]:.6g} {unit}")
    for key, value in outcome.report.items():
        print(f"{key}: {json.dumps(value)}")

    result = {
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in wanted},
    }
    record = dict(result, meta=meta, report=outcome.report, problems=outcome.problems)
    if outcome.spans is not None:
        record["spans"] = outcome.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
