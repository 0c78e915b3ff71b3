"""Regenerate bench/reference.json, the stored outputs the checks compare against.

    python3 bench/make_reference.py

Records, for the default seed, the per-test rejection and exclusion
counts of the first pass of each simulation workload and the numbers
of the two `cli-cohort` commands.  Regenerate only when a workload's
definition changes; a program change that moves these numbers is what
the checks exist to catch.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import DEFAULT_SEED, OUT  # noqa: E402


def sim_reference(w, tmp: Path) -> dict:
    import cifpoint

    grid = tmp / f"{w.name}.cfg"
    grid.write_text(w.grid_text(DEFAULT_SEED))
    scenarios = cifpoint.parse_scenarios(grid)
    cells, results, _, _ = workloads.sim_pass(w, scenarios, DEFAULT_SEED, 0, workloads.Outcome())
    return {
        "seed": DEFAULT_SEED,
        "cells": [
            {"cell": workloads.cell_label(s), "rejections": r.rejections, "excluded": r.excluded}
            for s, r in zip(cells, results)
        ],
    }


def cli_reference(tmp: Path) -> dict:
    csv_path = tmp / "cohort.csv"
    workloads.write_cohort(csv_path, DEFAULT_SEED)
    out = {"seed": DEFAULT_SEED}
    for command, argv in zip(("estimate", "test"), workloads.cli_argv(csv_path)):
        code, stdout, stderr, _ = workloads.run_cli_inprocess(argv)
        if code != 0:
            raise SystemExit(f"{command} exited {code}: {stderr}")
        out[command] = workloads.reference_view(command, json.loads(stdout))
    return out


def main() -> None:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        reference = {
            "grid-small": sim_reference(workloads.GRID_SMALL, Path(tmp)),
            "sim-large": sim_reference(workloads.SIM_LARGE, Path(tmp)),
            "cli-cohort": cli_reference(Path(tmp)),
        }
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
