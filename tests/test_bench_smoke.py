"""Each benchmark workload runs once and passes its own output checks.

The workloads replay public calls -- `run_scenario(s, workers=1)`,
`event_table_from_arrays(..., causes=)`, `two_sample_test` and
`pseudo_test` -- and compare their outputs with oracles and stored
references, so a change to those calls' names, options or numbers
fails here.  `--seconds 0` runs the fewest passes each workload allows.
The run goes from a temporary copy of `bench/`, `src/` and
`BENCHMARK.json`, so that its run record lands in the copy's
`.bench_out/` and leaves the checkout's records of real runs as they are.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["grid-small", "sim-large", "cli-cohort"])
def test_workload_runs_and_checks_out(workload, tmp_path):
    # bench/run.py reports the scipy version it ran with
    pytest.importorskip("scipy")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
                           workload, "--seconds", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    assert (tmp_path / ".bench_out" / f"{workload}-seed1-trace0.json").is_file()
