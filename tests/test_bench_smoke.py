"""Each benchmark workload runs once and passes its own output checks.

The workloads replay public calls -- `run_scenario(s, workers=1)`,
`event_table_from_arrays(..., causes=)`, `two_sample_test` and
`pseudo_test` -- and compare their outputs with oracles and stored
references, so a change to those calls' names, options or numbers
fails here.  `--seconds 0` runs the fewest passes each workload allows;
the run record goes to the git-ignored `.bench_out/`.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["grid-small", "sim-large", "cli-cohort"])
def test_workload_runs_and_checks_out(workload):
    # bench/run.py reports the scipy version it ran with
    pytest.importorskip("scipy")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seconds", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
