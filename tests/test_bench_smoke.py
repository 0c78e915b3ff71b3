"""Each benchmark workload runs once and passes its own output checks.

The workloads replay public calls -- `run_scenario(s, workers=1)`,
`event_table_from_arrays(..., causes=)`, `two_sample_test` and
`pseudo_test` -- and compare their outputs with oracles and stored
references, so a change to those calls' names, options or numbers
fails here.  `--seconds 0` runs the fewest passes each workload allows.
The run goes from a temporary copy of `bench/`, `src/` and
`BENCHMARK.json`, so that its run record lands in the copy's
`.bench_out/` and leaves the checkout's records of real runs as they are.

The cli-cohort workload's two CLI commands are also pinned here byte
for byte, in-process, on the cohort `bench/workloads.py` writes.
"""

import hashlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from cifpoint.cli import run_cli

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


# sha256 of the stdout of cli-cohort's `estimate` and `test --method all`
# on the seed-1 cohort.  Any change to a number, its formatting or the
# JSON layout moves them; a change meant to move them re-pins them by
# running the two commands of `workloads.cli_argv` on that cohort and
# pasting the new digests here, saying in its log which outputs moved
# and why.
COHORT_STDOUT_SHA256 = {
    "estimate": "7dd25150ed863d20c9b85ebd3c999459c49222b97a5912296a164d8705fa690f",
    "test": "a484d671e06cbbfd77c3446806071a56726913a808cb6f87c7e64aa8bde658da",
}


def test_cohort_commands_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    path = tmp_path / "cohort.csv"
    workloads.write_cohort(path, 1)
    digests = {}
    for argv in workloads.cli_argv(path):
        assert run_cli(argv) == 0
        digests[argv[0]] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == COHORT_STDOUT_SHA256
