import contextlib
import csv
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cifpoint
from cifpoint.cli import run_cli
from cifpoint.data import build_event_table, parse_dataset
from cifpoint.estimation import StepFunction, cif_estimate

from conftest import FIXTURE_A, FIXTURE_B, NEAR_ONE_ROWS


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "subjects.csv"
    rows = ["time,status,arm"]
    for t, s in zip(*FIXTURE_A):
        rows.append(f"{t},{s},x")
    for t, s in zip(*FIXTURE_B):
        rows.append(f"{t},{s},y")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def grid_cfg(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(
        "sizes = 30/30\n"
        "times = 0.5\n"
        "censoring = 0\n"
        "reps = 40\n"
        "seed = 11\n"
    )
    return path


def results_csv(path):
    """A results file of one 20/20 scenario with 1 rejection and 1
    exclusion of each test."""
    scenario = cifpoint.Scenario(n1=20, n2=20, beta=0.0, censor_fraction=0.0, t_fixed=0.5, reps=20)
    counts = dict.fromkeys(cifpoint.TEST_IDS, 1)
    cifpoint.write_results_csv([cifpoint.ScenarioResult(scenario, counts, counts)], path)
    return path


def fresh_process(code):
    """The last line a new interpreter prints running `code`, with the
    package under test on its path."""
    src = pathlib.Path(cifpoint.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()[-1]


# the package's public names, sorted, and its layer modules
PUBLIC_NAMES = [
    "AnovaTable", "BatteryOutcome", "CifCurve", "CifPointError", "Coefficient", "Dataset",
    "DegenerateRiskSet", "EventTable", "FixedTimeTestResult", "GeeFit", "GroupSummary",
    "InvalidRecord", "LinkKind", "NonConvergence", "NotEstimable", "NumericalError",
    "PseudoValueMatrix", "RankDeficientDesign", "Scenario", "ScenarioResult",
    "SeparationDetected", "StepFunction", "SubjectRecord", "TEST_IDS", "TEST_METHODS",
    "TransformKind", "UnreachableTarget", "VarianceKind", "ZeroVariance", "__version__",
    "aalen_variance", "analytic_cif", "analytic_survival", "anova_summarize",
    "build_event_table", "calibrate_censoring", "chi2_pvalue", "cif_at", "cif_estimate",
    "cif_variance", "event_table_from_arrays", "gaynor_variance", "gee_fit",
    "inverse_transform", "k_sample_test", "km_survival", "ols_no_intercept", "parse_dataset",
    "parse_scenarios", "pointwise_ci", "pseudo_test", "pseudo_values", "read_results_csv",
    "results_to_json", "run_battery", "run_scenario", "sample_group", "transform",
    "transform_variance", "two_sample_test", "write_results_csv",
]
LAYERS = ("data", "errors", "estimation", "fixed_time", "variance", "pseudo", "simulation",
          "anova")


def listing(name):
    """The layer modules whose `__all__` lists `name`."""
    return [f"cifpoint.{layer}" for layer in LAYERS
            if name in getattr(importlib.import_module(f"cifpoint.{layer}"), "__all__", ())]


def run(args, capsys):
    code = run_cli(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_c_locale(args):
    """`cifpoint args` in a new process under the C locale without UTF-8
    mode, where stdout's codec is ASCII."""
    src = pathlib.Path(cifpoint.__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("LC_", "LANG", "PYTHON"))}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "cifpoint.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestEstimate:
    def test_human_output(self, data_csv, capsys):
        code, out, _ = run(
            ["estimate", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--times", "1,3"], capsys)
        assert code == 0
        assert "group x" in out and "group y" in out
        assert "t=3" in out

    def test_json_curve_round_trip(self, data_csv, capsys):
        code, out, _ = run(
            ["estimate", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--times", "1,3,4", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "estimate"
        for entry in payload["groups"]:
            rebuilt = StepFunction(
                knots=np.array(entry["curve"]["knots"]),
                values=np.array(entry["curve"]["values"]),
                before=entry["curve"]["before"],
            )
            data = parse_dataset(data_csv, "time", "status", "arm")
            curve = cif_estimate(build_event_table(data, entry["group"]), 1)
            for t in [0.5, 1.0, 2.2, 3.0, 4.5]:
                assert rebuilt.at(t) == curve.at(t)

    def test_out_file(self, data_csv, tmp_path, capsys):
        dest = tmp_path / "est.json"
        code, _, _ = run(
            ["estimate", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--times", "3", "--out", str(dest)], capsys)
        assert code == 0
        payload = json.loads(dest.read_text())
        group_x = payload["groups"][0]
        assert abs(group_x["estimates"][0]["estimate"] - 7 / 15) < 1e-12

    def test_one_table_pass_per_group_and_time(self, data_csv, monkeypatch, capsys):
        # each time's variance and interval used to run the recursion and
        # the variance sum twice
        calls = []
        summaries = cifpoint.variance._summaries

        def counted(*args):
            calls.append(args)
            return summaries(*args)

        for module in (cifpoint.variance, cifpoint.fixed_time):
            monkeypatch.setattr(module, "_summaries", counted)
        code, _, _ = run(["estimate", "--input", str(data_csv), "--group-col", "arm",
                          "--cause", "1", "--times", "0.5,1,3"], capsys)
        assert code == 0
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("method", ["linear", "llog", "logit"])
    def test_rows_match_the_public_calls(self, data_csv, method, capsys):
        code, out, _ = run(["estimate", "--input", str(data_csv), "--group-col", "arm",
                            "--cause", "1", "--times", "0.5,1,3,4", "--method", method,
                            "--variance", "aalen", "--level", "0.9", "--json"], capsys)
        assert code == 0
        data = parse_dataset(data_csv, "time", "status", "arm")
        for entry in json.loads(out)["groups"]:
            table = build_event_table(data, entry["group"])
            for row in entry["estimates"]:
                t = row["time"]
                assert row["variance"] == cifpoint.cif_variance(table, 1, t, "aalen")
                try:
                    ci = list(cifpoint.pointwise_ci(table, 1, t, method, "aalen", 0.9))
                except cifpoint.NotEstimable:
                    ci = None
                assert row["ci"] == ci

    def test_missing_times_is_usage_error(self, data_csv, capsys):
        code, _, err = run(
            ["estimate", "--input", str(data_csv), "--cause", "1"], capsys)
        assert code == 1

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(
            ["estimate", "--input", "no-such.csv", "--cause", "1",
             "--times", "1"], capsys)
        assert code == 2

    def test_bad_column_is_data_error(self, data_csv, capsys):
        code, _, _ = run(
            ["estimate", "--input", str(data_csv), "--group-col", "nope",
             "--cause", "1", "--times", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("times", ["nan", "inf", "1,-1", "0"])
    def test_bad_times_are_usage_errors(self, data_csv, times, capsys):
        code, out, err = run(
            ["estimate", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--times", times], capsys)
        assert code == 1
        assert "finite and positive" in err
        assert out == ""

    @pytest.mark.parametrize("times, value", [("2,2", "2"), ("1,3,1.0", "1.0")])
    def test_repeated_time_is_usage_error(self, data_csv, times, value, capsys):
        code, out, err = run(
            ["estimate", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--times", times], capsys)
        assert code == 1
        assert f"repeated time {value!r}" in err
        assert out == ""

    @pytest.mark.parametrize("row", ["2.0,1", "2.0,1,", "2.0,1,y,9"])
    def test_malformed_row_is_data_error(self, tmp_path, row, capsys):
        # a short row, an empty group and an extra field
        path = tmp_path / "bad.csv"
        path.write_text(f"time,status,arm\n1.0,1,x\n{row}\n3.0,2,y\n")
        code, out, err = run(
            ["estimate", "--input", str(path), "--group-col", "arm",
             "--cause", "1", "--times", "1"], capsys)
        assert code == 2
        assert "bad.csv:3:" in err
        assert out == ""

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_only_file_is_data_error(self, tmp_path, body, capsys):
        path = tmp_path / "no-rows.csv"
        path.write_text("time,status,arm\n" + body)
        code, out, err = run(
            ["estimate", "--input", str(path), "--group-col", "arm",
             "--cause", "1", "--times", "1"], capsys)
        assert code == 2
        assert "no-rows.csv" in err and "no records" in err
        assert out == ""

    def test_utf8_bom_is_read(self, data_csv, tmp_path, capsys):
        # a BOM (Excel's "CSV UTF-8") used to make the header read
        # '\ufefftime' and the file fail with missing column 'time'
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + data_csv.read_bytes())
        argv = ["estimate", "--group-col", "arm", "--cause", "1", "--times", "1,3", "--json"]
        outputs = [run([*argv, "--input", str(path)], capsys) for path in (data_csv, bom)]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("level", ["1.5", "0", "1", "nan"])
    def test_bad_level_is_usage_error(self, data_csv, level, capsys):
        code, out, err = run(
            ["estimate", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--times", "3", "--level", level], capsys)
        assert code == 1
        assert "--level" in err
        assert out == ""

    @pytest.mark.parametrize("level, header", [("0.29", "29% CI"), ("0.95", "95% CI"),
                                               ("0.999", "99.9% CI")])
    def test_level_in_header(self, data_csv, level, header, capsys):
        # 100 * 0.29 is 28.999999999999996, which int() printed as 28%
        code, out, _ = run(
            ["estimate", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--times", "3", "--level", level], capsys)
        assert code == 0
        assert out.splitlines()[0] == f"cause 1, variance gaynor, {header} on the llog scale"

    @pytest.mark.parametrize("method", ["llog", "logit"])
    def test_estimate_a_rounding_below_one_gets_the_whole_interval(self, tmp_path, method,
                                                                   capsys):
        # the estimate at t=5 is 0.9999999999999999 with variance 1.4e-17;
        # the interval's upper end on the working scale used to overflow
        # math.exp and end the command in a traceback
        path = tmp_path / "near_one.csv"
        path.write_text("time,status\n" + "\n".join(NEAR_ONE_ROWS) + "\n")
        code, out, _ = run(["estimate", "--input", str(path), "--cause", "1",
                            "--times", "5", "--method", method, "--json"], capsys)
        assert code == 0
        (row,) = json.loads(out)["groups"][0]["estimates"]
        assert row["ci"] == [0.0, 1.0]

    def test_censoring_code_as_cause_is_usage_error(self, capsys):
        # checked before the input is read: the missing file is not reached
        code, out, err = run(["estimate", "--input", "missing.csv", "--cause", "0",
                              "--times", "1"], capsys)
        assert code == 1
        assert "--cause" in err
        assert out == ""

    def test_absent_cause_is_data_error(self, data_csv, capsys):
        # the file has causes 1 and 2 only; cause 5 used to print zeros
        code, out, err = run(["estimate", "--input", str(data_csv), "--group-col", "arm",
                              "--cause", "5", "--times", "3"], capsys)
        assert code == 2
        assert "cause 5" in err and "causes present: 1, 2" in err
        assert out == ""


class TestTest:
    def test_single_method(self, data_csv, capsys):
        code, out, _ = run(
            ["test", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--time", "3", "--method", "linear", "--json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        (res,) = payload["results"]
        assert abs(res["statistic"] - 0.759493670886076) <= 1e-12
        assert res["df"] == 1

    def test_all_methods_gives_twelve(self, data_csv, capsys):
        code, out, _ = run(
            ["test", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--time", "3", "--method", "all", "--json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 12
        labels = {(r["method"], r["variance"]) for r in payload["results"]}
        assert ("llog", "gaynor") in labels
        assert ("arcs", "aalen") in labels
        assert ("pseudo-llog", None) in labels

    def test_time_and_times_mutually_exclusive(self, data_csv, capsys):
        code, _, _ = run(
            ["test", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--time", "3", "--times", "1,3"], capsys)
        assert code == 1

    def test_numerical_failure_exit(self, data_csv, capsys):
        # before the first event the log transform is undefined
        code, _, err = run(
            ["test", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--time", "0.5", "--method", "log"], capsys)
        assert code == 3
        assert err

    def test_all_with_partial_failure_still_reports(self, data_csv, capsys):
        # pseudo fits fail at t=0.5 (no events yet) but the linear
        # transform is fine; exit is 3 and the sound results are kept
        code, out, _ = run(
            ["test", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--time", "0.5", "--method", "all", "--json"],
            capsys)
        assert code == 3
        payload = json.loads(out)
        kept = {r["method"] for r in payload["results"]}
        assert "linear" in kept
        assert payload["failures"]

    @pytest.mark.parametrize("flag", [["--time", "-2"], ["--time", "nan"], ["--times", "1,-3"]])
    def test_bad_time_is_usage_error(self, data_csv, flag, capsys):
        code, out, err = run(
            ["test", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", *flag], capsys)
        assert code == 1
        assert "finite and positive" in err
        assert out == ""

    @pytest.mark.parametrize("times, value", [("2,2", "2"), ("1,3,1.0", "1.0")])
    def test_repeated_time_is_usage_error(self, data_csv, times, value, capsys):
        code, out, err = run(
            ["test", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--times", times, "--method", "all"], capsys)
        assert code == 1
        assert f"repeated time {value!r}" in err
        assert out == ""

    @pytest.mark.parametrize("method", ["all", "pseudo-llog", "pseudo-logit"])
    def test_pseudo_methods_take_three_groups(self, tmp_path, method, capsys):
        # every test compares K groups with K - 1 degrees of freedom, the
        # pseudo-value tests too, and prints the battery's numbers
        path = tmp_path / "three.csv"
        rows = ["time,status,arm"]
        columns = (FIXTURE_A, FIXTURE_B, ([1.5, 2.0, 3.5, 5.0, 2.5], [1, 0, 1, 2, 1]))
        for arm, (times, statuses) in zip("xyz", columns):
            rows += [f"{t},{s},{arm}" for t, s in zip(times, statuses)]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(
            ["test", "--input", str(path), "--group-col", "arm",
             "--cause", "1", "--time", "3", "--method", method, "--json"], capsys)
        assert code == 0, err
        results = json.loads(out)["results"]
        groups = [(arm, np.array(times), np.array(statuses))
                  for arm, (times, statuses) in zip("xyz", columns)]
        want = [o.result for o in cifpoint.run_battery(groups, 1, 3.0)
                if method in ("all", o.method)]
        assert len(results) == (12 if method == "all" else 1)
        assert {r["df"] for r in results} == {2}
        assert [(r["statistic"], r["p_value"], r["effect"]) for r in results] == [
            (o.statistic, o.p_value, o.effect) for o in want]

    def test_unbalanced_groups_answered(self, tmp_path, capsys):
        # 230 against 5 uncensored subjects: the Newton fit behind
        # pseudo-llog met a singular information matrix and the command
        # died with a numpy traceback; the closed form answers
        path = tmp_path / "unbalanced.csv"
        rows = ["time,status,arm"]
        for arm, n, ones in (("a", 230, 6), ("b", 5, 2)):
            rows += [f"{0.001 * (len(rows) + i):.3f},{1 if i < ones else 2},{arm}"
                     for i in range(n)]
        path.write_text("\n".join(rows) + "\n")
        common = ["test", "--input", str(path), "--group-col", "arm",
                  "--cause", "1", "--time", "1", "--json", "--method"]
        code, out, _ = run(common + ["pseudo-llog"], capsys)
        assert code == 0
        (res,) = json.loads(out)["results"]
        expected = math.log(-math.log(1 - 6 / 230)) - math.log(-math.log(1 - 2 / 5))
        assert abs(res["effect"] - expected) <= 1e-10
        code, out, _ = run(common + ["all"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results) == 12
        assert results[10] == res

    def test_censoring_code_as_cause_is_usage_error(self, capsys):
        code, out, err = run(["test", "--input", "missing.csv", "--group-col", "arm",
                              "--cause", "0", "--time", "1", "--method", "all"], capsys)
        assert code == 1
        assert "--cause" in err
        assert out == ""

    def test_absent_cause_is_data_error(self, data_csv, capsys):
        # used to report ten of twelve tests failed, with exit 3
        code, out, err = run(["test", "--input", str(data_csv), "--group-col", "arm",
                              "--cause", "5", "--time", "3", "--method", "all"], capsys)
        assert code == 2
        assert "cause 5" in err and "causes present: 1, 2" in err
        assert out == ""

    def test_separation_names_the_group(self, tmp_path, capsys):
        # group b has no cause-1 event, so its mean pseudo-value is 0
        path = tmp_path / "separated.csv"
        path.write_text("time,status,arm\n0.1,1,a\n0.2,2,a\n0.3,1,a\n"
                        "0.4,2,b\n0.5,2,b\n0.6,2,b\n")
        code, out, _ = run(["test", "--input", str(path), "--group-col", "arm",
                            "--cause", "1", "--time", "1", "--method", "all", "--json"],
                           capsys)
        assert code == 3
        messages = [f["message"] for f in json.loads(out)["failures"]
                    if f["error_type"] == "SeparationDetected"]
        assert len(messages) == 2
        assert all(m.startswith("group b mean pseudo-value") for m in messages)

    def test_single_group_rejected(self, tmp_path, capsys):
        # one group is a usage error (exit 1), as three groups are for a
        # pseudo-value test: the library's group-count rule refuses both
        path = tmp_path / "one.csv"
        path.write_text("time,status\n1,1\n2,2\n")
        code, out, err = run(
            ["test", "--input", str(path), "--cause", "1", "--time", "1.5"],
            capsys)
        assert (code, out, err) == (1, "", "cifpoint: the tests need at least two groups, got 1\n")


class TestSimulateAndSummarize:
    def test_round_trip(self, grid_cfg, tmp_path, capsys):
        out_csv = tmp_path / "results.csv"
        code, _, err = run(
            ["simulate", "--scenario", str(grid_cfg), "--out", str(out_csv)],
            capsys)
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        from cifpoint.simulation import TEST_IDS

        assert {row["test"] for row in rows} == set(TEST_IDS)

        code, out, _ = run(
            ["summarize-anova", "--input", str(out_csv), "--model", "4",
             "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == 4
        factors = {c["factor"] for c in payload["coefficients"]}
        assert "TEST" in factors

    def test_deterministic_output(self, grid_cfg, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for dest in (a, b):
            code, _, _ = run(
                ["simulate", "--scenario", str(grid_cfg), "--out", str(dest)],
                capsys)
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_reps_override(self, grid_cfg, tmp_path, capsys):
        dest = tmp_path / "r.csv"
        code, _, _ = run(
            ["simulate", "--scenario", str(grid_cfg), "--reps", "10",
             "--out", str(dest)], capsys)
        assert code == 0
        with open(dest) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["reps"] == "10" for row in rows)

    def test_bad_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("sizes = 50\ntimes = 0.5\n")
        code, _, _ = run(["simulate", "--scenario", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("line, key", [
        ("times = nan", "times"),
        ("times = -1", "times"),
        ("times = x", "times"),
        ("shr = 0", "shr"),
        ("sizes = a/10", "sizes"),
        ("reps = 2.5", "reps"),
        ("beta = nan", "beta"),
    ])
    def test_bad_scenario_value_names_its_key(self, tmp_path, line, key, capsys):
        # each used to end in a traceback, a silent answer or a message
        # about another key
        lines = {"sizes": "sizes = 6/6", "times": "times = 0.5", "reps": "reps = 3"}
        lines[line.split(" = ")[0]] = line
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines.values()) + "\n")
        dest = tmp_path / "out.csv"
        code, out, err = run(["simulate", "--scenario", str(path), "--out", str(dest)], capsys)
        assert code == 2
        assert str(path) in err and f"key {key!r}" in err
        assert out == "" and not dest.exists()

    def test_failed_run_removes_the_file_it_created(self, tmp_path, capsys):
        # an unreachable censoring target used to leave an empty CSV,
        # which summarize-anova then refused for missing columns
        path = tmp_path / "grid.cfg"
        path.write_text("sizes = 30/30\ntimes = 0.5\ncensoring = 1e-30\nreps = 40\nseed = 11\n")
        dest = tmp_path / "out.csv"
        argv = ["simulate", "--scenario", str(path), "--out", str(dest)]
        code, out, err = run(argv, capsys)
        assert code == 3 and "UnreachableTarget" in out + err
        assert not dest.exists()
        # a file that was there before the run keeps its contents
        dest.write_text("kept\n")
        code, _, _ = run(argv, capsys)
        assert code == 3 and dest.read_text() == "kept\n"

    def test_bad_override_is_usage_error(self, grid_cfg, tmp_path, capsys):
        code, out, err = run(["simulate", "--scenario", str(grid_cfg), "--reps", "0",
                              "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 1
        assert "reps" in err and out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, grid_cfg, tmp_path, workers, monkeypatch,
                                              capsys):
        # it used to run serially; no scenario may start, let alone a pool
        def refuse(*args, **kwargs):
            raise AssertionError("run_scenario called")

        monkeypatch.setattr("cifpoint.simulation.run_scenario", refuse)
        dest = tmp_path / "out.csv"
        code, out, err = run(["simulate", "--scenario", str(grid_cfg), "--workers", workers,
                              "--out", str(dest)], capsys)
        assert code == 1
        assert f"--workers must be at least 1, got {workers}" in err
        assert out == "" and not dest.exists()

    def test_summarize_rejects_a_repeated_test(self, tmp_path, capsys):
        # the later row used to win silently
        path = results_csv(tmp_path / "results.csv")
        lines = path.read_text().splitlines()
        (repeat,) = [line for line in lines if ",gaynor_linear," in line]
        lines.append(repeat.replace(",gaynor_linear,1,", ",gaynor_linear,7,"))
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(["summarize-anova", "--input", str(path), "--model", "1", "--json"],
                             capsys)
        assert code == 2
        assert out == ""
        assert "repeats test 'gaynor_linear'" in err and "n1=20" in err

    def test_summarize_rejects_impossible_counts(self, tmp_path, capsys):
        # 90 rejections of 20 replications used to print as 445 points
        path = results_csv(tmp_path / "results.csv")
        path.write_text(path.read_text().replace(",aalen_arcs,1,", ",aalen_arcs,90,"))
        code, out, err = run(["summarize-anova", "--input", str(path), "--model", "4"], capsys)
        assert code == 2
        assert out == ""
        assert "test 'aalen_arcs'" in err and "n1=20" in err

    def test_summarize_rejects_a_file_without_results(self, tmp_path, capsys):
        # it used to end in a traceback with exit 1
        path = tmp_path / "results.csv"
        cifpoint.write_results_csv([], path)
        code, out, err = run(["summarize-anova", "--input", str(path), "--model", "4"], capsys)
        assert code == 2
        assert out == "" and err == f"cifpoint: data error: {path}: no results\n"

    def test_summarize_missing_input(self, capsys):
        code, _, _ = run(
            ["summarize-anova", "--input", "missing.csv", "--model", "4"],
            capsys)
        assert code == 2


class TestPlotData:
    def test_tidy_output(self, data_csv, tmp_path, capsys):
        dest = tmp_path / "curves.csv"
        code, _, _ = run(
            ["plot-data", "--input", str(data_csv), "--group-col", "arm",
             "--out", str(dest)], capsys)
        assert code == 0
        with open(dest) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"group", "cause", "time", "estimate"}
        starts = [r for r in rows if float(r["time"]) == 0.0]
        assert all(float(r["estimate"]) == 0.0 for r in starts)
        # spot-check one step value against the library
        data = parse_dataset(data_csv, "time", "status", "arm")
        curve = cif_estimate(build_event_table(data, "x"), 1)
        got = [float(r["estimate"]) for r in rows
               if r["group"] == "x" and r["cause"] == "1"]
        assert abs(got[-1] - curve.at(100.0)) <= 1e-12

    def test_single_cause_filter(self, data_csv, tmp_path, capsys):
        dest = tmp_path / "curves.csv"
        code, _, _ = run(
            ["plot-data", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "2", "--out", str(dest)], capsys)
        assert code == 0
        with open(dest) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["cause"] for r in rows} == {"2"}


    def test_censoring_code_as_cause_is_usage_error(self, tmp_path, capsys):
        dest = tmp_path / "curves.csv"
        code, out, err = run(["plot-data", "--input", "missing.csv", "--cause", "0",
                              "--out", str(dest)], capsys)
        assert code == 1
        assert "--cause" in err
        assert out == ""
        assert not dest.exists()

    def test_absent_cause_is_data_error(self, data_csv, tmp_path, capsys):
        dest = tmp_path / "curves.csv"
        code, out, err = run(["plot-data", "--input", str(data_csv), "--group-col", "arm",
                              "--cause", "5", "--out", str(dest)], capsys)
        assert code == 2
        assert "cause 5" in err and "causes present: 1, 2" in err
        assert out == ""
        assert not dest.exists()


# each command line reads or writes the file given as {bad}
FILE_ARGS = {
    "estimate --input": ["estimate", "--input", "{bad}", "--cause", "1", "--times", "1"],
    "test --input": ["test", "--input", "{bad}", "--group-col", "arm", "--cause", "1",
                     "--time", "3"],
    "simulate --scenario": ["simulate", "--scenario", "{bad}", "--out", "{tmp}/out.csv"],
    "summarize-anova --input": ["summarize-anova", "--input", "{bad}", "--model", "4"],
    "plot-data --input": ["plot-data", "--input", "{bad}", "--out", "{tmp}/curves.csv"],
    "estimate --out": ["estimate", "--input", "{data}", "--cause", "1", "--times", "1",
                       "--out", "{bad}"],
    "test --out": ["test", "--input", "{data}", "--group-col", "arm", "--cause", "1",
                   "--time", "3", "--out", "{bad}"],
    "simulate --out": ["simulate", "--scenario", "{grid}", "--reps", "2", "--out", "{bad}"],
    "summarize-anova --out": ["summarize-anova", "--input", "{results}", "--model", "4",
                              "--out", "{bad}"],
    "plot-data --out": ["plot-data", "--input", "{data}", "--out", "{bad}"],
}


class TestUnreadableFile:
    # a directory or a file that is not UTF-8 used to end in a traceback
    # with exit 1; an output file is a directory or in a missing folder
    # here, and simulate refuses it before it runs a scenario
    @pytest.mark.parametrize("kind, name", [
        *(("directory", name) for name in FILE_ARGS),
        *(("not utf-8", name) for name in FILE_ARGS if name.endswith(("--input", "--scenario"))),
        *(("missing folder", name) for name in FILE_ARGS if name.endswith("--out")),
    ])
    def test_is_data_error(self, kind, name, data_csv, grid_cfg, tmp_path, capsys):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        elif kind == "missing folder":
            bad = tmp_path / "missing" / "out"
        else:
            bad.write_bytes(b"time,status\n1.0,1\n\xe9\xff,0\n")
        paths = {"bad": bad, "tmp": tmp_path, "data": data_csv, "grid": grid_cfg,
                 "results": results_csv(tmp_path / "results.csv")}
        code, _, err = run([arg.format(**paths) for arg in FILE_ARGS[name]], capsys)
        assert code == 2
        assert "cifpoint: data error: " in err and "Traceback" not in err
        assert "[1/" not in err


class TestFileEncodings:
    """Every file is read and written as UTF-8, whatever the locale, and
    a byte-order mark at the start of an input is skipped."""

    def test_bom_grid_file(self, grid_cfg, tmp_path, capsys):
        # a BOM used to fail as "unknown keys ['\ufeffsizes']"
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + grid_cfg.read_bytes())
        plain, marked = (run(["simulate", "--scenario", str(path), "--json",
                              "--out", str(tmp_path / f"{path.stem}.csv")], capsys)
                         for path in (grid_cfg, bom))
        assert plain[0] == 0, plain[2]
        assert marked == plain

    def test_bom_results_file(self, tmp_path, capsys):
        # a BOM used to fail as "missing columns ['n1']"
        plain = results_csv(tmp_path / "results.csv")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = [run(["summarize-anova", "--input", str(path), "--model", "4", "--json"],
                       capsys) for path in (plain, bom)]
        assert outputs[0][0] == 0, outputs[0][2]
        assert outputs[1] == outputs[0]

    def test_latin1_grid_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "grid.cfg"
        path.write_bytes("# durée\nsizes = 5/5\ntimes = 0.5\n".encode("latin-1"))
        code, out, err = run(["simulate", "--scenario", str(path),
                              "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 2
        assert "cifpoint: data error: " in err and "Traceback" not in err
        assert out == ""

    def test_plot_data_writes_utf8_under_the_c_locale(self, tmp_path):
        # the curves used to be written in the locale's encoding, which
        # ended in a UnicodeEncodeError traceback under the C locale
        data = tmp_path / "subjects.csv"
        data.write_text("time,status,arm\n1,1,été\n2,0,été\n3,2,b\n4,1,b\n", encoding="utf-8")
        dest = tmp_path / "curves.csv"
        proc = run_in_c_locale(["plot-data", "--input", str(data), "--group-col", "arm",
                                "--out", str(dest)])
        assert proc.returncode == 0, proc.stderr[-2000:]
        with open(dest, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["group"] for row in rows} == {"été", "b"}

    def test_report_escapes_what_an_ascii_stdout_cannot_encode(self, tmp_path):
        # the text report of a label past ASCII used to end in a
        # UnicodeEncodeError traceback with exit 1 under the C locale;
        # it escapes such characters now, as Python does on stderr
        data = tmp_path / "subjects.csv"
        data.write_text("time,status,arm\n1,1,été\n2,1,b\n3,0,été\n4,1,b\n", encoding="utf-8")
        argv = ["estimate", "--input", str(data), "--group-col", "arm", "--cause", "1",
                "--times", "2"]
        text, as_json = (run_in_c_locale(argv + flags) for flags in ([], ["--json"]))
        assert "group \\xe9t\\xe9 (n=2)" in text.stdout.splitlines()
        for proc, flags in ((text, []), (as_json, ["--json"])):
            assert proc.returncode == 0, proc.stderr[-2000:]
            # in process, a StringIO takes every character as it is; the
            # JSON is ASCII either way
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert run_cli(argv + flags) == 0
            assert proc.stdout == stdout.getvalue().replace("é", "\\xe9")


class TestLongField:
    # a field past csv's limit of 131072 characters used to end in a
    # traceback with exit 1, the usage-error code
    LABEL = "g" * 140_000

    def test_long_label_parses(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(f"time,status,arm\n1.0,1,{self.LABEL}\n2.0,0,{self.LABEL}\n3.0,2,b\n")
        code, out, err = run(["estimate", "--input", str(path), "--group-col", "arm",
                              "--cause", "1", "--times", "1", "--json"], capsys)
        assert code == 0, err
        assert [g["group"] for g in json.loads(out)["groups"]] == [self.LABEL, "b"]

    @pytest.mark.parametrize("rows, where", [
        # a bad status after the long field is named as such
        ("1.0,1,{label}\n2.0,x,b\n", "long.csv:3: bad status 'x'"),
        # rows of unequal width are split again by csv, which stops at
        # the long field
        ("1.0,1,{label}\n2.0,1\n", "long.csv:2: field larger than field limit"),
    ])
    def test_bad_file_names_a_row(self, tmp_path, rows, where, capsys):
        path = tmp_path / "long.csv"
        path.write_text("time,status,arm\n" + rows.format(label=self.LABEL))
        code, out, err = run(["estimate", "--input", str(path), "--group-col", "arm",
                              "--cause", "1", "--times", "1"], capsys)
        assert code == 2
        assert "cifpoint: data error: " in err and where in err and "Traceback" not in err
        assert out == ""


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"]) == 1
        capsys.readouterr()

    def test_estimate_and_test_import_no_scipy(self, data_csv, grid_cfg, tmp_path):
        # numpy is the only runtime dependency; scipy serves the test
        # oracles, and importing it would cost every command ~0.6 s
        common = ["--input", str(data_csv), "--group-col", "arm", "--cause", "1"]
        results = str(tmp_path / "results.csv")
        code = (
            "import sys\n"
            "from cifpoint.cli import run_cli\n"
            f"assert run_cli({['estimate', *common, '--times', '1,3']!r}) == 0\n"
            f"assert run_cli({['test', *common, '--time', '3', '--method', 'all']!r}) == 0\n"
            f"assert run_cli({['simulate', '--scenario', str(grid_cfg), '--out', results]!r}) == 0\n"
            f"assert run_cli({['summarize-anova', '--input', results, '--model', '4']!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        assert fresh_process(code) == "[]"

    @staticmethod
    def loaded_by(argv):
        """The cifpoint modules a new process loads running `argv`."""
        code = (
            "import json, sys\n"
            "from cifpoint.cli import run_cli\n"
            f"assert run_cli({argv!r}) == 0\n"
            "print(json.dumps([m for m in sys.modules if m.partition('.')[0] == 'cifpoint']))\n"
        )
        return set(json.loads(fresh_process(code)))

    def test_estimate_imports_only_what_it_runs(self, data_csv):
        # the simulation, pseudo-value and ANOVA layers cost an estimate
        # process ~25 ms of import it never uses
        loaded = self.loaded_by(["estimate", "--input", str(data_csv), "--group-col", "arm",
                                 "--cause", "1", "--times", "1,3"])
        assert "cifpoint.data" in loaded
        assert not loaded & {"cifpoint.simulation", "cifpoint.pseudo", "cifpoint.anova"}

    def test_test_all_imports_no_simulation_layer(self, data_csv):
        # the twelve tests, the pseudo-value links among them, live in
        # fixed_time: a test process loads no Monte Carlo, GEE or ANOVA code
        loaded = self.loaded_by(["test", "--input", str(data_csv), "--group-col", "arm",
                                 "--cause", "1", "--time", "3", "--method", "all"])
        assert "cifpoint.fixed_time" in loaded
        assert not loaded & {"cifpoint.simulation", "cifpoint.pseudo", "cifpoint.anova"}

    def test_simulation_setup_imports_only_what_it_runs(self, tmp_path):
        # the set-up program whose time the benchmark reports as setup_s:
        # a scenario grid read and its censoring calibrated, in a new
        # process, loads no CLI or ANOVA layer and no process pool
        grid = tmp_path / "grid.cfg"
        grid.write_text("sizes = 25/25, 50/100\ntimes = 0.1, 0.5\ncensoring = 0, 0.3\n")
        code = (
            "import json, sys\n"
            "import cifpoint\n"
            f"for s in cifpoint.parse_scenarios({str(grid)!r}):\n"
            "    cifpoint.calibrate_censoring(s.beta, s.p, (s.n1, s.n2), s.censor_fraction)\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        loaded = set(json.loads(fresh_process(code)))
        assert {m for m in loaded if m.partition(".")[0] == "cifpoint"} == {
            "cifpoint", "cifpoint.data", "cifpoint.errors", "cifpoint.estimation",
            "cifpoint.fixed_time", "cifpoint.simulation", "cifpoint.variance"}
        assert not loaded & {"multiprocessing", "concurrent.futures"}

    def test_cli_import_loads_only_the_layers_every_command_needs(self):
        # `import cifpoint.cli` is the set-up every command pays, timed by
        # the benchmark as the analyst session's setup_s; the simulation,
        # pseudo-value and ANOVA layers load when a command runs them, and
        # statistics (with fractions and decimal) only for an interval
        code = (
            "import json, sys\n"
            "import cifpoint.cli\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        loaded = set(json.loads(fresh_process(code)))
        assert {m for m in loaded if m.partition(".")[0] == "cifpoint"} == {
            "cifpoint", "cifpoint.cli", "cifpoint.data", "cifpoint.errors",
            "cifpoint.estimation", "cifpoint.fixed_time", "cifpoint.variance"}
        assert not loaded & {"statistics", "fractions", "decimal", "multiprocessing",
                             "concurrent.futures"}

    def test_public_surface_is_pinned(self):
        # each name is the object of the module that defines it, and of
        # every layer that lists it
        assert sorted(cifpoint.__all__) == PUBLIC_NAMES
        for name in PUBLIC_NAMES:
            if name == "__version__":
                continue
            value = getattr(cifpoint, name)
            homes = {getattr(value, "__module__", None)} - {None} or set(listing(name))
            assert homes, name
            for module in {*homes, *listing(name)}:
                assert getattr(sys.modules[module], name) is value, (module, name)

    def test_each_public_name_is_listed_by_one_layer(self):
        for name in PUBLIC_NAMES:
            if name != "__version__":
                assert len(listing(name)) == 1, (name, listing(name))

    def test_every_exported_name_resolves(self):
        star = {}
        exec("from cifpoint import *", star)
        for name in cifpoint.__all__:
            assert star[name] is getattr(cifpoint, name), name
        assert set(cifpoint.__all__) <= set(dir(cifpoint))
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            cifpoint.frobnicate

    def test_console_script_installed(self):
        proc = subprocess.run(
            ["cifpoint", "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "cifpoint" in proc.stdout
