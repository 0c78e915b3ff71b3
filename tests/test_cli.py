import csv
import json
import math
import subprocess

import numpy as np
import pytest

from cifpoint.cli import run_cli
from cifpoint.data import build_event_table, parse_dataset
from cifpoint.estimation import StepFunction, cif_estimate

from conftest import FIXTURE_A, FIXTURE_B


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


def run(args, capsys):
    code = run_cli(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("level", ["1.5", "0", "1", "nan"])
    def test_bad_level_is_usage_error(self, data_csv, level, capsys):
        code, out, err = run(
            ["estimate", "--input", str(data_csv), "--group-col", "arm",
             "--cause", "1", "--times", "3", "--level", level], capsys)
        assert code == 1
        assert "--level" in err
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

    @pytest.mark.parametrize("method", ["all", "pseudo-llog", "pseudo-logit"])
    def test_pseudo_methods_need_two_groups(self, tmp_path, method, capsys):
        path = tmp_path / "three.csv"
        rows = ["time,status,arm"]
        for arm in "xyz":
            rows += [f"{t},{s},{arm}" for t, s in zip(*FIXTURE_A)]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(
            ["test", "--input", str(path), "--group-col", "arm",
             "--cause", "1", "--time", "3", "--method", method], capsys)
        assert code == 1
        assert "exactly two groups" in err
        assert out == ""

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

    def test_single_group_rejected(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("time,status\n1,1\n2,2\n")
        code, _, _ = run(
            ["test", "--input", str(path), "--cause", "1", "--time", "1.5"],
            capsys)
        assert code == 2


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


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"]) == 1
        capsys.readouterr()

    def test_console_script_installed(self):
        proc = subprocess.run(
            ["cifpoint", "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "cifpoint" in proc.stdout
