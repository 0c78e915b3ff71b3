"""The input contract as conformance tables.

Each row is one edge input: a horizon that is not positive, before the
first knot or past the last, a cause the data lacks, an estimate of 0
or 1, a zero variance, and one, two or three groups.  For each of the twelve
tests the row names one answer, a value or an error's type and message,
and three paths must give it: the public call (`k_sample_test` or
`pseudo_test`), the test's own `run_battery` row, and `cifpoint test`
run in process, whose exit code follows from the answer.  The estimate
path (`cif_variance`, `pointwise_ci` and `cifpoint estimate`) is held
to the same rows.

A second table holds one subject that breaks the subject rule per row,
and each way into the data layer must refuse it with one message.  A
last check asserts that each input rule's message is spelled in one
place of the source.
"""

import contextlib
import io
import json
import math
import pathlib
import struct
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from cifpoint.cli import run_cli
from cifpoint.data import (
    Dataset,
    SubjectRecord,
    build_event_table,
    event_table_from_arrays,
    parse_dataset,
)
from cifpoint.errors import CifPointError, NotEstimable
from cifpoint.estimation import cif_estimate
from cifpoint.fixed_time import (
    PSEUDO_METHODS,
    TEST_IDS,
    TEST_METHODS,
    TransformKind,
    _scaled,
    k_sample_test,
    pointwise_ci,
    run_battery,
    transform_variance,
    two_sample_test,
)
from cifpoint.pseudo import pseudo_test, pseudo_values
from cifpoint.simulation import Scenario
from cifpoint.variance import VarianceKind, cif_variance

from conftest import FIXTURE_A, FIXTURE_B, group_columns, make_dataset

LINKS = {label: link for link, label in PSEUDO_METHODS.items()}
SEPARATED = ("SeparationDetected", "group x mean pseudo-value outside (0, 1): 0.0")


def dataset(*groups):
    """A dataset of groups x, y, z, ... from (times, statuses) pairs."""
    times, statuses, labels = [], [], []
    for label, (t, s) in zip("xyz", groups):
        times += t
        statuses += s
        labels += [label] * len(t)
    return make_dataset(times, statuses, labels)


ALL_CAUSE_1 = ([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
ALL_CAUSE_2 = ([1.0, 2.0, 3.0, 4.0], [2, 2, 2, 2])
# both fixtures have their knots at 1 to 4
BASE = dataset(FIXTURE_A, FIXTURE_B)


def undefined(kind: str, p: float):
    return ("NotEstimable", f"transform {kind!r} is undefined at estimate {p!r}")


# a result, and a result with statistic 0 and p-value 1
VALUE = ("value",)
NO_DIFFERENCE = ("value", 0.0, 1.0)


def by_method(**answers):
    """Each test's answer from its method's, VALUE for the rest."""
    return {test: answers.get(TEST_METHODS[test][0].replace("-", "_"), VALUE)
            for test in TEST_IDS}


def refused(message):
    return dict.fromkeys(TEST_IDS, ("ValueError", message))


class Case(NamedTuple):
    data: Dataset
    cause: int
    t: float
    # test id -> ("ValueError" or an excluding error's name, message),
    # or VALUE or NO_DIFFERENCE
    answers: dict
    # the command line's (exit code, message) where it refuses the input
    # before any test runs
    cli: tuple | None = None


CASES = {
    "t = 0": Case(BASE, 1, 0.0, refused("time must be finite and positive, got 0.0"),
                  (1, "time must be finite and positive, got 0.0")),
    "t < 0": Case(BASE, 1, -1.0, refused("time must be finite and positive, got -1.0"),
                  (1, "time must be finite and positive, got -1.0")),
    # every estimate and variance is 0
    "before the first knot": Case(BASE, 1, 0.5, by_method(
        linear=NO_DIFFERENCE, log=undefined("log", 0.0), llog=undefined("llog", 0.0), arcs=undefined("arcs", 0.0),
        logit=undefined("logit", 0.0), pseudo_llog=SEPARATED, pseudo_logit=SEPARATED)),
    # the numbers at the last knot, 4
    "past the last knot": Case(BASE, 1, 10.0, by_method()),
    # the library's estimate of an absent cause is 0; the command line
    # takes it for a mistyped --cause
    "a cause the data lacks": Case(BASE, 3, 3.0, by_method(
        linear=NO_DIFFERENCE, log=undefined("log", 0.0), llog=undefined("llog", 0.0), arcs=undefined("arcs", 0.0),
        logit=undefined("logit", 0.0), pseudo_llog=SEPARATED, pseudo_logit=SEPARATED),
        (2, "no subject has cause 3; causes present: 1, 2")),
    # group x's estimate is exactly 1, with variance 0; the log is
    # defined at 1
    "an estimate of 1": Case(dataset(ALL_CAUSE_1, FIXTURE_B), 1, 5.0, by_method(
        llog=undefined("llog", 1.0), arcs=undefined("arcs", 1.0), logit=undefined("logit", 1.0),
        pseudo_llog=("SeparationDetected",
                     "group x mean pseudo-value outside (0, 1): 1.041666666666667"),
        pseudo_logit=("SeparationDetected",
                      "group x mean pseudo-value outside (0, 1): 1.041666666666667"))),
    # group y's estimate is exactly 0, with variance 0
    "an estimate of 0": Case(dataset(FIXTURE_A, ALL_CAUSE_2), 1, 5.0, by_method(
        log=undefined("log", 0.0), llog=undefined("llog", 0.0), arcs=undefined("arcs", 0.0),
        logit=undefined("logit", 0.0),
        pseudo_llog=("SeparationDetected",
                     "group y mean pseudo-value outside (0, 1): -0.025000000000000133"),
        pseudo_logit=("SeparationDetected",
                      "group y mean pseudo-value outside (0, 1): -0.025000000000000133"))),
    # w = 0 in both groups: unequal estimates cannot be compared, equal
    # ones do not differ
    "w = 0, estimates 1 and 0": Case(dataset(ALL_CAUSE_1, ALL_CAUSE_2), 1, 5.0, by_method(
        linear=("ZeroVariance", "groups differ at t=5.0 but the contrast covariance is singular"),
        log=undefined("log", 0.0), llog=undefined("llog", 1.0), arcs=undefined("arcs", 1.0),
        logit=undefined("logit", 1.0),
        pseudo_llog=("SeparationDetected", "group x mean pseudo-value outside (0, 1): 1.0"),
        pseudo_logit=("SeparationDetected", "group x mean pseudo-value outside (0, 1): 1.0"))),
    "w = 0, estimates 1 and 1": Case(dataset(ALL_CAUSE_1, ALL_CAUSE_1), 1, 5.0, by_method(
        linear=NO_DIFFERENCE, log=NO_DIFFERENCE, llog=undefined("llog", 1.0), arcs=undefined("arcs", 1.0), logit=undefined("logit", 1.0),
        pseudo_llog=("SeparationDetected",
                     "group x mean pseudo-value outside (0, 1): 1.0000000000000002"),
        pseudo_logit=("SeparationDetected",
                      "group x mean pseudo-value outside (0, 1): 1.0000000000000002"))),
    "K = 1": Case(dataset(FIXTURE_A), 1, 3.0, refused("the tests need at least two groups, got 1")),
    "K = 2": Case(BASE, 1, 3.0, by_method()),
    "K = 3": Case(dataset(FIXTURE_A, FIXTURE_B, ([1.5, 2.0, 3.5, 5.0], [1, 0, 1, 2])), 1, 3.0,
                  by_method()),
}


def summary(result):
    """What a result says, apart from the time and the test's names."""
    return (result.statistic, result.df, result.p_value, result.effect,
            tuple((g.group, g.estimate, g.variance) for g in result.groups))


def public_answer(case: Case, test: str):
    method, variance = TEST_METHODS[test]
    try:
        if variance is None:
            return summary(pseudo_test(case.data, case.cause, case.t, LINKS[method]))
        tables = [build_event_table(case.data, g) for g in case.data.groups]
        args = (case.cause, case.t, TransformKind(method), VarianceKind(variance))
        answer = summary(k_sample_test(tables, *args))
        if len(tables) == 2:
            assert summary(two_sample_test(*tables, *args)) == answer
        return answer
    except (ValueError, CifPointError) as exc:
        return type(exc).__name__, str(exc)


def battery_answer(case: Case, test: str):
    try:
        (outcome,) = run_battery(group_columns(case.data), case.cause, case.t, (test,))
    except ValueError as exc:
        return "ValueError", str(exc)
    if outcome.error is not None:
        return type(outcome.error).__name__, str(outcome.error)
    return summary(outcome.result)


def write_csv(data: Dataset, path):
    rows = ["time,status,arm"] + [f"{t!r},{s},{data.groups[c]}" for t, s, c in
                                  zip(data.times.tolist(), data.statuses.tolist(),
                                      data.codes.tolist())]
    path.write_text("\n".join(rows) + "\n")
    return path


def cli(argv):
    """(exit code, stdout, stderr) of `cifpoint argv` run in process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def cli_answer(case: Case, test: str, path):
    """The command line's (exit code, answer) for one test: a result or
    an excluding error from its JSON, else its message on stderr."""
    method, variance = TEST_METHODS[test]
    code, out, err = cli(["test", "--input", str(path), "--group-col", "arm",
                          "--cause", str(case.cause), "--time", repr(case.t),
                          "--method", method, "--variance", variance or "gaynor", "--json"])
    if code not in (0, 3):
        assert err.startswith("cifpoint: ") and "Traceback" not in err
        return code, (err.removeprefix("cifpoint: ").removeprefix("data error: ")
                      .removeprefix(f"{path}: ").strip())
    payload = json.loads(out)
    if payload["failures"]:
        (failure,) = payload["failures"]
        return code, (failure["error_type"], failure["message"])
    (r,) = payload["results"]
    return code, (r["statistic"], r["df"], r["p_value"], r["effect"],
                  tuple((g["group"], g["estimate"], g["variance"]) for g in r["groups"]))


def exit_code(answer) -> int:
    if answer[0] == "ValueError":
        return 1
    return 3 if isinstance(answer[0], str) else 0


@pytest.mark.parametrize("name", CASES)
def test_every_path_gives_the_tables_answer(name, tmp_path):
    case = CASES[name]
    path = write_csv(case.data, tmp_path / "subjects.csv")
    for test in TEST_IDS:
        answer = public_answer(case, test)
        want = case.answers[test]
        if want[0] == "value":
            assert not isinstance(answer[0], str), (test, answer)
            assert want[1:] in ((), (answer[0], answer[2])), test
        else:
            assert answer == want, test
        assert battery_answer(case, test) == answer, test
        expected_cli = case.cli or (exit_code(answer), answer if answer[0] != "ValueError"
                                    else answer[1])
        assert cli_answer(case, test, path) == expected_cli, test


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_a_horizon_that_is_not_positive_is_refused_everywhere(t, tmp_path):
    message = f"time must be finite and positive, got {t!r}"
    table = build_event_table(BASE, "x")
    calls = [
        lambda: cif_variance(table, 1, t),
        lambda: pointwise_ci(table, 1, t),
        lambda: two_sample_test(table, build_event_table(BASE, "y"), 1, t,
                                TransformKind.LINEAR),
        lambda: pseudo_values(BASE, 1, [t]),
        lambda: pseudo_test(BASE, 1, t),
        lambda: run_battery(group_columns(BASE), 1, t),
        lambda: Scenario(n1=5, n2=5, beta=0.0, censor_fraction=0.0, t_fixed=t),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    # refused before the input is read: the file does not exist
    for command in (["estimate", "--times", repr(t)], ["test", "--time", repr(t)]):
        code, out, err = cli([*command, "--input", str(tmp_path / "absent.csv"),
                              "--cause", "1"])
        assert (code, out, err) == (1, "", f"cifpoint: {message}\n")
    # a curve is a step function, defined everywhere: 0 before its first knot
    assert cif_estimate(table, 1).at(t) == 0.0


@pytest.mark.parametrize("name", [name for name, case in CASES.items()
                                  if case.t > 0.0 and case.cli is None])
def test_the_estimate_path_agrees(name, tmp_path):
    case = CASES[name]
    path = write_csv(case.data, tmp_path / "subjects.csv")
    for kind in TransformKind:
        for variance in VarianceKind:
            code, out, err = cli(["estimate", "--input", str(path), "--group-col", "arm",
                                  "--cause", str(case.cause), "--times", repr(case.t),
                                  "--method", kind.value, "--variance", variance.value,
                                  "--json"])
            assert code == 0, err
            for group in json.loads(out)["groups"]:
                table = build_event_table(case.data, group["group"])
                try:
                    ci = list(pointwise_ci(table, case.cause, case.t, kind, variance))
                except NotEstimable:
                    ci = None
                assert group["estimates"] == [{
                    "time": case.t,
                    "estimate": cif_estimate(table, case.cause).at(case.t),
                    "variance": cif_variance(table, case.cause, case.t, variance),
                    "ci": ci,
                }]


def test_past_the_last_knot_is_the_last_knot():
    knot = CASES["K = 2"]._replace(t=4.0)
    for test in TEST_IDS:
        assert public_answer(CASES["past the last knot"], test) == public_answer(knot, test)


@pytest.mark.parametrize("kind", list(TransformKind))
def test_an_underflowing_divisor(kind):
    # at p = 1e-200 the log, log(-log) and logit divisors underflow to 0:
    # a positive variance is inf and a zero one stays 0, in the one-row
    # call and in the block step alike
    want = {TransformKind.LINEAR: 0.01, TransformKind.ARCSINE_SQRT: 0.01 / (4.0 * 1e-200)}
    ps, vs = np.array([1e-200, 1e-200]), np.array([0.01, 0.0])
    _, _, (w,) = _scaled(kind, ps, (vs,))
    scalar = [transform_variance(p, v, kind) for p, v in zip(ps.tolist(), vs.tolist())]
    assert struct.pack("<2d", *w) == struct.pack("<2d", *scalar)
    assert scalar == [want.get(kind, float("inf")), 0.0]


def test_a_level_outside_0_1_is_refused_everywhere(tmp_path):
    table = build_event_table(BASE, "x")
    with pytest.raises(ValueError, match=r"^level must be in \(0, 1\), got 1\.5$"):
        pointwise_ci(table, 1, 3.0, level=1.5)
    # refused before the input is read: the file does not exist
    assert cli(["estimate", "--input", str(tmp_path / "absent.csv"), "--cause", "1",
                "--times", "3", "--level", "1.5"]) == (
        1, "", "cifpoint: --level: level must be in (0, 1), got 1.5\n")


# one subject that breaks the subject rule per row, as (time, status,
# label), with the message every door gives
SUBJECTS = {
    "time 0": ((0.0, 1, "x"), "time must be positive, got 0.0"),
    "time -1": ((-1.0, 1, "x"), "time must be positive, got -1.0"),
    "time nan": ((math.nan, 1, "x"), "time must be finite, got nan"),
    "time inf": ((math.inf, 1, "x"), "time must be finite, got inf"),
    "status -1": ((2.0, -1, "x"), "status must be >= 0, got -1"),
    "status 1.5": ((2.0, 1.5, "x"), "status must be an integer, got 1.5"),
    "status 2**63": ((2.0, 2**63, "x"),
                     "status must be <= 9223372036854775807, got 9223372036854775808"),
    "status 10**20": ((2.0, 10**20, "x"),
                      "status must be <= 9223372036854775807, got 100000000000000000000"),
    "bool time": ((True, 1, "x"), "time must be finite, got True"),
    "bool status": ((2.0, True, "x"), "status must be an integer, got True"),
    "empty label": ((2.0, 1, ""), "empty group label"),
    "label None": ((2.0, 1, None), "group label must be a str or an int, got None"),
    "label 2.5": ((2.0, 1, 2.5), "group label must be a str or an int, got 2.5"),
    "bool label": ((2.0, 1, True), "group label must be a str or an int, got True"),
    "list label": ((2.0, 1, ["x"]), "group label must be a str or an int, got ['x']"),
}
# what a CSV says where its text cannot spell the subject's value: a
# status field must spell an integer, and no field holds a bool or a
# label that is not text (None)
CSV_SPELLING = {"status 1.5": "bad status '1.5'", "bool time": None, "bool status": None,
                "label None": None, "label 2.5": None, "bool label": None, "list label": None}
# labels every door takes, and the text it holds each as, which is how a
# CSV spells them
LABELS = {
    "int 0": (0, "0"),
    "int 2": (2, "2"),
    "numpy int": (np.int64(-7), "-7"),
    "numpy str": (np.str_("x"), "x"),
}


def door_answers(subject, path):
    """Each door's (error type, message) for a data set of one valid
    subject in group y and then `subject`, or ("accepted", the repr of
    the label it holds for `subject`)."""
    time, status, label = subject
    rows = [(1.0, 1, "y"), subject]

    def answer(call):
        try:
            held = call()
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return "accepted", repr(held)

    answers = {
        "SubjectRecord": answer(lambda: SubjectRecord(*subject).group),
        # a record-like that skips SubjectRecord's own check
        "Dataset": answer(lambda: Dataset([SimpleNamespace(time=t, status=s, group=g)
                                           for t, s, g in rows]).groups[-1]),
        "event_table_from_arrays": answer(
            lambda: event_table_from_arrays([1.0, time], [1, status], label).group),
        "run_battery": answer(lambda: run_battery(
            [(label, [1.0, time], [1, status]), ("y", [1.0, 2.0], [1, 0])], 1, 1.5,
            ("gaynor_linear",))[0].result.groups[0].group),
    }
    if path is not None:
        path.write_text("time,status,group\n" + "".join(f"{t!r},{s!r},{g}\n" for t, s, g in rows))
        answers["parse_dataset"] = answer(
            lambda: parse_dataset(path, "time", "status", "group").groups[-1])
        for command in (["estimate", "--times", "1"], ["test", "--time", "1"]):
            answers[f"cifpoint {command[0]}"] = cli(
                [*command, "--input", str(path), "--group-col", "group", "--cause", "1"])
    return answers


@pytest.mark.parametrize("name", SUBJECTS)
def test_every_door_refuses_a_bad_subject_alike(name, tmp_path):
    subject, message = SUBJECTS[name]
    csv_message = CSV_SPELLING.get(name, message)
    path = tmp_path / "subjects.csv"
    want = dict.fromkeys(["SubjectRecord", "Dataset", "event_table_from_arrays", "run_battery"],
                         ("InvalidRecord", message))
    if csv_message is not None:
        where = f"{path}:3: {csv_message}"
        want["parse_dataset"] = ("InvalidRecord", where)
        want["cifpoint estimate"] = want["cifpoint test"] = (2, "", f"cifpoint: data error: {where}\n")
    assert door_answers(subject, None if csv_message is None else path) == want


@pytest.mark.parametrize("name", LABELS)
def test_every_door_holds_a_label_as_its_text(name, tmp_path):
    label, text = LABELS[name]
    answers = door_answers((2.0, 1, label), tmp_path / "label.csv")
    assert answers == door_answers((2.0, 1, text), tmp_path / "text.csv")
    assert {door: answers[door] for door in ("SubjectRecord", "Dataset", "event_table_from_arrays",
                                             "run_battery", "parse_dataset")} == dict.fromkeys(
        ["SubjectRecord", "Dataset", "event_table_from_arrays", "run_battery", "parse_dataset"],
        ("accepted", repr(text)))


def test_an_int_label_and_its_text_are_one_group():
    data = Dataset.from_columns([1.0, 2.0, 3.0], [1, 0, 1], [2, "2", np.int64(2)])
    assert data.groups == ("2",) and data.codes.tolist() == [0, 0, 0]
    table = build_event_table(data, 2)
    assert (table.group, table.size) == ("2", 3)


def test_each_rule_has_one_home():
    # an input rule's message is spelled where the rule is decided, and
    # nowhere else: a second spelling is a second copy of the rule
    messages = ("time must be finite and positive", "time must be finite, got",
                "time must be positive, got", "status must be an integer",
                "status must be >= 0", "status must be <=", "empty group label",
                "group label must be a str or an int",
                "at least two groups", "level must",
                "cause must be >= 1", "cause must be a whole number")
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "cifpoint"
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py")))
    assert {m: text.count(m) for m in messages} == dict.fromkeys(messages, 1)
