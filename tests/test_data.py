import csv
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cifpoint.data import (
    Dataset,
    EventTable,
    SubjectRecord,
    _checked_columns,
    _first_row_error,
    build_event_table,
    event_table_from_arrays,
    parse_dataset,
)
from cifpoint.errors import InvalidRecord
from cifpoint.estimation import cif_estimate
from cifpoint.fixed_time import TransformKind, k_sample_test, pointwise_ci, two_sample_test
from cifpoint.pseudo import pseudo_test, pseudo_values
from cifpoint.simulation import run_battery
from cifpoint.variance import cif_variance

from conftest import group_columns, make_dataset, subject_columns

# field values for fuzzing the CSV reader: valid, unparsable and out of range
FIELDS = ("1.5", "2", "0", "-1", "nan", "inf", "1e400", "x", "", " 3", "1_0",
          "99999999999999999999", "a", "b")


class TestSubjectRecord:
    def test_valid(self):
        r = SubjectRecord(time=1.5, status=2, group="a")
        assert (r.time, r.status, r.group) == (1.5, 2, "a")

    @pytest.mark.parametrize("time", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_time(self, time):
        with pytest.raises(InvalidRecord):
            SubjectRecord(time=time, status=1, group="a")

    def test_bad_status(self):
        with pytest.raises(InvalidRecord):
            SubjectRecord(time=1.0, status=-1, group="a")


class TestDataset:
    def test_groups_in_order_of_appearance(self):
        data = make_dataset([1, 2, 3], [1, 1, 1], ["b", "a", "b"])
        assert data.groups == ("b", "a")

    def test_causes_sorted(self):
        data = make_dataset([1, 2, 3], [2, 1, 2])
        assert data.causes == (1, 2)

    def test_group_indicator(self):
        data = make_dataset([1, 2, 3], [1, 1, 1], ["b", "a", "b"])
        assert data.group_indicator("b").tolist() == [1, 0, 1]

    def test_empty_rejected(self):
        with pytest.raises(InvalidRecord):
            Dataset(records=())


class TestEventTable:
    def test_fixture_counts(self, table_a):
        assert table_a.times.tolist() == [1.0, 3.0, 4.0]
        assert table_a.at_risk.tolist() == [5, 3, 2]
        assert table_a.events.tolist() == [1, 1, 1]
        assert table_a.cause_events[1].tolist() == [1, 1, 0]
        assert table_a.cause_events[2].tolist() == [0, 0, 1]
        assert table_a.censor_times.tolist() == [2.0, 5.0]
        assert table_a.size == 5

    def test_censored_at_event_time_stays_at_risk(self):
        # a subject censored exactly at an event time still counts in
        # the risk set of that time
        table = event_table_from_arrays([1.0, 1.0, 2.0], [1, 0, 1], "g")
        assert table.times.tolist() == [1.0, 2.0]
        assert table.at_risk.tolist() == [3, 1]

    def test_tied_events_pooled(self):
        table = event_table_from_arrays([1.0, 1.0, 2.0], [1, 2, 1], "g")
        assert table.times.tolist() == [1.0, 2.0]
        assert table.events.tolist() == [2, 1]
        assert table.cause_events[1].tolist() == [1, 1]
        assert table.cause_events[2].tolist() == [1, 0]

    def test_build_carries_dataset_causes(self):
        # a group without cause-2 events still reports a zero row for
        # cause 2 when the other group has some
        data = make_dataset([1, 2, 3, 4], [1, 1, 2, 1], ["x", "x", "y", "x"])
        table = build_event_table(data, "x")
        assert set(table.cause_events) == {1, 2}
        assert table.cause_events[2].tolist() == [0, 0, 0]

    def test_invariants_enforced(self):
        with pytest.raises(InvalidRecord):
            EventTable(
                group="g",
                times=np.array([2.0, 1.0]),
                at_risk=np.array([5, 3]),
                events=np.array([1, 1]),
                cause_events={1: np.array([1, 1])},
                censor_times=np.array([]),
                size=5,
            )
        with pytest.raises(InvalidRecord):
            EventTable(
                group="g",
                times=np.array([1.0]),
                at_risk=np.array([5]),
                events=np.array([0]),
                cause_events={1: np.array([0])},
                censor_times=np.array([]),
                size=5,
            )

    def test_empty_table_refused(self):
        # a table of no subjects has no incidence: its knot 0 would have
        # nobody at risk, and its variance used to read 0
        empty = np.zeros(0)
        with pytest.raises(InvalidRecord, match="group has no records"):
            EventTable(group="g", times=empty, at_risk=empty.astype(int),
                       events=empty.astype(int), cause_events={}, censor_times=empty, size=0)

    def test_at_risk_beyond_the_group_refused(self):
        # a one-subject group with 12 at risk used to be accepted, and
        # its cause-1 incidence read 1/12
        with pytest.raises(InvalidRecord, match="at-risk counts must not exceed the group size"):
            EventTable(group="g", times=np.array([1.0]), at_risk=np.array([12]),
                       events=np.array([1]), cause_events={1: np.array([1])},
                       censor_times=np.array([]), size=1)

    @settings(max_examples=300, deadline=None)
    @given(subject_columns(groups=("g",)),
           st.sampled_from([None, (), (5,), (2, 5), (4, 1, 7)]))
    @example([[1.0], [0], ["g"]], (5,))
    @example([[2.0, 1.0, 2.0, 2.0, 1.0], [0, 3, 1, 3, 0], ["g"] * 5], (2,))
    def test_counts_equal_a_loop_over_subjects(self, columns, causes):
        # every field, bytes and dtype, against counting each knot's
        # subjects one by one; a cause of `causes` no subject has gets zeros
        times, statuses, _ = columns
        subjects = list(zip(times, statuses))
        knots = sorted({u for u, s in subjects if s > 0})
        kinds = sorted({s for s in statuses if s > 0} | set(causes or ()))

        def ints(counts):
            return np.array(counts, dtype=np.int64)

        want = {
            "times": np.array(knots, dtype=np.float64),
            "at_risk": ints([sum(u >= k for u in times) for k in knots]),
            "events": ints([sum(u == k and s > 0 for u, s in subjects) for k in knots]),
            "censor_times": np.array(sorted(u for u, s in subjects if s == 0), dtype=np.float64),
            **{c: ints([sum(u == k and s == c for u, s in subjects) for k in knots])
               for c in kinds},
        }
        table = event_table_from_arrays(times, statuses, "g", causes=causes)
        assert (table.group, table.size, list(table.cause_events)) == ("g", len(times), kinds)
        for name, y in want.items():
            x = table.cause_events[name] if name in kinds else getattr(table, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name

    def test_cause_sum_must_match(self):
        with pytest.raises(InvalidRecord):
            EventTable(
                group="g",
                times=np.array([1.0]),
                at_risk=np.array([5]),
                events=np.array([2]),
                cause_events={1: np.array([1])},
                censor_times=np.array([]),
                size=5,
            )


class TestArrayStatuses:
    # statuses given as arrays used to be cast to int: 1.7 read as cause
    # 1 and 0.4 as censored, and NaN raised a bare ValueError
    @pytest.mark.parametrize("bad", [1.7, 0.4, -0.5, float("nan"), float("inf"), 1e30])
    def test_non_integral_refused(self, bad):
        statuses = [1.0, bad, 2.0]
        with pytest.raises(InvalidRecord, match="status must be an integer"):
            event_table_from_arrays([1.0, 2.0, 3.0], statuses)
        with pytest.raises(InvalidRecord, match="status must be an integer"):
            run_battery([("x", [1.0, 2.0, 3.0], statuses), ("y", [1.0, 2.0], [1, 0])], 1, 2.5)

    def test_integral_floats_read_as_integers(self):
        assert_tables_equal(event_table_from_arrays([1.0, 2.0, 3.0], [1.0, 0.0, 2.0]),
                            event_table_from_arrays([1.0, 2.0, 3.0], [1, 0, 2]))

    def test_integer_array_taken_as_is(self):
        statuses = np.array([1, 0, 2])
        assert _checked_columns([1.0, 2.0, 3.0], statuses, ["a"] * 3)[1] is statuses


# every public call that takes a cause, given the cause `k` on two
# four-subject groups
CAUSE_CALLS = {
    "two_sample_test": lambda t1, t2, data, k: two_sample_test(t1, t2, k, 3.0,
                                                               TransformKind.LINEAR),
    "k_sample_test": lambda t1, t2, data, k: k_sample_test((t1, t2), k, 3.0,
                                                           TransformKind.LINEAR),
    "cif_variance": lambda t1, t2, data, k: cif_variance(t1, k, 3.0),
    "pointwise_ci": lambda t1, t2, data, k: pointwise_ci(t1, k, 3.0, TransformKind.LINEAR),
    "cif_estimate": lambda t1, t2, data, k: cif_estimate(t1, k),
    "pseudo_values": lambda t1, t2, data, k: pseudo_values(data, k, [2.0]),
    "pseudo_test": lambda t1, t2, data, k: pseudo_test(data, k, 2.0),
    "run_battery": lambda t1, t2, data, k: run_battery(group_columns(data), k, 3.0),
    "event_table_from_arrays": lambda t1, t2, data, k: event_table_from_arrays(
        [1.0, 2.0], [1, 0], causes=(1, k)),
}


class TestCauseBelowOne:
    # status 0 marks censoring, so no failure has a cause below 1; all
    # but run_battery used to answer such a cause with zeros
    @pytest.mark.parametrize("cause", [0, -1])
    @pytest.mark.parametrize("call", CAUSE_CALLS.values(), ids=CAUSE_CALLS.keys())
    def test_refused(self, call, cause):
        data = make_dataset([1.0, 2.0, 3.0, 4.0] * 2, [1, 0, 1, 2, 2, 1, 0, 1],
                            ["a"] * 4 + ["b"] * 4)
        tables = [build_event_table(data, g) for g in data.groups]
        with pytest.raises(ValueError, match=rf"cause must be >= 1 \(0 marks censoring\), "
                                             rf"got {cause}$"):
            call(*tables, data, cause)


class TestCauseNotWhole:
    # a cause of 1.5 used to get estimates of 0 from the table functions
    # and cause 1 from the pseudo-value ones; a NaN cause answered 0 or
    # failed converting to an integer
    @pytest.mark.parametrize("cause", [1.5, float("nan")])
    @pytest.mark.parametrize("call", CAUSE_CALLS.values(), ids=CAUSE_CALLS.keys())
    def test_refused(self, call, cause):
        data = make_dataset([1.0, 2.0, 3.0, 4.0] * 2, [1, 0, 1, 2, 2, 1, 0, 1],
                            ["a"] * 4 + ["b"] * 4)
        tables = [build_event_table(data, g) for g in data.groups]
        with pytest.raises(ValueError, match=rf"cause must be a whole number, got {cause}$"):
            call(*tables, data, cause)


class TestParseDataset:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,status,arm\n"
            "1.0,1,x\n"
            "2.5,0,y\n"
            "3.0,2,x\n"
        )
        data = parse_dataset(path, "time", "status", "arm")
        assert data.groups == ("x", "y")
        assert data.times.tolist() == [1.0, 2.5, 3.0]
        assert data.statuses.tolist() == [1, 0, 2]

    def test_single_group_default(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n1.0,1\n2.0,0\n")
        data = parse_dataset(path, "time", "status")
        assert len(data.groups) == 1

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n1.0,1\n")
        with pytest.raises(InvalidRecord, match="arm"):
            parse_dataset(path, "time", "status", "arm")

    def test_bad_row_reports_row_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n1.0,1\n-2.0,1\n")
        with pytest.raises(InvalidRecord, match=r"d\.csv:3"):
            parse_dataset(path, "time", "status")

    def test_non_numeric_time(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\nabc,1\n")
        with pytest.raises(InvalidRecord):
            parse_dataset(path, "time", "status")

    @pytest.mark.parametrize("row, problem", [
        ("2.0,1", "expected 3 fields, got 2"),
        ("2.0,1,", "empty group label"),
        ("2.0,1,x,9", "expected 3 fields, got 4"),
        ("2.0,-1,x", "status must be >= 0, got -1"),
        ("nan,1,x", "time must be finite, got nan"),
        ("0,1,x", "time must be positive, got 0.0"),
        ("2.0,99999999999999999999,x", "status must be <= 9223372036854775807, "
                                       "got 99999999999999999999"),
    ])
    def test_malformed_row_rejected(self, tmp_path, row, problem):
        # a short row used to make a group None, an empty field a group
        # '', an extra field was dropped and a status beyond 64 bits
        # escaped later as an OverflowError; the value errors keep the
        # messages a SubjectRecord gives
        path = tmp_path / "d.csv"
        path.write_text(f"time,status,group\n1.0,1,x\n{row}\n3.0,0,y\n")
        with pytest.raises(InvalidRecord, match=rf"d\.csv:3: {problem}$"):
            parse_dataset(path, "time", "status", "group")

    def test_first_bad_row_is_reported(self, tmp_path):
        # the status of row 3 fails before the negative time of row 4
        path = tmp_path / "d.csv"
        path.write_text("time,status\n1.0,1\n2.0,x\n-4.0,1\n")
        with pytest.raises(InvalidRecord, match=r"d\.csv:3: bad status 'x'"):
            parse_dataset(path, "time", "status")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n1.0,1\n\n2.0,0\n")
        assert parse_dataset(path, "time", "status").times.tolist() == [1.0, 2.0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=4),
                    min_size=1, max_size=6))
    def test_any_rows_parse_or_name_a_row(self, tmp_path_factory, rows):
        # whatever the rows hold, the result is a dataset or an
        # InvalidRecord naming a data row, or the file when no row is
        # left; a lone empty field is a blank line, which is skipped
        path = tmp_path_factory.mktemp("fuzz") / "d.csv"
        path.write_text("time,status,group\n" + "".join(",".join(r) + "\n" for r in rows))
        try:
            data = parse_dataset(path, "time", "status", "group")
        except InvalidRecord as exc:
            assert (re.search(r"d\.csv:[2-7]: ", str(exc))
                    or str(exc) == f"{path}: dataset has no records"), str(exc)
        else:
            # the parsed columns pass the subject rule again
            labels = [data.groups[c] for c in data.codes.tolist()]
            again = Dataset.from_columns(data.times, data.statuses, labels)
            assert again.times.size == sum(row != [""] for row in rows)
            assert "" not in data.groups


def reference_parse(path, time_col, status_col, group_col):
    """The slow reader `parse_dataset` must agree with: `csv.reader`,
    then `float` and `int` row by row, then `_first_row_error`.  Gives
    (times, statuses, codes, groups, causes) as lists and tuples."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InvalidRecord(f"{path}: empty file")
        position = {name: i for i, name in enumerate(header)}
        for col in filter(None, (time_col, status_col, group_col)):
            if col not in position:
                raise InvalidRecord(f"{path}: missing column {col!r}")
        rows = [row for row in reader if row]
    if not rows:
        raise InvalidRecord(f"{path}: dataset has no records")
    layout = (len(header), position[time_col], position[status_col], position.get(group_col))
    width, ti, si, gi = layout
    try:
        times, statuses, labels = [], [], []
        for row in rows:
            if len(row) != width:
                raise ValueError
            times.append(float(row[ti]))
            statuses.append(int(row[si]))
            labels.append("all" if gi is None else row[gi])
            SubjectRecord(times[-1], statuses[-1], labels[-1])
            if not labels[-1]:
                raise ValueError
    except (ValueError, InvalidRecord):
        raise _first_row_error(path, rows, *layout) from None
    groups = tuple(dict.fromkeys(labels))
    return (times, statuses, [groups.index(g) for g in labels], groups,
            tuple(sorted({s for s in statuses if s > 0})))


# cells of a generated CSV, by column: values each column takes, in
# Python's own spellings (underscores, other digits, spaces), and values
# no column takes
VALID = {
    "time": ("1.5", "2", "1_0", "\u0661\u0662", " 3", "3 ", "\t4", "1e-3"),
    "status": ("0", "1", "2", "\u0661", "1_0", " 2", str(2**63 - 1)),
    "group": ("a", "b", " a", "é", 'q"uote', "com,ma", "new\nline", "cr\rend", "crlf\r\nend",
              '"'),
}
VALID["note"] = VALID["group"] + ("",)
INVALID = ("inf", "nan", "1e400", "0", "-1", "x", "", "1.0", str(2**63), str(2**64 + 1))
LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def csv_texts(draw):
    """(text, time_col, status_col, group_col): a header of two or
    three named columns and maybe an extra one, then rows of mostly the
    header's width and mostly valid cells, each cell quoted when it must
    be and sometimes when it need not be, or written raw; lines end in
    LF, CRLF or a lone CR, and blank or whitespace-only lines fall
    between them."""
    names = draw(st.permutations(["time", "status", "group", "note"][:draw(st.integers(2, 4))]))
    group_col = "group" if "group" in names else None

    def cell(value):
        how = draw(st.sampled_from(("plain",) * 6 + ("quoted",) * 3 + ("raw",)))
        if how == "raw" or (how == "plain" and not any(c in value for c in ',"\r\n')):
            return value
        return '"' + value.replace('"', '""') + '"'

    def value(name):
        return draw(st.sampled_from(VALID[name] if draw(st.integers(0, 24)) else INVALID))

    lines = [",".join(map(cell, names))]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("row",) * 12 + ("blank",) * 3 + ("space", "short", "long")))
        if kind in ("blank", "space"):
            lines.append("" if kind == "blank" else draw(st.sampled_from((" ", "\t"))))
            continue
        width = len(names) + {"row": 0, "short": -1, "long": 1}[kind]
        lines.append(",".join(cell(value(name)) for name in (names + ["note"])[:width]))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, "time", "status", group_col


class TestIngestOracle:
    # one tokenizer pass and a bulk conversion per column must read
    # exactly what csv.reader and per-row float()/int() read
    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    @example(("time,status,group\n", "time", "status", "group"))
    @example(("\ufefftime,status,group\r\n1,1,a,\r\n", "time", "status", "group"))
    @example((f"time,status\n1,{2**63}\n", "time", "status", None))
    @example(('time,status,group\r"2",1,"a\r\nb"\r \r1_0,\u0661,""""\r', "time", "status",
              "group"))
    def test_agrees_with_the_row_reader(self, tmp_path_factory, case):
        text, *cols = case
        path = tmp_path_factory.mktemp("oracle") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = reference_parse(path, *cols)
        except InvalidRecord as exc:
            with pytest.raises(InvalidRecord) as info:
                parse_dataset(path, *cols)
            assert str(info.value) == str(exc)
        else:
            data = parse_dataset(path, *cols)
            assert (data.times.tolist(), data.statuses.tolist(), data.codes.tolist(),
                    data.groups, data.causes) == expected


def write_rows(path, times, statuses, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "status", "arm"])
        writer.writerows(zip((repr(float(t)) for t in times), statuses, labels))


def subjects(min_size=1, max_size=40):
    """Random subjects with tied times, censoring and up to three
    groups: lists (times, statuses, labels)."""
    return st.lists(
        st.tuples(st.integers(1, 8).map(lambda k: k / 4.0), st.integers(0, 3),
                  st.sampled_from(("b", "a", "c"))),
        min_size=min_size, max_size=max_size,
    ).map(lambda rows: [list(col) for col in zip(*rows)])


def assert_tables_equal(t1, t2):
    assert t1.group == t2.group and t1.size == t2.size
    for name in ("times", "at_risk", "events", "censor_times"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name)), name
    assert t1.cause_events.keys() == t2.cause_events.keys()
    for k in t1.cause_events:
        assert np.array_equal(t1.cause_events[k], t2.cause_events[k])


class TestColumnarDataset:
    @settings(max_examples=100, deadline=None)
    @given(subjects())
    def test_parsed_csv_equals_records(self, tmp_path_factory, columns):
        times, statuses, labels = columns
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_rows(path, times, statuses, labels)
        parsed = parse_dataset(path, "time", "status", "arm")
        built = make_dataset(times, statuses, labels)
        assert parsed.groups == built.groups == tuple(dict.fromkeys(labels))
        assert parsed.causes == built.causes == tuple(sorted({s for s in statuses if s}))
        assert parsed.times.tolist() == built.times.tolist() == times
        assert parsed.statuses.tolist() == built.statuses.tolist() == statuses
        for g in built.groups:
            assert parsed.group_indicator(g).tolist() == [int(x == g) for x in labels]
            assert_tables_equal(build_event_table(parsed, g), build_event_table(built, g))

    @settings(max_examples=100, deadline=None)
    @given(subjects())
    def test_built_tables_pass_the_checks(self, columns):
        # every table event_table_from_arrays builds passes the checks
        # of a direct EventTable, which it now goes through
        times, statuses, _ = columns
        table = event_table_from_arrays(times, statuses, "g", causes=(1, 5))
        assert_tables_equal(EventTable(**vars(table)), table)

    @settings(max_examples=60, deadline=None)
    @given(subjects(min_size=2), st.randoms(use_true_random=False))
    def test_permuting_rows_changes_no_table_or_test(self, columns, rnd):
        times, statuses, labels = columns
        labels = ["a", "b"] + labels[2:]
        order = list(range(len(times)))
        rnd.shuffle(order)
        data = make_dataset(times, statuses, labels)
        shuffled = make_dataset(*([col[i] for i in order] for col in (times, statuses, labels)))
        for g in data.groups:
            assert_tables_equal(build_event_table(data, g), build_event_table(shuffled, g))
        for t in (0.5, 1.0, 1.75):
            for x, y in zip(*(two_group_battery(d, t) for d in (data, shuffled))):
                assert (x.test, type(x.error)) == (y.test, type(y.error))
                if x.variance is not None:
                    assert x.result == y.result
                elif x.result is not None:
                    # the pseudo-value group means sum in another order
                    assert numbers(x.result) == pytest.approx(numbers(y.result),
                                                             rel=1e-12, abs=1e-15)


def two_group_battery(data, t):
    """The twelve tests of groups a and b, with c left out."""
    return run_battery(group_columns(data, ("a", "b")), 1, t)


def numbers(result):
    return [result.statistic, result.p_value, result.effect,
            *(g.estimate for g in result.groups)]
