"""Input records and per-group event tables.

Data enters as one row per subject: an observed time, an integer status
(0 for censored, k >= 1 for failure from cause k), and a group label.
Everything downstream works from the :class:`EventTable` summary, which
holds the distinct failure times of one group together with the at-risk
and event counts at each of them.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRecord

__all__ = [
    "SubjectRecord",
    "Dataset",
    "EventTable",
    "parse_dataset",
    "build_event_table",
    "event_table_from_arrays",
]


# statuses are held as 64-bit integers
_MAX_STATUS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: observed time, status code, and group label."""

    time: float
    status: int
    group: str

    def __post_init__(self):
        if not (isinstance(self.time, (int, float)) and math.isfinite(self.time)):
            raise InvalidRecord(f"time must be finite, got {self.time!r}")
        if self.time <= 0:
            raise InvalidRecord(f"time must be positive, got {self.time!r}")
        if not isinstance(self.status, (int, np.integer)) or isinstance(self.status, bool):
            raise InvalidRecord(f"status must be an integer, got {self.status!r}")
        if self.status < 0:
            raise InvalidRecord(f"status must be >= 0, got {self.status!r}")
        if self.status > _MAX_STATUS:
            raise InvalidRecord(f"status must be <= {_MAX_STATUS}, got {self.status!r}")


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Subjects of one or more groups, held as columns.

    `times` and `statuses` hold one entry per subject, and `codes` the
    index into `groups` of each subject's group.  `groups` lists the
    labels in order of first appearance and `causes` the distinct
    failure causes in ascending order.  The arrays are read-only.

    `Dataset(records)` takes a sequence of :class:`SubjectRecord`;
    :func:`parse_dataset` reads a CSV straight into the columns.
    """

    times: np.ndarray
    statuses: np.ndarray
    codes: np.ndarray
    groups: tuple[str, ...]
    causes: tuple[int, ...]

    def __init__(self, records):
        records = tuple(records)
        self._fill([rec.time for rec in records], [rec.status for rec in records],
                   [rec.group for rec in records])

    @classmethod
    def _from_columns(cls, times, statuses, labels) -> Dataset:
        """A dataset from columns whose values are already validated."""
        data = cls.__new__(cls)
        data._fill(times, statuses, labels)
        return data

    def _fill(self, times, statuses, labels) -> None:
        if not len(labels):
            raise InvalidRecord("dataset has no records")
        groups = tuple(dict.fromkeys(labels))
        index = {g: i for i, g in enumerate(groups)}
        codes = np.fromiter(map(index.__getitem__, labels), dtype=int, count=len(labels))
        statuses = np.asarray(statuses, dtype=int)
        for name, value in (("times", np.asarray(times, dtype=float)),
                            ("statuses", statuses), ("codes", codes)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "causes",
                           tuple(int(k) for k in np.unique(statuses[statuses > 0])))

    def _code(self, group: str) -> int:
        try:
            return self.groups.index(group)
        except ValueError:
            raise KeyError(f"unknown group {group!r}") from None

    def group_indicator(self, group: str) -> np.ndarray:
        """0/1 vector marking membership of `group`, one entry per subject."""
        return (self.codes == self._code(group)).astype(int)

    @property
    def records(self) -> tuple[SubjectRecord, ...]:
        """The subjects as records, rebuilt from the columns."""
        return tuple(SubjectRecord(t, s, self.groups[c]) for t, s, c in
                     zip(self.times.tolist(), self.statuses.tolist(), self.codes.tolist()))


@dataclass(frozen=True)
class EventTable:
    """Distinct failure times of one group with counts at each.

    Attributes
    ----------
    group : str
        Group label the table was built from.
    times : ndarray
        Distinct failure times, strictly increasing.
    at_risk : ndarray
        Number of subjects with observed time >= each failure time, so a
        subject censored exactly at a failure time still counts at risk
        there.
    events : ndarray
        All-cause failure count at each time.
    cause_events : dict[int, ndarray]
        Failure count at each time, split by cause.
    censor_times : ndarray
        Observed times of the censored subjects, ascending.
    size : int
        Number of subjects in the group, at least 1.
    """

    group: str
    times: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    cause_events: dict[int, np.ndarray]
    censor_times: np.ndarray
    size: int

    def __post_init__(self):
        t, a, d = self.times, self.at_risk, self.events
        if t.ndim != 1 or a.shape != t.shape or d.shape != t.shape:
            raise InvalidRecord("event table arrays must be 1-d and aligned")
        if t.size and np.any(np.diff(t) <= 0):
            raise InvalidRecord("failure times must be strictly increasing")
        if t.size and np.any(np.diff(a) >= 0):
            raise InvalidRecord("at-risk counts must be strictly decreasing")
        if np.any(d < 1) or np.any(d > a):
            raise InvalidRecord("event counts must satisfy 1 <= d <= at_risk")
        total = np.zeros_like(d)
        for dk in self.cause_events.values():
            if dk.shape != t.shape or np.any(dk < 0):
                raise InvalidRecord("cause-specific counts must align and be >= 0")
            total = total + dk
        if not np.array_equal(total, d):
            raise InvalidRecord("cause-specific counts must sum to the all-cause count")
        if int(d.sum()) + self.censor_times.size != self.size:
            raise InvalidRecord("failures plus censorings must equal the group size")
        if t.size and a[0] > self.size:
            raise InvalidRecord("at-risk counts must not exceed the group size")
        if self.size < 1:
            raise InvalidRecord("group has no records")

    @classmethod
    def _from_counts(cls, **fields) -> EventTable:
        """A table from counts that already satisfy the invariants."""
        table = cls.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(table, name, value)
        return table


def parse_dataset(path, time_col: str, status_col: str, group_col: str | None = None) -> Dataset:
    """Read a CSV with one row per subject into a :class:`Dataset`.

    `group_col=None` puts every subject in a single group named "all".
    The file is UTF-8, with or without a byte-order mark.  Blank lines
    are skipped.  Raises :class:`InvalidRecord` naming the offending row
    (the header is row 1) on bad input: a row with more or fewer fields
    than the header, a time or status that does not parse or that a
    :class:`SubjectRecord` rejects, or an empty group.

    The header is read by `csv.reader`; the body is split into fields
    by numpy's C tokenizer in one pass, with the same quoting and line
    ends, and each column is converted by one call that applies
    Python's `float` and `int` to its strings.  Only a file that fails
    is read again row by row, to name its first bad row.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    body = io.StringIO(text, newline="")
    try:
        header = next(csv.reader(body), None)
    except csv.Error as exc:
        raise InvalidRecord(f"{path}:1: {exc}") from None
    if header is None:
        raise InvalidRecord(f"{path}: empty file")
    # a repeated name means its last column, as in csv.DictReader
    position = {name: i for i, name in enumerate(header)}
    for col in filter(None, (time_col, status_col, group_col)):
        if col not in position:
            raise InvalidRecord(f"{path}: missing column {col!r}")
    fields = _tokenize(body)
    if fields is not None and not len(fields):
        raise InvalidRecord(f"{path}: dataset has no records")
    layout = (len(header), position[time_col], position[status_col], position.get(group_col))
    columns = None if fields is None else _columns(fields, *layout)
    if columns is None:
        rows = _csv_rows(path, text) if fields is None else fields.tolist()
        raise _first_row_error(path, rows, *layout)
    return Dataset._from_columns(*columns)


def _tokenize(body):
    """The fields of the non-blank rows of `body` as an (n, width)
    array of str, split as `csv.reader` splits them, or None when the
    rows differ in width."""
    try:
        with warnings.catch_warnings():
            # a body without rows is answered by the caller
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(body, delimiter=",", quotechar='"', comments=None,
                              dtype=object, ndmin=2)
    except ValueError:
        return None


def _csv_rows(path, text):
    """The non-blank rows of `text` after the header as `csv.reader`
    splits them, refusing a field it cannot read by naming its row."""
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        next(reader)
        for row in reader:
            if row:
                rows.append(row)
    except csv.Error as exc:
        raise InvalidRecord(f"{path}:{len(rows) + 2}: {exc}") from None
    return rows


def _columns(fields, width, ti, si, gi):
    """(times, statuses, labels) converted a column at a time, or None
    when any row is invalid."""
    if fields.shape[1] != width:
        return None
    try:
        # an object array of str casts through float() and int()
        times, statuses = _checked_columns(fields[:, ti].astype(float),
                                           fields[:, si].astype(np.int64))
    except (ValueError, OverflowError, InvalidRecord):
        return None
    labels = ["all"] * len(fields) if gi is None else fields[:, gi].tolist()
    if not all(labels):
        return None
    return times, statuses, labels


def _first_row_error(path, rows, width, ti, si, gi) -> InvalidRecord:
    """The error naming the first row `_columns` rejects, each row's
    fields checked in order."""
    for lineno, row in enumerate(rows, start=2):
        where = f"{path}:{lineno}"
        if len(row) != width:
            return InvalidRecord(f"{where}: expected {width} fields, got {len(row)}")
        try:
            time = float(row[ti])
        except ValueError:
            return InvalidRecord(f"{where}: bad time {row[ti]!r}")
        try:
            status = int(row[si])
        except ValueError:
            return InvalidRecord(f"{where}: bad status {row[si]!r}")
        try:
            SubjectRecord(time, status, "")
        except InvalidRecord as exc:
            return InvalidRecord(f"{where}: {exc}")
        if gi is not None and not row[gi]:
            return InvalidRecord(f"{where}: empty group label")
    raise AssertionError("no invalid row found")


def _check_cause(cause) -> None:
    """Refuse a cause that is not a whole number of at least 1, which no
    failure can have."""
    if not float(cause).is_integer():
        raise ValueError(f"cause must be a whole number, got {cause!r}")
    if cause < 1:
        raise ValueError(f"cause must be >= 1 (0 marks censoring), got {cause!r}")


def _checked_columns(times, statuses):
    """Subjects' times and statuses as float and int arrays, refusing
    what no subject record allows.  Integer statuses are taken as they
    are; others must hold whole numbers within the int64 range."""
    times = np.asarray(times, dtype=float)
    statuses = np.asarray(statuses)
    if statuses.dtype.kind not in "iu":
        values = statuses.astype(float)
        whole = (values == np.trunc(values)) & (np.abs(values) < 2.0**63)
        if not whole.all():
            raise InvalidRecord(f"status must be an integer, got {float(values[~whole][0])!r}")
        statuses = values
    statuses = statuses.astype(int, copy=False)
    if times.ndim != 1 or times.shape != statuses.shape:
        raise InvalidRecord("times and statuses must be aligned 1-d arrays")
    if times.size == 0:
        raise InvalidRecord("group has no records")
    if np.any(~np.isfinite(times)) or np.any(times <= 0):
        raise InvalidRecord("times must be finite and positive")
    if np.any(statuses < 0):
        raise InvalidRecord("statuses must be >= 0")
    return times, statuses


def event_table_from_arrays(times, statuses, group: str = "all",
                            causes=None) -> EventTable:
    """Build an :class:`EventTable` directly from parallel arrays.

    `causes` optionally fixes the set of causes carried in the table;
    causes seen in `statuses` are always included.
    """
    for cause in causes or ():
        _check_cause(cause)
    times, statuses = _checked_columns(times, statuses)
    failed = statuses > 0
    knots = np.unique(times[failed])
    order = np.sort(times)
    at_risk = times.size - np.searchsorted(order, knots, side="left")

    pos = np.searchsorted(knots, times[failed])
    events = np.bincount(pos, minlength=knots.size).astype(int)

    seen = sorted(int(k) for k in np.unique(statuses[failed]))
    all_causes = sorted(set(seen) | {int(k) for k in (causes or ())})
    cause_events = {}
    for k in all_causes:
        sel = statuses[failed] == k
        cause_events[k] = np.bincount(pos[sel], minlength=knots.size).astype(int)

    return EventTable._from_counts(
        group=group,
        times=knots,
        at_risk=at_risk.astype(int),
        events=events,
        cause_events=cause_events,
        censor_times=np.sort(times[~failed]),
        size=int(times.size),
    )


def build_event_table(data: Dataset, group: str) -> EventTable:
    """Summarize one group of a dataset, carrying all causes seen anywhere."""
    member = data.codes == data._code(group)
    return event_table_from_arrays(data.times[member], data.statuses[member], group=group,
                                   causes=data.causes)
