"""Input records and per-group event tables.

Data enters as one row per subject: an observed time, an integer status
(0 for censored, k >= 1 for failure from cause k), and a group label.
Every estimate works from the at-risk and event counts at each distinct
failure time, which one function, `_row_knots`, counts for a block of
data sets at once; an :class:`EventTable` is one group's row at t = inf.

`_checked_columns` is the subject rule: a :class:`SubjectRecord` (after
a guard on its values' types), both :class:`Dataset` constructors,
:func:`parse_dataset`, :func:`event_table_from_arrays` and
`simulation.run_battery` all apply it.  Only a value's type differs
between them: a record's status is an `int`, a CSV field spells an
integer, and a numeric array may hold whole floats.
"""

from __future__ import annotations

import csv
import io
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


# statuses are int64; a record's type guard shares the two messages below
_MAX_STATUS = int(np.iinfo(np.int64).max)
_NOT_FINITE = "time must be finite, got {!r}"
_NOT_INTEGER = "status must be an integer, got {!r}"


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: observed time, status code, and group label."""

    time: float
    status: int
    group: str

    def __post_init__(self):
        # the type guard: the subject rule itself refuses a bool
        if not isinstance(self.time, (int, float)):
            raise InvalidRecord(_NOT_FINITE.format(self.time))
        if not isinstance(self.status, (int, np.integer)):
            raise InvalidRecord(_NOT_INTEGER.format(self.status))
        _, _, names = _checked_columns([self.time], [self.status], [self.group])
        object.__setattr__(self, "group", names[self.group])


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Subjects of one or more groups, held as columns.

    `times` and `statuses` hold one entry per subject, and `codes` the
    index into `groups` of each subject's group.  `groups` lists the
    labels in order of first appearance and `causes` the distinct
    failure causes in ascending order.  The arrays are read-only.

    `Dataset(records)` takes a sequence of :class:`SubjectRecord` and
    `Dataset.from_columns` three aligned columns; :func:`parse_dataset`
    reads a CSV straight into the columns.
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
    def from_columns(cls, times, statuses, groups) -> Dataset:
        """A dataset from subject columns: each subject's time, status
        and group label, held to the subject rule."""
        data = cls.__new__(cls)
        data._fill(times, statuses, groups)
        return data

    def _fill(self, times, statuses, labels) -> None:
        if not len(labels):
            raise InvalidRecord("dataset has no records")
        times, statuses, names = _checked_columns(times, statuses, labels)
        groups = tuple(dict.fromkeys(names.values()))
        index = {label: groups.index(name) for label, name in names.items()}
        codes = np.fromiter(map(index.__getitem__, labels), dtype=int, count=len(labels))
        for name, value in (("times", times), ("statuses", statuses), ("codes", codes)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "causes", _causes(statuses))

    def _code(self, group: str) -> int:
        try:
            return self.groups.index(_name(group))
        except ValueError:
            raise KeyError(f"unknown group {group!r}") from None

    def group_indicator(self, group: str) -> np.ndarray:
        """0/1 vector marking membership of `group`, one entry per subject."""
        return (self.codes == self._code(group)).astype(int)


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


def parse_dataset(path, time_col: str, status_col: str, group_col: str | None = None) -> Dataset:
    """Read a CSV with one row per subject into a :class:`Dataset`.

    `group_col=None` puts every subject in a single group named "all".
    The file is UTF-8, with or without a byte-order mark.  Blank lines
    are skipped.  Raises :class:`InvalidRecord` naming the offending row
    (the header is row 1) on bad input: a row with more or fewer fields
    than the header, a time or status that does not parse, or a subject
    that breaks the subject rule.

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
    layout = width, ti, si, gi = (len(header), position[time_col], position[status_col],
                                  position.get(group_col))
    if fields is not None and fields.shape[1] == width:
        labels = ["all"] * len(fields) if gi is None else fields[:, gi].tolist()
        try:
            # an object array of str casts through float() and int()
            return Dataset.from_columns(fields[:, ti].astype(float),
                                        fields[:, si].astype(np.int64), labels)
        except (ValueError, OverflowError, InvalidRecord):
            pass
    rows = _csv_rows(path, text) if fields is None else fields.tolist()
    raise _first_row_error(path, rows, *layout)


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


def _unparsable(field, convert, name):
    """"bad <name> <field>" where `convert` cannot read `field`, else None."""
    try:
        convert(field)
    except ValueError:
        return f"bad {name} {field!r}"


def _first_row_error(path, rows, width, ti, si, gi) -> InvalidRecord:
    """The error naming the first row `parse_dataset` rejects: the first
    row whose width or fields do not parse, unless a row before it
    breaks the subject rule."""
    subjects = []
    for row in rows:
        problem = (f"expected {width} fields, got {len(row)}" if len(row) != width
                   else _unparsable(row[ti], float, "time") or _unparsable(row[si], int, "status"))
        if problem:
            break
        subjects.append((float(row[ti]), int(row[si]), "all" if gi is None else row[gi]))
    try:
        if subjects:
            _checked_columns(*zip(*subjects), where=lambda i: f"{path}:{i + 2}: ")
    except InvalidRecord as exc:
        return exc
    return InvalidRecord(f"{path}:{len(subjects) + 2}: {problem}")


def _check_cause(cause) -> None:
    """Refuse a cause that is not a whole number of at least 1, which no
    failure can have."""
    if not float(cause).is_integer():
        raise ValueError(f"cause must be a whole number, got {cause!r}")
    if cause < 1:
        raise ValueError(f"cause must be >= 1 (0 marks censoring), got {cause!r}")


def _array(values):
    """`values` as an array, as numpy reads it, except that a list,
    tuple or object array numpy would not read exactly (holding a bool,
    or an int beyond 64 bits or among floats) is kept as its objects.
    A bool reads as NaN, which is neither a time nor a status."""
    array = np.asarray(values)
    if array.dtype == bool:
        return np.full(array.shape, np.nan)
    if array.ndim != 1 or not (isinstance(values, (list, tuple)) or array.dtype == object):
        return array
    types = set(map(type, values))
    if types <= {float} or (types <= {int} and array.dtype.kind in "iu"):
        return array
    return np.array([np.nan if isinstance(v, (bool, np.bool_)) else v for v in values],
                    dtype=object)


def _name(label) -> str | None:
    """A group label's text: a str as plain str and an int as its
    decimal text, as a CSV spells it; None for any other label."""
    if isinstance(label, str):
        return str(label)
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return str(int(label))
    return None


def _checked_columns(times, statuses, labels=None, where=lambda i: ""):
    """Subjects' times and statuses as float and int64 arrays, and each
    distinct label's text (`_name`), held to the subject rule: the time
    is finite, then > 0; the status is a whole number, then >= 0, then
    <= 2**63 - 1; the label is a str or an int, then not empty.  A bool
    is neither a time nor a status nor a label, a float status is whole
    if it is an integer inside the int64 range, and an int is compared
    exactly.  Raises the message of the first subject that breaks the
    rule, after `where(i)` of its index i."""
    t, s = _array(times).astype(float, copy=False), _array(statuses)
    if t.ndim != 1 or t.shape != s.shape:
        raise InvalidRecord("times and statuses must be aligned 1-d arrays")
    if not t.size:
        raise InvalidRecord("group has no records")
    if s.dtype.kind in "iu":
        whole = np.ones(s.shape, bool)
    else:
        # floats, or objects, among which an int compares exactly
        is_int = np.frompyfunc(lambda v: isinstance(v, (int, np.integer)), 1, 1)
        real = ~is_int(s).astype(bool) if s.dtype == object else np.ones(s.shape, bool)
        floats = np.where(real, s, 0).astype(float)
        whole = ~real | ((floats == np.trunc(floats)) & (np.abs(floats) < 2.0**63))
        s = np.where(real, np.where(whole, floats, 0.0), s)
    checks = [(~np.isfinite(t), _NOT_FINITE, times),
              (t <= 0, "time must be positive, got {!r}", times),
              (~whole, _NOT_INTEGER, statuses),
              (whole & (s < 0), "status must be >= 0, got {!r}", statuses),
              (whole & (s > _MAX_STATUS), f"status must be <= {_MAX_STATUS}, got {{!r}}",
               statuses)]
    try:
        names = {} if labels is None else {label: _name(label) for label in dict.fromkeys(labels)}
    except TypeError:
        names = {None: None}  # stands for an unhashable label, which has no name either
    # a label hides behind an equal one of another type (2.0 behind 2), so
    # unless every label is a str each is named on its own
    rows = None if all(isinstance(label, str) for label in names) else list(map(_name, labels))
    if not all(names.values()) or (rows and None in rows):
        rows = rows or [names[label] for label in labels]
        # one object per label, a list label too
        given = np.fromiter(labels, dtype=object, count=len(labels))
        checks += [(np.array([name is None for name in rows]),
                    "group label must be a str or an int, got {!r}", given),
                   (np.array([name == "" for name in rows]), "empty group label", given)]
    broken = np.logical_or.reduce([fails for fails, _, _ in checks])
    if broken.any():
        i = int(broken.argmax())
        message, given = next((message, given) for fails, message, given in checks if fails[i])
        raise InvalidRecord(where(i) + message.format(np.asarray(given, dtype=object)[i]))
    return t, s.astype(np.int64, copy=False), names


def _causes(statuses, extra=()) -> tuple[int, ...]:
    """The distinct causes of failure among `statuses` and `extra`, ascending."""
    return tuple(sorted({*np.unique(statuses[statuses > 0]).tolist(), *map(int, extra)}))


def _take_rows(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """x[r, index[r, ...]] for each row r of the 2-d `x`."""
    rows, width = x.shape
    offsets = (np.arange(rows) * width).reshape((rows,) + (1,) * (index.ndim - 1))
    return np.take(x, index + offsets)


def _row_knots(times: np.ndarray, statuses: np.ndarray, causes, t: float):
    """The knots of each row of (R, n) `times` and `statuses`, one data
    set per row: its distinct failure times at or before `t`.

    Each row is sorted once.  Its counts are packed in time order into
    (R, K + 1) arrays, K the most knots of any row, after the empty knot
    0 (all n at risk, no events), which also pads a row with fewer knots.
    Its factor 1 and zero jump change no product and, as every sum runs
    in knot order, no sum: a row's numbers do not depend on K.

    Returns (a, d, dk, order, times, statuses, tail, rank, knot): each
    knot's at-risk and failure counts as float arrays, and as one
    (C, R, K + 1) float array its failures of each of the C `causes`;
    the sorting permutation and the sorted times and statuses; and for
    each sorted position whether it ends a block of tied times, the
    number of knots up to it, and whether it is a knot.  The counts are
    all the variances need; an :class:`EventTable` reads its fields off
    one row, and `pseudo._pooled_pseudo` ranks each subject from the rest.
    """
    rows, n = times.shape
    order = np.argsort(times, axis=-1)
    times = _take_rows(times, order)
    statuses = _take_rows(statuses, order)
    head = np.ones(times.shape, dtype=bool)
    head[:, 1:] = times[:, 1:] != times[:, :-1]
    tail = np.ones(times.shape, dtype=bool)
    tail[:, :-1] = head[:, 1:]
    start = np.maximum.accumulate(np.where(head, np.arange(n), 0), axis=-1)

    def block_sums(flags):
        """The running count of `flags` within each tie block, which is
        the block's total on its last position."""
        c = np.cumsum(flags, axis=-1)
        return c - _take_rows(c - flags, start)

    failures = block_sums(statuses > 0)
    knot = tail & (times <= t) & (failures > 0)
    rank = np.cumsum(knot, axis=-1)
    row, col = np.nonzero(knot)
    slot = (row, rank[row, col])
    shape = (rows, int(rank[:, -1].max()) + 1)
    a, d, dk = np.full(shape, float(n)), np.zeros(shape), np.zeros((len(causes),) + shape)
    a[slot] = n - start[row, col]
    d[slot] = failures[row, col]
    for dk_c, cause in zip(dk, causes):
        dk_c[slot] = block_sums(statuses == cause)[row, col]
    return a, d, dk, order, times, statuses, tail, rank, knot


def event_table_from_arrays(times, statuses, group: str = "all",
                            causes=None) -> EventTable:
    """Build an :class:`EventTable` directly from parallel arrays, as
    the one `_row_knots` row of the group at t = inf.

    `causes` optionally fixes the set of causes carried in the table;
    causes seen in `statuses` are always included.
    """
    for cause in causes or ():
        _check_cause(cause)
    times, statuses, names = _checked_columns(times, statuses, [group] * np.size(times))
    causes = _causes(statuses, causes or ())
    a, d, dk, _, ordered, ordered_statuses, _, _, knot = _row_knots(
        times[None], statuses[None], causes, np.inf)
    return EventTable(
        group=names[group], times=ordered[knot], at_risk=a[0, 1:].astype(int),
        events=d[0, 1:].astype(int), cause_events=dict(zip(causes, dk[:, 0, 1:].astype(int))),
        censor_times=ordered[ordered_statuses == 0], size=int(times.size))


def build_event_table(data: Dataset, group: str) -> EventTable:
    """Summarize one group of a dataset, carrying all causes seen anywhere."""
    member = data.codes == data._code(group)
    return event_table_from_arrays(data.times[member], data.statuses[member], group=group,
                                   causes=data.causes)
