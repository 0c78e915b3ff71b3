import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cifpoint.data import _row_knots, build_event_table, event_table_from_arrays
from cifpoint.estimation import (
    StepFunction,
    _pooled_pseudo,
    _table_counts,
    cif_at,
    cif_estimate,
    km_survival,
)

from conftest import horizons, make_dataset, random_dataset, subject_columns

TOL = 1e-12


class TestStepFunction:
    def test_nan_rejected(self, table_a):
        # NaN used to sort past every knot and read as the last value
        curve = cif_estimate(table_a, 1)
        with pytest.raises(ValueError):
            curve.at(math.nan)
        with pytest.raises(ValueError):
            curve.steps.at(np.array([1.0, math.nan]))
        assert curve.at(math.inf) == curve.at(10.0)

    def test_right_continuous(self):
        f = StepFunction(knots=np.array([1.0, 2.0]), values=np.array([0.5, 0.25]), before=1.0)
        assert f.at(0.999) == 1.0
        assert f.at(1.0) == 0.5
        assert f.at(1.5) == 0.5
        assert f.at(2.0) == 0.25
        assert f.at(10.0) == 0.25

    def test_vectorized(self):
        f = StepFunction(knots=np.array([1.0]), values=np.array([0.0]), before=1.0)
        out = f.at(np.array([0.5, 1.0, 2.0]))
        assert out.tolist() == [1.0, 0.0, 0.0]

    def test_empty_knots(self):
        f = StepFunction(knots=np.array([]), values=np.array([]), before=0.0)
        assert f.at(3.0) == 0.0


class TestKaplanMeier:
    def test_fixture_values(self, table_a):
        s = km_survival(table_a)
        assert s.at(0.5) == 1.0
        assert abs(s.at(1.0) - 4 / 5) <= TOL
        assert abs(s.at(3.5) - 8 / 15) <= TOL
        assert abs(s.at(4.0) - 4 / 15) <= TOL

    def test_no_events_is_one(self):
        # all censored: KM stays at 1
        table = event_table_from_arrays([1.0, 2.0], [0, 0], "g")
        s = km_survival(table)
        assert s.at(5.0) == 1.0


class TestCifEstimate:
    def test_fixture_values(self, table_a):
        curve = cif_estimate(table_a, 1)
        assert abs(curve.at(1.0) - 0.2) <= TOL
        assert abs(curve.at(2.9) - 0.2) <= TOL
        assert abs(curve.at(3.0) - 7 / 15) <= TOL
        assert abs(curve.at(100.0) - 7 / 15) <= TOL
        assert curve.at(0.999) == 0.0

    def test_cause_two(self, table_a):
        curve = cif_estimate(table_a, 2)
        assert curve.at(3.9) == 0.0
        assert abs(curve.at(4.0) - 4 / 15) <= TOL

    def test_fixture_b(self, table_b):
        curve = cif_estimate(table_b, 1)
        assert abs(curve.at(3.0) - 0.2) <= TOL
        assert abs(curve.at(5.0) - 0.5) <= TOL

    def test_absent_cause_identically_zero(self, table_a):
        curve = cif_estimate(table_a, 7)
        assert curve.steps.knots.size == 0
        assert curve.at(2.0) == 0.0

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 120, groups=("g",))
        curve = cif_estimate(build_event_table(data, "g"), 1)
        assert np.all(np.diff(curve.steps.values) >= 0)

    def test_sums_to_one_minus_km(self, table_a):
        # the cause-specific curves partition all-cause failure mass
        s = km_survival(table_a)
        for t in [0.5, 1.0, 2.0, 3.0, 4.0, 9.0]:
            total = cif_estimate(table_a, 1).at(t) + cif_estimate(table_a, 2).at(t)
            assert abs(total - (1.0 - s.at(t))) <= TOL

    def test_no_censoring_matches_empirical_fraction(self):
        rng = np.random.default_rng(11)
        t = rng.exponential(1.0, size=200)
        cause = rng.integers(1, 3, size=200)
        table = event_table_from_arrays(t, cause, "g")
        curve = cif_estimate(table, 1)
        for q in [0.25, 0.8, 1.5]:
            frac = np.mean((t <= q) & (cause == 1))
            assert abs(curve.at(q) - frac) <= TOL

    def test_cif_at_helper(self, table_a):
        curve = cif_estimate(table_a, 1)
        assert cif_at(curve, 3.0) == curve.at(3.0)


class TestPackedCounts:
    # the two producers of packed knot counts, an event table's prefix
    # and a block of subjects' rows, agree bit for bit on one data set,
    # whether or not the table carries `cause`: a cause no subject has
    # gives zero counts at the knots in both

    @settings(max_examples=200, deadline=None)
    @given(subject_columns(groups=("g",)), st.integers(1, 4), horizons)
    @example([[1.0, 1.0, 1.0, 2.0, 2.0], [1, 2, 0, 3, 1], ["g"] * 5], 1, 2.0)
    @example([[1.0, 1.0, 3.0], [2, 1, 1], ["g"] * 3], 2, 0.5)
    @example([[1.0, 1.0, 3.0], [2, 2, 0], ["g"] * 3], 4, 3.0)
    # a table without cause 3 used to give (1, 1) arrays, its one row (1, 2)
    @example([[1.0, 1.0, 2.0, 3.0], [1, 2, 1, 0], ["g"] * 4], 3, 2.5)
    def test_table_prefix_is_one_row(self, columns, cause, t):
        times, statuses = np.array(columns[0]), np.array(columns[1])
        a, d, (dk,) = _row_knots(times[None], statuses[None], (cause,), t)[:3]
        rows = a, d, dk
        for causes in ((cause,), None):
            counts = _table_counts(event_table_from_arrays(times, statuses, causes=causes),
                                   cause, t)
            for x, y in zip(counts, rows):
                assert x.shape == y.shape and x.dtype == y.dtype
                assert x.tobytes() == y.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(subject_columns(groups=("g",)), min_size=1, max_size=4),
           st.integers(1, 3), horizons)
    def test_empty_knots_frame_each_row(self, data_sets, cause, t):
        # a block of data sets of n subjects each: column 0 and every
        # slot past a row's last knot are the empty knot, all n at risk
        # and no events; a knot ends its block of tied times, where the
        # rank indexes the last knot at or before that time
        n = min(len(times) for times, _, _ in data_sets)
        times = np.array([columns[0][:n] for columns in data_sets])
        statuses = np.array([columns[1][:n] for columns in data_sets])
        a, d, (dk,), order, _, _, tail, rank, knot = _row_knots(times, statuses, (cause,), t)
        for r in range(times.shape[0]):
            knots = np.unique(times[r][(statuses[r] > 0) & (times[r] <= t)])
            empty = np.r_[0, np.arange(knots.size + 1, a.shape[1])]
            assert a[r, empty].tolist() == [float(n)] * empty.size
            assert d[r, empty].tolist() == dk[r, empty].tolist() == [0.0] * empty.size
            assert np.all(d[r, 1:knots.size + 1] > 0)
            sorted_times = times[r][order[r]]
            assert tail[r].tolist() == (np.r_[sorted_times[1:], np.inf] != sorted_times).tolist()
            assert rank[r].tolist() == np.where(tail[r], np.searchsorted(knots, sorted_times, "right"),
                                                np.searchsorted(knots, sorted_times)).tolist()
            assert knot[r].tolist() == (tail[r] & np.isin(sorted_times, knots)).tolist()


@st.composite
def tie_free_blocks(draw):
    """(R, n) times, each row's distinct, on a grid of sixty-fourths;
    statuses censored or one of three causes; and n - 1 more times on
    the same grid, for a row with a tie."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(2, 12))
    times = draw(st.lists(st.lists(st.integers(1, 128), min_size=n, max_size=n, unique=True),
                          min_size=rows, max_size=rows))
    statuses = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                             min_size=rows, max_size=rows))
    more = draw(st.lists(st.integers(1, 128), min_size=n - 1, max_size=n - 1))
    return np.array(times) / 64.0, np.array(statuses), np.array(more) / 64.0


class TestTieFreePath:
    # a block without ties takes the tie-free path of `_row_knots` and of
    # `_pooled_pseudo`.  One more row of censored subjects, tied at its
    # smallest time, which is at or before t and the last horizon, sends
    # the same rows through the tied path and adds no knot.  It may widen
    # the sorted prefix by subjects past t, so with that row dropped the
    # per-subject outputs agree over the tie-free prefix, and every other
    # output is the same, dtype included.

    @settings(max_examples=200, deadline=None)
    @given(tie_free_blocks(),
           st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
           horizons | st.just(math.inf),
           st.lists(horizons, min_size=1, max_size=3, unique=True).map(sorted))
    def test_tied_path_gives_the_same_outputs(self, block, causes, t, taus):
        times, statuses, more = block
        rows = times.shape[0]
        low = min(more.min(), t, taus[-1])
        tied = np.r_[low, low, np.sort(more)[1:]]
        with_tie = np.vstack((times, tied)), np.vstack((statuses, np.zeros_like(tied, int)))
        fast = _row_knots(times, statuses, causes, t)
        slow = _row_knots(*with_tie, causes, t)
        assert fast[6].all() and not slow[6].all()  # `tail`: ties only in the last row
        width = fast[3].shape[1]
        # dk leads with an axis of causes; order to knot are per subject
        slow = tuple(x[:, :rows] if i == 2 else x[:rows, :width] if i >= 3 else x[:rows]
                     for i, x in enumerate(slow))
        taus = np.array(taus)
        fast += (_pooled_pseudo(times, statuses, causes[0], taus),)
        slow += (_pooled_pseudo(*with_tie, causes[0], taus)[:rows],)
        for x, y in zip(fast, slow):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)


def full_width_knots(times, statuses, causes, t):
    """`_row_knots` of an (R, n) block by its definition: each row sorted
    whole, its knots by `np.unique` and its counts by `np.searchsorted`,
    then cut to the sorted prefix, which ends a tie block."""
    rows, n = times.shape
    order = np.argsort(times, axis=-1)
    times, statuses = np.take_along_axis(times, order, -1), np.take_along_axis(statuses, order, -1)
    knots = [np.unique(ts[(ss > 0) & (ts <= t)]) for ts, ss in zip(times, statuses)]
    shape = (rows, max(map(len, knots)) + 1)
    a, d, dk = np.full(shape, float(n)), np.zeros(shape), np.zeros((len(causes),) + shape)
    tail = np.c_[times[:, 1:] != times[:, :-1], np.ones(rows, bool)]
    rank, knot = np.zeros(times.shape, int), np.zeros(times.shape, bool)
    for r, (ts, ss, x) in enumerate(zip(times, statuses, knots)):
        k = slice(1, x.size + 1)
        a[r, k] = n - np.searchsorted(ts, x)
        d[r, k] = np.searchsorted(ts[ss > 0], x, "right") - np.searchsorted(ts[ss > 0], x)
        for dk_c, cause in zip(dk, causes):
            hit = ts[ss == cause]
            dk_c[r, k] = np.searchsorted(hit, x, "right") - np.searchsorted(hit, x)
        rank[r] = np.where(tail[r], np.searchsorted(x, ts, "right"), np.searchsorted(x, ts))
        knot[r] = tail[r] & np.isin(ts, x)
    width = min(n, int(np.max(np.sum(times <= t, axis=-1))) + 1)
    tail[:, width - 1] = True
    return (a, d, dk) + tuple(x[:, :width] for x in (order, times, statuses, tail, rank, knot))


@st.composite
def knot_blocks(draw):
    """(R, n) times on a grid of eighths in (0, 3], with ties or, by a
    drawn switch, distinct in each row, and statuses censored or one of
    three causes."""
    rows, n, distinct = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.booleans())
    times = draw(st.lists(st.lists(st.integers(1, 24), min_size=n, max_size=n, unique=distinct),
                          min_size=rows, max_size=rows))
    statuses = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                             min_size=rows, max_size=rows))
    return np.array(times) / 8.0, np.array(statuses)


class TestSortedPrefix:
    # each row keeps its sorted prefix: every subject at or before t and
    # at least one past it, width = min(n, max_r #{times <= t} + 1).  The
    # horizons run from before the first time to past the last.

    @settings(max_examples=300, deadline=None)
    @given(knot_blocks(), st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
           horizons | st.just(math.inf))
    def test_equals_the_full_width_reference(self, block, causes, t):
        times, statuses = block
        got = _row_knots(times, statuses, causes, t)
        want = full_width_knots(times, statuses, causes, t)
        assert got[3].shape[1] == min(times.shape[1], np.sum(times <= t, axis=-1).max() + 1)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)

    @settings(max_examples=300, deadline=None)
    @given(knot_blocks(), st.integers(1, 3),
           st.lists(horizons, min_size=1, max_size=3, unique=True).map(sorted))
    def test_subjects_past_the_last_horizon_share_a_value(self, block, cause, taus):
        times, statuses = block
        values = _pooled_pseudo(times, statuses, cause, np.array(taus))
        for row, past in zip(values, times > taus[-1]):
            assert len({x.tobytes() for x in row[past]}) <= 1
