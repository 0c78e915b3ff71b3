import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cifpoint.data import _row_knots, build_event_table, event_table_from_arrays
from cifpoint.estimation import (
    StepFunction,
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
