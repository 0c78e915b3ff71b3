import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cifpoint.data import EventTable, _row_knots, build_event_table, event_table_from_arrays
from cifpoint.errors import NotEstimable, NumericalError
from cifpoint.estimation import _aalen_johansen, _table_counts
from cifpoint.fixed_time import (TEST_METHODS, TransformKind, k_sample_test, pointwise_ci,
                                 run_battery)
from cifpoint.variance import (
    _ESTIMATORS,
    VarianceKind,
    _negative,
    _summaries,
    _variance,
    aalen_variance,
    cif_variance,
    gaynor_variance,
)

from conftest import FIXTURE_A, FIXTURE_B, horizons, random_dataset, subject_columns

TOL = 1e-12


class TestFrozenValues:
    def test_aalen_fixture_a(self, table_a):
        assert abs(aalen_variance(table_a, 1, 3.0) - 4 / 45) <= TOL

    def test_gaynor_fixture_a(self, table_a):
        assert abs(gaynor_variance(table_a, 1, 3.0) - 208 / 3375) <= TOL

    def test_aalen_fixture_b(self, table_b):
        assert abs(aalen_variance(table_b, 1, 3.0) - 17 / 400) <= TOL

    def test_gaynor_fixture_b(self, table_b):
        assert abs(gaynor_variance(table_b, 1, 3.0) - 4 / 125) <= TOL

    def test_single_knot_binomial(self):
        # 3 cause-1 failures at t=1 out of 10, everyone else fails
        # later: at t=1.5 the Gaynor form reduces to pq/n and the
        # Aalen form to the n/(n-1) inflated version
        times = [1.0] * 3 + [2.0] * 7
        statuses = [1] * 3 + [2] * 7
        table = event_table_from_arrays(times, statuses, "g")
        assert abs(gaynor_variance(table, 1, 1.5) - 0.021) <= TOL
        assert abs(aalen_variance(table, 1, 1.5) - 21 / 900) <= TOL


class TestShape:
    def test_zero_before_first_event(self, table_a):
        assert aalen_variance(table_a, 1, 0.5) == 0.0
        assert gaynor_variance(table_a, 1, 0.5) == 0.0

    def test_absent_cause_zero(self, table_a):
        assert aalen_variance(table_a, 9, 2.0) == 0.0
        assert gaynor_variance(table_a, 9, 2.0) == 0.0

    def test_piecewise_constant(self, table_a):
        for fn in (aalen_variance, gaynor_variance):
            assert fn(table_a, 1, 3.0) == fn(table_a, 1, 3.7)
            assert fn(table_a, 1, 4.0) == fn(table_a, 1, 50.0)

    def test_nonnegative_and_ordered(self):
        # the Aalen form dominates the Gaynor form in practice
        rng = np.random.default_rng(3)
        for _ in range(50):
            data = random_dataset(rng, 60, groups=("g",))
            table = build_event_table(data, "g")
            for t in [0.3, 0.8, 1.5]:
                g = gaynor_variance(table, 1, t)
                a = aalen_variance(table, 1, t)
                assert g >= 0.0
                assert a >= 0.0
                assert a >= g - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(subject_columns(groups=("g",)), st.integers(1, 3), horizons)
    def test_nonnegative_on_random_tables(self, columns, cause, t):
        table = event_table_from_arrays(columns[0], columns[1], "g", causes=(1, 2, 3))
        assert gaynor_variance(table, cause, t) >= 0.0
        assert aalen_variance(table, cause, t) >= 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [
        aalen_variance,
        gaynor_variance,
        lambda table, cause, t: cif_variance(table, cause, t, VarianceKind.AALEN),
    ], ids=["aalen", "gaynor", "dispatch"])
    def test_non_finite_time_rejected(self, table_a, fn, t):
        # NaN used to sort past every knot and answer with the last value
        with pytest.raises(ValueError):
            fn(table_a, 1, t)

    def test_dispatcher(self, table_a):
        assert cif_variance(table_a, 1, 3.0, VarianceKind.AALEN) == aalen_variance(table_a, 1, 3.0)
        assert cif_variance(table_a, 1, 3.0, VarianceKind.GAYNOR) == gaynor_variance(table_a, 1, 3.0)


def failure(kind, variance, i):
    """The type and message of the error row `i` of the `kind` variance
    `variance`, its (values, negative), raises, or None for a row that
    passes its check."""
    values, negative = variance
    return (NumericalError, _negative(kind, values[i])) if negative[i] else None


def row_counts(times, statuses, cause, t):
    """The packed (a, d, dk) of `cause` of each row of a block."""
    a, d, (dk,) = _row_knots(times, statuses, (cause,), t)[:3]
    return a, d, dk


class TestGuards:
    @staticmethod
    def rows_with_variances(monkeypatch, values):
        # one row of terms per value, the estimator made to return them
        monkeypatch.setitem(_ESTIMATORS, VarianceKind.AALEN, lambda terms: np.array(values))
        terms = [np.ones((len(values), 3))] * 5
        return _variance(VarianceKind.AALEN, terms)

    def test_clamp_tolerates_tiny_negative(self, monkeypatch):
        variance = self.rows_with_variances(monkeypatch, [-1e-15, 0.5, -0.0])
        assert variance[0].tolist() == [0.0, 0.5, -0.0]
        assert [failure(VarianceKind.AALEN, variance, i) for i in range(3)] == [None] * 3

    def test_clamp_rejects_large_negative(self, monkeypatch):
        # only the row below round-off fails, with its own value
        variance = self.rows_with_variances(monkeypatch, [0.5, -1e-12, -1e-15])
        assert [failure(VarianceKind.AALEN, variance, i) for i in range(3)] == \
            [None, (NumericalError, "aalen variance is negative: -1e-12"), None]
        assert variance[0][0] == 0.5 and variance[0][2] == 0.0

    def test_exhausted_risk_set_ok_when_nothing_follows(self):
        # the last subject fails: a-d hits 0 at the final knot, but no
        # later increment needs that factor, so both forms stay finite
        times = [1.0, 2.0, 3.0]
        statuses = [1, 2, 1]
        table = event_table_from_arrays(times, statuses, "g")
        for t in [2.5, 3.0, 9.0]:
            assert np.isfinite(aalen_variance(table, 1, t))
            assert np.isfinite(gaynor_variance(table, 1, t))


@st.composite
def knot_counts(draw):
    """An `EventTable` straight from counts: strictly decreasing at-risk
    counts from 12 down to as low as 1, failures from 1 to all at risk
    (an exhausted knot need not be the last), split over three causes.
    The table's checks allow a later knot to have more at risk than the
    survivors of the one before it.  The group holds the first knot's
    risk set or all the failures, whichever is more, and the rest of it
    is censored at the last knot."""
    a = sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=8)), reverse=True)
    d, split = [], {1: [], 2: [], 3: []}
    for n in a:
        d.append(draw(st.just(n) | st.just(1) | st.integers(1, n)))
        first = draw(st.integers(0, d[-1]))
        second = draw(st.integers(0, d[-1] - first))
        for k, count in zip(split, (first, second, d[-1] - first - second)):
            split[k].append(count)
    return EventTable(group="g", times=np.arange(1.0, len(a) + 1.0), at_risk=np.array(a),
                      events=np.array(d), cause_events={k: np.array(v) for k, v in split.items()},
                      censor_times=np.full(max(a[0] - sum(d), 0), float(len(a))),
                      size=max(a[0], sum(d)))


# R data sets of n subjects each, as (R, n) times on a grid of eighths
# and statuses censored or one of three causes; rows differ in their
# number of knots, and tied failures often exhaust a risk set
row_blocks = st.integers(1, 10).flatmap(lambda n: st.lists(
    st.lists(st.tuples(st.integers(1, 6).map(lambda k: k / 8.0), st.integers(0, 3)),
             min_size=n, max_size=n), min_size=1, max_size=5)).map(np.array)


def knot_terms(a, d, dk):
    """The estimators' terms from packed knot counts, as `_summaries`
    builds them."""
    s_prev, _, jumps = _aalen_johansen(a, d, dk)
    return a, d, dk, s_prev, jumps


class TestFinite:
    # no valid input reaches a zero denominator under a nonzero
    # numerator: both estimators are finite on every prefix of every
    # table and every packed row block, so a variance fails only by
    # being negative

    @settings(max_examples=300, deadline=None)
    @given(knot_counts())
    def test_every_table_prefix(self, table):
        for cause in (1, 2, 3):
            for j in range(1, table.times.size + 1):
                terms = knot_terms(*_table_counts(table, cause, table.times[j - 1]))
                for estimator in _ESTIMATORS.values():
                    assert np.all(np.isfinite(estimator(terms))), (cause, j)

    @settings(max_examples=300, deadline=None)
    @given(row_blocks, st.integers(1, 3), st.integers(1, 7).map(lambda k: k / 8.0))
    def test_every_row_block(self, block, cause, t):
        times, statuses = block[..., 0], block[..., 1].astype(int)
        terms = knot_terms(*row_counts(times, statuses, cause, t))
        for estimator in _ESTIMATORS.values():
            assert np.all(np.isfinite(estimator(terms)))


class TestNothingToVary:
    # no knot up to t, or a cause the table does not carry: the counts
    # have no cause-k failure after the empty knot, so the estimate and
    # variances are exactly 0 with no failing check

    @pytest.mark.parametrize("cause, t", [(1, 0.5), (9, 3.0)],
                             ids=["empty-prefix", "absent-cause"])
    def test_zero_estimate_and_variances(self, table_a, table_b, cause, t):
        estimate, variances = _summaries(*_table_counts(table_a, cause, t), tuple(VarianceKind))
        assert estimate.tolist() == [0.0]
        for kind in VarianceKind:
            assert variances[kind][0].tolist() == [0.0]
            assert failure(kind, variances[kind], 0) is None
            v = cif_variance(table_a, cause, t, kind)
            assert v == 0.0 and math.copysign(1.0, v) == 1.0
            assert pointwise_ci(table_a, cause, t, TransformKind.LINEAR, kind) == (0.0, 0.0)
            res = k_sample_test((table_a, table_b), cause, t, TransformKind.LINEAR, kind)
            assert (res.statistic, res.p_value) == (0.0, 1.0)
            assert [(g.estimate, g.variance) for g in res.groups] == [(0.0, 0.0)] * 2
            with pytest.raises(NotEstimable, match="undefined at estimate 0.0"):
                k_sample_test((table_a, table_b), cause, t, TransformKind.LOGLOG, kind)
            with pytest.raises(NotEstimable, match="undefined at estimate 0.0"):
                pointwise_ci(table_a, cause, t, TransformKind.LOGIT, kind)


# R >= 2 data sets of n subjects each, one subject a code 0..95 for a
# time on a grid of eighths up to 3 (code // 4) and a status censored or
# one of three causes (code % 4): up to 24 knots a row, so that rows
# padded to the block's widest run past eight knots, with tied failures
# of mixed causes
tied_blocks = st.tuples(st.integers(2, 4), st.integers(16, 32)).flatmap(
    lambda shape: hnp.arrays(np.int64, shape, elements=st.integers(0, 95), fill=st.nothing()))


def bits(x):
    """The float64 bit patterns of `x`, which tell -0.0 from 0.0 and
    match a NaN with itself."""
    return np.asarray(x, dtype=float).view(np.int64).tolist()


class TestBlockRows:
    # a block pads each row with empty knots, all at risk and no events,
    # which add exact zeros to sums run in knot order: each row's
    # estimate, variances and checks are those of its own counts, bit
    # for bit, however many knots the block's other rows have

    @settings(max_examples=200, deadline=None)
    @given(tied_blocks, st.integers(1, 3), st.integers(1, 25).map(lambda k: k / 8.0))
    def test_each_row_equals_its_own_counts(self, block, cause, t):
        times, statuses = (block // 4 + 1) / 8.0, block % 4
        estimate, variances = _summaries(*row_counts(times, statuses, cause, t), tuple(VarianceKind))
        for r in range(times.shape[0]):
            own_estimate, own = _summaries(*row_counts(times[r:r + 1], statuses[r:r + 1],
                                                       cause, t), tuple(VarianceKind))
            assert bits(estimate[r]) == bits(own_estimate[0])
            for kind in VarianceKind:
                assert bits(variances[kind][0][r]) == bits(own[kind][0][0]), (kind, r)
                assert failure(kind, variances[kind], r) == failure(kind, own[kind], 0)


class TestOneEstimator:
    # a table function, and a battery of one estimator's tests, computes
    # only the estimator it returns: the other one made to fail changes
    # nothing

    @pytest.mark.parametrize("kind", list(VarianceKind))
    def test_other_estimator_never_runs(self, monkeypatch, table_a, table_b, kind):
        tests = [test for test, (_, v) in TEST_METHODS.items() if v == kind.value]

        def calls():
            return (cif_variance(table_a, 1, 3.0, kind),
                    pointwise_ci(table_a, 1, 3.0, TransformKind.LOGLOG, kind),
                    k_sample_test((table_a, table_b), 1, 3.0, TransformKind.LOG, kind),
                    run_battery([("a", *FIXTURE_A), ("b", *FIXTURE_B)], 1, 3.0, tests))

        def fail(terms):
            raise AssertionError("the other estimator ran")

        want = calls()
        other, = set(VarianceKind) - {kind}
        monkeypatch.setitem(_ESTIMATORS, other, fail)
        assert calls() == want
