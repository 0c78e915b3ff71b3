import concurrent.futures
import csv
import json
import math
import os
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cifpoint.fixed_time
import cifpoint.simulation
import cifpoint.variance
from cifpoint.data import Dataset, SubjectRecord, event_table_from_arrays
from cifpoint.errors import (
    CifPointError,
    NumericalError,
    UnreachableTarget,
)
from cifpoint.estimation import cif_at, cif_estimate
from cifpoint.fixed_time import (
    _SCALES,
    TEST_METHODS,
    TransformKind,
    k_sample_test,
    pointwise_ci,
    run_battery,
    transform,
)
from cifpoint.pseudo import LinkKind, _pooled_pseudo, pseudo_test, pseudo_values
from cifpoint.simulation import (
    TEST_IDS,
    Scenario,
    analytic_cif,
    analytic_survival,
    calibrate_censoring,
    parse_scenarios,
    read_results_csv,
    results_to_json,
    run_scenario,
    sample_group,
    write_results_csv,
    _battery_rows,
    _chi2_critical,
    _expected_censored,
    _run_block,
    _sample_block,
)
from cifpoint.variance import VarianceKind, cif_variance

from conftest import group_columns, horizons, make_dataset, subject_columns


def quad_censored(bound, beta, w2, p=0.66):
    """P(C < T) for C uniform on (0, bound), by numerical integration
    of the mixture survival."""
    def survival(t):
        return ((1.0 - w2) * analytic_survival(t, beta, 0, p)
                + w2 * analytic_survival(t, beta, 1, p))

    return quad(survival, 0.0, bound, limit=200)[0] / bound


def tiny(reps=30, **kw):
    base = dict(n1=40, n2=40, beta=0.0, censor_fraction=0.0, t_fixed=0.5,
                reps=reps, master_seed=99)
    base.update(kw)
    return Scenario(**base)


class TestModel:
    def test_cause_probabilities_sum_to_one(self):
        for beta, z, p in [(0.0, 0, 0.66), (math.log(2), 1, 0.66),
                           (math.log(1.5), 1, 0.4), (-0.3, 1, 0.8)]:
            i1 = analytic_cif(1e9, 1, beta, z, p)
            i2 = analytic_cif(1e9, 2, beta, z, p)
            assert abs(i1 + i2 - 1.0) <= 1e-12

    def test_subdistributions_partition_failure_mass(self):
        for t in [0.2, 0.5, 1.0, 3.0]:
            total = (analytic_cif(t, 1, math.log(2), 1, 0.66)
                     + analytic_cif(t, 2, math.log(2), 1, 0.66))
            assert abs(total - (1.0 - analytic_survival(t, math.log(2), 1, 0.66))) <= 1e-12

    def test_baseline_cause_share(self):
        # at beta=0 the cause-1 fraction is exactly p
        assert abs(analytic_cif(1e9, 1, 0.0, 0, 0.66) - 0.66) <= 1e-12

    def test_null_time_half_value(self):
        expected = 0.66 * (1.0 - math.exp(-0.5))
        assert abs(analytic_cif(0.5, 1, 0.7, 0, 0.66) - expected) <= 1e-12

    def test_empirical_matches_analytic(self):
        rng = np.random.default_rng(2024)
        n = 200000
        t, status = sample_group(n, math.log(2), 1, 0.66, rng)
        emp = np.mean((t <= 0.5) & (status == 1))
        target = analytic_cif(0.5, 1, math.log(2), 1, 0.66)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(emp - target) <= 3 * se

    def test_empirical_survival(self):
        rng = np.random.default_rng(2025)
        n = 200000
        t, _ = sample_group(n, math.log(1.5), 1, 0.66, rng)
        emp = np.mean(t > 0.5)
        target = analytic_survival(0.5, math.log(1.5), 1, 0.66)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(emp - target) <= 3 * se

    def test_statuses_are_one_or_two_without_censoring(self):
        rng = np.random.default_rng(1)
        _, status = sample_group(500, 0.0, 0, 0.66, rng)
        assert set(np.unique(status)) <= {1, 2}

    def test_censoring_produces_zeros(self):
        rng = np.random.default_rng(1)
        _, status = sample_group(500, 0.0, 0, 0.66, rng, censor_bound=1.0)
        assert 0 in set(np.unique(status))


class TestCensoringCalibration:
    def test_target_zero_is_uncensored(self):
        assert calibrate_censoring(0.0, 0.66, (1.0, 1.0), 0.0) == math.inf

    def test_empirical_fraction(self):
        b = calibrate_censoring(0.0, 0.66, (1.0, 1.0), 0.30)
        rng = np.random.default_rng(77)
        _, status = sample_group(200000, 0.0, 0, 0.66, rng, censor_bound=b)
        frac = np.mean(status == 0)
        assert 0.29 <= frac <= 0.31

    def test_mixture_weights(self):
        # an all-z=1 mixture under beta=log 2 fails faster, so the same
        # censored fraction needs a tighter bound
        b_fast = calibrate_censoring(math.log(2), 0.66, (0.0, 1.0), 0.30)
        b_slow = calibrate_censoring(math.log(2), 0.66, (1.0, 0.0), 0.30)
        assert b_fast < b_slow

    def test_monotone_in_target(self):
        b15 = calibrate_censoring(0.0, 0.66, (1.0, 1.0), 0.15)
        b45 = calibrate_censoring(0.0, 0.66, (1.0, 1.0), 0.45)
        assert b45 < b15

    def test_bad_target(self):
        with pytest.raises(ValueError):
            calibrate_censoring(0.0, 0.66, (1.0, 1.0), 1.0)

    @pytest.mark.parametrize("weights", [(0, 0), (1, -2), (math.nan, 1), (1.0, math.inf),
                                         (0.0, -0.0)])
    def test_bad_weights(self, weights):
        # (0, 0) used to divide by zero, (1, -2) to return a bound, and
        # (nan, 1) to raise UnreachableTarget
        with pytest.raises(ValueError) as info:
            calibrate_censoring(0.0, 0.66, weights, 0.3)
        assert str(info.value) == (
            f"weights must be finite and >= 0 with a positive sum, got {weights!r}")

    @pytest.mark.parametrize("beta", [0.0, math.log(1.5), math.log(2.0), -0.7])
    @pytest.mark.parametrize("w2", [0.0, 1.0, 1.0 / 3.0, 0.5])
    def test_expected_censored_matches_quadrature(self, beta, w2):
        for bound in (1e-3, 0.3, 1.0, 4.2, 60.0):
            assert _expected_censored(bound, beta, w2) == pytest.approx(
                quad_censored(bound, beta, w2), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, math.log(1.5), math.log(2.0)])
    @pytest.mark.parametrize("weights", [(1.0, 1.0), (50, 100), (1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("target", [0.15, 0.30, 0.45, 0.8])
    def test_calibration_hits_target_by_quadrature(self, beta, weights, target):
        # pooled and per-group weights; the quadrature is the oracle
        b = calibrate_censoring(beta, 0.66, weights, target)
        w2 = weights[1] / (weights[0] + weights[1])
        assert abs(quad_censored(b, beta, w2) - target) <= 1e-4


class TestScenario:
    def test_shr_property(self):
        assert abs(tiny(beta=math.log(1.5)).shr - 1.5) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny(n1=1)
        with pytest.raises(ValueError):
            tiny(censor_fraction=1.0)
        with pytest.raises(ValueError):
            tiny(p=0.0)
        for bad in (0, 2**63):
            with pytest.raises(ValueError, match=r"^reps must be in \[1, 2\*\*63\), got "):
                tiny(reps=bad)
        for bad in (math.nan, 0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="^time must be finite and positive, got "):
                tiny(t_fixed=bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                tiny(beta=bad)
        with pytest.raises(ValueError, match="master_seed"):
            tiny(master_seed=-1)

    @pytest.mark.parametrize("name", ["n1", "n2", "reps", "master_seed"])
    def test_counts_and_seed_are_integers(self, name):
        # a float seed would run as its integer part and go to a results
        # file that cannot be read back; float sizes and replication
        # counts would end in numpy or range tracebacks
        for bad in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
                tiny(**{name: bad})
        # numpy integers are stored as int: results_to_json used to raise
        # "Object of type int64 is not JSON serializable" on them
        s = tiny(**{name: np.int64(3)})
        assert type(getattr(s, name)) is int and s == tiny(**{name: 3})
        results_to_json([run_scenario(s)])


class TestRunScenario:
    def test_deterministic(self):
        a = run_scenario(tiny())
        b = run_scenario(tiny())
        assert a.rejections == b.rejections
        assert a.excluded == b.excluded

    def test_all_tests_reported(self):
        res = run_scenario(tiny())
        assert set(res.rejections) == set(TEST_IDS)
        assert set(res.excluded) == set(TEST_IDS)
        for test in TEST_IDS:
            assert 0 <= res.rejections[test] <= res.valid(test)

    def test_parallel_matches_serial(self):
        serial = run_scenario(tiny())
        parallel = run_scenario(tiny(), workers=2)
        assert serial.rejections == parallel.rejections
        assert serial.excluded == parallel.excluded

    @pytest.mark.parametrize("cpus,pools", [(3, [3]), (None, [])])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus, pools):
        # the pool starts all its workers at the first submit, so a large
        # `workers` must not reach it; the fake pool records its size and
        # runs the blocks in this process
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, blocks):
                return map(fn, blocks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        capped = run_scenario(tiny(), workers=64)
        assert sizes == pools
        serial = run_scenario(tiny())
        assert (capped.rejections, capped.reasons) == (serial.rejections, serial.reasons)

    def test_seed_changes_results(self):
        a = run_scenario(tiny(reps=200))
        b = run_scenario(tiny(reps=200, master_seed=100))
        assert a.rejections != b.rejections

    def test_exclusions_counted(self):
        # at t=0.02 most replications have no cause-1 event yet, so the
        # log-family transforms and the pseudo fits drop out while the
        # linear test stays defined
        res = run_scenario(tiny(n1=6, n2=6, t_fixed=0.02, reps=200))
        assert res.excluded["gaynor_llog"] > 0
        assert res.excluded["pseudo_llog"] > 0
        assert res.valid("gaynor_llog") == 200 - res.excluded["gaynor_llog"]
        assert res.excluded["gaynor_linear"] <= res.excluded["gaynor_llog"]

    def test_rate_handles_zero_valid(self):
        res = run_scenario(tiny(n1=4, n2=4, t_fixed=0.001, reps=5))
        if res.valid("gaynor_llog") == 0:
            assert math.isnan(res.rate("gaynor_llog"))

    def test_label_swap_distribution(self):
        # under the null the groups are exchangeable, so swapping the
        # sizes leaves each rejection rate unchanged up to Monte Carlo
        # noise
        a = run_scenario(tiny(n1=60, n2=30, reps=600))
        b = run_scenario(tiny(n1=30, n2=60, reps=600))
        for test in ("gaynor_linear", "gaynor_llog", "aalen_arcs"):
            assert abs(a.rate(test) - b.rate(test)) < 0.05

    @settings(max_examples=100, deadline=None)
    @given(subject_columns(), horizons)
    def test_label_swap_flips_each_effect(self, columns, t):
        # swapping the two groups keeps every statistic and exclusion and
        # flips the sign of each effect
        groups = group_columns(make_dataset(*columns))
        ahead = run_battery(groups, 1, t)
        swapped = run_battery(groups[::-1], 1, t)
        for a, b in zip(ahead, swapped):
            assert type(b.error) is type(a.error)
            if a.result is None:
                continue
            assert (b.result.statistic, b.result.p_value) == (a.result.statistic, a.result.p_value)
            assert b.result.effect == -a.result.effect
            assert b.result.groups == a.result.groups[::-1]

    def test_power_monotone_in_shr(self):
        lo = run_scenario(tiny(beta=math.log(1.5), n1=50, n2=50, reps=400))
        hi = run_scenario(tiny(beta=math.log(2.0), n1=50, n2=50, reps=400))
        assert hi.rate("gaynor_linear") > lo.rate("gaynor_linear")

    def test_negative_variance_stops_the_run(self, monkeypatch):
        # one replication's Aalen variance below round-off is a fault,
        # not an exclusion
        def negative_in_row_3(terms):
            values = np.full(terms[0].shape[:-1], 0.01)
            values[3] = -1e-9
            return values

        monkeypatch.setitem(cifpoint.variance._ESTIMATORS, VarianceKind.AALEN, negative_in_row_3)
        with pytest.raises(NumericalError, match="aalen variance is negative: -1e-09"):
            run_scenario(tiny(reps=20))

    def test_per_group_censoring_runs(self):
        res = run_scenario(tiny(censor_fraction=0.3, reps=50), per_group_censoring=True)
        assert set(res.rejections) == set(TEST_IDS)


def draw(seed, n1, n2, censor_bound):
    """Two simulated groups: the (label, times, statuses) the battery
    takes, their event tables, and the same subjects as a Dataset."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    groups = (("1", *sample_group(n1, 0.3, 0, 0.66, rng, censor_bound)),
              ("2", *sample_group(n2, 0.3, 1, 0.66, rng, censor_bound)))
    tables = tuple(event_table_from_arrays(ts, ss, g, (1, 2)) for g, ts, ss in groups)
    data = Dataset(tuple(SubjectRecord(float(t), int(st), g)
                         for g, ts, ss in groups
                         for t, st in zip(ts, ss)))
    return groups, tables, data


def public_call(test, tables, data, t):
    """The one public call that runs `test` on its own."""
    method, variance = TEST_METHODS[test]
    if variance is None:
        link = LinkKind.CLOGLOG if method == "pseudo-llog" else LinkKind.LOGIT
        return pseudo_test(data, 1, t, link)
    return k_sample_test(tables, 1, t, TransformKind(method), VarianceKind(variance))


def pooled_dataset(groups):
    """The subjects of (label, times, statuses) groups as one Dataset,
    in group order."""
    return Dataset.from_columns(np.concatenate([ts for _, ts, _ in groups]),
                                np.concatenate([ss for _, _, ss in groups]),
                                [g for g, ts, _ in groups for _ in ts])


def assert_battery_matches_public_calls(groups, tables, data, t):
    """Every outcome equals its public call bit for bit, or the public
    call raises the same error; returns the error types seen."""
    outcomes = run_battery(groups, 1, t)
    assert [o.test for o in outcomes] == list(TEST_IDS)
    seen = set()
    for o in outcomes:
        assert (o.method, o.variance) == TEST_METHODS[o.test]
        if o.error is None:
            assert public_call(o.test, tables, data, t) == o.result
        else:
            with pytest.raises(type(o.error)) as info:
                public_call(o.test, tables, data, t)
            assert str(info.value) == str(o.error)
            seen.add(type(o.error).__name__)
    return seen


# three or four groups of one to eight subjects each, as (time, status)
# lists with times on a grid of eighths and statuses censored or one of
# three causes
k_groups = st.lists(st.lists(st.tuples(st.integers(1, 24).map(lambda k: k / 8.0),
                                       st.integers(0, 3)), min_size=1, max_size=8),
                    min_size=3, max_size=4)
# estimates 1, 1 and 0 with zero variances at t=0.25: a singular contrast
# covariance on the identity scale, and estimates outside the log's and
# the log-log's domains
SINGULAR_AND_UNDEFINED = ([[(0.125, 1)], [(0.125, 1)], [(0.125, 0)]], 0.25, False)
# the first group's estimate is 0 at t=0.25 after a cause-2 failure, so
# its Aalen variance (made negative) and its log transform both fail
VARIANCE_BEFORE_DOMAIN = ([[(0.125, 2), (0.5, 1)], [(0.125, 1), (0.25, 0)],
                           [(0.125, 1), (0.375, 1)]], 0.25, True)


def negative_aalen(terms):
    """-1 for every row with a failure by its horizon, 0 elsewhere."""
    return np.where(terms[1].sum(axis=-1) > 0, -1.0, 0.0)


def assert_k_groups_match_public_calls(subjects, t, aalen_negative):
    """Each test of `run_battery` on three or more groups equals
    `k_sample_test` or `pseudo_test`, or both raise the same error, and
    for each transform test each group's `pointwise_ci` raises its
    variance's error, else its estimate's domain error, else gives an
    interval.  With `aalen_negative` every Aalen variance with a failure
    behind it is -1.  Returns the (type name, message) of every error
    seen."""
    groups = [(str(g), np.array([x for x, _ in rows]), np.array([s for _, s in rows]))
              for g, rows in enumerate(subjects)]
    tables = [event_table_from_arrays(ts, ss, g, (1, 2, 3)) for g, ts, ss in groups]
    data = pooled_dataset(groups)
    patch = {VarianceKind.AALEN: negative_aalen} if aalen_negative else {}
    seen = set()
    with mock.patch.dict(cifpoint.variance._ESTIMATORS, patch):
        for o in run_battery(groups, 1, t):
            if o.error is None:
                assert public_call(o.test, tables, data, t) == o.result
                assert o.result.df == len(groups) - 1
            else:
                with pytest.raises(type(o.error)) as info:
                    public_call(o.test, tables, data, t)
                assert str(info.value) == str(o.error)
                seen.add((type(o.error).__name__, str(o.error)))
            if o.variance is None:
                continue
            kind, variance = TransformKind(o.method), VarianceKind(o.variance)
            for table in tables:
                try:
                    cif_variance(table, 1, t, variance)
                    transform(float(cif_at(cif_estimate(table, 1), t)), kind)
                except CifPointError as exc:
                    with pytest.raises(type(exc)) as info:
                        pointwise_ci(table, 1, t, kind, variance)
                    assert str(info.value) == str(exc)
                    seen.add((type(exc).__name__, str(exc)))
                else:
                    low, high = pointwise_ci(table, 1, t, kind, variance)
                    assert 0.0 <= low <= high <= 1.0
    return seen


class TestBattery:
    @pytest.mark.parametrize("seed, n1, n2, bound, t", [
        (1, 40, 40, 2.0, 0.5),
        (2, 25, 60, 1.0, 1.0),
        (3, 6, 6, math.inf, 0.05),
        (4, 5, 230, 3.0, 0.5),
        (5, 3, 3, 1.5, 0.3),
    ])
    def test_matches_public_calls(self, seed, n1, n2, bound, t):
        assert_battery_matches_public_calls(*draw(seed, n1, n2, bound), t)

    def test_exclusions_match_public_calls(self):
        # early horizons on small groups: a transform undefined at 0 and
        # a group with no cause-1 event so far, seen across 60 draws
        seen = set()
        for seed in range(60):
            seen |= assert_battery_matches_public_calls(*draw(seed, 6, 6, 1.0), 0.08)
        assert {"NotEstimable", "SeparationDetected"} <= seen

    def test_negative_variance_excludes_only_its_tests(self, monkeypatch):
        # a negative Aalen variance fails the five tests that use it, and
        # the public calls raise the same errors
        monkeypatch.setitem(cifpoint.variance._ESTIMATORS, VarianceKind.AALEN, negative_aalen)
        groups, tables, data = draw(1, 40, 40, 2.0)
        seen = assert_battery_matches_public_calls(groups, tables, data, 0.5)
        assert seen == {"NumericalError"}
        failed = {o.test: type(o.error) for o in run_battery(groups, 1, 0.5) if o.error}
        assert failed == {t: NumericalError for t in TEST_IDS if t.startswith("aalen_")}

    def test_selected_tests_in_battery_order(self):
        groups, _, _ = draw(1, 40, 40, 2.0)
        full = run_battery(groups, 1, 0.5)
        picked = run_battery(groups, 1, 0.5, ["pseudo_logit", "gaynor_log"])
        assert [o.test for o in picked] == ["gaynor_log", "pseudo_logit"]
        assert [o.result for o in picked] == [full[1].result, full[11].result]

    def test_more_groups_use_the_quadratic_form(self):
        groups, _, _ = draw(1, 40, 40, 2.0)
        _, times, statuses = draw(2, 30, 30, 2.0)[0][1]
        groups = (*groups, ("3", times, statuses))
        tables = [event_table_from_arrays(ts, ss, g) for g, ts, ss in groups]
        data = pooled_dataset(groups)
        outcomes = run_battery(groups, 1, 0.5)
        assert [o.test for o in outcomes] == list(TEST_IDS)
        for o in outcomes:
            assert o.result == public_call(o.test, tables, data, 0.5)
            assert (o.result.df, o.result.effect) == (2, None)

    @settings(max_examples=150, deadline=None)
    @given(k_groups, horizons, st.booleans())
    @example(*SINGULAR_AND_UNDEFINED)
    @example(*VARIANCE_BEFORE_DOMAIN)
    def test_more_groups_match_k_sample_test_or_its_error(self, subjects, t, aalen_negative):
        assert_k_groups_match_public_calls(subjects, t, aalen_negative)

    def test_k_group_examples_reach_every_check(self):
        messages = (assert_k_groups_match_public_calls(*SINGULAR_AND_UNDEFINED)
                    | assert_k_groups_match_public_calls(*VARIANCE_BEFORE_DOMAIN))
        assert ("NotEstimable", "transform 'log' is undefined at estimate 0.0") in messages
        assert ("ZeroVariance", "groups differ at t=0.25 but the contrast covariance is "
                                "singular") in messages
        # the estimate 0 at t=0.25 is outside the log's domain too, but
        # the variance is checked first
        assert ("NumericalError", "aalen variance is negative: -1.0") in messages
        assert ("NotEstimable", "transform 'llog' is undefined at estimate 0.0") in messages

    def test_argument_validation(self):
        groups, _, _ = draw(1, 40, 40, 2.0)
        with pytest.raises(ValueError):
            run_battery(groups, 1, 0.5, ["gaynor_probit"])
        with pytest.raises(ValueError):
            run_battery(groups[:1], 1, 0.5, tests=TEST_IDS[:10])

    @pytest.mark.parametrize("cause", [0, -1])
    def test_censoring_code_is_not_a_cause(self, cause):
        groups, _, _ = draw(1, 40, 40, 2.0)
        with pytest.raises(ValueError, match="cause"):
            run_battery(groups, cause, 0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        groups, _, _ = draw(1, 40, 40, 2.0)
        with pytest.raises(ValueError):
            run_battery(groups, 1, t)
        with pytest.raises(ValueError):
            run_battery(groups, 1, t, ["pseudo_llog"])


def public_outcomes(groups, t):
    """Each test's (result, error) from its public call on one data set
    of two or more groups, with the data set's pooled pseudo-values."""
    tables = tuple(event_table_from_arrays(ts, ss, g, (1,)) for g, ts, ss in groups)
    data = pooled_dataset(groups)
    outcomes = {}
    for test in TEST_IDS:
        try:
            outcomes[test] = public_call(test, tables, data, t), None
        except CifPointError as exc:
            outcomes[test] = None, exc
    return outcomes, pseudo_values(data, 1, [t]).values[:, 0]


@st.composite
def row_blocks(draw):
    """R data sets of two to four groups, as (label, times, statuses)
    with (R, n_g) rows, with times on a grid of eighths (ties, and
    censorings at failure times) and a horizon on a grid of sixteenths,
    from before the first failure to past the last."""
    rows = draw(st.integers(1, 6))

    def group():
        n = draw(st.integers(2, 10))
        times = draw(st.lists(st.lists(st.integers(1, 16), min_size=n, max_size=n),
                              min_size=rows, max_size=rows))
        statuses = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                                 min_size=rows, max_size=rows))
        return np.array(times) / 8.0, np.array(statuses)

    groups = [(str(g), *group()) for g in range(1, draw(st.integers(2, 4)) + 1)]
    return groups, draw(st.integers(1, 36)) / 16.0


class TestScaleSteps:
    """The K groups' estimates go onto each scale once per call, whatever
    the number of groups and of tests of that scale."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(fn, name, kind):
            def wrapper(p):
                calls[name, kind] += 1
                return fn(p)
            return wrapper

        for kind, scale in list(_SCALES.items()):
            phi, divisor = counted(scale.phi, "phi", kind), counted(scale.divisor, "divisor", kind)
            monkeypatch.setitem(_SCALES, kind, scale._replace(phi=phi, divisor=divisor))
        return calls

    def test_battery(self, calls, monkeypatch):
        # five scales and two links (on the llog and logit scales), 7 of
        # each in all: both groups and both variances of a scale share its
        # phi and divisor, and one Wald step serves all twelve tests
        rng = np.random.default_rng(7)
        groups = [(label, rng.uniform(0.1, 2.0, (4, 9)), rng.integers(0, 3, (4, 9)))
                  for label in ("a", "b")]
        walds = []

        def counted(phi, w):
            walds.append(phi.shape)
            return wald(phi, w)

        wald = cifpoint.fixed_time._wald
        monkeypatch.setattr(cifpoint.fixed_time, "_wald", counted)
        _battery_rows(groups, 1, 1.0)
        links = (TransformKind.LOGLOG, TransformKind.LOGIT)
        assert calls == {(name, kind): 2 if kind in links else 1
                         for name in ("phi", "divisor") for kind in TransformKind}
        assert walds == [(len(TEST_IDS), 2, 4)]

    @pytest.mark.parametrize("variance", list(VarianceKind))
    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_k_sample_test_evaluates_only_its_own_scale(self, calls, kind, variance):
        tables = [event_table_from_arrays([1.0, 2.0, 3.0, 4.0], [1, 0, 2, 1], label)
                  for label in ("a", "b", "c")]
        k_sample_test(tables, 1, 3.5, kind, variance)
        assert calls == {("phi", kind): 1, ("divisor", kind): 1}


class TestEngine:
    """The battery over (R, n) rows, against the public tests row by row."""

    @settings(max_examples=150, deadline=None)
    @given(row_blocks())
    def test_rows_match_public_tests(self, block):
        groups, t = block
        labels = [label for label, _, _ in groups]
        columns = _battery_rows(groups, 1, t)
        assert [part.test for part in columns.parts] == list(TEST_IDS)
        theta = _pooled_pseudo(np.concatenate([ts for _, ts, _ in groups], axis=-1),
                               np.concatenate([ss for _, _, ss in groups], axis=-1),
                               1, np.array([t]))[..., 0]
        for r in range(theta.shape[0]):
            row = [(label, times[r], statuses[r]) for label, times, statuses in groups]
            public, pseudo = public_outcomes(row, t)
            assert np.array_equal(theta[r], pseudo)
            for j, test in enumerate(part.test for part in columns.parts):
                want, error = public[test]
                try:
                    got, got_error = columns.result(j, r, labels, 1), None
                except CifPointError as exc:
                    got, got_error = None, exc
                assert type(got_error) is type(error), (test, r, got_error, error)
                assert got == want, (test, r)
                assert str(got_error) == str(error), (test, r)

    @settings(max_examples=150, deadline=None)
    @given(row_blocks(), st.sampled_from([0.05, 0.5]))
    def test_block_counts_match_the_per_test_loop(self, block, alpha):
        # the engine counts all tests of a block at once; the oracle
        # takes one test at a time, finds each row's first failing check
        # by a loop over the checks and counts them with a bincount
        groups, t = block
        s = tiny(n1=2, n2=2, t_fixed=t, alpha=alpha, reps=groups[0][1].shape[0])
        with mock.patch.object(cifpoint.simulation, "_sample_block", return_value=groups):
            try:
                got = _run_block((s, 0, s.reps, None))
            except CifPointError as exc:
                got = exc
        tests = _battery_rows(groups, 1, t)
        # one row per test: rejections, then exclusions by reason, then
        # exclusions of no recorded reason, which the engine never has
        excluding = cifpoint.fixed_time._EXCLUDING
        want = np.zeros((len(TEST_IDS), len(excluding) + 2), dtype=np.int64)
        try:
            for j, test in enumerate(part.test for part in tests.parts):
                row = TEST_IDS.index(test)
                checks = tests.fails[j]
                first = np.full(checks.shape[-1], -1)
                for k in reversed(range(len(checks))):
                    first[checks[k]] = k
                hits = np.bincount(first + 1, minlength=len(checks) + 1)[1:].tolist()
                for k, n in enumerate(hits):
                    error = tests.errors[j][k]
                    if not n:
                        continue
                    if error not in excluding:
                        raise error(tests.message(j, k, int(np.argmax(first == k))))
                    want[row, 1 + excluding.index(error)] += n
                statistic = tests.statistic[j][first < 0]
                want[row, 0] = np.count_nonzero(statistic >= _chi2_critical(alpha))
        except CifPointError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            return
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bounds", [(1.3, 1.3), (0.9, 2.2), (math.inf, math.inf)],
                             ids=["shared", "per-group", "uncensored"])
    def test_block_sampler_equals_sample_group(self, bounds):
        s = tiny(n1=7, n2=11, beta=0.4, reps=30, master_seed=5)
        (_, times1, statuses1), (_, times2, statuses2) = _sample_block(s, 4, 30, bounds)
        for row, rep in enumerate(range(4, 30)):
            rng = np.random.Generator(np.random.Philox(key=[5, rep]))
            for times, statuses, (n, z, bound) in ((times1, statuses1, (7, 0, bounds[0])),
                                                   (times2, statuses2, (11, 1, bounds[1]))):
                want_times, want_statuses = sample_group(n, 0.4, z, 0.66, rng, bound)
                assert np.array_equal(times[row], want_times)
                assert np.array_equal(statuses[row], want_statuses)

    def test_seeds_past_2_63_keep_their_own_streams(self):
        # a list key went through float64: seeds 2**63 and 2**63 + 1
        # shared one stream, and 2**64 - 1 ran as seed 0 with a warning
        seeds = (0, 2**63, 2**63 + 1, 2**64 - 1)
        draws = set()
        for seed in seeds:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                groups = _sample_block(tiny(n1=4, n2=5, reps=3, master_seed=seed), 0, 3,
                                       (1.0, 1.0))
            for rep in range(3):
                key = np.array([seed, rep], dtype=np.uint64)
                rng = np.random.Generator(np.random.Philox(key=key))
                for (_, times, statuses), (n, z) in zip(groups, ((4, 0), (5, 1))):
                    want_times, want_statuses = sample_group(n, 0.0, z, 0.66, rng, 1.0)
                    assert np.array_equal(times[rep], want_times)
                    assert np.array_equal(statuses[rep], want_statuses)
            draws.add(np.concatenate([times for _, times, _ in groups], axis=-1).tobytes())
        assert len(draws) == len(seeds)

    @pytest.mark.parametrize("start, seed", [(0, 99), (7, 2**63 - 1), (2**40, 5)])
    def test_block_streams_equal_one_stream_per_replication(self, monkeypatch, start, seed):
        # the engine re-keys one generator per block; the oracle is a
        # fresh Philox(key=[seed, rep]) per replication, over blocks of
        # three replications cut from a range that starts at `start`
        s = tiny(n1=4, n2=5, beta=0.2, reps=20, master_seed=seed)
        monkeypatch.setattr(cifpoint.simulation, "_BLOCK_CELLS", 3 * (s.n1 + s.n2))
        blocks = []

        def recording(*args):
            blocks.append((*args[1:3], _sample_block(*args)))
            return blocks[-1][2]

        monkeypatch.setattr(cifpoint.simulation, "_sample_block", recording)
        _run_block((s, start, start + 10, (1.0, 1.0)))
        assert [block[:2] for block in blocks] == [
            (start + a, start + min(a + 3, 10)) for a in range(0, 10, 3)]
        for first, stop, groups in blocks:
            for row, rep in enumerate(range(first, stop)):
                rng = np.random.Generator(np.random.Philox(key=[seed, rep]))
                for (_, times, statuses), (n, z) in zip(groups, ((4, 0), (5, 1))):
                    want_times, want_statuses = sample_group(n, 0.2, z, 0.66, rng, 1.0)
                    assert np.array_equal(times[row], want_times)
                    assert np.array_equal(statuses[row], want_statuses)

    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_valid_row_outside_the_chi2_domain_raises(self, monkeypatch, value):
        # rejection compares statistics with a cached critical value; a
        # valid row's statistic that chi2_pvalue refuses still stops the run
        def corrupted(*args):
            rows = _battery_rows(*args)
            rows.statistic[TEST_IDS.index("aalen_arcs"), 3] = value
            return rows

        s = tiny(reps=10)
        assert run_scenario(s).excluded["aalen_arcs"] == 0
        monkeypatch.setattr(cifpoint.simulation, "_battery_rows", corrupted)
        with pytest.raises(ValueError, match=f"statistic must be >= 0, got {value!r}"):
            _run_block((s, 0, s.reps, (math.inf, math.inf)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=3), st.integers(1, 8))
    def test_any_split_gives_the_same_counts(self, cuts, block):
        # the range cut at `cuts` and run in blocks of `block`
        # replications, so that cuts fall inside and across blocks; at
        # alpha 0.5 the cell both rejects and excludes
        s = tiny(n1=6, n2=6, t_fixed=0.08, alpha=0.5, reps=40)
        bounds = (1.0, 1.0)
        whole = _run_block((s, 0, s.reps, bounds))
        assert whole[:, 0].any() and whole[:, 1:-1].any()
        edges = [0, *sorted(cuts), s.reps]
        with mock.patch.object(cifpoint.simulation, "_BLOCK_CELLS", block * (s.n1 + s.n2)):
            parts = [_run_block((s, a, b, bounds)) for a, b in zip(edges[:-1], edges[1:])]
        assert np.array_equal(sum(parts), whole)

    @pytest.mark.parametrize("n, t", [(6, 0.08), (25, 0.1)])
    def test_reasons_match_public_replay(self, n, t):
        s = Scenario(n1=n, n2=n, beta=0.0, censor_fraction=0.3, t_fixed=t, reps=150,
                     master_seed=20180612)
        bound = calibrate_censoring(s.beta, s.p, (n, n), s.censor_fraction)
        want = {}
        for rep in range(s.reps):
            rng = np.random.Generator(np.random.Philox(key=[s.master_seed, rep]))
            groups = [("1", *sample_group(n, s.beta, 0, s.p, rng, bound)),
                      ("2", *sample_group(n, s.beta, 1, s.p, rng, bound))]
            for test, (_, error) in public_outcomes(groups, t)[0].items():
                if error is not None:
                    want.setdefault(test, Counter())[type(error).__name__] += 1
        res = run_scenario(s)
        assert res.reasons == {test: dict(counts) for test, counts in want.items()}
        assert res.excluded == {test: sum(want.get(test, {}).values()) for test in TEST_IDS}
        assert {"NotEstimable", "SeparationDetected"} <= set().union(*res.reasons.values())


class TestScenarioFile:
    def test_cross_product(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            "# a comment\n"
            "sizes = 50/50, 100/200\n"
            "times = 0.5, 1.0\n"
            "censoring = 0, 0.30\n"
            "shr = 1.5\n"
            "reps = 100\n"
            "seed = 7\n"
        )
        scenarios = parse_scenarios(path)
        assert len(scenarios) == 8
        s = scenarios[0]
        assert (s.n1, s.n2, s.t_fixed, s.censor_fraction) == (50, 50, 0.5, 0.0)
        assert abs(s.shr - 1.5) <= 1e-12
        assert s.reps == 100 and s.master_seed == 7
        # censoring varies fastest, then times, then sizes
        assert scenarios[1].censor_fraction == 0.30
        assert scenarios[2].t_fixed == 1.0
        assert scenarios[4].n1 == 100

    def test_defaults(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("sizes = 50/50\ntimes = 0.5\n")
        (s,) = parse_scenarios(path)
        assert s.beta == 0.0
        assert s.p == 0.66
        assert s.reps == 10000

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("sizes = 50/50\ntimes = 0.5\nbogus = 1\n")
        with pytest.raises(CifPointError, match="bogus"):
            parse_scenarios(path)

    def test_shr_and_beta_conflict(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("sizes = 50/50\ntimes = 0.5\nshr = 1.5\nbeta = 0.4\n")
        with pytest.raises(CifPointError):
            parse_scenarios(path)

    def test_missing_sizes(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("times = 0.5\n")
        with pytest.raises(CifPointError):
            parse_scenarios(path)

    def test_bad_size_pair(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("sizes = 50\ntimes = 0.5\n")
        with pytest.raises(CifPointError, match="n1/n2"):
            parse_scenarios(path)

    @pytest.mark.parametrize("line, key, value", [
        ("sizes = 5/5, 5/5", "sizes", "5/5"),
        ("times = 0.5, .5", "times", ".5"),
        ("shr = 2, 2.0", "shr", "2.0"),
        ("censoring = 0.1, 0.3, 0.10", "censoring", "0.10"),
    ])
    def test_repeated_value(self, tmp_path, line, key, value):
        # the grid used to expand into identical scenarios, whose results
        # file read_results_csv then refused as repeating a test
        path = tmp_path / "grid.cfg"
        lines = {"sizes": "sizes = 5/5", "times": "times = 0.5", key: line}
        path.write_text("\n".join(lines.values()) + "\n")
        with pytest.raises(CifPointError) as info:
            parse_scenarios(path)
        assert str(info.value) == f"{path}: key {key!r}: repeated value {value!r}"

    @pytest.mark.parametrize("line", ["sizes =", "times =", "censoring =", "shr =", "beta = ,"])
    def test_key_without_values(self, tmp_path, line):
        # the grid used to expand into no scenarios, and simulate wrote a
        # results file of only a header
        key = line.split(" = ")[0].strip(" =")
        path = tmp_path / "grid.cfg"
        lines = {"sizes": "sizes = 5/5", "times": "times = 0.5", key: line}
        path.write_text("\n".join(lines.values()) + "\n")
        with pytest.raises(CifPointError) as info:
            parse_scenarios(path)
        assert str(info.value) == f"{path}: key {key!r}: no values"


class TestResultsIo:
    @pytest.fixture
    def results(self):
        return [run_scenario(tiny(reps=40)), run_scenario(tiny(reps=40, beta=0.3))]

    def test_csv_round_trip(self, results, tmp_path):
        path = tmp_path / "res.csv"
        write_results_csv(results, path)
        back = read_results_csv(path)
        assert len(back) == 2
        for orig, got in zip(results, back):
            assert got.scenario == orig.scenario
            assert got.rejections == orig.rejections
            assert got.excluded == orig.excluded

    def test_beta_read_back_exactly(self, tmp_path):
        # log(exp(-0.98)) is -0.9799999999999999: the file used to carry
        # only shr, so the read scenario missed beta by an ulp
        results = [run_scenario(tiny(reps=20, beta=-0.98))]
        path = tmp_path / "res.csv"
        write_results_csv(results, path)
        assert read_results_csv(path) == results

    def test_file_without_beta_reads_log_shr(self, tmp_path):
        path = tmp_path / "res.csv"
        write_results_csv([run_scenario(tiny(reps=20, beta=0.3))], path)
        with open(path, newline="") as fh:
            rows = [row[:-1] for row in csv.reader(fh)]
        assert rows[0][-1] == "excluded"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        (back,) = read_results_csv(path)
        assert back.scenario.beta == math.log(math.exp(0.3))

    @pytest.mark.parametrize("column, value", [("rejections", "-3"), ("excluded", "-1"),
                                               ("rejections", "90")])
    def test_read_rejects_impossible_counts(self, tmp_path, column, value):
        # used to be read as is, and summarize-anova printed the rates
        path = tmp_path / "res.csv"
        write_results_csv([run_scenario(tiny(reps=20))], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[4][column] = value
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        with pytest.raises(CifPointError, match=f"n1=40.*test '{rows[4]['test']}'"):
            read_results_csv(path)

    def test_read_rejects_a_short_row(self, results, tmp_path):
        # the missing fields read as None, which raised a TypeError
        path = tmp_path / "res.csv"
        write_results_csv(results[:1], path)
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:12])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CifPointError, match="bad row"):
            read_results_csv(path)

    def test_json_structure(self, results):
        doc = json.loads(results_to_json(results))
        assert len(doc) == 2
        entry = doc[0]
        assert entry["scenario"]["n1"] == 40
        assert set(entry["tests"]) == set(TEST_IDS)
        one = entry["tests"]["gaynor_llog"]
        assert {"rejections", "valid", "rate", "excluded", "reasons"} <= set(one)

    def test_reasons_reported_in_json_and_not_in_csv(self, tmp_path):
        res = run_scenario(tiny(n1=6, n2=6, t_fixed=0.08, reps=100))
        assert res.reasons
        doc = json.loads(results_to_json([res]))
        assert {test: entry["reasons"] for test, entry in doc[0]["tests"].items()
                if entry["reasons"]} == res.reasons
        path = tmp_path / "res.csv"
        write_results_csv([res], path)
        (back,) = read_results_csv(path)
        assert back.reasons == {}
        assert back.excluded == res.excluded
        # the reasons take no part in equality
        assert back == res
        assert hash(back) == hash(res)

    def test_read_rejects_a_file_without_results(self, tmp_path):
        # summarize-anova used to fail on it with a ValueError
        path = tmp_path / "res.csv"
        write_results_csv([], path)
        with pytest.raises(CifPointError) as info:
            read_results_csv(path)
        assert str(info.value) == f"{path}: no results"

    def test_read_rejects_incomplete(self, results, tmp_path):
        path = tmp_path / "res.csv"
        write_results_csv(results[:1], path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(CifPointError):
            read_results_csv(path)
