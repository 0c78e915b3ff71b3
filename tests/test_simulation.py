import json
import math

import numpy as np
import pytest

import cifpoint.variance
from cifpoint.data import Dataset, SubjectRecord, event_table_from_arrays
from cifpoint.errors import CifPointError, DegenerateRiskSet, UnreachableTarget
from cifpoint.fixed_time import TransformKind, k_sample_test, two_sample_test
from cifpoint.pseudo import LinkKind, pseudo_test
from cifpoint.simulation import (
    TEST_IDS,
    TEST_METHODS,
    Scenario,
    analytic_cif,
    analytic_survival,
    calibrate_censoring,
    parse_scenarios,
    read_results_csv,
    results_to_json,
    run_battery,
    run_scenario,
    sample_group,
    write_results_csv,
)
from cifpoint.variance import VarianceKind


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
        with pytest.raises(ValueError):
            tiny(reps=0)


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

    def test_power_monotone_in_shr(self):
        lo = run_scenario(tiny(beta=math.log(1.5), n1=50, n2=50, reps=400))
        hi = run_scenario(tiny(beta=math.log(2.0), n1=50, n2=50, reps=400))
        assert hi.rate("gaynor_linear") > lo.rate("gaynor_linear")

    def test_degenerate_variance_excluded_not_fatal(self, monkeypatch):
        def degenerate(terms):
            raise DegenerateRiskSet("aalen squared term: zero denominator")

        monkeypatch.setitem(cifpoint.variance._ESTIMATORS, VarianceKind.AALEN, degenerate)
        res = run_scenario(tiny(reps=20))
        for test in TEST_IDS:
            assert res.excluded[test] == (20 if test.startswith("aalen_") else 0)

    def test_per_group_censoring_runs(self):
        res = run_scenario(tiny(censor_fraction=0.3, reps=50), per_group_censoring=True)
        assert set(res.rejections) == set(TEST_IDS)


def draw(seed, n1, n2, censor_bound):
    """Two simulated groups: their event tables, the pooled arrays the
    battery takes, and the same subjects as a Dataset."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    t1, s1 = sample_group(n1, 0.3, 0, 0.66, rng, censor_bound)
    t2, s2 = sample_group(n2, 0.3, 1, 0.66, rng, censor_bound)
    tables = (event_table_from_arrays(t1, s1, "1", (1, 2)),
              event_table_from_arrays(t2, s2, "2", (1, 2)))
    pooled = (np.concatenate((t1, t2)), np.concatenate((s1, s2)),
              np.concatenate((np.ones(n1), np.zeros(n2))))
    data = Dataset(tuple(SubjectRecord(float(t), int(st), g)
                         for ts, ss, g in ((t1, s1, "1"), (t2, s2, "2"))
                         for t, st in zip(ts, ss)))
    return tables, pooled, data


def public_call(test, tables, data, t):
    """The one public call that runs `test` on its own."""
    method, variance = TEST_METHODS[test]
    if variance is None:
        link = LinkKind.CLOGLOG if method == "pseudo-llog" else LinkKind.LOGIT
        return pseudo_test(data, 1, t, link)
    return two_sample_test(*tables, 1, t, TransformKind(method), VarianceKind(variance))


def assert_battery_matches_public_calls(tables, pooled, data, t):
    """Every outcome equals its public call bit for bit, or the public
    call raises the same error; returns the error types seen."""
    outcomes = run_battery(tables, 1, t, pooled)
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


class TestBattery:
    @pytest.mark.parametrize("seed, n1, n2, bound, t", [
        (1, 40, 40, 2.0, 0.5),
        (2, 25, 60, 1.0, 1.0),
        (3, 6, 6, math.inf, 0.05),
        (4, 5, 230, 3.0, 0.5),
        (5, 3, 3, 1.5, 0.3),
    ])
    def test_matches_public_calls(self, seed, n1, n2, bound, t):
        tables, pooled, data = draw(seed, n1, n2, bound)
        assert_battery_matches_public_calls(tables, pooled, data, t)

    def test_exclusions_match_public_calls(self):
        # early horizons on small groups: a transform undefined at 0 and
        # a group with no cause-1 event so far, seen across 60 draws
        seen = set()
        for seed in range(60):
            tables, pooled, data = draw(seed, 6, 6, 1.0)
            seen |= assert_battery_matches_public_calls(tables, pooled, data, 0.08)
        assert {"NotEstimable", "SeparationDetected"} <= seen

    def test_degenerate_variance_excludes_only_its_tests(self, monkeypatch):
        # a valid event table cannot reach the zero denominators (the
        # saturation that would divide by zero leaves every later jump
        # 0), so the Aalen estimator is made to raise here
        def degenerate(terms):
            raise DegenerateRiskSet("aalen squared term: zero denominator")

        monkeypatch.setitem(cifpoint.variance._ESTIMATORS, VarianceKind.AALEN, degenerate)
        tables, pooled, data = draw(1, 40, 40, 2.0)
        seen = assert_battery_matches_public_calls(tables, pooled, data, 0.5)
        assert seen == {"DegenerateRiskSet"}
        excluded = {o.test for o in run_battery(tables, 1, 0.5, pooled) if o.error}
        assert excluded == {t for t in TEST_IDS if t.startswith("aalen_")}

    def test_selected_tests_in_battery_order(self):
        tables, pooled, _ = draw(1, 40, 40, 2.0)
        full = run_battery(tables, 1, 0.5, pooled)
        picked = run_battery(tables, 1, 0.5, pooled, ["pseudo_logit", "gaynor_log"])
        assert [o.test for o in picked] == ["gaynor_log", "pseudo_logit"]
        assert [o.result for o in picked] == [full[1].result, full[11].result]

    def test_transform_tests_without_pooled_subjects(self):
        tables, _, _ = draw(1, 40, 40, 2.0)
        outcomes = run_battery(tables, 1, 0.5, tests=TEST_IDS[:10])
        assert all(o.error is None for o in outcomes)
        with pytest.raises(ValueError):
            run_battery(tables, 1, 0.5)

    def test_more_groups_use_the_quadratic_form(self):
        tables, _, _ = draw(1, 40, 40, 2.0)
        third = draw(2, 30, 30, 2.0)[0][1]
        tables = (*tables, third)
        for o in run_battery(tables, 1, 0.5, tests=TEST_IDS[:10]):
            method, variance = TEST_METHODS[o.test]
            assert o.result == k_sample_test(tables, 1, 0.5, TransformKind(method),
                                             VarianceKind(variance))
        with pytest.raises(ValueError):
            run_battery(tables, 1, 0.5, (np.ones(3), np.ones(3), np.ones(3)))

    def test_argument_validation(self):
        tables, pooled, _ = draw(1, 40, 40, 2.0)
        with pytest.raises(ValueError):
            run_battery(tables, 1, 0.5, pooled, ["gaynor_probit"])
        with pytest.raises(ValueError):
            run_battery(tables[:1], 1, 0.5, tests=TEST_IDS[:10])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        tables, pooled, _ = draw(1, 40, 40, 2.0)
        with pytest.raises(ValueError):
            run_battery(tables, 1, t, pooled)
        with pytest.raises(ValueError):
            run_battery(tables, 1, t, pooled, ["pseudo_llog"])


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
            # the file stores shr, so beta only survives to within one
            # exp/log round trip
            assert math.isclose(got.scenario.beta, orig.scenario.beta,
                                rel_tol=0.0, abs_tol=1e-15)
            rest = ("n1", "n2", "censor_fraction", "t_fixed", "p",
                    "alpha", "reps", "master_seed")
            for field in rest:
                assert getattr(got.scenario, field) == getattr(orig.scenario, field)
            assert got.rejections == orig.rejections
            assert got.excluded == orig.excluded

    def test_json_structure(self, results):
        doc = json.loads(results_to_json(results))
        assert len(doc) == 2
        entry = doc[0]
        assert entry["scenario"]["n1"] == 40
        assert set(entry["tests"]) == set(TEST_IDS)
        one = entry["tests"]["gaynor_llog"]
        assert {"rejections", "valid", "rate", "excluded"} <= set(one)

    def test_read_rejects_incomplete(self, results, tmp_path):
        path = tmp_path / "res.csv"
        write_results_csv(results[:1], path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(CifPointError):
            read_results_csv(path)
