"""Release acceptance tests.

Each test here asserts one operational criterion: benchmark rejection
rates under the null, power against known alternatives, variance
estimator quality, deterministic identities, a closed-form GEE oracle,
the summary-model ordering of the twelve tests, and a best-effort
real-data significance pattern.  The Monte Carlo criteria run at
10000 replications with a fixed seed; the grid criterion runs the
full 40-scenario null grid at 1000 replications.

The rejection and exclusion counts of those 44 scenarios, and of a few
small cells that exclude for every reason, are pinned in
data/acceptance_counts.json.  A change that moves a count rewrites the
file with `PYTHONPATH=src python tests/test_acceptance.py` and explains
each move.
"""

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifpoint.data import build_event_table, event_table_from_arrays, parse_dataset
from cifpoint.estimation import cif_estimate, km_survival
from cifpoint.fixed_time import (
    TransformKind,
    k_sample_test,
    pointwise_ci,
    run_battery,
    transform,
    transform_variance,
    two_sample_test,
)
from cifpoint.pseudo import LinkKind, pseudo_test, pseudo_values
from cifpoint.anova import anova_summarize
from cifpoint.simulation import (
    TEST_IDS,
    Scenario,
    analytic_cif,
    results_to_json,
    run_scenario,
    sample_group,
    write_results_csv,
)
from cifpoint.variance import VarianceKind, aalen_variance, gaynor_variance

from conftest import group_columns, horizons, make_dataset, random_dataset, subject_columns

SEED = 20180612

# benchmark type I error rates at t=0.5, n1=n2=200, no censoring
BENCHMARK_NULL_200 = {
    "gaynor_linear": 0.050, "gaynor_log": 0.047, "gaynor_llog": 0.049,
    "gaynor_arcs": 0.050, "gaynor_logit": 0.048,
    "aalen_linear": 0.049, "aalen_log": 0.047, "aalen_llog": 0.049,
    "aalen_arcs": 0.049, "aalen_logit": 0.048,
    "pseudo_llog": 0.048, "pseudo_logit": 0.049,
}


def null_scenario(n1, n2, cen=0.0, reps=10000, beta=0.0):
    return Scenario(n1=n1, n2=n2, beta=beta, censor_fraction=cen,
                    t_fixed=0.5, reps=reps, master_seed=SEED)


NULL_200 = null_scenario(200, 200)
NULL_50 = null_scenario(50, 50)
POWER_EVEN = null_scenario(50, 50, beta=math.log(2.0))
POWER_UNEVEN = null_scenario(50, 100, cen=0.30, beta=math.log(1.5))
# the null grid of criterion 7
GRID = [Scenario(n1=n1, n2=n2, beta=0.0, censor_fraction=cen, t_fixed=t_fixed,
                 reps=1000, master_seed=SEED)
        for n1, n2 in [(50, 50), (150, 150), (200, 200), (50, 100), (100, 200)]
        for t_fixed in (0.5, 1.0)
        for cen in (0.0, 0.15, 0.30, 0.45)]
# small cells whose tests are excluded for each of the three reasons
EXCLUDING_CELLS = [Scenario(n1=n1, n2=n2, beta=0.0, censor_fraction=cen, t_fixed=t_fixed,
                            reps=500, master_seed=7)
                   for n1, n2, t_fixed, cen in [(5, 5, 3.0, 0.45), (5, 5, 0.1, 0.0),
                                                (25, 25, 0.1, 0.45), (50, 100, 3.0, 0.45)]]
COUNTS_FILE = pathlib.Path(__file__).parent / "data" / "acceptance_counts.json"


def counts(result):
    """A result's scenario and counts as the counts file holds them."""
    return {"scenario": dataclasses.asdict(result.scenario), "rejections": result.rejections,
            "excluded": result.excluded, "reasons": result.reasons}


@pytest.fixture(scope="module")
def null_200():
    start = time.monotonic()
    result = run_scenario(NULL_200)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def null_50():
    return run_scenario(NULL_50)


class TestCriterion1NullCalibration:
    def test_all_twelve_rates_match_benchmark(self, null_200):
        result, _ = null_200
        for test in TEST_IDS:
            rate = result.rate(test)
            ref = BENCHMARK_NULL_200[test]
            assert abs(rate - ref) <= 0.010, (
                f"{test}: rate {rate:.4f} vs benchmark {ref:.3f} "
                f"outside +/-0.010"
            )

    def test_runtime_target(self, null_200):
        _, seconds = null_200
        assert seconds < 600.0, f"10000 replications took {seconds:.0f}s"


class TestCriterion2SmallSampleNull:
    def test_log_conservative(self, null_50):
        rate = null_50.rate("gaynor_log")
        assert 0.029 <= rate <= 0.049, f"gaynor_log rate {rate:.4f}"

    def test_linear_anticonservative(self, null_50):
        rate = null_50.rate("gaynor_linear")
        assert 0.045 <= rate <= 0.065, f"gaynor_linear rate {rate:.4f}"


@pytest.fixture(scope="module")
def power_even():
    return run_scenario(POWER_EVEN)


@pytest.fixture(scope="module")
def power_uneven():
    return run_scenario(POWER_UNEVEN)


class TestCriterion3Power:
    def test_even_linear(self, power_even):
        rate = power_even.rate("gaynor_linear")
        assert abs(rate - 0.882) <= 0.020, f"gaynor_linear power {rate:.4f}"

    def test_even_llog(self, power_even):
        rate = power_even.rate("gaynor_llog")
        assert abs(rate - 0.881) <= 0.020, f"gaynor_llog power {rate:.4f}"

    def test_uneven_censored_llog(self, power_uneven):
        rate = power_uneven.rate("gaynor_llog")
        assert abs(rate - 0.485) <= 0.025, f"gaynor_llog power {rate:.4f}"


@pytest.fixture(scope="module")
def replications():
    true_i = analytic_cif(0.5, 1, 0.0, 0, 0.66)
    estimates = np.empty(10000)
    var_g = np.empty(10000)
    var_a = np.empty(10000)
    covered = 0
    for rep in range(10000):
        rng = np.random.Generator(np.random.Philox(key=[SEED, rep]))
        t, status = sample_group(50, 0.0, 0, 0.66, rng)
        table = event_table_from_arrays(t, status, "g")
        estimates[rep] = cif_estimate(table, 1).at(0.5)
        var_g[rep] = gaynor_variance(table, 1, 0.5)
        var_a[rep] = aalen_variance(table, 1, 0.5)
        lo, hi = pointwise_ci(table, 1, 0.5, TransformKind.LINEAR,
                              VarianceKind.GAYNOR)
        covered += lo <= true_i <= hi
    return estimates, var_g, var_a, covered / 10000


class TestCriterion4VarianceQuality:
    def test_gaynor_tracks_empirical_variance(self, replications):
        estimates, var_g, _, _ = replications
        empirical = float(np.var(estimates, ddof=1))
        ratio = float(var_g.mean()) / empirical
        assert abs(ratio - 1.0) <= 0.15, (
            f"mean Gaynor variance / empirical variance = {ratio:.4f}"
        )

    def test_aalen_dominates_gaynor(self, replications):
        _, var_g, var_a, _ = replications
        assert var_a.mean() >= var_g.mean(), (
            f"mean Aalen {var_a.mean():.6f} < mean Gaynor {var_g.mean():.6f}"
        )

    def test_linear_ci_coverage(self, replications):
        _, _, _, coverage = replications
        assert 0.93 <= coverage <= 0.97, f"95% CI coverage {coverage:.4f}"


class TestCriterion5ExactIdentities:
    def test_cause_curves_partition_failure_mass(self):
        rng = np.random.default_rng(SEED)
        t = rng.exponential(1.0, size=150)
        cause = rng.integers(1, 4, size=150)
        c = rng.uniform(0.0, 2.5, size=150)
        observed = np.minimum(t, c)
        status = np.where(t <= c, cause, 0)
        table = event_table_from_arrays(observed, status, "g")
        survival = km_survival(table)
        curves = [cif_estimate(table, k) for k in (1, 2, 3)]
        for knot in table.times:
            total = sum(curve.at(knot) for curve in curves)
            assert abs(total - (1.0 - survival.at(knot))) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(subject_columns(groups=("g",)))
    def test_cause_curves_partition_one_minus_km_on_random_tables(self, columns):
        table = event_table_from_arrays(columns[0], columns[1], "g")
        survival = km_survival(table)
        grid = np.arange(53) / 16.0
        total = sum(cif_estimate(table, k).at(grid) for k in (1, 2, 3))
        assert np.max(np.abs(total - (1.0 - survival.at(grid)))) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(subject_columns(), horizons,
           st.sampled_from([2.0**-6, 1e-3, 0.37, 3.0, 1e3]))
    def test_rescaling_time_changes_no_result(self, columns, t, scale):
        # the estimates and both variances depend on the times only
        # through their order and ties, which a common factor keeps
        times, statuses, labels = columns

        def battery(factor):
            data = make_dataset([factor * x for x in times], statuses, labels)
            return run_battery(group_columns(data), 1, factor * t)

        for base, scaled in zip(battery(1.0), battery(scale)):
            assert type(scaled.error) is type(base.error)
            if base.result is not None:
                assert dataclasses.replace(scaled.result, time=t) == base.result

    def test_uncensored_pseudo_values_are_indicators(self):
        rng = np.random.default_rng(SEED + 1)
        t = rng.exponential(1.0, size=100)
        cause = rng.integers(1, 3, size=100)
        data = make_dataset(t, cause)
        pv = pseudo_values(data, 1, [0.4, 0.9])
        for j, tau in enumerate([0.4, 0.9]):
            indicator = ((t <= tau) & (cause == 1)).astype(float)
            assert np.max(np.abs(pv.values[:, j] - indicator)) <= 1e-12

    def test_two_group_quadratic_form_reduces(self):
        rng = np.random.default_rng(SEED + 2)
        data = random_dataset(rng, 160)
        tables = [build_event_table(data, g) for g in data.groups]
        for kind in TransformKind:
            for variance in VarianceKind:
                two = two_sample_test(tables[0], tables[1], 1, 0.6, kind, variance)
                k = k_sample_test(tables, 1, 0.6, kind, variance)
                assert abs(k.statistic - two.statistic) <= 1e-12

    def test_transform_variance_matches_finite_difference(self):
        v = 0.003
        h = 1e-6
        for kind in TransformKind:
            for p in (0.05, 0.37, 0.5, 0.63, 0.95):
                slope = (transform(p + h, kind) - transform(p - h, kind)) / (2 * h)
                expected = slope * slope * v
                got = transform_variance(p, v, kind)
                assert abs(got - expected) <= 1e-6 * expected, (kind, p)

    def test_identical_groups_give_zero_statistics(self, table_a):
        for kind in TransformKind:
            res = two_sample_test(table_a, table_a, 1, 3.0, kind)
            assert res.statistic == 0.0

    def test_identical_groups_pseudo_statistic_vanishes(self):
        rng = np.random.default_rng(SEED + 3)
        t = rng.exponential(1.0, size=40)
        cause = rng.integers(1, 3, size=40)
        data = make_dataset(
            np.concatenate([t, t]),
            np.concatenate([cause, cause]),
            ["a"] * 40 + ["b"] * 40,
        )
        for link in LinkKind:
            res = pseudo_test(data, 1, 0.7, link)
            assert abs(res.statistic) <= 1e-12


class TestCriterion6GeeClosedForm:
    def test_saturated_wald_statistic(self):
        rng = np.random.default_rng(SEED + 4)
        n1, n0 = 35, 25
        t = rng.exponential(1.0, size=n1 + n0)
        cause = rng.integers(1, 3, size=n1 + n0)
        groups = ["a"] * n1 + ["b"] * n0
        data = make_dataset(t, cause, groups)
        tau = 0.8
        ind = ((t <= tau) & (cause == 1)).astype(float)
        m1, m0 = ind[:n1].mean(), ind[n1:].mean()
        v1 = float(np.mean((ind[:n1] - m1) ** 2))
        v0 = float(np.mean((ind[n1:] - m0) ** 2))

        links = {
            LinkKind.LOGIT: (
                lambda q: math.log(q / (1 - q)),
                lambda q: 1.0 / (q * (1 - q)),
            ),
            LinkKind.CLOGLOG: (
                lambda q: math.log(-math.log(1 - q)),
                lambda q: 1.0 / ((1 - q) * (-math.log(1 - q))),
            ),
        }
        for link, (g, dg) in links.items():
            effect = g(m1) - g(m0)
            var = dg(m1) ** 2 * v1 / n1 + dg(m0) ** 2 * v0 / n0
            expected = effect**2 / var
            res = pseudo_test(data, 1, tau, link)
            assert abs(res.statistic - expected) <= 1e-8, link
            assert abs(res.effect - effect) <= 1e-8, link


# benchmark model-4 marginal deviations (percent type I error minus 5)
BENCHMARK_MODEL4 = {
    "gaynor_linear": 0.315, "gaynor_log": -0.461, "gaynor_llog": -0.029,
    "gaynor_arcs": 0.164, "gaynor_logit": -0.167,
    "aalen_linear": 0.160, "aalen_log": -0.577, "aalen_llog": -0.177,
    "aalen_arcs": 0.015, "aalen_logit": -0.314,
    "pseudo_llog": -0.175, "pseudo_logit": -0.096,
}


@pytest.fixture(scope="module")
def null_grid():
    return [run_scenario(s) for s in GRID]


@pytest.fixture(scope="module")
def marginals(null_grid):
    table = anova_summarize(null_grid, response="type1", model=4)
    # in the balanced grid each test's marginal deviation is its
    # cell-mean coefficient plus the grid-average of the additive
    # adjustments, the same constant for all twelve tests
    coefs = table.effects("TEST")
    adjustments = []
    for res in null_grid:
        s = res.scenario
        shift = 0.0
        for factor, label in (("NUM1_NUM2", f"{s.n1}/{s.n2}"),
                              ("TIME", f"{s.t_fixed:g}"),
                              ("CEN", f"{s.censor_fraction:g}")):
            shift += table.effects(factor).get(label, 0.0)
        adjustments.append(shift)
    c = sum(adjustments) / len(adjustments)
    return {test: coefs[test] + c for test in TEST_IDS}


class TestCriterion7AnovaOrdering:
    def test_best_calibrated_tests_rank_first(self, marginals):
        ranked = sorted(TEST_IDS, key=lambda test: abs(marginals[test]))
        assert set(ranked[:2]) == {"gaynor_llog", "aalen_arcs"}, (
            f"closest-to-zero marginal deviations were {ranked[:2]} "
            f"({ {t: round(marginals[t], 3) for t in ranked} })"
        )

    def test_deviation_structure_tracks_benchmark(self, marginals):
        # the between-test contrasts are estimated from shared
        # replicates and are stable at 1000 reps even when the common
        # level is not; they should correlate strongly with the
        # benchmark row
        mine = np.array([marginals[t] for t in TEST_IDS])
        ref = np.array([BENCHMARK_MODEL4[t] for t in TEST_IDS])
        r = float(np.corrcoef(mine, ref)[0, 1])
        assert r >= 0.85, f"deviation-pattern correlation {r:.3f}"


# sha256 of the results written by results_to_json and write_results_csv
JSON_SHA256 = "25978ab36db153da97398232516afe8755db5746abdd5ad77179b8de51ea8b8d"
CSV_SHA256 = "1ff87b4eb8068a16409d7ef03208437d1930c58d4c9c45c9d85073c4327a4ec9"


class TestPinnedCounts:
    def test_counts_match_the_file(self, null_200, null_50, power_even, power_uneven,
                                   null_grid, tmp_path):
        results = [null_200[0], null_50, power_even, power_uneven, *null_grid,
                   *map(run_scenario, EXCLUDING_CELLS)]
        pinned = json.loads(COUNTS_FILE.read_text())
        assert len(pinned) == len(results)
        for result, expected in zip(results, pinned):
            assert counts(result) == expected
        # the output bytes of both formats
        assert hashlib.sha256(results_to_json(results).encode()).hexdigest() == JSON_SHA256
        write_results_csv(results, tmp_path / "results.csv")
        assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == CSV_SHA256


EBMT_ENV = "CIFPOINT_EBMT_CSV"


def ebmt_csv():
    override = os.environ.get(EBMT_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path(__file__).parent / "data" / "ebmt.csv"


class TestCriterion8RegistryPattern:
    def test_significance_pattern_at_fixed_days(self):
        path = ebmt_csv()
        if not path.exists():
            pytest.skip(
                f"registry extract not found at {path}; export a CSV with "
                f"columns time (days), status (0 censored, 1 death in "
                f"remission, 2 relapse) and group (mismatch/no_mismatch), "
                f"then place it there or point {EBMT_ENV} at it"
            )
        data = parse_dataset(path, "time", "status", "group")
        assert len(data.groups) == 2
        tables = [build_event_table(data, g) for g in data.groups]
        p_values = {}
        for day in (1000.0, 2000.0, 3000.0, 4000.0, 5000.0):
            res = two_sample_test(tables[0], tables[1], 1, day,
                                  TransformKind.LOGLOG, VarianceKind.GAYNOR)
            p_values[day] = res.p_value
        for day in (1000.0, 2000.0, 3000.0):
            assert p_values[day] >= 0.05, (
                f"expected non-significance at {day:g} days, p={p_values[day]:.4f}"
            )
        for day in (4000.0, 5000.0):
            assert p_values[day] < 0.05, (
                f"expected significance at {day:g} days, p={p_values[day]:.4f}"
            )


if __name__ == "__main__":
    cells = [NULL_200, NULL_50, POWER_EVEN, POWER_UNEVEN, *GRID, *EXCLUDING_CELLS]
    COUNTS_FILE.write_text(json.dumps([counts(run_scenario(s)) for s in cells], indent=1) + "\n")
