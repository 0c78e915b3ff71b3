import math

import numpy as np
import pytest

from cifpoint.data import build_event_table, event_table_from_arrays
from cifpoint.estimation import StepFunction, cif_at, cif_estimate, km_survival

from conftest import make_dataset, random_dataset

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
