import math

import numpy as np
import pytest

from cifpoint.data import build_event_table, event_table_from_arrays
from cifpoint.errors import NumericalError
from cifpoint.variance import (
    VarianceKind,
    aalen_variance,
    cif_variance,
    gaynor_variance,
    _clamped,
)

from conftest import random_dataset

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


class TestGuards:
    def test_clamp_tolerates_tiny_negative(self):
        assert _clamped(-1e-15, "test") == 0.0
        assert _clamped(0.5, "test") == 0.5

    def test_clamp_rejects_large_negative(self):
        with pytest.raises(NumericalError):
            _clamped(-1e-12, "test")

    def test_exhausted_risk_set_ok_when_nothing_follows(self):
        # the last subject fails: a-d hits 0 at the final knot, but no
        # later increment needs that factor, so both forms stay finite
        times = [1.0, 2.0, 3.0]
        statuses = [1, 2, 1]
        table = event_table_from_arrays(times, statuses, "g")
        for t in [2.5, 3.0, 9.0]:
            assert np.isfinite(aalen_variance(table, 1, t))
            assert np.isfinite(gaynor_variance(table, 1, t))
