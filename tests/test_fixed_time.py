import math

import numpy as np
import pytest

from cifpoint.data import build_event_table, event_table_from_arrays
from cifpoint.errors import NotEstimable, ZeroVariance
from cifpoint.fixed_time import (
    TransformKind,
    chi2_pvalue,
    inverse_transform,
    k_sample_test,
    pointwise_ci,
    transform,
    transform_variance,
    two_sample_test,
)
from cifpoint.variance import VarianceKind, gaynor_variance

from conftest import make_dataset

TOL = 1e-12
KINDS = list(TransformKind)


@pytest.fixture
def table_c():
    # knots (1, 2, 4), cause-1 events at 1 and 2: I1(3) = 0.4 with
    # Gaynor variance 0.048
    data = make_dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 2, 0])
    return build_event_table(data, "g")


class TestTransforms:
    def test_point_values(self):
        assert transform(0.37, TransformKind.LINEAR) == 0.37
        assert abs(transform(0.5, TransformKind.LOG) - math.log(0.5)) <= TOL
        assert abs(transform(math.exp(-1.0), TransformKind.LOGLOG)) <= TOL
        assert abs(transform(0.25, TransformKind.ARCSINE_SQRT) - math.pi / 6) <= TOL
        assert transform(0.5, TransformKind.LOGIT) == 0.0

    def test_log_defined_at_one(self):
        assert transform(1.0, TransformKind.LOG) == 0.0

    @pytest.mark.parametrize(
        "kind,bad",
        [
            (TransformKind.LOG, 0.0),
            (TransformKind.LOGLOG, 0.0),
            (TransformKind.LOGLOG, 1.0),
            (TransformKind.ARCSINE_SQRT, 0.0),
            (TransformKind.ARCSINE_SQRT, 1.0),
            (TransformKind.LOGIT, 0.0),
            (TransformKind.LOGIT, 1.0),
        ],
    )
    def test_out_of_domain(self, kind, bad):
        with pytest.raises(NotEstimable):
            transform(bad, kind)
        with pytest.raises(NotEstimable):
            transform_variance(bad, 0.01, kind)

    def test_linear_whole_interval(self):
        assert transform(0.0, TransformKind.LINEAR) == 0.0
        assert transform(1.0, TransformKind.LINEAR) == 1.0

    def test_round_trip(self):
        for kind in KINDS:
            for p in [0.05, 0.3, 0.66, 0.95]:
                assert abs(inverse_transform(transform(p, kind), kind) - p) <= TOL

    def test_variance_matches_finite_difference(self):
        # delta method: Var phi(I) ~ phi'(I)^2 v, checked against a
        # central difference
        v = 0.004
        h = 1e-6
        for kind in KINDS:
            for p in [0.1, 0.3, 0.66, 0.9]:
                slope = (transform(p + h, kind) - transform(p - h, kind)) / (2 * h)
                expected = slope * slope * v
                got = transform_variance(p, v, kind)
                assert abs(got - expected) <= 1e-6 * expected

    def test_loglog_reverses_order(self):
        assert transform(0.2, TransformKind.LOGLOG) > transform(0.4, TransformKind.LOGLOG)


class TestChiSquare:
    def test_frozen_point(self):
        assert abs(chi2_pvalue(3.841, 1) - 0.05001368376395671) <= 1e-12

    def test_df_two_closed_form(self):
        x = 4.468085106382978
        assert abs(chi2_pvalue(x, 2) - math.exp(-x / 2)) <= 1e-12

    def test_zero_statistic(self):
        assert chi2_pvalue(0.0, 1) == 1.0
        assert chi2_pvalue(0.0, 3) == 1.0


class TestTwoSample:
    def test_linear_gaynor_frozen(self, table_a, table_b):
        res = two_sample_test(table_a, table_b, 1, 3.0,
                              TransformKind.LINEAR, VarianceKind.GAYNOR)
        assert abs(res.statistic - 0.759493670886076) <= 1e-12
        assert abs(res.p_value - 0.38348702349872227) <= 1e-12
        assert res.df == 1
        assert res.method == "linear"
        assert res.variance == "gaynor"
        assert abs(res.effect - (7 / 15 - 0.2)) <= TOL

    def test_llog_gaynor_frozen(self, table_a, table_b):
        res = two_sample_test(table_a, table_b, 1, 3.0,
                              TransformKind.LOGLOG, VarianceKind.GAYNOR)
        assert abs(res.statistic - 0.7019343197852796) <= 1e-12
        assert abs(res.p_value - 0.40213449712168703) <= 1e-12

    def test_group_summaries(self, table_a, table_b):
        res = two_sample_test(table_a, table_b, 1, 3.0,
                              TransformKind.LINEAR, VarianceKind.GAYNOR)
        g1, g2 = res.groups
        assert abs(g1.estimate - 7 / 15) <= TOL
        assert abs(g1.variance - 208 / 3375) <= TOL
        assert abs(g2.estimate - 0.2) <= TOL
        assert abs(g2.variance - 4 / 125) <= TOL

    def test_identical_groups_statistic_exactly_zero(self, table_a):
        for kind in KINDS:
            res = two_sample_test(table_a, table_a, 1, 3.0, kind)
            assert res.statistic == 0.0
            assert res.p_value == 1.0

    def test_not_estimable_before_first_event(self, table_a, table_b):
        with pytest.raises(NotEstimable):
            two_sample_test(table_a, table_b, 1, 0.5, TransformKind.LOGLOG)

    def test_zero_variance_raised(self):
        # everyone in group 1 fails from cause 1 at t=1, everyone in
        # group 2 from cause 2: estimates 1 and 0 with zero variance
        t1 = event_table_from_arrays([1.0, 1.0, 1.0], [1, 1, 1], "p", causes=(1, 2))
        t2 = event_table_from_arrays([1.0, 1.0], [2, 2], "q", causes=(1, 2))
        with pytest.raises(ZeroVariance):
            two_sample_test(t1, t2, 1, 2.0, TransformKind.LINEAR)

    def test_degenerate_but_equal_groups(self):
        t1 = event_table_from_arrays([1.0, 1.0], [1, 1], "p")
        t2 = event_table_from_arrays([1.0, 1.0, 1.0], [1, 1, 1], "q")
        res = two_sample_test(t1, t2, 1, 2.0, TransformKind.LINEAR)
        assert res.statistic == 0.0
        assert res.p_value == 1.0


class TestKSample:
    def test_reduces_to_two_sample(self, table_a, table_b):
        for kind in KINDS:
            for variance in VarianceKind:
                try:
                    two = two_sample_test(table_a, table_b, 1, 3.0, kind, variance)
                except NotEstimable:
                    continue
                k = k_sample_test([table_a, table_b], 1, 3.0, kind, variance)
                assert abs(k.statistic - two.statistic) <= 1e-12
                assert k.df == 1

    def test_three_group_frozen(self, table_a, table_b, table_c):
        res = k_sample_test([table_a, table_b, table_c], 1, 3.0,
                            TransformKind.LINEAR, VarianceKind.GAYNOR)
        assert abs(res.statistic - 0.93108504398827) <= 1e-12
        assert abs(res.p_value - 0.6277944205026113) <= 1e-12
        assert res.df == 2
        assert len(res.groups) == 3

    def test_fixture_c_pieces(self, table_c):
        # cross-check the third group's hand-worked inputs
        from cifpoint.estimation import cif_estimate

        assert abs(cif_estimate(table_c, 1).at(3.0) - 0.4) <= TOL
        assert abs(gaynor_variance(table_c, 1, 3.0) - 0.048) <= TOL

    def test_identical_groups_zero(self, table_a):
        res = k_sample_test([table_a, table_a, table_a], 1, 3.0, TransformKind.LINEAR)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_needs_two_groups(self, table_a):
        with pytest.raises(ValueError):
            k_sample_test([table_a], 1, 3.0)


class TestNonFiniteTime:
    # NaN used to sort past every knot: two_sample_test answered with
    # statistic 0 and p = 1 on fixture-like data
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_two_sample(self, table_a, table_b, t):
        with pytest.raises(ValueError):
            two_sample_test(table_a, table_b, 1, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_k_sample(self, table_a, table_b, table_c, t):
        with pytest.raises(ValueError):
            k_sample_test([table_a, table_b, table_c], 1, t)

    @pytest.mark.parametrize("t", [math.nan, -math.inf])
    def test_pointwise_ci(self, table_a, t):
        with pytest.raises(ValueError):
            pointwise_ci(table_a, 1, t, TransformKind.LINEAR)


class TestPointwiseCi:
    def test_llog_formula_frozen(self):
        # hand-built interval around I=0.3 with transformed-scale
        # variance from v=0.002
        phi = math.log(-math.log(0.3))
        w = 0.002 / (0.3 * math.log(0.3)) ** 2
        z = 1.959963984540054
        lo = inverse_transform(phi + z * math.sqrt(w), TransformKind.LOGLOG)
        hi = inverse_transform(phi - z * math.sqrt(w), TransformKind.LOGLOG)
        assert abs(lo - 0.21553128479349384) <= 1e-12
        assert abs(hi - 0.38885512288114116) <= 1e-12

    def test_table_interval_consistent(self, table_a):
        est = 7 / 15
        v = 208 / 3375
        phi = math.log(-math.log(est))
        w = v / (est * math.log(est)) ** 2
        z = 1.959963984540054
        expected = sorted(
            inverse_transform(phi + s * z * math.sqrt(w), TransformKind.LOGLOG)
            for s in (-1.0, 1.0)
        )
        lo, hi = pointwise_ci(table_a, 1, 3.0, TransformKind.LOGLOG)
        assert abs(lo - expected[0]) <= 1e-12
        assert abs(hi - expected[1]) <= 1e-12
        assert lo < est < hi

    def test_linear_clipped_to_unit_interval(self):
        # tiny estimate with a wide interval clips at 0 on the linear
        # scale
        table = event_table_from_arrays(
            [1.0] + [2.0] * 9, [1] + [0] * 9, "g"
        )
        lo, hi = pointwise_ci(table, 1, 1.5, TransformKind.LINEAR)
        assert lo == 0.0
        assert hi <= 1.0

    def test_level_validation(self, table_a):
        with pytest.raises(ValueError):
            pointwise_ci(table_a, 1, 3.0, level=1.0)

    def test_wider_at_higher_level(self, table_a):
        lo95, hi95 = pointwise_ci(table_a, 1, 3.0, level=0.95)
        lo99, hi99 = pointwise_ci(table_a, 1, 3.0, level=0.99)
        assert lo99 < lo95 and hi99 > hi95

    def test_boundary_not_estimable(self, table_a):
        with pytest.raises(NotEstimable):
            pointwise_ci(table_a, 1, 0.5, TransformKind.LOGLOG)
