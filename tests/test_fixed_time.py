import math
import struct
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, ndtri

from cifpoint.data import build_event_table, event_table_from_arrays
from cifpoint.errors import NotEstimable, ZeroVariance
from cifpoint.fixed_time import (
    _SCALES,
    TransformKind,
    _scaled,
    _wald,
    chi2_pvalue,
    inverse_transform,
    k_sample_test,
    pointwise_ci,
    transform,
    transform_variance,
    two_sample_test,
)
from cifpoint.simulation import _chi2_critical
from cifpoint.variance import VarianceKind, gaynor_variance

from conftest import NEAR_ONE_ROWS, horizons, make_dataset, subject_columns

TOL = 1e-12
KINDS = list(TransformKind)


class Ops(NamedTuple):
    """The elementary functions an if-chain is written in, and the type
    of number it evaluates them on."""

    number: Callable
    log: Callable
    sqrt: Callable
    asin: Callable
    exp: Callable
    sin: Callable
    square: Callable
    clip: Callable
    minimum: Callable


NUMPY = Ops(np.float64, np.log, np.sqrt, np.arcsin, np.exp, np.sin, np.square, np.clip, np.minimum)
MATH = Ops(float, math.log, math.sqrt, math.asin, math.exp, math.sin, lambda x: x**2,
           lambda y, low, high: min(high, max(low, y)), min)


# The five-way if-chains that the scale table replaced.  On numpy's
# functions and an np.float64, as the table is evaluated, they are the
# reference it must match bit for bit; on math's, as they were first
# written, a second reference it must match to within rounding.
def chain_domain(p, kind):
    if p <= 0.0 or p >= 1.0:
        raise NotEstimable(f"transform {kind.value!r} is undefined at estimate {p!r}")


def chain_transform(p, kind, ops=NUMPY):
    if kind is TransformKind.LINEAR:
        return ops.number(p)
    if kind is TransformKind.LOG:
        if p <= 0.0:
            raise NotEstimable(f"transform 'log' is undefined at estimate {p!r}")
        return ops.log(ops.number(p))
    chain_domain(p, kind)
    p = ops.number(p)
    if kind is TransformKind.LOGLOG:
        return ops.log(-ops.log(p))
    if kind is TransformKind.ARCSINE_SQRT:
        return ops.asin(ops.sqrt(p))
    return ops.log(p / (1.0 - p))


def chain_transform_variance(p, v, kind, ops=NUMPY):
    if v < 0.0:
        raise ValueError(f"variance must be >= 0, got {v!r}")
    if kind is TransformKind.LINEAR:
        return ops.number(v)
    if kind is TransformKind.LOG:
        if p <= 0.0:
            raise NotEstimable(f"transform 'log' is undefined at estimate {p!r}")
        return v / ops.square(ops.number(p))
    chain_domain(p, kind)
    p = ops.number(p)
    if kind is TransformKind.LOGLOG:
        return v / ops.square(p * ops.log(p))
    if kind is TransformKind.ARCSINE_SQRT:
        return v / (4.0 * p * (1.0 - p))
    return v / ops.square(p * (1.0 - p))


def chain_inverse_transform(y, kind, ops=NUMPY):
    y = ops.number(y)
    if kind is TransformKind.LINEAR:
        return ops.clip(y, 0.0, 1.0)
    if kind is TransformKind.LOG:
        return ops.minimum(1.0, ops.exp(y))
    if kind is TransformKind.LOGLOG:
        return ops.exp(-ops.exp(y))
    if kind is TransformKind.ARCSINE_SQRT:
        return ops.square(ops.sin(ops.clip(y, 0.0, math.pi / 2.0)))
    return 1.0 / (1.0 + ops.exp(-y))


def outcome(fn, *args):
    """The bits of fn's value, or the type and message of its error.
    numpy's exp overflowing and a divisor underflowing give inf, as in
    the package; math's raise."""
    try:
        with np.errstate(over="ignore", divide="ignore"):
            return struct.pack("<d", fn(*args))
    except (NotEstimable, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


EPS = sys.float_info.epsilon
# numpy's and math's log, exp, asin and sin are each taken to be within
# 2 ulp of the true value, so at one argument the two differ by at most
# ULPS * EPS relative.  Each bound below follows that through a
# transform's formula; a correctly rounded step on arguments that
# already differ can add EPS.
ULPS = 4.0


def phi_bound(phi):
    # log(-log p): the inner log's relative difference passes through
    # the outer log as an absolute one of the same size
    return ULPS * EPS * (1.0 + abs(phi))


def variance_bound(w):
    # only the log(-log) divisor (p log p)^2 holds a log: its relative
    # difference, one more for the product, doubled by the square, and
    # one each for the square and the quotient
    return (2.0 * (ULPS + 1.0) + 2.0) * EPS * abs(w)


def inverse_bound(kind, y, want):
    # exp(-exp(y)): the inner exp's relative difference becomes an
    # absolute one of e^y times its size in the outer exponent; sin(c)^2
    # doubles sin's and rounds once, which bounds the others too
    if kind is TransformKind.LOGLOG:
        rel = ULPS * (1.0 + math.exp(y))
    else:
        rel = 2.0 * ULPS + 1.0
    # a result below the normal range rounds to a multiple of 2^-1074
    return rel * EPS * want + 2.0**-1074


def boundary_draws(seed):
    """Estimates on, near and between the ends of [0, 1], some outside
    it; variances; and working-scale values reaching past where exp
    overflows."""
    rng = np.random.default_rng(seed)
    ps = np.concatenate((
        rng.random(2000), 10.0 ** -rng.uniform(1.0, 320.0, 500),
        1.0 - 10.0 ** -rng.uniform(1.0, 17.0, 500), rng.uniform(-1.0, 2.0, 200),
        [0.0, -0.0, 1.0, 5e-324, 2.0**-1022, 1.0 - 2.0**-53, 1.0 + 2.0**-52, -1e-300],
    )).tolist()
    vs = np.concatenate((rng.exponential(0.01, len(ps) - 3), [0.0, 1e-300, -1e-3])).tolist()
    ys = np.concatenate((
        rng.normal(0.0, 5.0, 2000), rng.uniform(-800.0, 800.0, 2000),
        [0.0, -0.0, 709.78, -709.78, 709.79, -709.79, 1e308, -1e308, 6.6e7, -6.6e7],
    )).tolist()
    return ps, vs, ys


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_nan_refused(self, kind):
        with pytest.raises(NotEstimable):
            transform(math.nan, kind)
        with pytest.raises(NotEstimable):
            transform_variance(math.nan, 0.1, kind)
        with pytest.raises(ValueError):
            transform_variance(0.5, math.nan, kind)
        with pytest.raises(ValueError):
            inverse_transform(math.nan, kind)
        with pytest.raises(ValueError):
            chi2_pvalue(math.nan, 1)


class TestScaleTable:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_the_if_chains_bit_for_bit(self, kind, seed):
        ps, vs, ys = boundary_draws(seed)
        for p, v in zip(ps, vs):
            assert outcome(transform, p, kind) == outcome(chain_transform, p, kind)
            assert (outcome(transform_variance, p, v, kind)
                    == outcome(chain_transform_variance, p, v, kind))
        for y in ys:
            assert outcome(inverse_transform, y, kind) == outcome(chain_inverse_transform, y, kind)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_the_math_chains_within_rounding(self, kind, seed):
        # where math.exp overflows or a divisor underflows, math raises
        # and the table gives the limit the test above pins
        ps, vs, ys = boundary_draws(seed)

        def check(got, want, bound):
            if isinstance(want, tuple):
                assert got == want or issubclass(want[0], ArithmeticError)
            elif got != want:
                got, want = struct.unpack("<d", got)[0], struct.unpack("<d", want)[0]
                assert abs(got - want) <= bound(want)

        for p, v in zip(ps, vs):
            check(outcome(transform, p, kind), outcome(chain_transform, p, kind, MATH),
                  phi_bound)
            check(outcome(transform_variance, p, v, kind),
                  outcome(chain_transform_variance, p, v, kind, MATH), variance_bound)
        for y in ys:
            check(outcome(inverse_transform, y, kind), outcome(chain_inverse_transform, y, kind, MATH),
                  lambda want: inverse_bound(kind, y, want))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(KINDS))
    def test_inverse_is_total_into_the_unit_interval(self, y, kind):
        assert 0.0 <= inverse_transform(y, kind) <= 1.0

    @pytest.mark.parametrize("kind", [TransformKind.LOGLOG, TransformKind.LOGIT])
    def test_interval_at_an_estimate_rounding_below_one(self, kind):
        # estimate 0.9999999999999999 with variance 1.4e-17: one end of
        # the interval lies past where exp overflows
        times, statuses = zip(*(map(float, row.split(",")) for row in NEAR_ONE_ROWS))
        table = event_table_from_arrays(times, statuses, "g")
        assert pointwise_ci(table, 1, 5.0, kind) == (0.0, 1.0)


class TestBlocksEqualScalarCalls:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(0, 9), st.integers(1, 3))
    def test_phi_variance_and_inverse(self, seed, length, offset, stride):
        # a block of `length` boundary draws (near 0, near 1, subnormal,
        # outside [0, 1]) at `offset` into a larger array
        rng = np.random.default_rng(seed)
        ps, vs, ys = (rng.choice(draws, offset + stride * length)[offset::stride]
                      for draws in boundary_draws(seed % 4))
        vs = np.abs(vs)
        for kind in KINDS:
            _, phi, (w,) = _scaled(kind, ps, (vs,))
            with np.errstate(over="ignore"):
                inverse = _SCALES[kind].inverse(ys)
            for p, v, block in zip(ps.tolist(), vs.tolist(), zip(phi, w)):
                try:
                    want = (transform(p, kind), transform_variance(p, v, kind))
                except NotEstimable:
                    assert np.isnan(block).all()
                    continue
                assert struct.pack("<2d", *block) == struct.pack("<2d", *want)
            for y, got in zip(ys.tolist(), inverse):
                assert struct.pack("<d", got) == struct.pack("<d", inverse_transform(y, kind))

    def test_underflowing_divisor_gives_inf(self):
        # 1e-200 ** 2 underflows to 0: the scalar call used to raise
        # ZeroDivisionError, and the block to warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert transform_variance(1e-200, 0.01, TransformKind.LOG) == math.inf
            _, _, (w,) = _scaled(TransformKind.LOG, np.array([1e-200]), (np.array([0.01]),))
        assert w[0] == math.inf

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_variance_stays_zero(self, kind):
        # at p = 1e-200 every divisor but the identity's and the arcsine's
        # underflows to 0, where 0 / 0 used to give nan
        ps = np.array([1e-200, 1e-200, 0.3, 0.3])
        vs = np.array([0.0, 0.01, 0.0, 0.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [transform_variance(p, v, kind) for p, v in zip(ps.tolist(), vs.tolist())]
            _, _, (w,) = _scaled(kind, ps, (vs,))
        assert scalar[0] == 0.0 and scalar[2] == 0.0
        assert struct.pack("<4d", *w) == struct.pack("<4d", *scalar)


class TestChiSquare:
    def test_frozen_point(self):
        assert abs(chi2_pvalue(3.841, 1) - 0.05001368376395671) <= 1e-12

    def test_df_two_closed_form(self):
        x = 4.468085106382978
        assert abs(chi2_pvalue(x, 2) - math.exp(-x / 2)) <= 1e-12

    def test_zero_statistic(self):
        assert chi2_pvalue(0.0, 1) == 1.0
        assert chi2_pvalue(0.0, 3) == 1.0

    @settings(max_examples=600, deadline=None)
    @given(st.integers(1, 12),
           st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 50.0),
                     st.floats(0.0, 1400.0), st.floats(1400.0, 1600.0)))
    def test_matches_incomplete_gamma(self, df, x):
        # scipy is the oracle here only; the package computes the tail
        # in closed form
        expected = float(gammaincc(df / 2.0, x / 2.0))
        got = chi2_pvalue(x, df)
        if expected >= sys.float_info.min:
            assert abs(got - expected) <= 1e-12 * expected
        else:
            # the tail underflows below the normal doubles on both sides
            assert 0.0 <= got < sys.float_info.min

    def test_infinite_statistic(self):
        assert chi2_pvalue(math.inf, 1) == 0.0
        assert chi2_pvalue(math.inf, 4) == 0.0

    @pytest.mark.parametrize("df", [0, -1, 1.5])
    def test_bad_df(self, df):
        with pytest.raises(ValueError):
            chi2_pvalue(1.0, df)


def rejected(x, alpha):
    """The decision the simulation makes from the cached critical value."""
    return x >= _chi2_critical(alpha)


class TestChi2Critical:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_decision_on_the_ulps_around_it(self, alpha):
        critical = _chi2_critical(alpha)
        bits = struct.unpack("<q", struct.pack("<d", critical))[0]
        for step in range(-1000, 1001):
            x = struct.unpack("<d", struct.pack("<q", bits + step))[0]
            assert rejected(x, alpha) == (chi2_pvalue(x, 1) < alpha), step
        assert chi2_pvalue(critical, 1) < alpha <= chi2_pvalue(math.nextafter(critical, 0.0), 1)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.floats(0.0, 20.0), st.floats(0.0, math.inf),
                     st.sampled_from([0.0, 5e-324, math.inf])),
           st.one_of(st.sampled_from([0.01, 0.05, 0.1]), st.floats(1e-300, 1.0)))
    def test_decision_on_drawn_pairs(self, x, alpha):
        assert rejected(x, alpha) == (chi2_pvalue(x, 1) < alpha)

    def test_near_the_textbook_values(self):
        assert _chi2_critical(0.05) == pytest.approx(3.841458820694124, rel=1e-12)
        assert _chi2_critical(0.01) == pytest.approx(6.634896601021214, rel=1e-12)


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

    @settings(max_examples=150, deadline=None)
    @given(subject_columns(), horizons, st.sampled_from(KINDS),
           st.sampled_from(list(VarianceKind)))
    def test_reduces_to_two_sample_on_random_data(self, columns, t, kind, variance):
        data = make_dataset(*columns)
        tables = [build_event_table(data, g) for g in data.groups]

        def attempt(fn):
            try:
                return fn()
            except (NotEstimable, ZeroVariance) as exc:
                return type(exc)

        two = attempt(lambda: two_sample_test(*tables, 1, t, kind, variance))
        k = attempt(lambda: k_sample_test(tables, 1, t, kind, variance))
        if isinstance(two, type):
            assert k is two
            return
        assert k.df == 1 and k.groups == two.groups
        assert abs(k.statistic - two.statistic) <= 1e-12 * max(1.0, two.statistic)
        assert abs(k.p_value - two.p_value) <= 1e-12

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


def solved_quadratic_form(phi, w):
    """The contrast quadratic form by a linear solve, the way it was
    computed before its closed form."""
    contrasts = phi[0] - phi[1:]
    cov = np.full((len(phi) - 1,) * 2, w[0])
    cov[np.diag_indices_from(cov)] = w[0] + w[1:]
    return float(contrasts @ np.linalg.solve(cov, contrasts))


# rows of K (phi, w) pairs, the same K in every row; phi repeats often
# and w is often 0, so that singular rows, with phis equal or not, occur
wald_rows = st.integers(2, 5).flatmap(lambda k: st.lists(
    st.lists(st.tuples(st.sampled_from([0.0, 0.25]) | st.floats(-2.0, 2.0),
                       st.just(0.0) | st.floats(1e-3, 10.0)), min_size=k, max_size=k),
    min_size=1, max_size=6))


class TestWaldClosedForm:
    @settings(max_examples=400, deadline=None)
    @given(wald_rows)
    @example([[(0.25, 0.0), (0.25, 0.0), (0.25, 1.0)], [(0.25, 1.0), (0.0, 0.0), (0.25, 0.0)],
              [(0.5, 0.0), (0.25, 2.0), (-1.0, 0.5)]])
    @example([[(0.25, 0.0), (0.0, 0.0)], [(0.25, 0.0), (0.25, 0.0)], [(0.25, 0.0), (0.5, 2.0)]])
    # products of K - 1 small variances: 60 groups at w = 1e-6 used to
    # give D = 0, and 3 groups at w = 1e-160 a statistic 1e-5 off
    @example([[(0.25 * (g % 5), 1e-6) for g in range(60)]])
    @example([[(0.0, 1e-160), (1.0, 1e-160), (2.0, 1e-160)],
              [(0.5, 3e-160), (0.0, 1e-160), (0.25, 2e-160)]])
    # a statistic of 1.1e-316, below the normal doubles, where the two
    # differ by 6e-6 relative
    @example([[(0.0, 0.0), (0.0, 1.0), (0.0, 1.0), (0.0, 0.03125),
               (1.0481708156337418e-158, 1.0)]])
    # the square of 1.9978598567531591 by pow is one ulp above x * x
    @example([[(1.9978598567531591, 0.0), (0.0, 1.0)]])
    def test_matches_the_solve(self, rows):
        # the linear scale keeps phi and w as drawn
        phi, w = np.array(rows).transpose(2, 1, 0)
        inside, scaled, (w_scaled,) = _scaled(TransformKind.LINEAR, phi, (w,))
        assert inside.all()
        statistic, effect, differ = _wald(scaled, w_scaled)
        for i, (p, v) in enumerate(zip(phi.T, w.T)):
            if np.sum(v == 0.0) >= 2:
                assert differ[i] == np.any(p != p[0])
                assert statistic[i] == 0.0
                continue
            assert not differ[i]
            if len(p) == 2:
                assert statistic[i] == np.square(p[0] - p[1]) / (v[0] + v[1])
                assert effect[i] == p[0] - p[1]
            else:
                assert math.isclose(statistic[i], solved_quadratic_form(p, v), rel_tol=1e-10,
                                    abs_tol=1e-10 * sys.float_info.min)
                assert effect is None


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

    @pytest.mark.parametrize("level", [1e-6, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-9])
    def test_quantile_matches_ndtri(self, table_a, level):
        est, v = 7 / 15, 208 / 3375
        phi = transform(est, TransformKind.LOGLOG)
        half = float(ndtri(0.5 + level / 2.0)) * math.sqrt(
            transform_variance(est, v, TransformKind.LOGLOG))
        expected = sorted(inverse_transform(phi + s * half, TransformKind.LOGLOG)
                          for s in (-1.0, 1.0))
        lo, hi = pointwise_ci(table_a, 1, 3.0, TransformKind.LOGLOG, level=level)
        assert abs(lo - expected[0]) <= 1e-14
        assert abs(hi - expected[1]) <= 1e-14

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
