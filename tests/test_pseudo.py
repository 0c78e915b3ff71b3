import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cifpoint.data import build_event_table
from cifpoint.errors import NonConvergence, SeparationDetected, ZeroVariance
from cifpoint.estimation import cif_estimate
from cifpoint.fixed_time import TransformKind, chi2_pvalue, transform, transform_variance
from cifpoint.pseudo import LinkKind, _inverse_link, gee_fit, pseudo_test, pseudo_values

from conftest import FIXTURE_A, make_dataset, random_dataset

TOL = 1e-12


def loop_incidence(times, statuses, cause, tau):
    """Aalen-Johansen incidence of `cause` at `tau`, by the defining sums."""
    surv, inc = 1.0, 0.0
    for u in sorted({t for t, s in zip(times, statuses) if s > 0 and t <= tau}):
        at_risk = sum(1 for t in times if t >= u)
        d = sum(1 for t, s in zip(times, statuses) if t == u and s > 0)
        dk = sum(1 for t, s in zip(times, statuses) if t == u and s == cause)
        inc += surv * dk / at_risk
        surv *= 1.0 - d / at_risk
    return inc


def brute_pseudo(times, statuses, cause, taus):
    """Jackknife pseudo-values from n + 1 separate estimates per horizon."""
    times, statuses = list(times), list(statuses)
    n = len(times)
    theta = np.empty((n, len(taus)))
    for h, tau in enumerate(taus):
        full = loop_incidence(times, statuses, cause, tau)
        for i in range(n):
            loo = loop_incidence(times[:i] + times[i + 1:],
                                 statuses[:i] + statuses[i + 1:], cause, tau)
            theta[i, h] = n * full - (n - 1) * loo
    return theta


def indicator_dataset(n1, k1, n0, k0):
    """Uncensored groups "a" (n1 subjects) and "b" (n0): the first k1 and
    k0 fail from cause 1 before t=1 and the rest from cause 2, so the
    pseudo-values at t=1 are the cause-1 indicators and the saturated
    fit is known exactly."""
    times, statuses, groups = [], [], []
    for label, n, k in (("a", n1, k1), ("b", n0, k0)):
        for i in range(n):
            times.append(0.001 * (len(times) + 1))
            statuses.append(1 if i < k else 2)
            groups.append(label)
    return make_dataset(times, statuses, groups)


# the link functions that the LOGIT and LOGLOG scales replaced, kept as
# the reference: the links on the numpy functions the scales use, and
# their slopes
def parent_link(x, link):
    x = np.float64(x)
    if link is LinkKind.LOGIT:
        return np.log(x / (1.0 - x))
    return np.log(-np.log(1.0 - x))


def parent_link_slope(x, link):
    if link is LinkKind.LOGIT:
        return 1.0 / (x * (1.0 - x))
    return -1.0 / ((1.0 - x) * math.log(1.0 - x))


def saturated_effect(m1, m0, link):
    return parent_link(m1, link) - parent_link(m0, link)


def assert_matches_brute_force(times, statuses, cause, taus):
    pv = pseudo_values(make_dataset(times, statuses), cause, taus)
    expected = brute_pseudo(times, statuses, cause, taus)
    assert np.allclose(pv.values, expected, rtol=0, atol=TOL * len(times))


class TestPseudoValues:
    def test_fixture_thetas(self, dataset_a):
        # hand jackknife of the pooled CIF at tau=3: the full-sample
        # estimate is 7/15 and the five leave-one-out values are
        # 1/3, 1/2, 1/4, 5/8, 5/8
        pv = pseudo_values(dataset_a, 1, [3.0])
        expected = [1.0, 1 / 3, 4 / 3, -1 / 6, -1 / 6]
        assert np.allclose(pv.values[:, 0], expected, rtol=0, atol=TOL)

    def test_no_censoring_gives_indicators(self):
        rng = np.random.default_rng(5)
        t = rng.exponential(1.0, size=80)
        cause = rng.integers(1, 3, size=80)
        data = make_dataset(t, cause)
        for tau in [0.3, 1.0]:
            pv = pseudo_values(data, 1, [tau])
            indicator = ((t <= tau) & (cause == 1)).astype(float)
            assert np.allclose(pv.values[:, 0], indicator, rtol=0, atol=TOL)

    def test_multiple_horizons_columns(self, dataset_a):
        pv = pseudo_values(dataset_a, 1, [1.0, 3.0])
        assert pv.values.shape == (5, 2)
        single = pseudo_values(dataset_a, 1, [1.0])
        assert np.array_equal(pv.values[:, 0], single.values[:, 0])

    def test_rows_align_with_records(self, dataset_a):
        pv = pseudo_values(dataset_a, 1, [3.0])
        perm = [2, 0, 4, 1, 3]
        shuffled = make_dataset(
            [dataset_a.records[i].time for i in perm],
            [dataset_a.records[i].status for i in perm],
        )
        pv2 = pseudo_values(shuffled, 1, [3.0])
        assert np.allclose(pv2.values[:, 0], pv.values[perm, 0], rtol=0, atol=TOL)

    def test_times_validation(self, dataset_a):
        with pytest.raises(ValueError):
            pseudo_values(dataset_a, 1, [])
        with pytest.raises(ValueError):
            pseudo_values(dataset_a, 1, [2.0, 1.0])
        with pytest.raises(ValueError):
            pseudo_values(dataset_a, 1, [0.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                pseudo_values(dataset_a, 1, [1.0, bad])

    def test_mean_is_estimate_when_uncensored(self):
        # with no censoring the pseudo-values are indicators, so their
        # mean is the empirical (= Aalen-Johansen) incidence
        rng = np.random.default_rng(13)
        t = rng.exponential(1.0, size=60)
        cause = rng.integers(1, 3, size=60)
        data = make_dataset(t, cause)
        pv = pseudo_values(data, 1, [0.8])
        curve = cif_estimate(build_event_table(data, "g"), 1)
        assert abs(pv.values[:, 0].mean() - curve.at(0.8)) <= 1e-10


class TestLeaveOneOutKernel:
    """The linear-time kernel against n + 1 separate estimates."""

    @pytest.mark.parametrize("cause", [1, 2])
    def test_fixture_a_every_horizon_kind(self, cause):
        # knots at 1, 3 and 4: before the first, between two, on one
        # and past the last
        assert_matches_brute_force(*FIXTURE_A, cause, [0.5, 2.0, 3.0, 10.0])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_censored_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = 70
        t = np.round(rng.exponential(1.0, size=n), 1) + 0.1
        c = np.round(rng.uniform(0.0, 2.0, size=n), 1) + 0.1
        statuses = np.where(t <= c, rng.integers(1, 3, size=n), 0)
        times = np.minimum(t, c)
        taus = [0.05, float(np.median(times)), 0.75, 1.0, 5.0]
        for cause in (1, 2):
            assert_matches_brute_force(times.tolist(), statuses.tolist(), cause, taus)

    @pytest.mark.parametrize("times, statuses", [
        ([2.0], [1]),
        ([2.0], [0]),
        ([1.0, 2.0, 3.0], [0, 0, 0]),
        ([1.0, 2.0, 3.0], [2, 0, 2]),
        ([2.0, 2.0, 2.0, 2.0], [1, 2, 1, 1]),
        ([1.0, 2.0, 3.0, 4.0], [1, 0, 2, 1]),
        ([1.0, 2.0, 4.0, 4.0], [1, 0, 1, 0]),
    ], ids=["one-failure", "one-censored", "all-censored", "no-cause-events",
            "all-tied", "lone-at-risk-fails-last", "censored-tie-at-last"])
    def test_degenerate_samples(self, times, statuses):
        assert_matches_brute_force(times, statuses, 1, [1.5, 3.0, 6.0])

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)),
                      min_size=1, max_size=25),
        taus=st.lists(st.sampled_from([0.5, 1.0, 2.5, 4.0, 7.0]),
                      min_size=1, max_size=3, unique=True).map(sorted),
        cause=st.sampled_from([1, 2]),
        perm_seed=st.integers(0, 2**32 - 1),
    )
    def test_property_brute_force_and_permutation(self, rows, taus, cause, perm_seed):
        times = [float(t) for t, _ in rows]
        statuses = [s for _, s in rows]
        assert_matches_brute_force(times, statuses, cause, taus)
        pv = pseudo_values(make_dataset(times, statuses), cause, taus)
        perm = np.random.default_rng(perm_seed).permutation(len(rows))
        shuffled = pseudo_values(
            make_dataset([times[i] for i in perm], [statuses[i] for i in perm]),
            cause, taus)
        assert np.allclose(shuffled.values, pv.values[perm], rtol=0, atol=TOL * len(rows))


class TestGeeFit:
    def test_cloglog_mean_keeps_small_values(self):
        # 1 - exp(-exp(eta)) rounds to 0 here; the mean is ~1e-29
        mean = _inverse_link(np.array([-66.8]), LinkKind.CLOGLOG)[0]
        assert mean == pytest.approx(math.exp(-66.8), rel=1e-12)
        assert 9e-30 < mean < 1.1e-29

    def test_logit_closed_form(self, gee_dataset):
        # group means 0.6 and 0.3 with n=10 each: the saturated fit is
        # beta2 = logit(0.6) - logit(0.3) with a moment sandwich
        pv = pseudo_values(gee_dataset, 1, [1.0])
        x = gee_dataset.group_indicator("a").astype(float)
        fit = gee_fit(pv, x, LinkKind.LOGIT)
        assert abs(fit.group_effect - 1.2527629684953678) <= 1e-8
        assert abs(fit.group_effect_variance - 0.8928571428571428) <= 1e-8
        assert fit.iterations <= 50

    def test_cloglog_closed_form(self, gee_dataset):
        pv = pseudo_values(gee_dataset, 1, [1.0])
        x = gee_dataset.group_indicator("a").astype(float)
        fit = gee_fit(pv, x, LinkKind.CLOGLOG)
        assert abs(fit.group_effect - 0.9435088613679676) <= 1e-8
        assert abs(fit.group_effect_variance - 0.5155410652534179) <= 1e-8

    def test_plain_array_accepted(self):
        theta = np.array([0.9, 0.8, 0.7, 0.2, 0.3, 0.1])
        x = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        fit = gee_fit(theta, x)
        p1, p0 = 0.8, 0.2
        expected = math.log(p1 / (1 - p1)) - math.log(p0 / (1 - p0))
        assert abs(fit.group_effect - expected) <= 1e-8

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pseudo_values_refused(self, bad):
        # NaN used to raise NotEstimable from the logit and inf
        # SeparationDetected
        theta = np.array([0.9, bad, 0.7, 0.2, 0.3, 0.1])
        x = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^pseudo-values must be finite$"):
            gee_fit(theta, x)

    def test_x_validation(self, gee_dataset):
        pv = pseudo_values(gee_dataset, 1, [1.0])
        with pytest.raises(ValueError):
            gee_fit(pv, np.zeros(20))
        with pytest.raises(ValueError):
            gee_fit(pv, np.full(20, 0.5))
        with pytest.raises(ValueError):
            gee_fit(pv, np.ones(7))

    def test_separation_detected(self):
        # one group has no cause-1 events and no censoring, so its
        # pseudo-values are exactly 0
        times = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        statuses = [1, 1, 2, 2, 2, 2]
        groups = ["a", "a", "a", "b", "b", "b"]
        data = make_dataset(times, statuses, groups)
        with pytest.raises(SeparationDetected):
            pseudo_test(data, 1, 1.0)

    def test_singular_information_is_nonconvergence(self):
        # 230 against 5 subjects: the Newton information goes singular
        # on the way, which used to escape as a raw LinAlgError
        data = indicator_dataset(230, 6, 5, 2)
        pv = pseudo_values(data, 1, [1.0])
        with pytest.raises(NonConvergence):
            gee_fit(pv, data.group_indicator("a"), LinkKind.CLOGLOG)
        res = pseudo_test(data, 1, 1.0, LinkKind.CLOGLOG)
        expected = saturated_effect(6 / 230, 2 / 5, LinkKind.CLOGLOG)
        assert abs(res.effect - expected) <= 1e-10

    @pytest.mark.parametrize("n1, k1, n0, k0, link", [
        (49, 1, 2, 1, LinkKind.LOGIT),
        (60, 5, 6, 5, LinkKind.CLOGLOG),
        (51, 2, 10, 5, LinkKind.CLOGLOG),
    ])
    def test_no_spurious_root(self, n1, k1, n0, k0, link):
        # the small group's intercept used to run off to where its mean
        # derivative underflows, which takes max|U| below tolerance; the
        # fit then reported effects of 4e3 to 2e7 against a true -3 to -4
        data = indicator_dataset(n1, k1, n0, k0)
        pv = pseudo_values(data, 1, [1.0])
        expected = saturated_effect(k1 / n1, k0 / n0, link)
        try:
            fit = gee_fit(pv, data.group_indicator("a"), link)
        except NonConvergence:
            return
        assert abs(fit.group_effect - expected) <= 1e-8 * abs(expected)

    @pytest.mark.parametrize("n1, k1, n0, k0, link", [
        (300, 1, 40, 8, LinkKind.LOGIT),
        (400, 1, 60, 8, LinkKind.CLOGLOG),
    ])
    def test_converges_to_the_root(self, n1, k1, n0, k0, link):
        # with a group mean near 0 a small max|U| still leaves the fit
        # ~7e-9 off; the Newton step taken at convergence removes that
        data = indicator_dataset(n1, k1, n0, k0)
        fit = gee_fit(pseudo_values(data, 1, [1.0]), data.group_indicator("a"), link)
        expected = saturated_effect(k1 / n1, k0 / n0, link)
        assert abs(fit.group_effect - expected) <= 1e-11 * abs(expected)

    @settings(max_examples=150, deadline=None)
    @given(
        n1=st.integers(2, 60),
        n0=st.integers(2, 60),
        tau=st.sampled_from([0.1, 0.4, 1.0, 2.5]),
        link=st.sampled_from(list(LinkKind)),
        seed=st.integers(0, 2**32 - 1),
    )
    # draws on which one group's sandwich term dwarfs the other's
    @example(n1=46, n0=7, tau=0.1, link=LinkKind.LOGIT, seed=1222)
    @example(n1=46, n0=19, tau=0.1, link=LinkKind.CLOGLOG, seed=330)
    def test_closed_form_matches_newton(self, n1, n0, tau, link, seed):
        """The closed-form single-horizon test against Newton on random
        censored two-group data."""
        rng = np.random.default_rng(seed)
        n = n1 + n0
        rate = np.where(np.arange(n) < n1, 1.0, 1.6)
        failure = rng.exponential(1.0 / rate)
        censor = rng.uniform(0.0, 3.0, size=n)
        statuses = np.where(failure <= censor, rng.integers(1, 3, size=n), 0)
        data = make_dataset(np.minimum(failure, censor), statuses,
                            ["a"] * n1 + ["b"] * n0)
        pv = pseudo_values(data, 1, [tau])
        x = data.group_indicator("a")

        def attempt(fn):
            try:
                return fn()
            except (SeparationDetected, NonConvergence, ZeroVariance) as exc:
                return type(exc)

        closed = attempt(lambda: pseudo_test(data, 1, tau, link))
        newton = attempt(lambda: gee_fit(pv, x, link))
        assert (closed is SeparationDetected) == (newton is SeparationDetected)
        if isinstance(closed, type) or isinstance(newton, type):
            return
        if not all(1e-3 <= g.estimate <= 1 - 1e-3 for g in closed.groups):
            return
        scale = abs(newton.group_effect) + math.sqrt(newton.group_effect_variance)
        assert abs(closed.effect - newton.group_effect) <= 1e-8 * scale
        wald = newton.group_effect**2 / newton.group_effect_variance
        assert abs(closed.statistic - wald) <= 1e-10 * wald + 1e-12


class TestLinkScales:
    @pytest.mark.parametrize("link", list(LinkKind))
    def test_slope_form_matches_the_divisor(self, link):
        # g'(m)^2 s = s / d(p), with p = m for logit and p = 1 - m for
        # cloglog, near both ends of (0, 1) and between
        rng = np.random.default_rng(5)
        kind, flip = {LinkKind.LOGIT: (TransformKind.LOGIT, False),
                      LinkKind.CLOGLOG: (TransformKind.LOGLOG, True)}[link]
        ms = np.concatenate((rng.random(2000), 10.0 ** -rng.uniform(1.0, 15.0, 300),
                             1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 300))).tolist()
        for m, s in zip(ms, rng.exponential(0.01, len(ms)).tolist()):
            p = 1.0 - m if flip else m
            assert transform(p, kind) == parent_link(m, link)
            want = parent_link_slope(m, link) ** 2 * s
            assert transform_variance(p, s, kind) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("link", list(LinkKind))
    def test_statistic_matches_the_slope_form(self, link):
        # the closed-form test against the link-slope sandwich it was
        # written with, on random censored two-group data
        checked = 0
        for seed in range(150):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 160))
            data = random_dataset(rng, n, censor_scale=rng.uniform(0.5, 4.0))
            tau = float(rng.uniform(0.05, 2.0))
            try:
                res = pseudo_test(data, 1, tau, link)
            except (SeparationDetected, ZeroVariance):
                continue
            theta = pseudo_values(data, 1, [tau]).values[:, 0]
            x = data.group_indicator(data.groups[0])
            moments = []
            for flag in (1, 0):
                group = theta[x == flag]
                mean = float(group.mean())
                moments.append((mean, float(np.square(group - mean).sum()) / group.size**2))
            (m1, s1), (m0, s0) = moments
            assert (res.groups[0].estimate, res.groups[1].estimate) == (m1, m0)
            assert res.effect == parent_link(m1, link) - parent_link(m0, link)
            var = parent_link_slope(m1, link) ** 2 * s1 + parent_link_slope(m0, link) ** 2 * s0
            stat = res.effect**2 / var
            assert res.statistic == pytest.approx(stat, rel=1e-12, abs=0)
            assert res.p_value == pytest.approx(chi2_pvalue(stat, 1), rel=1e-12, abs=0)
            checked += 1
        assert checked > 100


class TestPseudoTest:
    def test_logit_statistic_frozen(self, gee_dataset):
        res = pseudo_test(gee_dataset, 1, 1.0, LinkKind.LOGIT)
        assert abs(res.statistic - 1.7577448618613252) <= 1e-7
        assert res.method == "pseudo-logit"
        assert res.df == 1
        assert res.variance is None

    def test_cloglog_statistic_frozen(self, gee_dataset):
        res = pseudo_test(gee_dataset, 1, 1.0, LinkKind.CLOGLOG)
        assert abs(res.statistic - 1.7267469683376049) <= 1e-7
        assert res.method == "pseudo-llog"

    def test_group_summaries_and_effect_sign(self, gee_dataset):
        res = pseudo_test(gee_dataset, 1, 1.0, LinkKind.LOGIT)
        g1, g2 = res.groups
        assert g1.group == "a" and g2.group == "b"
        assert abs(g1.estimate - 0.6) <= 1e-10
        assert abs(g2.estimate - 0.3) <= 1e-10
        # the first group has higher incidence, so the effect is
        # positive under an increasing link
        assert res.effect > 0

    def test_needs_two_groups(self, dataset_a):
        with pytest.raises(ValueError):
            pseudo_test(dataset_a, 1, 3.0)

    def test_censored_data_runs(self):
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 140)
        res = pseudo_test(data, 1, 0.7)
        assert 0.0 <= res.p_value <= 1.0
        assert res.statistic >= 0.0
