"""Pseudo-value regression tests for the incidence at fixed times.

For each subject, a pseudo-value at horizon tau is the jackknife
contribution

    theta_i = N * C(tau) - (N - 1) * C_minus_i(tau)

where C is the pooled-sample cumulative incidence estimate and
C_minus_i the same estimate with subject i removed (Klein & Andersen
2005).  Without censoring the pseudo-values reduce to the event
indicators 1{T_i <= tau, cause k}.  Group effects are then estimated
from generalized estimating equations with an independence working
covariance (Liang & Zeger 1986), and the group coefficient gives a
Wald test of equal incidence at the horizon.

At one horizon with an intercept and a 0/1 group indicator the model
is saturated, and the estimating equations are solved exactly by the
group means m_1 and m_0 of the pseudo-values: the effect is
g(m_1) - g(m_0) and its sandwich variance is

    sum over groups of g'(m_g)^2 * sum_i (theta_i - m_g)^2 / n_g^2

for the link g.  `pseudo_test` uses this closed form; `gee_fit` solves
the general several-horizon model by Newton iteration.

The leave-one-out estimates need no refit.  Write Y_j, d_j and dk_j
for the at-risk count, the failures and the cause-k failures at the
j-th distinct failure time t_j, S and F for the full-sample
Aalen-Johansen survival and incidence, and t_m for the last failure
time at or before both T_i and tau.  Removing subject i lowers Y_j by
one at every t_j <= t_m, removes its own failure from d_m and dk_m
when T_i = t_m, and changes no count after t_m.  Hence

    C_minus_i(tau) = F'(t_m) + S'(t_m) / S(t_m) * (F(tau) - F(t_m))

where F' and S' run the Aalen-Johansen recursion over t_1..t_m with
Y_j - 1 in place of Y_j, which for all subjects at once is one shared
prefix product and prefix sum plus a per-subject correction at t_m.
After one sort the cost is O(N + K) per horizon for K distinct
failure times, against O(N K) for N separate refits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NonConvergence, SeparationDetected, ZeroVariance
from .fixed_time import FixedTimeTestResult, GroupSummary, chi2_pvalue

__all__ = [
    "LinkKind",
    "PSEUDO_METHODS",
    "PseudoValueMatrix",
    "GeeFit",
    "pseudo_values",
    "gee_fit",
    "pseudo_test",
]

_GEE_TOL = 1e-10
_GEE_STEP_TOL = 1e-8
_GEE_MAX_ITER = 50


class LinkKind(enum.Enum):
    LOGIT = "logit"
    CLOGLOG = "cloglog"


# method label of each pseudo-value test, in battery order
PSEUDO_METHODS = {LinkKind.CLOGLOG: "pseudo-llog", LinkKind.LOGIT: "pseudo-logit"}


def _link(x: float, kind: LinkKind) -> float:
    if kind is LinkKind.LOGIT:
        return math.log(x / (1.0 - x))
    return math.log(-math.log(1.0 - x))


def _link_slope(x: float, kind: LinkKind) -> float:
    """g'(x), the derivative of the link."""
    if kind is LinkKind.LOGIT:
        return 1.0 / (x * (1.0 - x))
    return -1.0 / ((1.0 - x) * math.log(1.0 - x))


def _inverse_link(eta: np.ndarray, kind: LinkKind) -> np.ndarray:
    if kind is LinkKind.LOGIT:
        return 1.0 / (1.0 + np.exp(-eta))
    return 1.0 - np.exp(-np.exp(eta))


def _mean_derivative(eta: np.ndarray, kind: LinkKind) -> np.ndarray:
    if kind is LinkKind.LOGIT:
        mu = 1.0 / (1.0 + np.exp(-eta))
        return mu * (1.0 - mu)
    return np.exp(eta - np.exp(eta))


@dataclass(frozen=True)
class PseudoValueMatrix:
    """Per-subject pseudo-values, one column per horizon.

    Rows align with the records the matrix was computed from.  Values
    may fall outside [0, 1]; that is expected under censoring.
    """

    values: np.ndarray
    times: np.ndarray
    cause: int


@dataclass(frozen=True)
class GeeFit:
    """Converged estimating-equation fit.

    `beta` stacks one intercept per horizon followed by the group
    effect; `sandwich` is the robust covariance of `beta`.
    """

    beta: np.ndarray
    sandwich: np.ndarray
    iterations: int
    link: LinkKind

    @property
    def group_effect(self) -> float:
        return float(self.beta[-1])

    @property
    def group_effect_variance(self) -> float:
        return float(self.sandwich[-1, -1])


def _pooled_pseudo(times: np.ndarray, statuses: np.ndarray, cause: int,
                   taus: np.ndarray) -> np.ndarray:
    n = times.size
    failed = statuses > 0
    # knot 0 is a placeholder with no events before every time, so each
    # subject and each horizon has a last knot at or before it
    knots = np.concatenate(([-np.inf], np.unique(times[failed & (times <= taus.max())])))
    at_risk = (n - np.searchsorted(np.sort(times), knots, side="left")).astype(float)
    relevant = failed & (times <= knots[-1])
    pos = np.searchsorted(knots, times[relevant])
    events = np.bincount(pos, minlength=knots.size).astype(float)
    cause_events = np.bincount(
        pos[statuses[relevant] == cause], minlength=knots.size
    ).astype(float)

    # full sample: survival just after, and incidence up to, each knot
    surv = np.cumprod(1.0 - events / at_risk)
    inc = np.cumsum(np.concatenate(([1.0], surv[:-1])) * cause_events / at_risk)

    # the same with one subject fewer at risk, as seen by a subject still
    # at risk at every knot so far; entry j covers the knots before j.  A
    # lone subject at risk can only be one failing at the last knot, and
    # taking out its own event leaves nothing there to divide.
    fewer = at_risk - 1.0
    fewer[fewer == 0.0] = 1.0
    surv_fewer = np.concatenate(([1.0], np.cumprod(1.0 - events / fewer)[:-1]))
    inc_fewer = np.concatenate(([0.0], np.cumsum(surv_fewer * cause_events / fewer)[:-1]))

    # (subject, horizon) grid: j is the last knot at or before both the
    # subject's time and the horizon.  Leaving subject i out lowers the
    # at-risk count at knots up to j, takes its own event out of knot j,
    # and leaves every later knot as in the full sample.
    cut = np.searchsorted(knots, taus, side="right") - 1
    last = np.searchsorted(knots, times, side="right") - 1
    j = np.minimum(last[:, None], cut[None, :])
    own = (failed & (times == knots[last]))[:, None] & (last[:, None] == j)
    d = events[j] - own
    dk = cause_events[j] - (own & (statuses == cause)[:, None])
    inc_i = inc_fewer[j] + surv_fewer[j] * dk / fewer[j]
    surv_i = surv_fewer[j] * (1.0 - d / fewer[j])

    # past knot j the leave-one-out curve is the full-sample tail rescaled
    # by the ratio of the two survivals at j, which is positive there
    full = inc[cut]
    ratio = np.divide(surv_i, surv[j], out=np.zeros_like(surv_i), where=j < cut)
    loo = inc_i + ratio * (full - inc[j])
    return loo + n * (full - loo)


def pseudo_values(data: Dataset, cause: int, times) -> PseudoValueMatrix:
    """Jackknife pseudo-values of the pooled-sample incidence of `cause`.

    `times` must be strictly increasing finite positive horizons.  All groups
    are pooled for the estimate; rows align with `data.records`.
    """
    taus = np.asarray(times, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(taus) & (taus > 0.0)) or np.any(np.diff(taus) <= 0.0):
        raise ValueError("times must be finite, positive and strictly increasing")
    values = _pooled_pseudo(data.times, data.statuses, int(cause), taus)
    return PseudoValueMatrix(values=values, times=taus, cause=int(cause))


def gee_fit(pseudo: PseudoValueMatrix | np.ndarray, x, link: LinkKind = LinkKind.LOGIT) -> GeeFit:
    """Fit intercepts-per-horizon plus a group effect to pseudo-values.

    `x` is the 0/1 group indicator per subject.  The working covariance
    is the identity, so the estimating function is

        U(beta) = sum_i D_i' (theta_i - mu_i),    mu_ih = ginv(alpha_h + beta2 x_i)

    solved by damped Newton iteration until max|U| and the next Newton
    step are both below tolerance; the reported covariance is the robust
    sandwich.  Raises SeparationDetected when a group mean pseudo-value
    sits outside (0, 1) and NonConvergence if the solver fails to
    converge or meets a singular information matrix.
    """
    link = LinkKind(link)
    theta = pseudo.values if isinstance(pseudo, PseudoValueMatrix) else np.asarray(pseudo, float)
    if theta.ndim == 1:
        theta = theta[:, None]
    x = np.asarray(x, dtype=float)
    if x.shape != (theta.shape[0],):
        raise ValueError("x must be one indicator per row of the pseudo-values")
    if not np.all(np.isin(x, (0.0, 1.0))):
        raise ValueError("x must contain only 0 and 1")
    if x.min() == x.max():
        raise ValueError("x must contain both groups")

    n, m = theta.shape
    # jackknife roundoff leaves means that should be exactly 0 or 1 a
    # few ulps inside the interval, so separate with a matching margin
    edge = n * np.finfo(float).eps
    for g in (0.0, 1.0):
        means = theta[x == g].mean(axis=0)
        if np.any(means <= edge) or np.any(means >= 1.0 - edge):
            raise SeparationDetected(
                f"group {int(g)} mean pseudo-value outside (0, 1): {means!r}"
            )

    pooled = np.clip(theta.mean(axis=0), 1e-6, 1.0 - 1e-6)
    beta = np.concatenate(([_link(p, link) for p in pooled], [0.0]))

    def score(b):
        eta = b[None, :m] + b[m] * x[:, None]
        # exp overflows to the right limits, a mean of 0 or 1
        with np.errstate(over="ignore"):
            dmu = _mean_derivative(eta, link)
            resid = theta - _inverse_link(eta, link)
        contrib = dmu * resid
        u = np.concatenate((contrib.sum(axis=0), [float(x @ contrib.sum(axis=1))]))
        return u, dmu, contrib

    def information(dmu):
        d2 = dmu**2
        info = np.zeros((m + 1, m + 1))
        info[np.arange(m), np.arange(m)] = d2.sum(axis=0)
        info[:m, m] = info[m, :m] = x @ d2
        info[m, m] = float(x @ d2.sum(axis=1))
        return info

    def solve(info, rhs):
        out = None
        if np.linalg.cond(info) * np.finfo(float).eps < 1.0:
            out = np.linalg.solve(info, rhs)
        if out is None or not np.all(np.isfinite(out)):
            raise NonConvergence(
                f"information matrix is singular after {iterations} iterations "
                f"(max |U| = {gap:g})",
                beta=beta,
                residual=gap,
            )
        return out

    u, dmu, _ = score(beta)
    gap = float(np.abs(u).max())
    iterations = 0
    while True:
        step = solve(information(dmu), u)
        # a small score alone is not a root: where a fitted mean runs to 0
        # or 1 the mean derivative vanishes and takes max|U| below
        # tolerance far from the solution, so the derivative must stay
        # positive and the next Newton step be small too
        small_step = np.abs(step).max() <= _GEE_STEP_TOL * (1.0 + np.abs(beta).max())
        if gap < _GEE_TOL and small_step and dmu.min() > 0.0:
            beta = beta + step
            break
        if iterations >= _GEE_MAX_ITER:
            raise NonConvergence(
                f"estimating equations not solved after {iterations} iterations "
                f"(max |U| = {gap:g})",
                beta=beta,
                residual=gap,
            )
        scale = 1.0
        while True:
            candidate = beta + scale * step
            u_new, dmu_new, _ = score(candidate)
            gap_new = float(np.abs(u_new).max())
            if gap_new < gap or scale < 2.0**-30:
                break
            scale /= 2.0
        beta, u, dmu, gap = candidate, u_new, dmu_new, gap_new
        iterations += 1

    u, dmu, contrib = score(beta)
    per_subject = np.empty((n, m + 1))
    per_subject[:, :m] = contrib
    per_subject[:, m] = x * contrib.sum(axis=1)
    info = information(dmu)
    bread = solve(info, per_subject.T @ per_subject)
    sandwich = solve(info, bread.T).T
    return GeeFit(beta=beta, sandwich=sandwich, iterations=iterations, link=link)


def _group_moments(theta: np.ndarray, x: np.ndarray):
    """[(m_1, se_1^2), (m_0, se_0^2)]: the mean pseudo-value of the
    x == 1 group, then of the x == 0 group, each with the squared
    standard error sum_i (theta_i - m)^2 / n^2 of that mean.

    Raises SeparationDetected when a mean lies within n * eps of 0 or
    1, the margin `gee_fit` uses.
    """
    edge = theta.size * np.finfo(float).eps
    moments = []
    for flag in (1, 0):
        group = theta[x == flag]
        mean = float(group.mean())
        if not edge < mean < 1.0 - edge:
            raise SeparationDetected(f"group {flag} mean pseudo-value outside (0, 1): {mean!r}")
        moments.append((mean, float(np.square(group - mean).sum()) / group.size**2))
    return moments


def _saturated_test(moments, groups, cause: int, t: float,
                    link: LinkKind) -> FixedTimeTestResult:
    """Wald test from the closed-form saturated fit at one horizon."""
    (m1, s1), (m0, s0) = moments
    effect = _link(m1, link) - _link(m0, link)
    var = _link_slope(m1, link) ** 2 * s1 + _link_slope(m0, link) ** 2 * s0
    if var == 0.0:
        if effect != 0.0:
            raise ZeroVariance(f"group effect {effect!r} has zero sandwich variance")
        stat = 0.0
    else:
        stat = effect**2 / var
    return FixedTimeTestResult(
        statistic=stat,
        df=1,
        p_value=chi2_pvalue(stat, 1),
        time=t,
        cause=int(cause),
        method=PSEUDO_METHODS[link],
        variance=None,
        groups=(GroupSummary(groups[0], m1, None), GroupSummary(groups[1], m0, None)),
        effect=effect,
    )


def pseudo_test(data: Dataset, cause: int, t: float,
                link: LinkKind = LinkKind.CLOGLOG) -> FixedTimeTestResult:
    """Wald test of the group effect on the incidence of `cause` at `t`.

    The dataset must have exactly two groups; the indicator is 1 for
    the first group, so a positive effect means higher transformed
    incidence in the first group.  The fit is the closed-form
    saturated GEE described in the module docstring.
    """
    link = LinkKind(link)
    if len(data.groups) != 2:
        raise ValueError(f"pseudo_test needs exactly two groups, got {len(data.groups)}")
    pseudo = pseudo_values(data, cause, [t])
    moments = _group_moments(pseudo.values[:, 0], data.group_indicator(data.groups[0]))
    return _saturated_test(moments, data.groups, cause, float(t), link)
