"""Pseudo-value regression tests for the incidence at fixed times.

For each subject, a pseudo-value at horizon tau is the jackknife
contribution

    theta_i = N * C(tau) - (N - 1) * C_minus_i(tau)

where C is the pooled-sample cumulative incidence estimate and
C_minus_i the same estimate with subject i removed (Klein & Andersen
2005).  Without censoring the pseudo-values reduce to the event
indicators 1{T_i <= tau, cause k}.  Group effects are then estimated
from generalized estimating equations with an independence working
covariance (Liang & Zeger 1986), and the group coefficients give a
Wald test of equal incidence at the horizon.

At one horizon with an intercept and K - 1 indicators for K groups
the model is saturated, and the estimating equations are solved
exactly by the group means m_g of the pseudo-values: the fitted value
of group g on the link's scale is g(m_g).  The sandwich is
block-diagonal by group, with variance

    g'(m_g)^2 * sum_i (theta_i - m_g)^2 / n_g^2

for g(m_g) and no covariance between groups (Andersen, Klein &
Rosthoj 2003).  The Wald test of the K - 1 group effects is therefore
`fixed_time._wald` at any K, with each group mean on its link's scale
and the squared standard error of the mean, over the scale's divisor,
as its variance; at K = 2 the effect is g(m_1) - g(m_2).
`pseudo_test` uses this closed form; `gee_fit` solves the two-group
model, one effect at any number of horizons, by Newton iteration
through the Schur complement of the intercepts, which keeps its digits
where one group's mean is near 0 or 1; it is the closed form's test
oracle at K = 2.  Both links are transforms of `fixed_time`: logit,
and cloglog(m) = llog(1 - m).  `_pseudo_tests` builds both links'
tests, every group's mean checked once and put on each link's scale
in one step for all K groups.

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

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_cause, _row_knots, _take_rows
from .errors import NonConvergence, SeparationDetected
from .estimation import _aalen_johansen, _finite_horizon, _lagged
from .fixed_time import (
    _TESTS,
    PSEUDO_METHODS,
    FixedTimeTestResult,
    LinkKind,
    TransformKind,
    _check_groups,
    _Part,
    _scaled,
    _stack,
    transform,
)

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


def _link_scale(m, link: LinkKind):
    """(kind, p) with g(m) the transform `kind` at p, and g'(m)^2 its
    delta-method factor there: logit is the logit scale at m, and
    cloglog(m) = log(-log(1 - m)) is the log(-log) scale at 1 - m."""
    if link is LinkKind.LOGIT:
        return TransformKind.LOGIT, m
    return TransformKind.LOGLOG, 1.0 - m


def _inverse_link(eta: np.ndarray, kind: LinkKind) -> np.ndarray:
    if kind is LinkKind.LOGIT:
        return 1.0 / (1.0 + np.exp(-eta))
    # expm1 keeps small means that 1 - exp(-exp(eta)) would round to 0
    return -np.expm1(-np.exp(eta))


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
    """Pseudo-values of each row of (R, N) `times` and `statuses`, one
    pooled sample per row, at the horizons `taus`, as an (R, N, H) array
    in the subjects' order."""
    rows, n = times.shape
    # the knots are each row's failure times up to the last horizon after
    # the empty knot 0 (see data._row_knots), so that each subject and
    # each horizon has a last knot at or before it
    a, d, (dk,), order, _, statuses, tail, rank, knot = _row_knots(times, statuses, (cause,),
                                                                   taus.max())
    # a sorted subject's last knot at or before its time is the rank at
    # the end of its tie block, and is at its time when that end is a knot
    end = np.flip(np.minimum.accumulate(np.flip(np.where(tail, np.arange(n), n - 1), -1),
                                        axis=-1), -1)
    last, own = _take_rows(rank, end), _take_rows(knot, end)
    del tail, rank, knot, end  # freed before the (subject, horizon) grid

    # full sample: survival just after, and incidence up to, each knot
    _, surv, jumps = _aalen_johansen(a, d, dk)
    inc = np.cumsum(jumps, axis=-1)

    # the same with one subject fewer at risk, as seen by a subject still
    # at risk at every knot so far; entry j covers the knots before j.  A
    # lone subject at risk can only be one failing at the last knot, and
    # taking out its own event leaves nothing there to divide.
    fewer = a - 1.0
    fewer[fewer == 0.0] = 1.0
    surv_fewer, _, jumps_fewer = _aalen_johansen(fewer, d, dk)
    inc_fewer = _lagged(np.cumsum(jumps_fewer, axis=-1), 0.0)

    # (subject, horizon) grid: j is the last knot at or before both the
    # subject's time and the horizon, whose last knot is that of its last
    # subject.  Leaving subject i out lowers the at-risk count at knots up
    # to j, takes its own event out of knot j, and leaves every later
    # knot as in the full sample.
    within = np.sum(times[..., None] <= taus, axis=-2)
    cut = _take_rows(np.concatenate((np.zeros((rows, 1), int), last), axis=-1), within)
    j = np.minimum(last[..., None], cut[:, None, :])

    def at(values):
        return _take_rows(values, j)

    own = ((statuses > 0) & own)[..., None] & (j == last[..., None])
    d_i = at(d) - own
    dk_i = at(dk) - (own & (statuses == cause)[..., None])
    fewer_j, surv_fewer_j = at(fewer), at(surv_fewer)
    inc_i = at(inc_fewer) + surv_fewer_j * dk_i / fewer_j
    surv_i = surv_fewer_j * ((fewer_j - d_i) / fewer_j)

    # past knot j the leave-one-out curve is the full-sample tail rescaled
    # by the ratio of the two survivals at j, which is positive there
    full = _take_rows(inc, cut)[:, None, :]
    ratio = np.divide(surv_i, at(surv), out=np.zeros_like(surv_i), where=j < cut[:, None, :])
    loo = inc_i + ratio * (full - at(inc))
    values = np.empty_like(loo)
    values[np.arange(rows)[:, None], order] = loo + n * (full - loo)
    return values


def pseudo_values(data: Dataset, cause: int, times) -> PseudoValueMatrix:
    """Jackknife pseudo-values of the pooled-sample incidence of `cause`.

    `times` must be strictly increasing finite positive horizons.  All groups
    are pooled for the estimate; rows align with the subjects of `data`.
    """
    _check_cause(cause)
    taus = np.asarray(times, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(np.diff([_finite_horizon(tau) for tau in taus.tolist()]) <= 0.0):
        raise ValueError("times must be strictly increasing")
    values = _pooled_pseudo(data.times[None], data.statuses[None], int(cause), taus)[0]
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
    if not np.all(np.isfinite(theta)):
        raise ValueError("pseudo-values must be finite")

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
    starts = [transform(p, kind) for kind, p in (_link_scale(mean, link) for mean in pooled)]
    beta = np.concatenate((starts, [0.0]))

    def score(b):
        eta = b[None, :m] + b[m] * x[:, None]
        # exp overflows to the right limits, a mean of 0 or 1
        with np.errstate(over="ignore"):
            dmu = _mean_derivative(eta, link)
            resid = theta - _inverse_link(eta, link)
        contrib = dmu * resid
        u = np.concatenate((contrib.sum(axis=0), [float(x @ contrib.sum(axis=1))]))
        return u, dmu, contrib

    def stalled(what):
        return NonConvergence(f"{what} after {iterations} iterations (max |U| = {gap:g})",
                              beta=beta, residual=gap)

    def solve(dmu, rhs):
        """info^{-1} r for each row r of `rhs`.  With A_h and B_h the x = 0
        and x = 1 sums of dmu^2 at horizon h, the information matrix holds
        A_h + B_h on the intercepts' diagonal, B_h in the effect's row and
        column and sum_h B_h last.  Its Schur complement
        sum_h A_h B_h / (A_h + B_h) has no subtraction, where a general
        solve loses digits to the ill-conditioning of a tiny A_h."""
        d2 = np.square(dmu)
        a, b = d2[x == 0.0].sum(axis=0), d2[x == 1.0].sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = b / (a + b)
            effect = (rhs[..., m] - rhs[..., :m] @ share) / np.sum(a * share)
            out = np.concatenate(((rhs[..., :m] - b * effect[..., None]) / (a + b),
                                  effect[..., None]), axis=-1)
        if not np.all(np.isfinite(out)):
            raise stalled("information matrix is singular")
        return out

    u, dmu, _ = score(beta)
    gap = float(np.abs(u).max())
    iterations = 0
    while True:
        step = solve(dmu, u)
        # a small score alone is not a root: where a fitted mean runs to 0
        # or 1 the mean derivative vanishes and takes max|U| below
        # tolerance far from the solution, so the derivative must stay
        # positive and the next Newton step be small too
        small_step = np.abs(step).max() <= _GEE_STEP_TOL * (1.0 + np.abs(beta).max())
        if gap < _GEE_TOL and small_step and dmu.min() > 0.0:
            beta = beta + step
            break
        if iterations >= _GEE_MAX_ITER:
            raise stalled("estimating equations not solved")
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
    per_subject = np.column_stack((contrib, x * contrib.sum(axis=1)))
    # each group's influence goes through the bread on its own: summed
    # first, a group whose term is 1e7 times the other's would swamp its
    # digits
    sandwich = np.zeros((m + 1, m + 1))
    for g in (0.0, 1.0):
        influence = solve(dmu, per_subject[x == g])
        sandwich += influence.T @ influence
    return GeeFit(beta=beta, sandwich=sandwich, iterations=iterations, link=link)


def _pseudo_tests(thetas, labels, tests) -> list[_Part]:
    """The requested pseudo-value tests over R rows from the K >= 2
    groups' (R, n_g) pseudo-values, in group order: `_wald` of the group
    means on each link's scale with the squared standard errors of the
    means as their variances, the closed form of the module docstring.
    Each mean is checked once for a value within N * eps of 0 or 1, as
    in `gee_fit`."""
    edge = sum(theta.shape[-1] for theta in thetas) * np.finfo(float).eps
    means = np.array([theta.mean(axis=-1) for theta in thetas])
    errors = np.array([np.square(theta - m[..., None]).sum(axis=-1) / theta.shape[-1]**2
                       for theta, m in zip(thetas, means)])
    separated = ~((edge < means) & (means < 1.0 - edge))

    def message(g, i):
        return f"group {labels[g]} mean pseudo-value outside (0, 1): {float(means[g, i])!r}"

    parts = []
    for link in PSEUDO_METHODS:
        if (test := _TESTS[link, None]) in tests:
            kind, p = _link_scale(means, link)
            inside, phi, (w,) = _scaled(kind, p, (errors,))
            parts.append(_Part(test, kind, p, means, None, inside, phi, w,
                               SeparationDetected, separated, message))
    return parts


def pseudo_test(data: Dataset, cause: int, t: float,
                link: LinkKind = LinkKind.CLOGLOG) -> FixedTimeTestResult:
    """Wald test of equal incidence of `cause` at `t` across the K >= 2
    groups of `data`, with K - 1 degrees of freedom.

    The fit is the closed-form saturated GEE of the module docstring,
    whose K - 1 group effects are tested together.  At K = 2 the effect
    is the first group's transformed mean minus the second's, so a
    positive effect means higher transformed incidence in the first
    group; beyond two groups it is None, as in `k_sample_test`.
    """
    test = _TESTS[LinkKind(link), None]
    _check_groups(len(data.groups))
    theta = pseudo_values(data, cause, [t]).values[:, 0]
    thetas = [theta[data.codes == g][None] for g in range(len(data.groups))]
    return _stack(_pseudo_tests(thetas, data.groups, (test,)), float(t)).result(
        0, 0, data.groups, cause)
