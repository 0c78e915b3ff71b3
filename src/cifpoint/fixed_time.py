"""Fixed-time comparison of cumulative incidence between groups.

The comparison statistic at a chosen time t applies a variance
stabilizing transform to each group's estimated incidence and refers
the squared standardized difference to a chi-squared law:

    X2 = (phi(I_1) - phi(I_2))^2 / (V[phi(I_1)] + V[phi(I_2)])

with V[phi(I)] = phi'(I)^2 V[I] by the delta method.  Five transforms
are supported; the identity keeps the raw scale, the others pull the
estimate away from the [0, 1] boundary where the normal approximation
is poor.  For K groups the statistic is the quadratic form of the
contrasts against the first group, with K - 1 degrees of freedom, in
closed form; X2 above is its K = 2 case.  `_wald` builds it for every
test, the pseudo-value tests included.

Each transform is one entry of the table `_SCALES`, in numpy (the
same doubles at any shape), which also gives `pseudo.py` its links.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .data import EventTable
from .errors import NotEstimable, ZeroVariance, _Check, _first_error
from .estimation import _table_counts
from .variance import VarianceKind, _summaries

__all__ = [
    "TransformKind",
    "GroupSummary",
    "FixedTimeTestResult",
    "transform",
    "transform_variance",
    "inverse_transform",
    "chi2_pvalue",
    "two_sample_test",
    "k_sample_test",
    "pointwise_ci",
]


class TransformKind(enum.Enum):
    LINEAR = "linear"
    LOG = "log"
    LOGLOG = "llog"
    ARCSINE_SQRT = "arcs"
    LOGIT = "logit"


@dataclass(frozen=True)
class GroupSummary:
    """Per-group pieces of a fixed-time comparison."""

    group: str
    estimate: float
    variance: float | None


@dataclass(frozen=True)
class FixedTimeTestResult:
    """Outcome of a fixed-time comparison.

    `effect` is the signed difference on the working scale (first group
    minus second, or the regression coefficient); None when the
    comparison has more than one contrast.
    """

    statistic: float
    df: int
    p_value: float
    time: float
    cause: int
    method: str
    variance: str | None
    groups: tuple[GroupSummary, ...]
    effect: float | None = None


class _Scale(NamedTuple):
    """One transform, in numpy: phi on the open domain (low, high), the
    divisor d with Var[phi(p)] = Var[p] / d(p) by the delta method, and
    phi^{-1} into [0, 1].  numpy gives the same doubles for an np.float64
    as for each entry of an array, so a block row equals its scalar call
    bit for bit; squares are `np.square`, as `x ** 2` on an np.float64
    calls libm's pow.  Where exp overflows phi^{-1} takes its limit 0 or
    1, and where d underflows to 0 the variance is inf, under `_limits`."""

    low: float
    high: float
    phi: Callable[[np.ndarray], np.ndarray]
    divisor: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]


_SCALES = {
    TransformKind.LINEAR: _Scale(
        -np.inf, np.inf, lambda p: p, lambda p: 1.0, lambda y: np.clip(y, 0.0, 1.0)),
    TransformKind.LOG: _Scale(
        0.0, np.inf, np.log, np.square, lambda y: np.minimum(1.0, np.exp(y))),
    TransformKind.LOGLOG: _Scale(
        0.0, 1.0, lambda p: np.log(-np.log(p)), lambda p: np.square(p * np.log(p)),
        lambda y: np.exp(-np.exp(y))),
    TransformKind.ARCSINE_SQRT: _Scale(
        0.0, 1.0, lambda p: np.arcsin(np.sqrt(p)), lambda p: 4.0 * p * (1.0 - p),
        lambda y: np.square(np.sin(np.clip(y, 0.0, np.pi / 2.0)))),
    TransformKind.LOGIT: _Scale(
        0.0, 1.0, lambda p: np.log(p / (1.0 - p)), lambda p: np.square(p * (1.0 - p)),
        lambda y: 1.0 / (1.0 + np.exp(-y))),
}
_limits = np.errstate(over="ignore", divide="ignore")


def _scale(p: float, kind: TransformKind) -> _Scale:
    """The entry of `kind`, refusing an estimate outside its domain."""
    scale = _SCALES[kind]
    if not scale.low < p < scale.high:
        raise NotEstimable(f"transform {kind.value!r} is undefined at estimate {p!r}")
    return scale


def transform(p: float, kind: TransformKind) -> float:
    """phi(p).  All transforms except the identity and the log are
    undefined on the boundary of [0, 1]; the log is defined at 1."""
    return float(_scale(p, TransformKind(kind)).phi(np.float64(p)))


@_limits
def transform_variance(p: float, v: float, kind: TransformKind) -> float:
    """Delta-method variance of phi(p) given Var[p] = v."""
    if not v >= 0.0:
        raise ValueError(f"variance must be >= 0, got {v!r}")
    return float(v / _scale(p, TransformKind(kind)).divisor(np.float64(p)))


@_limits
def inverse_transform(y: float, kind: TransformKind) -> float:
    """phi^{-1}(y), mapped back into [0, 1]."""
    if math.isnan(y):
        raise ValueError("cannot invert a transformed value of nan")
    return float(_SCALES[TransformKind(kind)].inverse(np.float64(y)))


def chi2_pvalue(x: float, df: int) -> float:
    """Upper tail P(X >= x) of the chi-squared law with integer `df`
    degrees of freedom.

    This is the regularized upper incomplete gamma function Q(df/2, y)
    at y = x/2, in closed form: Q(1/2, y) = erfc(sqrt(y)) and
    Q(1, y) = exp(-y), and Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1)
    steps a up to df/2.  Every term is positive, so the sum loses no
    digits to cancellation.
    """
    if df != int(df) or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    if not x >= 0.0:
        raise ValueError(f"statistic must be >= 0, got {x!r}")
    y = x / 2.0
    if y == 0.0:
        return 1.0
    if math.isinf(y):
        return 0.0
    a = 0.5 if df % 2 else 1.0
    tail = math.erfc(math.sqrt(y)) if df % 2 else math.exp(-y)
    log_y = math.log(y)
    while a < df / 2.0:
        tail += math.exp(a * log_y - y - math.lgamma(a + 1.0))
        a += 1.0
    return tail


@dataclass(frozen=True)
class _Rows:
    """One test of K groups over R rows of data, with K - 1 degrees of
    freedom: per row its statistic, effect (None beyond two groups) and
    group pieces, and the checks in the order they are made.
    A row's first failing check excludes it; a row that fails none is
    valid, and only valid rows' numbers mean anything."""

    method: str
    variance: str | None
    statistic: np.ndarray
    effect: np.ndarray | None
    estimates: tuple[np.ndarray, ...]
    variances: tuple[np.ndarray, ...] | None
    checks: tuple[_Check, ...]

    def first_failure(self) -> np.ndarray:
        """Index into `checks` of each row's first failing check, -1 for
        a valid row."""
        first = np.full(self.statistic.shape, -1)
        for k in reversed(range(len(self.checks))):
            first[self.checks[k].fails] = k
        return first

    def result(self, i: int, groups, cause: int, t: float) -> FixedTimeTestResult:
        """Row `i` as a result, or its first failing check's error raised."""
        error = _first_error(self.checks, i)
        if error is not None:
            raise error
        stat = float(self.statistic[i])
        df = len(self.estimates) - 1
        variances = self.variances or (None,) * len(groups)
        return FixedTimeTestResult(
            statistic=stat,
            df=df,
            p_value=chi2_pvalue(stat, df),
            time=t,
            cause=int(cause),
            method=self.method,
            variance=self.variance,
            groups=tuple(GroupSummary(g, float(e[i]), None if v is None else float(v[i]))
                         for g, e, v in zip(groups, self.estimates, variances)),
            effect=None if self.effect is None else float(self.effect[i]),
        )


@_limits
def _transformed_rows(points, kind: TransformKind):
    """Each group's phi and delta-method variance over R rows from its
    (estimates, (variances, checks)), NaN where the estimate is outside
    the transform's domain, and the checks in the order they are made:
    each group's variance checks before its estimate's domain, group by
    group."""
    scale = _SCALES[kind]
    checks, phis, ws = [], [], []
    for estimate, (var, var_checks) in points:
        inside = (estimate > scale.low) & (estimate < scale.high)
        checks.extend(var_checks)
        checks.append(_Check(
            NotEstimable, ~inside,
            lambda i, e=estimate: f"transform {kind.value!r} is undefined at estimate {float(e[i])!r}"))
        p = np.where(inside, estimate, 0.5)
        phis.append(np.where(inside, scale.phi(p), np.nan))
        ws.append(np.where(inside, var / scale.divisor(p), np.nan))
    return checks, phis, ws


def _wald(points, t: float, kind: TransformKind):
    """The Wald statistic of K >= 2 groups over R rows from their
    (estimates, (variances, checks)), with the effect phi_1 - phi_2 at
    K = 2 (else None) and the checks of `_transformed_rows` followed by
    one for a singular contrast covariance under unequal phis.

    The quadratic form of the contrasts against group 1, whose
    covariance has w_1 off the diagonal and w_1 + w_g on it, is N / D
    with D = sum_g prod_{h != g} w_h and
    N = sum_{g < h} (phi_g - phi_h)^2 prod_{l not in {g, h}} w_l;
    at K = 2 it is (phi_1 - phi_2)^2 / (w_1 + w_2).  D is 0 exactly when
    two or more w are, which is when the covariance is singular.

    For K >= 3 each row's w are divided by their largest, which then
    divides N / D, so that the products of K - 1 small variances do not
    underflow; variances spread widely over many groups still can."""
    checks, phis, ws = _transformed_rows(points, kind)
    scale = 1.0
    if len(ws) > 2:
        top = reduce(np.maximum, ws)
        scale = np.where(top > 0.0, top, 1.0)
        ws = [w / scale for w in ws]
    den = reduce(operator.add, [reduce(operator.mul, ws[:g] + ws[g + 1:]) for g in range(len(ws))])
    num = reduce(operator.add, [reduce(operator.mul, ws[:g] + ws[g + 1:h] + ws[h + 1:],
                                       (phis[g] - phis[h]) ** 2)
                                for g, h in combinations(range(len(ws)), 2)])
    singular = den == 0.0
    checks.append(_Check(
        ZeroVariance, singular & reduce(operator.or_, [phi != phis[0] for phi in phis[1:]]),
        lambda i: f"groups differ at t={t!r} but the contrast covariance is singular"))
    statistic = np.divide(num, den, out=np.zeros_like(den), where=~singular) / scale
    return statistic, phis[0] - phis[1] if len(phis) == 2 else None, tuple(checks)


def _test_rows(points, t: float, kind: TransformKind, variance: VarianceKind) -> _Rows:
    """One transform test of K groups over R rows, by `_wald`."""
    statistic, effect, checks = _wald(points, t, kind)
    return _Rows(kind.value, variance.value, statistic, effect,
                 tuple(e for e, _ in points), tuple(v for _, (v, _) in points), checks)


def _table_points(tables, cause: int, t: float, variance: VarianceKind):
    """Each table's one-row (estimates, (variances, checks)) at `t`,
    with only the `variance` estimator computed."""
    return [(estimate, variances[variance]) for estimate, variances in
            (_summaries(*_table_counts(tb, cause, t), (variance,)) for tb in tables)]


def two_sample_test(table1: EventTable, table2: EventTable, cause: int, t: float,
                    kind: TransformKind = TransformKind.LOGLOG,
                    variance: VarianceKind = VarianceKind.GAYNOR) -> FixedTimeTestResult:
    """Chi-squared comparison of two groups' incidence of `cause` at `t`:
    `k_sample_test` on the two tables."""
    return k_sample_test((table1, table2), cause, t, kind, variance)


def k_sample_test(tables, cause: int, t: float,
                  kind: TransformKind = TransformKind.LOGLOG,
                  variance: VarianceKind = VarianceKind.GAYNOR) -> FixedTimeTestResult:
    """Quadratic-form comparison of K >= 2 groups at `t`.

    Contrasts are taken against the first group; their covariance has
    the first group's transformed variance off the diagonal and the sum
    of the paired transformed variances on it.  The statistic has K - 1
    degrees of freedom, and for K = 2 it is the squared difference over
    the summed variances (see `_wald`).
    """
    tables = list(tables)
    if len(tables) < 2:
        raise ValueError("k_sample_test needs at least two groups")
    variance = VarianceKind(variance)
    rows = _test_rows(_table_points(tables, cause, t, variance),
                      float(t), TransformKind(kind), variance)
    return rows.result(0, [tb.group for tb in tables], cause, float(t))


def pointwise_ci(table: EventTable, cause: int, t: float,
                 kind: TransformKind = TransformKind.LOGLOG,
                 variance: VarianceKind = VarianceKind.GAYNOR,
                 level: float = 0.95) -> tuple[float, float]:
    """Transformed-scale confidence interval for the incidence at `t`,
    mapped back to the probability scale and intersected with [0, 1]."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    (point,) = _table_points((table,), cause, t, VarianceKind(variance))
    return _interval(point, TransformKind(kind), level)


@_limits
def _interval(point, kind: TransformKind, level: float) -> tuple[float, float]:
    """`pointwise_ci` of one `_table_points` row; raises its first failing check."""
    checks, (phi,), (w,) = _transformed_rows((point,), kind)
    error = _first_error(checks, 0)
    if error is not None:
        raise error
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(w[0])
    low, high = np.sort(_SCALES[kind].inverse(phi[0] + np.array([-half, half])))
    return (max(0.0, float(low)), min(1.0, float(high)))

