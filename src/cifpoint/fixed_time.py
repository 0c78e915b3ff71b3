"""Fixed-time comparison of cumulative incidence between groups.

The comparison statistic at a chosen time t applies a variance
stabilizing transform to each group's estimated incidence and refers
the squared standardized difference to a chi-squared law:

    X2 = (phi(I_1) - phi(I_2))^2 / (V[phi(I_1)] + V[phi(I_2)])

with V[phi(I)] = phi'(I)^2 V[I] by the delta method.  Five transforms
are supported; the identity keeps the raw scale, the others pull the
estimate away from the [0, 1] boundary where the normal approximation
is poor.  A quadratic-form version handles more than two groups.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, ndtri

from .data import EventTable
from .errors import NotEstimable, ZeroVariance
from .variance import VarianceKind, estimate_and_variances

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


def _require_open_interval(p: float, kind: TransformKind) -> None:
    if p <= 0.0 or p >= 1.0:
        raise NotEstimable(
            f"transform {kind.value!r} is undefined at estimate {p!r}"
        )


def transform(p: float, kind: TransformKind) -> float:
    """phi(p).  All transforms except the identity and the log are
    undefined on the boundary of [0, 1]; the log is defined at 1."""
    kind = TransformKind(kind)
    if kind is TransformKind.LINEAR:
        return float(p)
    if kind is TransformKind.LOG:
        if p <= 0.0:
            raise NotEstimable(f"transform 'log' is undefined at estimate {p!r}")
        return math.log(p)
    _require_open_interval(p, kind)
    if kind is TransformKind.LOGLOG:
        return math.log(-math.log(p))
    if kind is TransformKind.ARCSINE_SQRT:
        return math.asin(math.sqrt(p))
    return math.log(p / (1.0 - p))


def transform_variance(p: float, v: float, kind: TransformKind) -> float:
    """Delta-method variance of phi(p) given Var[p] = v."""
    kind = TransformKind(kind)
    if v < 0.0:
        raise ValueError(f"variance must be >= 0, got {v!r}")
    if kind is TransformKind.LINEAR:
        return float(v)
    if kind is TransformKind.LOG:
        if p <= 0.0:
            raise NotEstimable(f"transform 'log' is undefined at estimate {p!r}")
        return v / p**2
    _require_open_interval(p, kind)
    if kind is TransformKind.LOGLOG:
        return v / (p * math.log(p)) ** 2
    if kind is TransformKind.ARCSINE_SQRT:
        return v / (4.0 * p * (1.0 - p))
    return v / (p * (1.0 - p)) ** 2


def inverse_transform(y: float, kind: TransformKind) -> float:
    """phi^{-1}(y), mapped back into [0, 1]."""
    kind = TransformKind(kind)
    if kind is TransformKind.LINEAR:
        return min(1.0, max(0.0, float(y)))
    if kind is TransformKind.LOG:
        return min(1.0, math.exp(y))
    if kind is TransformKind.LOGLOG:
        return math.exp(-math.exp(y))
    if kind is TransformKind.ARCSINE_SQRT:
        return math.sin(min(math.pi / 2.0, max(0.0, y))) ** 2
    return 1.0 / (1.0 + math.exp(-y))


def chi2_pvalue(x: float, df: int) -> float:
    """Upper tail P(X >= x) of the chi-squared law with `df` degrees of
    freedom, via the regularized upper incomplete gamma function."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df!r}")
    if x < 0.0:
        raise ValueError(f"statistic must be >= 0, got {x!r}")
    return float(gammaincc(df / 2.0, x / 2.0))


def _transformed(estimate: float, variance, kind: TransformKind):
    """(phi(I), V[phi(I)]); a variance given as the error that stopped
    it is raised here, ahead of the transform's own checks."""
    if isinstance(variance, Exception):
        raise variance
    return transform(estimate, kind), transform_variance(estimate, variance, kind)


def _point(table: EventTable, cause: int, t: float, variance: VarianceKind):
    estimate, variances = estimate_and_variances(table, cause, t, (variance,))
    return estimate, variances[variance]


def _two_sample(groups, points, cause: int, t: float, kind: TransformKind,
                variance: VarianceKind) -> FixedTimeTestResult:
    """Two-group statistic from each group's (estimate, variance)."""
    (e1, v1), (e2, v2) = points
    p1, w1 = _transformed(e1, v1, kind)
    p2, w2 = _transformed(e2, v2, kind)
    num = (p1 - p2) ** 2
    den = w1 + w2
    if den == 0.0:
        if num == 0.0:
            stat = 0.0
        else:
            raise ZeroVariance(
                f"groups differ at t={t!r} but both transformed variances are zero"
            )
    else:
        stat = num / den
    return FixedTimeTestResult(
        statistic=stat,
        df=1,
        p_value=chi2_pvalue(stat, 1),
        time=t,
        cause=int(cause),
        method=kind.value,
        variance=variance.value,
        groups=(GroupSummary(groups[0], e1, v1), GroupSummary(groups[1], e2, v2)),
        effect=p1 - p2,
    )


def _k_sample(groups, points, cause: int, t: float, kind: TransformKind,
              variance: VarianceKind) -> FixedTimeTestResult:
    """Quadratic-form statistic from each group's (estimate, variance)."""
    phi, w = np.array([_transformed(e, v, kind) for e, v in points]).T
    contrasts = phi[0] - phi[1:]
    cov = np.full((len(points) - 1, len(points) - 1), w[0])
    cov[np.diag_indices_from(cov)] = w[0] + w[1:]
    try:
        stat = float(contrasts @ np.linalg.solve(cov, contrasts))
    except np.linalg.LinAlgError:
        if np.all(contrasts == 0.0):
            stat = 0.0
        else:
            raise ZeroVariance(
                f"groups differ at t={t!r} but the contrast covariance is singular"
            ) from None
    stat = max(stat, 0.0)
    df = len(points) - 1
    return FixedTimeTestResult(
        statistic=stat,
        df=df,
        p_value=chi2_pvalue(stat, df),
        time=t,
        cause=int(cause),
        method=kind.value,
        variance=variance.value,
        groups=tuple(GroupSummary(g, e, v) for g, (e, v) in zip(groups, points)),
    )


def two_sample_test(table1: EventTable, table2: EventTable, cause: int, t: float,
                    kind: TransformKind = TransformKind.LOGLOG,
                    variance: VarianceKind = VarianceKind.GAYNOR) -> FixedTimeTestResult:
    """Chi-squared comparison of two groups' incidence of `cause` at `t`."""
    variance = VarianceKind(variance)
    points = [_point(tb, cause, t, variance) for tb in (table1, table2)]
    return _two_sample((table1.group, table2.group), points, cause, float(t),
                       TransformKind(kind), variance)


def k_sample_test(tables, cause: int, t: float,
                  kind: TransformKind = TransformKind.LOGLOG,
                  variance: VarianceKind = VarianceKind.GAYNOR) -> FixedTimeTestResult:
    """Quadratic-form comparison of R >= 2 groups at `t`.

    Contrasts are taken against the first group; their covariance has
    the first group's transformed variance off the diagonal and the sum
    of the paired transformed variances on it.  The statistic has R - 1
    degrees of freedom, and for R = 2 it reduces to the two-sample one.
    """
    tables = list(tables)
    if len(tables) < 2:
        raise ValueError("k_sample_test needs at least two groups")
    variance = VarianceKind(variance)
    points = [_point(tb, cause, t, variance) for tb in tables]
    return _k_sample([tb.group for tb in tables], points, cause, float(t),
                     TransformKind(kind), variance)


def pointwise_ci(table: EventTable, cause: int, t: float,
                 kind: TransformKind = TransformKind.LOGLOG,
                 variance: VarianceKind = VarianceKind.GAYNOR,
                 level: float = 0.95) -> tuple[float, float]:
    """Transformed-scale confidence interval for the incidence at `t`,
    mapped back to the probability scale and intersected with [0, 1]."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    kind = TransformKind(kind)
    phi, w = _transformed(*_point(table, cause, t, VarianceKind(variance)), kind)
    z = float(ndtri(0.5 + level / 2.0))
    half = z * math.sqrt(w)
    ends = sorted(
        (inverse_transform(phi - half, kind), inverse_transform(phi + half, kind))
    )
    return (max(0.0, ends[0]), min(1.0, ends[1]))
