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
closed form; X2 above is its K = 2 case, and `_wald` builds it for
all tests at once from groups already on each test's scale.

Each transform is one entry of the table `_SCALES`, in numpy (the same
doubles at any shape), which also gives `pseudo.py` its links.
`TEST_METHODS` names the twelve tests of the battery: each transform
with each variance estimator, then the two pseudo-value links.  Two
builders give their `_Part`s, `_transform_tests` here and
`pseudo._pseudo_tests`, each putting the K groups on each scale once
(`_scaled`), and `_stack` makes them one `_Tests`: one `_wald` for all
and every check in one array.  `_scaled` is the one domain check of
every scale: `transform`, `transform_variance` and `pointwise_ci` are
one-row calls of it.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .data import EventTable
from .errors import NotEstimable, NumericalError, ZeroVariance
from .estimation import _table_counts
from .variance import VarianceKind, _first_row, _negative, _summaries

__all__ = [
    "TEST_IDS",
    "TEST_METHODS",
    "LinkKind",
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


class LinkKind(enum.Enum):
    """Link of a pseudo-value regression."""

    LOGIT = "logit"
    CLOGLOG = "cloglog"


# method label of each pseudo-value test, in battery order
PSEUDO_METHODS = {LinkKind.CLOGLOG: "pseudo-llog", LinkKind.LOGIT: "pseudo-logit"}

# the battery in order: each test id with its transform and variance
# estimator, or with its link and no variance for a pseudo-value test
_BATTERY = (
    *((f"{v.value}_{k.value}", k, v)
      for v in (VarianceKind.GAYNOR, VarianceKind.AALEN) for k in TransformKind),
    *((label.replace("-", "_"), link, None) for link, label in PSEUDO_METHODS.items()),
)
# test id -> (method, variance) as FixedTimeTestResult and the CLI name them
TEST_METHODS = {
    test: (PSEUDO_METHODS[kind], None) if variance is None else (kind.value, variance.value)
    for test, kind, variance in _BATTERY
}
TEST_IDS = tuple(TEST_METHODS)
# (transform or link, variance or None) -> test id
_TESTS = {(kind, variance): test for test, kind, variance in _BATTERY}


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
    1, and where d underflows to 0 a positive variance is inf and a zero
    one stays 0, under `_limits`."""

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


def _undefined(kind: TransformKind, p) -> str:
    """The message of the domain check of `kind` at the estimate `p`."""
    return f"transform {kind.value!r} is undefined at estimate {float(p)!r}"


def _one_row(kind, p, v=0.0) -> tuple[float, float]:
    """`_scaled` of one estimate `p` with variance `v`: phi(p) and its
    delta-method variance, or the domain check's error raised."""
    kind, p = TransformKind(kind), np.array([p], dtype=float)
    inside, phi, (w,) = _scaled(kind, p, (np.array([v]),))
    if not inside[0]:
        raise NotEstimable(_undefined(kind, p[0]))
    return float(phi[0]), float(w[0])


def transform(p: float, kind: TransformKind) -> float:
    """phi(p).  All transforms except the identity and the log are
    undefined on the boundary of [0, 1]; the log is defined at 1."""
    return _one_row(kind, p)[0]


def transform_variance(p: float, v: float, kind: TransformKind) -> float:
    """Delta-method variance of phi(p) given Var[p] = v."""
    if not v >= 0.0:
        raise ValueError(f"variance must be >= 0, got {v!r}")
    return _one_row(kind, p, v)[1]


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


class _Part(NamedTuple):
    """One test of K groups over R rows before its Wald step, in (K, R)
    arrays: the values `p` put on its scale and `_scaled`'s output, the
    groups' estimates and variances (None for a pseudo-value test), and
    the groups' first check: error type, fails, message of group g row i."""

    test: str
    kind: TransformKind
    p: np.ndarray
    estimates: np.ndarray
    variances: np.ndarray | None
    inside: np.ndarray
    phi: np.ndarray
    w: np.ndarray
    error: type
    fails: np.ndarray
    message: Callable[[int, int], str]


class _Tests(NamedTuple):
    """T tests of the same K groups over R rows of data, stacked, each
    with K - 1 degrees of freedom: per test its `_Part`, and as (T, R)
    arrays the statistics and, at K = 2, the effects (else None).
    `fails[j, c, r]` is check c of test j on row r, in the order the
    checks are made: each group's first check and then its domain check,
    group by group, then ZeroVariance; `errors[j][c]` is its error type.
    A row's first failing check excludes it; a row that fails none is
    valid, and only valid rows' numbers mean anything."""

    parts: tuple[_Part, ...]
    statistic: np.ndarray
    effect: np.ndarray | None
    fails: np.ndarray
    t: float

    @property
    def errors(self) -> tuple[tuple[type, ...], ...]:
        k = len(self.fails[0]) // 2
        return tuple((*(part.error, NotEstimable) * k, ZeroVariance) for part in self.parts)

    def message(self, j: int, c: int, i: int) -> str:
        """The error message of check `c` of test `j` on row `i`."""
        part, (g, domain) = self.parts[j], divmod(c, 2)
        if c == len(self.fails[j]) - 1:
            return f"groups differ at t={self.t!r} but the contrast covariance is singular"
        return _undefined(part.kind, part.p[g, i]) if domain else part.message(g, i)

    def result(self, j: int, i: int, groups, cause: int) -> FixedTimeTestResult:
        """Row `i` of test `j` as a result, or its first failure raised."""
        failing = self.fails[j, :, i]
        if failing.any():
            c = int(failing.argmax())
            raise self.errors[j][c](self.message(j, c, i))
        part, stat, df = self.parts[j], float(self.statistic[j, i]), len(groups) - 1
        v = [None] * len(groups) if part.variances is None else part.variances[:, i].tolist()
        return FixedTimeTestResult(
            stat, df, chi2_pvalue(stat, df), self.t, int(cause), *TEST_METHODS[part.test],
            tuple(map(GroupSummary, groups, part.estimates[:, i].tolist(), v)),
            None if self.effect is None else float(self.effect[j, i]))


@_limits
def _scaled(kind: TransformKind, estimate, variances):
    """Estimates on the `kind` scale, any shape: whether each lies in the
    open domain, phi, and the delta-method variances of phi for the V
    `variances` as one (V, ...) array, with phi and the divisor evaluated
    once; phi and the variances are NaN outside the domain."""
    scale = _SCALES[kind]
    inside = (estimate > scale.low) & (estimate < scale.high)
    p = np.where(inside, estimate, 0.5)
    # Var[phi(p)] = v / d(p), and v itself where v is 0
    v = np.array(variances, dtype=np.float64)
    w = np.divide(v, scale.divisor(p), out=v.copy(), where=v != 0.0)
    return inside, np.where(inside, scale.phi(p), np.nan), np.where(inside, w, np.nan)


def _wald(phi, w):
    """The Wald statistics of K >= 2 groups from (..., K, R) arrays of
    phi and w on each test's scale, with the effects phi_1 - phi_2 at
    K = 2 (else None) and the mask of a singular contrast covariance
    under unequal phis.

    The quadratic form of the contrasts against group 1, whose
    covariance has w_1 off the diagonal and w_1 + w_g on it, is N / D
    with D = sum_g prod_{h != g} w_h and
    N = sum_{g < h} (phi_g - phi_h)^2 prod_{l not in {g, h}} w_l;
    at K = 2 it is (phi_1 - phi_2)^2 / (w_1 + w_2).  D is 0 exactly when
    two or more w are, which is when the covariance is singular.  Sums
    and products run over the groups in order.

    For K >= 3 each row's w are divided by their largest, which then
    divides N / D, so that the products of K - 1 small variances do not
    underflow; variances spread widely over many groups still can."""
    phis, ws = list(np.moveaxis(phi, -2, 0)), list(np.moveaxis(w, -2, 0))
    scale = 1.0
    if len(ws) > 2:
        top = reduce(np.maximum, ws)
        scale = np.where(top > 0.0, top, 1.0)
        ws = [w / scale for w in ws]
    den = reduce(operator.add, [reduce(operator.mul, ws[:g] + ws[g + 1:]) for g in range(len(ws))])
    num = reduce(operator.add, [reduce(operator.mul, ws[:g] + ws[g + 1:h] + ws[h + 1:],
                                       np.square(phis[g] - phis[h]))
                                for g, h in combinations(range(len(ws)), 2)])
    singular = den == 0.0
    differ = singular & reduce(operator.or_, [phi != phis[0] for phi in phis[1:]])
    statistic = np.divide(num, den, out=np.zeros_like(den), where=~singular) / scale
    return statistic, phis[0] - phis[1] if len(phis) == 2 else None, differ


def _stack(parts, t: float) -> _Tests:
    """The tests of `parts`, in their order, as one `_Tests`: one `_wald`
    for all of them, and every check in one (T, 2K + 1, R) array."""
    statistic, effect, differ = _wald(np.array([part.phi for part in parts]),
                                      np.array([part.w for part in parts]))
    k = len(parts[0].phi)
    fails = np.empty((len(parts), 2 * k + 1, statistic.shape[-1]), dtype=bool)
    fails[:, 0:-1:2] = [part.fails for part in parts]
    np.logical_not([part.inside for part in parts], out=fails[:, 1::2])
    fails[:, -1] = differ
    return _Tests(tuple(parts), statistic, effect, fails, t)


def _transform_tests(summaries, tests) -> list[_Part]:
    """The requested transform tests of K groups over R rows, in battery
    order, from each group's `variance._summaries`: each scale's phi and
    divisor are evaluated once for all K groups and every variance."""
    estimates = np.array([estimate for estimate, _ in summaries])
    # the variances the summaries hold, each as (K, R) values and masks
    computed = list(summaries[0][1])
    values, negative = (np.array([[variances[v][c] for _, variances in summaries]
                                  for v in computed]) for c in (0, 1))
    scaled, parts = {}, []
    for test, kind, v in _BATTERY:
        if v is None or test not in tests:
            continue
        if kind not in scaled:
            scaled[kind] = _scaled(kind, estimates, values)
        inside, phi, ws = scaled[kind]
        e = computed.index(v)
        parts.append(_Part(test, kind, estimates, estimates, values[e], inside, phi, ws[e],
                           NumericalError, negative[e],
                           lambda g, i, v=v, e=e: _negative(v, values[e, g, i])))
    return parts


def _table_summaries(tables, cause: int, t: float, variance: VarianceKind):
    """Each table's one-row `variance._summaries` at `t`, with only the
    `variance` estimator computed."""
    return [_summaries(*_table_counts(tb, cause, t), (variance,)) for tb in tables]


def _check_groups(k: int) -> None:
    """Refuse k groups: every test compares two or more."""
    if k < 2:
        raise ValueError(f"the tests need at least two groups, got {k}")


def _check_level(level: float) -> None:
    """Refuse a confidence level outside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")


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
    variance = VarianceKind(variance)
    test = _TESTS[TransformKind(kind), variance]
    _check_groups(len(tables))
    parts = _transform_tests(_table_summaries(tables, cause, t, variance), (test,))
    return _stack(parts, float(t)).result(0, 0, [tb.group for tb in tables], cause)


def pointwise_ci(table: EventTable, cause: int, t: float,
                 kind: TransformKind = TransformKind.LOGLOG,
                 variance: VarianceKind = VarianceKind.GAYNOR,
                 level: float = 0.95) -> tuple[float, float]:
    """Transformed-scale confidence interval for the incidence at `t`,
    mapped back to the probability scale and intersected with [0, 1]."""
    _check_level(level)
    variance = VarianceKind(variance)
    (summary,) = _table_summaries((table,), cause, t, variance)
    return _interval(*_first_row(summary, variance), TransformKind(kind), level)


@_limits
def _interval(estimate, v, kind: TransformKind, level: float) -> tuple[float, float]:
    """`pointwise_ci` of one estimate and its checked variance; raises
    the domain check's error."""
    from statistics import NormalDist

    phi, w = _one_row(kind, estimate, v)
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(w)
    low, high = np.sort(_SCALES[kind].inverse(phi + np.array([-half, half])))
    return (max(0.0, float(low)), min(1.0, float(high)))

