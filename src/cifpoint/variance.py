"""Variance estimators for the cumulative incidence at a fixed time.

Two estimators of Var[I_k(t)] are provided.  Both are functions of the
same per-knot counts and both are flat between failure times.

`aalen_variance` is the counting-process form (Aalen 1978): a sum over
failure times t_j <= t of a squared-difference term, a binomial-style
term, and a cross term, each weighted by the at-risk and event counts.

`gaynor_variance` treats the estimate as a sum of per-knot increments
and adds their estimated variances and pairwise covariances (Gaynor et
al. 1993; Dinse & Larson 1986).  It is typically a little smaller than
the counting-process form in small samples.
"""

from __future__ import annotations

import enum

import numpy as np

from .data import EventTable
from .errors import NumericalError
from .estimation import _aalen_johansen, _lagged, _table_counts

__all__ = [
    "VarianceKind",
    "aalen_variance",
    "gaynor_variance",
    "cif_variance",
]

_CLAMP = 1e-14


class VarianceKind(enum.Enum):
    AALEN = "aalen"
    GAYNOR = "gaynor"


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den termwise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


# Both estimators work along the last axis of the knot terms (a, d, dk,
# S(t_{j-1}), jumps) that `_summaries` builds from packed knot counts,
# one row per data set.  Each gives one finite variance per row, which
# round-off may leave a little below 0.  Every sum runs in knot order,
# one total per term, so a row's empty knots add exact zeros.


def _aalen(terms):
    # a denominator vanishes only at a = 1 or a = d, always under a zero
    # numerator: at a = d the survival, and with it every later jump and
    # so `diff`, is exactly 0; at a = 1, dk (a - dk) is 0, and so is d
    # unless a = d
    a, d, dk, s_prev, inc = terms
    cum = np.cumsum(inc, axis=-1)
    diff = cum[..., -1:] - cum
    sq = _ratio(diff**2 * d, (a - 1.0) * (a - d))
    binom = _ratio(s_prev**2 * dk * (a - dk), a**2 * (a - 1.0))
    cross = _ratio(diff * s_prev * dk * (a - dk), a * (a - 1.0) * (a - d))
    sq, binom, cross = (np.cumsum(x, axis=-1)[..., -1] for x in (sq, binom, cross))
    return sq + binom - 2.0 * cross


def _gaynor(terms):
    a, d, dk, _, inc = terms
    # prefix[i] = sum over l < i of d_l / (a_l (a_l - d_l)); the ratio of
    # a saturated knot (a_l = d_l) is dropped, since every increment after
    # it is exactly 0.
    prefix = _lagged(np.cumsum(_ratio(d, a * (a - d)), axis=-1), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        own = np.where(dk > 0.0, inc**2 * ((a - dk) / (dk * a) + prefix), 0.0)
    later = np.flip(_lagged(np.cumsum(np.flip(inc, -1), axis=-1), 0.0), -1)
    pairs = inc * (prefix - 1.0 / a) * later
    own, pairs = (np.cumsum(x, axis=-1)[..., -1] for x in (own, pairs))
    return own + 2.0 * pairs


_ESTIMATORS = {VarianceKind.GAYNOR: _gaynor, VarianceKind.AALEN: _aalen}


def aalen_variance(table: EventTable, cause: int, t: float) -> float:
    """Counting-process variance of the cause-`cause` incidence at `t`."""
    return cif_variance(table, cause, t, VarianceKind.AALEN)


def gaynor_variance(table: EventTable, cause: int, t: float) -> float:
    """Increment-sum variance of the cause-`cause` incidence at `t`."""
    return cif_variance(table, cause, t, VarianceKind.GAYNOR)


def _variance(kind: VarianceKind, terms):
    """The `kind` variance of each row of `terms` and the mask of its one
    check: a value below -_CLAMP fails the row and is kept for the
    message (`_negative`).  Round-off negatives above that become 0."""
    values = _ESTIMATORS[kind](terms)
    negative = values < -_CLAMP
    return np.where((values < 0.0) & ~negative, 0.0, values), negative


def _negative(kind: VarianceKind, value) -> str:
    """The message of a `kind` variance that fails its check."""
    return f"{kind.value} variance is negative: {float(value)!r}"


def _first_row(summary, kind: VarianceKind) -> tuple[float, float]:
    """Row 0 of a `_summaries` summary: the estimate and the `kind`
    variance, or the variance's NumericalError raised if it fails."""
    estimate, variances = summary
    values, negative = variances[kind]
    if negative[0]:
        raise NumericalError(_negative(kind, values[0]))
    return float(estimate[0]), float(values[0])


def _summaries(a, d, dk, kinds=tuple(VarianceKind)):
    """The incidence at the last knot and each of the `kinds` of
    variance as (values, negative), row by row, from packed knot counts:
    one data set per row of `a`, `d` and `dk`, from `data._row_knots`
    or, for a table's prefix, `estimation._table_counts`."""
    s_prev, _, jumps = _aalen_johansen(a, d, dk)
    return (np.cumsum(jumps, axis=-1)[..., -1],
            {kind: _variance(kind, (a, d, dk, s_prev, jumps)) for kind in kinds})


def cif_variance(table: EventTable, cause: int, t: float,
                 kind: VarianceKind = VarianceKind.GAYNOR) -> float:
    """Dispatch to the requested variance estimator."""
    kind = VarianceKind(kind)
    return _first_row(_summaries(*_table_counts(table, cause, t), (kind,)), kind)[1]
