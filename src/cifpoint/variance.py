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
from .errors import DegenerateRiskSet, NumericalError
from .estimation import _finite_horizon, _knot_terms

__all__ = [
    "VarianceKind",
    "aalen_variance",
    "gaynor_variance",
    "cif_variance",
    "estimate_and_variances",
]

_CLAMP = 1e-14


class VarianceKind(enum.Enum):
    AALEN = "aalen"
    GAYNOR = "gaynor"


def _clamped(value: float, label: str) -> float:
    if value < 0.0:
        if value < -_CLAMP:
            raise NumericalError(f"{label} variance is negative: {value!r}")
        return 0.0
    return float(value)


def _guarded_ratio(num: np.ndarray, den: np.ndarray, label: str) -> np.ndarray:
    """num/den termwise; a zero denominator is allowed only under a zero
    numerator, where the term is dropped."""
    bad = den == 0.0
    if np.any(bad & (num != 0.0)):
        raise DegenerateRiskSet(f"{label}: zero denominator with nonzero numerator")
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=~bad)
    return out


def _terms(table: EventTable, cause: int, t: float):
    """Knot terms through the last failure time at or before `t`, or
    None when the estimate is 0 there with nothing to vary."""
    j = int(np.searchsorted(table.times, _finite_horizon(t), side="right"))
    if j == 0 or cause not in table.cause_events:
        return None
    return _knot_terms(table, cause, j)


def _aalen(terms) -> float:
    a, d, dk, s_prev, inc = terms
    cum = np.cumsum(inc)
    diff = cum[-1] - cum
    sq = _guarded_ratio(diff**2 * d, (a - 1.0) * (a - d), "aalen squared term")
    binom = _guarded_ratio(s_prev**2 * dk * (a - dk), a**2 * (a - 1.0), "aalen binomial term")
    cross = _guarded_ratio(
        diff * s_prev * dk * (a - dk), a * (a - 1.0) * (a - d), "aalen cross term"
    )
    return _clamped(sq.sum() + binom.sum() - 2.0 * cross.sum(), "aalen")


def _gaynor(terms) -> float:
    a, d, dk, _, inc = terms
    # prefix[i] = sum over l < i of d_l / (a_l (a_l - d_l)); a saturated
    # knot (a_l = d_l) can only be the last one, where no later increment
    # exists to multiply it, so its ratio is dropped if that holds.
    exhausted = a == d
    ratio = np.zeros_like(a)
    np.divide(d, a * (a - d), out=ratio, where=~exhausted)
    prefix = np.concatenate(([0.0], np.cumsum(ratio)))[:-1]
    if np.any(exhausted[:-1]) and np.any(inc[np.argmax(exhausted) + 1 :] != 0.0):
        raise DegenerateRiskSet("gaynor prefix: zero denominator with nonzero numerator")

    with np.errstate(divide="ignore", invalid="ignore"):
        own = np.where(dk > 0.0, inc**2 * ((a - dk) / (dk * a) + prefix), 0.0)
    later = np.concatenate((np.cumsum(inc[::-1])[::-1][1:], [0.0]))
    pairs = inc * (prefix - 1.0 / a) * later
    return _clamped(own.sum() + 2.0 * pairs.sum(), "gaynor")


_ESTIMATORS = {VarianceKind.GAYNOR: _gaynor, VarianceKind.AALEN: _aalen}


def aalen_variance(table: EventTable, cause: int, t: float) -> float:
    """Counting-process variance of the cause-`cause` incidence at `t`."""
    return cif_variance(table, cause, t, VarianceKind.AALEN)


def gaynor_variance(table: EventTable, cause: int, t: float) -> float:
    """Increment-sum variance of the cause-`cause` incidence at `t`."""
    return cif_variance(table, cause, t, VarianceKind.GAYNOR)


def cif_variance(table: EventTable, cause: int, t: float,
                 kind: VarianceKind = VarianceKind.GAYNOR) -> float:
    """Dispatch to the requested variance estimator."""
    estimator = _ESTIMATORS[VarianceKind(kind)]
    terms = _terms(table, cause, t)
    return 0.0 if terms is None else estimator(terms)


def estimate_and_variances(table: EventTable, cause: int, t: float):
    """The cause-`cause` incidence at `t` and both its variances, from
    one pass over the table.

    Returns (estimate, {VarianceKind: variance}); a variance that
    cannot be computed is given as the DegenerateRiskSet or
    NumericalError it raised, so that it excludes only the tests that
    use it.
    """
    terms = _terms(table, cause, t)
    if terms is None:
        return 0.0, dict.fromkeys(VarianceKind, 0.0)
    variances = {}
    for kind in VarianceKind:
        try:
            variances[kind] = _ESTIMATORS[kind](terms)
        except (DegenerateRiskSet, NumericalError) as exc:
            variances[kind] = exc
    return float(np.cumsum(terms[4])[-1]), variances
