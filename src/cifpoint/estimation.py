"""Kaplan-Meier survival and Aalen-Johansen cumulative incidence.

With competing causes of failure, the probability of failing from cause
k by time t is estimated by accumulating, over the distinct failure
times t_1 < t_2 < ..., the chance of surviving everything up to just
before t_j (Kaplan-Meier on all-cause failure) times the conditional
hazard of a cause-k failure at t_j:

    I_k(t) = sum over t_j <= t of S(t_{j-1}) * d_kj / a_j

where a_j is the number at risk at t_j, d_kj the cause-k failures
there, and S the all-cause Kaplan-Meier estimate (Aalen & Johansen
1978; Kaplan & Meier 1958).  Both estimates are right-continuous step
functions, flat between failure times, defined at every t.  The
horizon of every variance, test and pseudo-value is checked by one
function, `_finite_horizon`: it must be finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EventTable, _check_cause

__all__ = ["StepFunction", "CifCurve", "km_survival", "cif_estimate", "cif_at"]


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function with a constant value before the
    first knot."""

    knots: np.ndarray
    values: np.ndarray
    before: float

    def __post_init__(self):
        if self.knots.shape != self.values.shape or self.knots.ndim != 1:
            raise ValueError("knots and values must be aligned 1-d arrays")
        if self.knots.size and np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing")

    def at(self, t):
        """Evaluate at scalar or array `t`, which must not be NaN."""
        t = np.asarray(t, dtype=float)
        if np.isnan(t).any():
            raise ValueError("cannot evaluate a step function at NaN")
        idx = np.searchsorted(self.knots, t, side="right")
        padded = np.concatenate(([self.before], self.values))
        out = padded[idx]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CifCurve:
    """Estimated cumulative incidence for one group and one cause."""

    group: str
    cause: int
    steps: StepFunction

    def at(self, t):
        return self.steps.at(t)


def _lagged(x: np.ndarray, first: float) -> np.ndarray:
    """`x` moved one place along the last axis, with `first` in front."""
    return np.concatenate((np.full(x.shape[:-1] + (1,), first), x[..., :-1]), axis=-1)


def _aalen_johansen(a: np.ndarray, d: np.ndarray, dk: np.ndarray):
    """The Aalen-Johansen recursion along the last axis over knots with
    at-risk counts `a`, failures `d` and cause-k failures `dk` (float
    arrays).

    Returns (S(t_{j-1}), S(t_j), S(t_{j-1}) * dk_j / a_j): the
    Kaplan-Meier survival just before and just after each knot, built
    from the factors (a_j - d_j) / a_j, and the cause-k incidence jumps.
    A knot without failures has the factor 1 and no jump.
    """
    surv = np.cumprod((a - d) / a, axis=-1)
    s_prev = _lagged(surv, 1.0)
    return s_prev, surv, s_prev * dk / a


def km_survival(table: EventTable) -> StepFunction:
    """All-cause Kaplan-Meier survival curve of one group.

    The curve starts at 1, drops only at failure times, and stays
    positive while anyone remains at risk past the last failure time.
    """
    d = table.events.astype(float)
    values = _aalen_johansen(table.at_risk.astype(float), d, d)[1]
    return StepFunction(knots=table.times.copy(), values=values, before=1.0)


def _finite_horizon(t) -> float:
    """`t` as a float, refusing a horizon that is not finite and
    positive: every test compares incidences at a time after 0."""
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"time must be finite and positive, got {t!r}")
    return t


def _table_counts(table: EventTable, cause: int, t: float):
    """A table's knot counts up to `t` as packed (a, d, dk), the empty
    knot first: (1, j + 1) float arrays for j failure times, the prefix
    of the `data._row_knots` row the table was built from.  A cause the
    table lacks has no failures."""
    _check_cause(cause)
    j = int(np.searchsorted(table.times, _finite_horizon(t), side="right"))
    dk = table.cause_events.get(cause, np.zeros(j))
    return tuple(np.concatenate(([first], x[:j]))[None].astype(float)
                 for first, x in ((table.size, table.at_risk), (0, table.events), (0, dk)))


def cif_estimate(table: EventTable, cause: int) -> CifCurve:
    """Aalen-Johansen cumulative incidence of `cause` for one group.

    A cause never observed in the group yields an identically-zero
    curve with no knots; a cause below 1 is refused.
    """
    _check_cause(cause)
    dk = table.cause_events.get(cause)
    if dk is None or not np.any(dk > 0):
        steps = StepFunction(knots=np.zeros(0), values=np.zeros(0), before=0.0)
        return CifCurve(group=table.group, cause=cause, steps=steps)
    d = table.events.astype(float)
    values = np.cumsum(_aalen_johansen(table.at_risk.astype(float), d, dk.astype(float))[2])
    steps = StepFunction(knots=table.times.copy(), values=values, before=0.0)
    return CifCurve(group=table.group, cause=cause, steps=steps)


def cif_at(curve: CifCurve, t) -> float:
    """Evaluate a cumulative incidence curve at one or more times."""
    return curve.at(t)
