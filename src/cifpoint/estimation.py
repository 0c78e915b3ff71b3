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
functions, flat between failure times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EventTable

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


def _km_factors(table: EventTable) -> np.ndarray:
    """Per-knot survival factors (a_j - d_j) / a_j."""
    a = table.at_risk.astype(float)
    d = table.events.astype(float)
    return (a - d) / a


def km_survival(table: EventTable) -> StepFunction:
    """All-cause Kaplan-Meier survival curve of one group.

    The curve starts at 1, drops only at failure times, and stays
    positive while anyone remains at risk past the last failure time.
    """
    values = np.cumprod(_km_factors(table))
    return StepFunction(knots=table.times.copy(), values=values, before=1.0)


def _finite_horizon(t) -> float:
    """`t` as a float, refusing NaN and infinite horizons."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    return t


def _knot_terms(table: EventTable, cause: int, j: int):
    """Counts and cause-`cause` jumps at the first `j` failure times.

    Returns (a, d, d_k, S(t_{i-1}), S(t_{i-1}) * d_ki / a_i) as float
    arrays; the jumps sum to the Aalen-Johansen estimate at t_j, and
    both variance estimators are functions of these five arrays.
    """
    a = table.at_risk[:j].astype(float)
    d = table.events[:j].astype(float)
    dk = table.cause_events[cause][:j].astype(float)
    s_prev = np.concatenate(([1.0], np.cumprod((a - d) / a)[:-1]))
    return a, d, dk, s_prev, s_prev * dk / a


def cif_estimate(table: EventTable, cause: int) -> CifCurve:
    """Aalen-Johansen cumulative incidence of `cause` for one group.

    A cause never observed in the group yields an identically-zero
    curve with no knots.
    """
    dk = table.cause_events.get(cause)
    if dk is None or not np.any(dk > 0):
        steps = StepFunction(knots=np.zeros(0), values=np.zeros(0), before=0.0)
        return CifCurve(group=table.group, cause=cause, steps=steps)
    values = np.cumsum(_knot_terms(table, cause, table.times.size)[4])
    steps = StepFunction(knots=table.times.copy(), values=values, before=0.0)
    return CifCurve(group=table.group, cause=cause, steps=steps)


def cif_at(curve: CifCurve, t) -> float:
    """Evaluate a cumulative incidence curve at one or more times."""
    return curve.at(t)
