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


def _take_rows(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """x[r, index[r, ...]] for each row r of the 2-d `x`."""
    rows, width = x.shape
    offsets = (np.arange(rows) * width).reshape((rows,) + (1,) * (index.ndim - 1))
    return np.take(x, index + offsets)


def _row_knots(times: np.ndarray, statuses: np.ndarray, cause: int, t: float):
    """The knots of each row of (R, n) `times` and `statuses`, one data
    set per row: its distinct failure times at or before `t`.

    Each row is sorted once.  Its counts are packed in time order into
    (R, K + 1) arrays, K the most knots of any row, after the empty knot
    0 (all n at risk, no events), which also pads a row with fewer knots.
    Its factor 1 and zero jump change no product and, as every sum runs
    in knot order, no sum: a row's numbers do not depend on K.

    Returns (a, d, dk, order, statuses, tail, rank, knot): each knot's
    at-risk, failure and cause-`cause` failure counts as float arrays;
    the sorting permutation and the sorted statuses; and for each sorted
    position whether it ends a block of tied times, the number of knots
    up to it, and whether it is a knot.  The counts are all the variances
    need; `pseudo._pooled_pseudo` ranks each subject from the rest.
    """
    rows, n = times.shape
    order = np.argsort(times, axis=-1)
    times = _take_rows(times, order)
    statuses = _take_rows(statuses, order)
    pos = np.arange(n)
    head = np.ones(times.shape, dtype=bool)
    head[:, 1:] = times[:, 1:] != times[:, :-1]
    tail = np.ones(times.shape, dtype=bool)
    tail[:, :-1] = head[:, 1:]
    start = np.maximum.accumulate(np.where(head, pos, 0), axis=-1)

    def block_sums(flags):
        """The running count of `flags` within each tie block, which is
        the block's total on its last position."""
        before = _lagged(np.cumsum(flags, axis=-1), 0)
        return before + flags - _take_rows(before, start)

    failures = block_sums(statuses > 0)
    knot = tail & (times <= t) & (failures > 0)
    rank = np.cumsum(knot, axis=-1)
    row, col = np.nonzero(knot)
    slot = (row, rank[row, col])
    shape = (rows, int(rank[:, -1].max()) + 1)
    a, d, dk = np.full(shape, float(n)), np.zeros(shape), np.zeros(shape)
    a[slot] = n - start[row, col]
    d[slot] = failures[row, col]
    dk[slot] = block_sums(statuses == cause)[row, col]
    return a, d, dk, order, statuses, tail, rank, knot


def _table_counts(table: EventTable, cause: int, t: float):
    """A table's knot counts up to `t` as one row of `_row_knots`'s
    packed (a, d, dk), the empty knot first: (1, j + 1) float arrays for
    j failure times.  A cause the table lacks has no failures."""
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
