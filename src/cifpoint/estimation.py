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

`_pooled_pseudo` reuses the recursion for the jackknife pseudo-values
of the pooled incidence at a horizon tau,

    theta_i = N * C(tau) - (N - 1) * C_minus_i(tau)

with C_minus_i the estimate with subject i removed (Klein & Andersen
2005), and needs no refit.  Write Y_j, d_j and dk_j for the at-risk
count, the failures and the cause-k failures at the j-th distinct
failure time t_j, S and F for the full-sample Aalen-Johansen survival
and incidence, and t_m for the last failure time at or before both T_i
and tau.  Removing subject i lowers Y_j by one at every t_j <= t_m,
removes its own failure from d_m and dk_m when T_i = t_m, and changes
no count after t_m.  Hence

    C_minus_i(tau) = F'(t_m) + S'(t_m) / S(t_m) * (F(tau) - F(t_m))

where F' and S' run the recursion over t_1..t_m with Y_j - 1 in place
of Y_j, which for all subjects at once is one shared prefix product and
prefix sum plus a per-subject correction at t_m.  After one sort the
cost is O(N + K) per horizon for K distinct failure times, against
O(N K) for N separate refits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EventTable, _check_cause, _row_knots, _take_rows

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
