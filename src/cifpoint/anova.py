"""Linear-model summaries of simulation grids.

Rejection rates from a grid of scenarios are condensed by no-intercept
least squares on four designs.  Writing Y for the percent rejection
rate (minus the nominal level, for the null case), the models are

    1: TEST x NUM cell means + dummies for TIME and CEN
    2: TEST x TIME cell means + dummies for NUM and CEN
    3: TEST x CEN cell means + dummies for NUM and TIME
    4: TEST cell means + dummies for NUM, TIME and CEN

where TEST has the twelve battery members as levels, NUM the group
size pairs, TIME the fixed times, and CEN the censoring fractions.
A factor's levels come in order of first appearance in the grid, and
dummy coding drops the first, so cell-mean estimates are anchored at
the remaining factors' reference levels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CifPointError, NumericalError, RankDeficientDesign
from .simulation import TEST_IDS

__all__ = ["Coefficient", "AnovaTable", "ols_no_intercept", "anova_summarize"]

# the label of a scenario's level of each factor besides TEST; the one
# place where these labels are formatted
_FACTORS = {
    "NUM1_NUM2": lambda s: f"{s.n1}/{s.n2}",
    "TIME": lambda s: f"{s.t_fixed:g}",
    "CEN": lambda s: f"{s.censor_fraction:g}",
}
_INTERACTIONS = {1: "NUM1_NUM2", 2: "TIME", 3: "CEN", 4: None}
_RESPONSES = ("type1", "power")


@dataclass(frozen=True, slots=True)
class Coefficient:
    factor: str
    level: str
    estimate: float


@dataclass(frozen=True, slots=True, eq=False)
class AnovaTable:
    """Least-squares coefficients for one model and response.

    They are held as the (factor, level) pair of each design column,
    one tuple shared by every fit of the same model to the same levels,
    and a read-only array of estimates, so that many tables stay small.
    """

    model: int
    response: str
    _columns: tuple[tuple[str, str], ...]
    _estimates: np.ndarray

    @property
    def coefficients(self) -> tuple[Coefficient, ...]:
        return tuple(Coefficient(factor, level, estimate)
                     for (factor, level), estimate in zip(self._columns, self._estimates.tolist()))

    def effects(self, factor: str) -> dict[str, float]:
        found = {level: estimate
                 for (f, level), estimate in zip(self._columns, self._estimates.tolist())
                 if f == factor}
        if not found:
            known = sorted({f for f, _ in self._columns})
            raise KeyError(f"no factor {factor!r} in model {self.model}; have {known}")
        return found


def _aliased_columns(design: np.ndarray) -> list[int]:
    """Indices, in column order, of the columns in the span of the
    columns before them.

    One Gram-Schmidt pass projects each column twice against the basis
    kept so far; a column whose residual norm is at most
    max(design.shape) * eps times its own norm (a zero column, too) is
    aliased and does not join the basis.
    """
    tol = max(design.shape) * np.finfo(float).eps
    basis = np.empty_like(design)
    rank = 0
    aliased = []
    for j, col in enumerate(design.T):
        resid = col.copy()
        for _ in range(2):
            resid -= basis[:, :rank] @ (basis[:, :rank].T @ resid)
        norm = np.linalg.norm(resid)
        if norm <= tol * np.linalg.norm(col):
            aliased.append(j)
        else:
            basis[:, rank] = resid / norm
            rank += 1
    return aliased


def ols_no_intercept(design, y):
    """Least squares through the origin with a rank guard.

    Raises RankDeficientDesign naming the aliased columns (by index)
    when the design loses column rank, and checks that residuals are
    orthogonal to the design afterwards.

    Column j's residual against the others is |A e| with e_j = 1, at
    least the least singular value s_min, while `_aliased_columns` calls
    it aliased below max(A.shape) * eps * |col_j| <= max(A.shape) * eps
    * s_max.  So the singular values that `lstsq` gives already clear a
    design with s_min > 1e-8 s_max (of fewer than 4e7 rows), and only the
    other designs are checked column by column.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if design.ndim != 2 or y.shape != (design.shape[0],):
        raise ValueError("design must be 2-d with one response per row")
    coef, _, _, singular = np.linalg.lstsq(design, y, rcond=None)
    if singular.size < design.shape[1] or not np.all(singular > 1e-8 * singular.max(initial=0.0)):
        aliased = _aliased_columns(design)
        if aliased:
            raise RankDeficientDesign(
                f"design has rank {design.shape[1] - len(aliased)} < {design.shape[1]} columns",
                aliased=aliased,
            )
    gap = np.abs(design.T @ (y - design @ coef)).max()
    if gap > 1e-8 * np.linalg.norm(y):
        raise NumericalError(f"least-squares residuals not orthogonal (gap {gap:g})")
    return coef


@functools.lru_cache(maxsize=64)
def _design_columns(model: int, levels: tuple[tuple[str, ...], ...]) -> tuple[tuple[str, str], ...]:
    """(factor, level) of each design column of `model`, given each
    factor's levels in _FACTORS order, in order of first appearance."""
    labels = dict(zip(_FACTORS, levels))
    interaction = _INTERACTIONS[model]
    if interaction is None:
        columns = [("TEST", test) for test in TEST_IDS]
    else:
        columns = [(f"TEST:{interaction}", f"{test}:{lvl}")
                   for test in TEST_IDS for lvl in labels[interaction]]
    for factor, lvls in labels.items():
        if factor != interaction:
            columns.extend((factor, lvl) for lvl in lvls[1:])
    return tuple(columns)


def anova_summarize(results, response: str = "type1", model: int = 4) -> AnovaTable:
    """Fit one of the four summary models to a grid of scenario results.

    `response` is "type1" (percent rate minus the nominal level) or
    "power" (percent rate).
    """
    results = list(results)
    if not results:
        raise ValueError("no scenario results to summarize")
    if response not in _RESPONSES:
        raise ValueError(f"response must be one of {_RESPONSES}, got {response!r}")
    if model not in _INTERACTIONS:
        raise ValueError(f"model must be 1, 2, 3 or 4, got {model!r}")

    labels = [tuple(label(res.scenario) for label in _FACTORS.values()) for res in results]
    columns = _design_columns(model, tuple(tuple(dict.fromkeys(lvls)) for lvls in zip(*labels)))
    index = {key: j for j, key in enumerate(columns)}
    interaction = _INTERACTIONS[model]
    test_factor = "TEST" if interaction is None else f"TEST:{interaction}"

    design = np.zeros((len(results) * len(TEST_IDS), len(columns)))
    y = np.empty(design.shape[0])
    for r, (res, scenario_labels) in enumerate(zip(results, labels)):
        s = res.scenario
        level = dict(zip(_FACTORS, scenario_labels))
        # the dummies outside the cell, shared by the scenario's rows; a
        # reference level and the cell's own factor name no column
        start = r * len(TEST_IDS)
        design[start:start + len(TEST_IDS), [index[key] for key in level.items() if key in index]] = 1.0
        suffix = "" if interaction is None else f":{level[interaction]}"
        for i, test in enumerate(TEST_IDS, start=start):
            if res.valid(test) == 0:
                raise CifPointError(f"test {test} has no valid replications in scenario {s}")
            percent = 100.0 * res.rate(test)
            y[i] = percent - 100.0 * s.alpha if response == "type1" else percent
            design[i, index[(test_factor, test + suffix)]] = 1.0

    try:
        coef = ols_no_intercept(design, y)
    except RankDeficientDesign as exc:
        named = [f"{columns[j][0]}={columns[j][1]}" for j in exc.aliased]
        raise RankDeficientDesign(
            f"model {model} design is rank deficient", aliased=named
        ) from None

    coef.flags.writeable = False
    return AnovaTable(model, response, columns, coef)
