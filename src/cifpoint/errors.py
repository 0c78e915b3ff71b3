"""Exception types shared across the package, and the per-row checks
that raise them when many data sets are computed at once."""

from typing import Any, Callable, NamedTuple


class CifPointError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRecord(CifPointError):
    """A subject record violates the input contract (bad time or status)."""


class DegenerateRiskSet(CifPointError):
    """A variance term requires division by zero with a nonzero numerator.

    No longer raised: on a valid event table every zero denominator of
    both variances sits under a zero numerator.  Kept so that code
    catching it still imports."""


class NotEstimable(CifPointError):
    """A transform is undefined at the estimated value (boundary or empty)."""


class ZeroVariance(CifPointError):
    """A test statistic has zero variance and a nonzero numerator."""


class SeparationDetected(CifPointError):
    """A group mean pseudo-value lies outside (0, 1), so the link diverges."""


class NonConvergence(CifPointError):
    """Estimating-equation iteration failed to reach the tolerance."""

    def __init__(self, message, beta=None, residual=None):
        super().__init__(message)
        self.beta = beta
        self.residual = residual


class RankDeficientDesign(CifPointError):
    """A least-squares design matrix has linearly dependent columns."""

    def __init__(self, message, aliased=None):
        super().__init__(message)
        self.aliased = list(aliased) if aliased is not None else []


class NumericalError(CifPointError):
    """A computed quantity is outside its feasible range by more than round-off."""


class UnreachableTarget(CifPointError):
    """A calibration target cannot be attained; carries the supremum seen."""

    def __init__(self, message, supremum=None):
        super().__init__(message)
        self.supremum = supremum


class _Check(NamedTuple):
    """One check over the rows of a batch of data sets: the error type
    it raises, a boolean array of the rows that fail it, and the message
    of row i's error."""

    error: type
    fails: Any
    message: Callable[[int], str]


def _raise_first(checks, i: int) -> None:
    """Raise the error of row `i` from the first of `checks` it fails."""
    for check in checks:
        if check.fails[i]:
            raise check.error(check.message(i))
