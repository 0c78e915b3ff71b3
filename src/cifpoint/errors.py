"""Exception types shared across the package."""


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

