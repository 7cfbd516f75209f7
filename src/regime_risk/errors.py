"""Exception types raised by the regime_risk package.

Everything derives from :class:`RiskModelError`, which is itself a
``ValueError``, so callers can catch broadly or precisely.
"""

import math


class RiskModelError(ValueError):
    """Base class for all regime_risk errors."""


class DimensionError(RiskModelError):
    """A matrix or vector has the wrong shape, or a grid (such as gammas) is empty."""


class NotAGenerator(RiskModelError):
    """A matrix fails the rate-matrix conditions (column sums zero, signs)."""


class NotStochastic(RiskModelError):
    """A transition matrix row does not sum to one or has entries outside [0, 1]."""


class BadDistribution(RiskModelError):
    """A probability vector has negative mass or does not sum to one, a
    Gaussian law has a negative volatility or a correlation outside [-1, 1],
    or a price series holds a price that is not positive."""


class TimeOrder(RiskModelError):
    """Time arguments are inconsistent (e.g. t < s, unsorted dates, or a nonpositive step)."""


class NotMeanReverting(RiskModelError):
    """Calibration cannot identify a positive reversion rate from the data."""


class TooFewPoints(RiskModelError):
    """A price series is too short to calibrate."""


class StateOutOfRange(RiskModelError):
    """A regime index is outside [0, n_states)."""


class LengthMismatch(RiskModelError):
    """Paired series have inconsistent lengths."""


class EmptySamples(RiskModelError):
    """An estimator was given no samples, or too few (a standard error needs two paths)."""


class NonPositiveGamma(RiskModelError):
    """The entropic parameter must be strictly positive."""


class NonFinite(RiskModelError):
    """A numeric input is NaN or infinite."""


class ConfigError(RiskModelError):
    """A run configuration file, or an input file it names, is missing fields,
    malformed or inconsistent, or a run setting (a negative MC seed) is out of range."""


def require_finite(**values: float) -> None:
    """Raise :class:`NonFinite` naming the first NaN or infinite value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise NonFinite(f"{name} must be finite, got {value}")
