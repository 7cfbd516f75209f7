"""Exception types raised by the regime_risk package.

Everything derives from :class:`RiskModelError`, which is itself a
``ValueError``, so callers can catch broadly or precisely.
"""

import math
from pathlib import Path

import numpy as np


class RiskModelError(ValueError):
    """Base class for all regime_risk errors."""


class DimensionError(RiskModelError):
    """A matrix or vector has the wrong shape, or a grid (such as gammas) is empty or a single value."""


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
    """A numeric input is NaN, infinite or not a real number (a bool, string or complex)."""


class ConfigError(RiskModelError):
    """A run configuration file, or an input file it names, is missing fields,
    malformed or inconsistent, or a run setting (a negative MC seed) is out of range."""


def read_text(path: Path) -> str:
    """The UTF-8 text of the file at ``path``, line endings as stored;
    :class:`ConfigError` naming the file when it is missing, is not a readable
    file, or is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path} as UTF-8 text: {exc}") from exc


def _holds_bool(seq) -> bool:
    """Whether a list or tuple, at any depth of nesting, holds a bool (or a
    bool array)."""
    kinds = set(map(type, seq))
    if not kinds.isdisjoint((bool, np.bool_)):
        return True
    nested = (list, tuple, np.ndarray)
    return not kinds.isdisjoint(nested) and any(
        v.dtype.kind == "b" if isinstance(v, np.ndarray) else _holds_bool(v)
        for v in seq
        if isinstance(v, nested)
    )


def real_array(value, name: str, error: type[RiskModelError] = NonFinite) -> np.ndarray:
    """``value``, a number or an array of numbers, as a float array (a float64
    array is not copied): the one rule for what the library takes as a number.
    A dtype other than int, uint or float (a bool, string, complex or object
    value), or a bool anywhere in a list or tuple of numbers, raises
    ``error``, never cast; a ragged nested list raises :class:`DimensionError`;
    a NaN or an infinity raises :class:`NonFinite` naming the first bad entry,
    as ``(i,j)`` in a matrix."""
    try:
        raw = np.asarray(value)
    except ValueError as exc:
        raise DimensionError(f"{name} must be a rectangular array of numbers: {exc}") from exc
    if raw.dtype.kind not in "iuf":
        raise error(f"{name} must hold real numbers, got dtype {raw.dtype}")
    if isinstance(value, (list, tuple)) and _holds_bool(value):
        raise error(f"{name} must hold real numbers, got a bool entry")
    out = raw.astype(float, copy=False)
    if not np.isfinite(out).all():
        at = tuple(np.argwhere(~np.isfinite(out))[0].tolist())
        where = f" entry ({','.join(map(str, at))})" if at else ""
        raise NonFinite(f"{name}{where} must be finite, got {float(out[at])!r}")
    return out


def require_finite(**values) -> None:
    """Check each keyword value as :func:`real_array` does; a Python int or
    float (never a bool) by ``math.isfinite``, without building an array.  An
    int beyond the float range is not finite."""
    for name, value in values.items():
        if type(value) is bool or not isinstance(value, (int, float)):
            real_array(value, name)
            continue
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise NonFinite(f"{name} must be finite, got an int of {value.bit_length()} bits") from None
        if not finite:
            raise NonFinite(f"{name} must be finite, got {value!r}")
