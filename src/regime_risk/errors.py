"""Exception types raised by the regime_risk package, and its one numeric
reader, :func:`real_array`: a number is held as its float (:func:`read_real`,
and :func:`store_reals` for a record's fields), an integer as its int
(:func:`read_int`: path counts, seeds and state indices).

Everything derives from :class:`RiskModelError`, which is itself a
``ValueError``, so callers can catch broadly or precisely.
"""

import math
from pathlib import Path

import numpy as np


class RiskModelError(ValueError):
    """Base class for all regime_risk errors."""


class DimensionError(RiskModelError):
    """A matrix or vector has the wrong shape, a list or array stands where a
    number belongs, or a grid (such as gammas) is empty or a single value."""


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


_RANKS = ("a number", "a nonempty 1-d vector", "a nonempty matrix")


def real_array(value, name: str, error: type[RiskModelError] = NonFinite, rank=None, integer=False) -> np.ndarray:
    """``value``, a number or an array of numbers, as a float array (a float64
    array is not copied): the one rule for what the library takes as a number.
    A dtype other than int, uint or float (a bool, string, complex or object
    value), or a bool anywhere in a list or tuple of numbers, raises
    ``error``, never cast; a ragged nested list, or a value not of ``rank`` (0
    a number, 1 a nonempty vector, 2 a nonempty matrix; None any shape), raises
    :class:`DimensionError`; a NaN or an infinity raises :class:`NonFinite`
    naming the first bad entry, as ``(i,j)`` in a matrix.  With ``integer`` a
    float dtype raises ``error`` too (as does a Python int past 64 bits, an
    object to numpy), and the array is returned as given, int or uint."""
    try:
        raw = np.asarray(value)
    except ValueError as exc:
        raise DimensionError(f"{name} must be a rectangular array of numbers: {exc}") from exc
    wanted = ("be an integer" if rank == 0 else "hold integers") if integer else "hold real numbers"
    if raw.dtype.kind not in ("iu" if integer else "iuf"):
        raise error(f"{name} must {wanted}, got dtype {raw.dtype}")
    if isinstance(value, (list, tuple)) and _holds_bool(value):
        raise error(f"{name} must {wanted}, got a bool entry")
    if rank is not None and (raw.ndim != rank or (rank and not raw.size)):
        raise DimensionError(f"{name} must be {_RANKS[rank]}, got shape {raw.shape}")
    if integer:
        return raw
    out = raw.astype(float, copy=False)
    if not np.isfinite(out).all():
        at = tuple(np.argwhere(~np.isfinite(out))[0].tolist())
        where = f" entry ({','.join(map(str, at))})" if at else ""
        raise NonFinite(f"{name}{where} must be finite, got {float(out[at])!r}")
    return out


def read_int(value, name: str, error: type[RiskModelError], low: int | None, high: int) -> int:
    """``value`` as a Python int in [low, high) (``low`` None: below ``high``),
    read as :func:`real_array` reads an integer at rank 0 (a 0-d int array is
    a number); a Python int, never a bool, is compared without an array, at
    any size.  A value not an integer, or out of range, raises ``error``."""
    if type(value) is not int:
        value = int(real_array(value, name, error, rank=0, integer=True))
    if value >= high or (low is not None and value < low):
        # a power-of-two bound past 32 bits (a 64-bit word's) reads as 2**k
        top = f"2**{high.bit_length() - 1}" if high > 1 << 32 and not high & (high - 1) else high
        bounds = f"below {top}" if low is None else f"in [{low}, {top})"
        raise error(f"{name} must be an integer {bounds}, got {value}")
    return value


def read_real(value, name: str) -> float:
    """``value`` as the Python float it stands for, read as :func:`real_array`
    reads a number (rank 0); a Python int or float (never a bool) without
    building an array.  An int beyond the float range is not finite."""
    if type(value) is bool or not isinstance(value, (int, float)):
        return float(real_array(value, name, rank=0))
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        raise NonFinite(f"{name} must be finite, got an int of {value.bit_length()} bits") from None
    raise NonFinite(f"{name} must be finite, got {value!r}")


def store_reals(record, *names: str) -> None:
    """Store each named field of the frozen dataclass ``record`` (every field,
    given no names) as its :func:`read_real` float."""
    for name in names or list(vars(record)):
        object.__setattr__(record, name, read_real(getattr(record, name), name))
