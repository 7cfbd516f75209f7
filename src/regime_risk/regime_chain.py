"""Finite-state continuous-time Markov chain: validation and exponentials.

Paths of the chain are sampled together with the spot by the two samplers in
:mod:`regime_risk.entropic_risk`.

Convention
----------
The generator (rate) matrix ``q`` is stored in the *column* convention:
every column sums to zero and ``q[j, i]`` (j != i) is the rate of jumping
from state ``i`` to state ``j``.  The law of the chain then evolves as

    p(t) = expm(q * t) @ p(0)

with probability vectors as columns.  Most textbooks use the row
convention (rows sum to zero); transpose when importing a generator from
such a source, or use :func:`from_transition` for discrete transition
matrices, which handles the transpose for you.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    BadDistribution,
    DimensionError,
    NonFinite,
    NotAGenerator,
    NotStochastic,
    TimeOrder,
    require_finite,
)

_COLSUM_TOL = 1e-9      # generator column sums must vanish within this
_SIGN_TOL = 1e-12       # off-diagonal entries may be this far below zero
_ROWSUM_TOL = 1e-6      # from_transition row sums
_EXP_COLSUM_TOL = 1e-10


@dataclass(frozen=True)
class Generator:
    """Validated rate matrix of an n-state chain, column convention.

    Construct through :func:`validate_generator` or :func:`from_transition`;
    the constructor itself re-checks the invariants.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        _check_generator(q)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def exit_rates(self) -> np.ndarray:
        """Rate of leaving each state, ``-diag(q)``."""
        return -np.diag(self.q)


def _check_generator(q: np.ndarray) -> None:
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionError(f"generator must be a square matrix, got shape {q.shape}")
    if q.shape[0] < 1:
        raise DimensionError("generator needs at least one state")
    if not np.isfinite(q).all():
        i, j = np.argwhere(~np.isfinite(q))[0]
        raise NonFinite(f"generator entry ({i},{j})={q[i, j]!r} is not finite")
    off = q[~np.eye(q.shape[0], dtype=bool)]
    if off.size and off.min() < -_SIGN_TOL:
        i, j = _worst_offdiag(q)
        raise NotAGenerator(f"off-diagonal entry ({i},{j})={q[i, j]!r} is negative")
    diag = np.diag(q)
    if diag.size and diag.max() > _SIGN_TOL:
        i = int(np.argmax(diag))
        raise NotAGenerator(f"diagonal entry ({i},{i})={q[i, i]!r} is positive")
    colsums = q.sum(axis=0)
    if np.any(np.abs(colsums) > _COLSUM_TOL):
        j = int(np.argmax(np.abs(colsums)))
        raise NotAGenerator(
            f"column {j} sums to {colsums[j]!r}, expected 0 within {_COLSUM_TOL} "
            "(column convention: rates out of state j live in column j)"
        )


def _worst_offdiag(q: np.ndarray) -> tuple[int, int]:
    mask = ~np.eye(q.shape[0], dtype=bool)
    masked = np.where(mask, q, np.inf)
    return np.unravel_index(int(np.argmin(masked)), q.shape)  # type: ignore[return-value]


def validate_generator(q: np.ndarray) -> Generator:
    """Validate a raw square matrix as a column-convention generator.

    Off-diagonal entries in [-1e-12, 0) and positive diagonal entries up to
    1e-12 are clamped to zero (floating-point dust from upstream arithmetic);
    anything worse raises.

    Raises
    ------
    DimensionError
        If ``q`` is not square.
    NonFinite
        If an entry is NaN or infinite.
    NotAGenerator
        On sign violations or nonzero column sums, naming the offending entry.
    """
    q = np.array(q, dtype=float)
    _check_generator(q)
    mask = ~np.eye(q.shape[0], dtype=bool)
    q[mask & (q < 0)] = 0.0
    np.fill_diagonal(q, np.minimum(np.diag(q), 0.0))
    return Generator(q)


def from_transition(p, dt: float) -> Generator:
    """First-order generator from a one-step transition matrix.

    Maps a row-stochastic P over step ``dt`` to ``(P - I)^T / dt``, which is a
    valid column-convention generator exactly when P is row-stochastic with
    entries in [0, 1].  This is the first-order approximation to the matrix
    logarithm; adequate for small steps (e.g. daily data), and always
    well-defined.

    Matrices are rejected with :class:`NotStochastic` (naming the row and its
    sum) when any row strays from 1 by more than 1e-6 — defective inputs are
    surfaced, never renormalized silently.
    """
    mat, step = np.asarray(p, dtype=float), float(dt)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"transition matrix must be square, got shape {mat.shape}")
    require_finite(dt=step)
    if step <= 0:
        raise TimeOrder(f"dt must be positive, got {step}")
    if np.any(mat < -_SIGN_TOL) or np.any(mat > 1 + _SIGN_TOL):
        i, j = np.unravel_index(int(np.argmin(np.minimum(mat, 1 - mat))), mat.shape)
        raise NotStochastic(f"entry ({i},{j})={mat[i, j]!r} outside [0, 1]")
    sums = mat.sum(axis=1)
    bad = np.abs(sums - 1.0) > _ROWSUM_TOL
    if np.any(bad):
        i = int(np.argmax(np.abs(sums - 1.0)))
        raise NotStochastic(f"row {i} sums to {sums[i]!r}, expected 1 within {_ROWSUM_TOL}")
    q = (mat - np.eye(mat.shape[0])).T / step
    return validate_generator(q)


def matrix_exp(g: Generator, t: float) -> np.ndarray:
    """Transition kernel ``expm(q t)``; column i is the law at horizon t from state i.

    Uses scaling-and-squaring with diagonal Padé approximants (scipy).  The
    result is checked to be column-stochastic within 1e-10 and entries in
    [-1e-12, 0) are clamped to zero.
    """
    if t < 0:
        raise TimeOrder(f"t must be nonnegative, got {t}")
    if t == 0:
        return np.eye(g.n)
    out = expm(g.q * t)
    colsums = out.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > _EXP_COLSUM_TOL):
        j = int(np.argmax(np.abs(colsums - 1.0)))
        raise NotAGenerator(f"expm column {j} sums to {colsums[j]!r}; generator is corrupt")
    if out.min() < -_SIGN_TOL:
        i, j = np.unravel_index(int(np.argmin(out)), out.shape)
        raise NotAGenerator(f"expm entry ({i},{j})={out[i, j]!r} is negative")
    return np.maximum(out, 0.0)


def distribution_at(g: Generator, p0: np.ndarray, t: float) -> np.ndarray:
    """Law of the chain at time t from initial law ``p0``: ``expm(q t) @ p0``."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (g.n,):
        raise DimensionError(f"p0 must have shape ({g.n},), got {p0.shape}")
    if np.any(p0 < -_SIGN_TOL):
        raise BadDistribution(f"p0 has negative mass: {p0!r}")
    if abs(p0.sum() - 1.0) > _COLSUM_TOL:
        raise BadDistribution(f"p0 sums to {p0.sum()!r}, expected 1")
    return matrix_exp(g, t) @ np.maximum(p0, 0.0)
