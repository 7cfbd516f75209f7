"""Finite-state continuous-time Markov chain: validation and exponentials.

A chain is built one way, ``Generator(q)``, which checks the raw matrix once
and clamps the rounding dust that check admits only after its sign checks.

The transition kernel ``expm(q t)`` is computed in numpy by scaling and
squaring with the degree-13 Padé approximant (Higham 2005).  Paths of the
chain are sampled together with the spot by the two samplers in
:mod:`regime_risk.entropic_risk`, which draw jump targets from one table.

One tolerance: generator columns sum to 0 within 1e-9, which a transition
matrix's rows meet before the division by dt, and a kernel's column mass may
drift by the t-fold admitted leak (plus 1e-10 of rounding).

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDistribution,
    DimensionError,
    NonFinite,
    NotAGenerator,
    NotStochastic,
    TimeOrder,
    real_array,
)

_COLSUM_TOL = 1e-9      # generator column sums must vanish within this
_SIGN_TOL = 1e-12       # off-diagonal entries may be this far below zero
_EXP_COLSUM_TOL = 1e-10  # kernel column mass drift beyond the generator's leak

# Degree-13 Padé approximant r = (V - U)^-1 (V + U) of exp, accurate to unit
# roundoff for 1-norms up to theta_13 (Higham 2005, eq. 2.11 and Table 2.3).
# Row k of _PADE13_PARTS weighs the powers (A^6, A^4, A^2, I) into the k-th
# polynomial part, so that U = A (A^6 W0 + W1) and V = A^6 W2 + W3.
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_PARTS = np.array([
    [_PADE13_B[13], _PADE13_B[11], _PADE13_B[9], 0.0],
    [_PADE13_B[7], _PADE13_B[5], _PADE13_B[3], _PADE13_B[1]],
    [_PADE13_B[12], _PADE13_B[10], _PADE13_B[8], 0.0],
    [_PADE13_B[6], _PADE13_B[4], _PADE13_B[2], _PADE13_B[0]],
])
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class Generator:
    """Validated rate matrix of an n-state chain, column convention.

    Checks the raw ``q`` once: its signs first, then it clamps the dust they
    admit (off-diagonal entries in [-1e-12, 0), diagonal ones in (0, 1e-12])
    to zero, so -0.2 or -inf raises and is never zeroed, and then the column
    sums of the clamped matrix, which is stored read-only and rebuilds to the
    same bits.  Raises :class:`NotAGenerator` if ``q`` does not hold real
    numbers (a complex, string, bool or object matrix is never cast),
    :class:`DimensionError` if it is not square, :class:`NonFinite` on a NaN
    or infinite entry and :class:`NotAGenerator` on a sign or column sum out
    of tolerance, naming the entry.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        q = real_array(self.q, "generator", NotAGenerator).copy()
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
    """Check a raw rate matrix, clamping its sign dust in place (see Generator)."""
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionError(f"generator must be a square matrix, got shape {q.shape}")
    if q.shape[0] < 1:
        raise DimensionError("generator needs at least one state")
    mask = ~np.eye(q.shape[0], dtype=bool)
    off = q[mask]
    if off.size and off.min() < -_SIGN_TOL:
        i, j = np.unravel_index(int(np.argmin(np.where(mask, q, np.inf))), q.shape)
        raise NotAGenerator(f"off-diagonal entry ({i},{j})={q[i, j]!r} is negative")
    diag = np.diag(q)
    if diag.max() > _SIGN_TOL:
        i = int(np.argmax(diag))
        raise NotAGenerator(f"diagonal entry ({i},{i})={q[i, i]!r} is positive")
    q[mask & (q < 0)] = 0.0
    np.fill_diagonal(q, np.minimum(diag, 0.0))
    colsums = q.sum(axis=0)
    if np.any(np.abs(colsums) > _COLSUM_TOL):
        j = int(np.argmax(np.abs(colsums)))
        raise NotAGenerator(
            f"column {j} sums to {colsums[j]!r}, expected 0 within {_COLSUM_TOL} "
            "(column convention: rates out of state j live in column j)"
        )


def from_transition(p, dt: float) -> Generator:
    """First-order generator from a one-step transition matrix.

    Maps a row-stochastic P over step ``dt`` to ``(P - I)^T / dt``, which is a
    valid column-convention generator exactly when P is row-stochastic with
    entries in [0, 1].  This is the first-order approximation to the matrix
    logarithm; adequate for small steps (e.g. daily data), and always
    well-defined.

    Matrices are rejected with :class:`NotStochastic` (naming the row and its
    sum) when any row strays from 1 by more than ``1e-9 * dt``, the
    generator's column-sum tolerance before the division by dt — defective
    inputs are surfaced, never renormalized silently.  A matrix that does not
    hold real numbers raises :class:`NotStochastic` and is never cast; a NaN
    or infinite entry raises :class:`NonFinite` naming its own ``(i,j)``.
    """
    mat, step = real_array(p, "transition matrix", NotStochastic), float(real_array(dt, "dt"))
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"transition matrix must be square, got shape {mat.shape}")
    if step <= 0:
        raise TimeOrder(f"dt must be positive, got {step}")
    if np.any(mat < -_SIGN_TOL) or np.any(mat > 1 + _SIGN_TOL):
        i, j = np.unravel_index(int(np.argmin(np.minimum(mat, 1 - mat))), mat.shape)
        raise NotStochastic(f"entry ({i},{j})={mat[i, j]!r} outside [0, 1]")
    sums = mat.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > _COLSUM_TOL * step):
        i = int(np.argmax(off))
        raise NotStochastic(f"row {i} sums to {sums[i]!r}, expected 1 within {_COLSUM_TOL * step:.3g}")
    return Generator((mat - np.eye(mat.shape[0])).T / step)


def matrix_exp(g: Generator, t) -> np.ndarray:
    """Transition kernel ``expm(q t)``; column i is the law at horizon t from state i.

    ``t`` is one horizon, giving an (n, n) kernel, or a 1-d array of k
    horizons, giving the (k, n, n) stack of their kernels from one batched
    pass; each matrix of a stack is bit-identical to its horizon's own call.
    Uses scaling and squaring with the degree-13 diagonal Padé approximant
    (Higham 2005).  Every kernel's column mass is checked to be 1 within
    1e-10 plus t times the largest column leak ``|sum_i q_ij|`` (the drift the
    generator check admits) and entries in [-1e-12, 0) are clamped to zero.  A
    non-finite t, or one so large that ``q t`` overflows, raises
    :class:`NonFinite`, a negative t :class:`TimeOrder`, and an empty stack
    :class:`DimensionError`.
    """
    ts = real_array(t, "t")
    if ts.ndim > 1:
        raise DimensionError(f"t must be a number or a 1-d array, got shape {ts.shape}")
    if (ts < 0).any():
        raise TimeOrder(f"t must be nonnegative, got {ts[ts < 0][0]}")
    stack = np.atleast_1d(ts)
    if not stack.size:
        raise DimensionError("t must hold at least one horizon")
    out = _expm(g.q * stack[:, None, None])
    if not stack.all():
        out[stack == 0] = np.eye(g.n)
    colsums = out.sum(axis=1)
    # column mass drift beyond the t-fold column leak the generator check admits
    off = np.abs(colsums - 1.0) - stack[:, None] * np.abs(g.q.sum(axis=0)).max()
    if np.any(off > _EXP_COLSUM_TOL):
        m, j = np.unravel_index(int(np.argmax(off)), off.shape)
        raise NotAGenerator(
            f"expm column {j} at t={stack[m]!r} sums to {colsums[m, j]!r}; generator is corrupt"
        )
    if out.min() < -_SIGN_TOL:
        m, i, j = np.unravel_index(int(np.argmin(out)), out.shape)
        raise NotAGenerator(f"expm entry ({i},{j}) at t={stack[m]!r} is {out[m, i, j]!r}, negative")
    np.maximum(out, 0.0, out=out)
    return out if ts.ndim else out[0]


def _expm(a: np.ndarray) -> np.ndarray:
    """``exp`` of each matrix of a (k, n, n) stack by scaling and squaring
    (Higham 2005, Algorithm 2.3, with the degree-13 approximant alone): scale
    each matrix by 2^-s so that its 1-norm is at most theta_13, take the Padé
    approximant of the whole stack, and square each matrix its own s times.
    A 1x1 matrix is the exponential of its entry.  Each step is a stacked
    ``@`` or ``np.linalg.solve``, which run one BLAS or LAPACK call per
    matrix, so a matrix's result does not depend on the rest of its stack."""
    if a.shape[1:] == (1, 1):
        return np.exp(a)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    if not np.isfinite(norms).all():
        raise NonFinite(f"q * t is not finite (1-norm {norms[~np.isfinite(norms)][0]})")
    # libm's log2: numpy's own may differ in the last bit, which moves s where
    # norm / theta_13 is a hair above a power of two
    s = [math.ceil(math.log2(x / _THETA13)) if x > _THETA13 else 0 for x in norms.tolist()]
    counts = np.array(s)
    a = np.ldexp(a, -counts[:, None, None])
    k, n = a.shape[:2]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    # per matrix, the rows (A^6, A^4, A^2, I) that _PADE13_PARTS weighs
    powers = np.empty((k, 4, n, n))
    powers[:, 0], powers[:, 1], powers[:, 2], powers[:, 3] = a6, a4, a2, np.eye(n)
    w = (_PADE13_PARTS @ powers.reshape(k, 4, -1)).reshape(k, 4, n, n)
    u = a @ (a6 @ w[:, 0] + w[:, 1])
    v = a6 @ w[:, 2] + w[:, 3]
    r = np.linalg.solve(v - u, v + u)
    # every matrix is squared min(s) times, then each on to its own count
    for _ in range(min(s)):
        r = r @ r
    for j in range(min(s), max(s)):
        sq = counts > j
        r[sq] = r[sq] @ r[sq]
    return r


def distribution_at(g: Generator, p0: np.ndarray, t: float) -> np.ndarray:
    """Law of the chain at time t from initial law ``p0``: ``expm(q t) @ p0``."""
    p0 = real_array(p0, "p0")
    if p0.shape != (g.n,):
        raise DimensionError(f"p0 must have shape ({g.n},), got {p0.shape}")
    if np.any(p0 < -_SIGN_TOL):
        raise BadDistribution(f"p0 has negative mass: {p0!r}")
    if abs(p0.sum() - 1.0) > _COLSUM_TOL:
        raise BadDistribution(f"p0 sums to {p0.sum()!r}, expected 1")
    return matrix_exp(g, t) @ np.maximum(p0, 0.0)
