"""Regime-switching entropic risk: closed forms, a Monte-Carlo oracle, and
the two path samplers.

The entropic risk of a payoff psi at aversion parameter gamma > 0 is

    e_gamma(psi) = -gamma ln E[exp(-psi / gamma)]

(the exponential-utility certainty equivalent; small gamma is extreme
aversion, large gamma tends to the plain expectation).  For claims that pay
a regime-loaded multiple of the terminal spot, conditioning on the starting
regime gives a closed form: with m, v the conditional mean and variance of
the spot at the horizon,

    log phi_j = -delta_j m / gamma + delta_j^2 v / (2 gamma^2)
    risk_i    = -gamma ln sum_j P(Z_T = j | Z_s = i) phi_j

where the regime-transition probabilities come from the chain's matrix
exponential.  A future matures at the horizon T and folds its carry
discount into delta.  The MC route
simulates the chain by its exact holding-time/jump construction and the
spot by its exact Gaussian transition, so the two routes share no kernel
beyond the transition-law parameters.

Simulate once, reduce many: a payoff sample and ``expm(Q h)`` do not depend
on gamma, so both routes take a ``gammas=`` grid and reduce each (horizon,
starting state) sample, or each horizon's law and kernel, at every gamma.
Nor do the law and kernel depend on the loading: the shared closed-form
pipeline takes a stack of queries, each with its own stack of loadings, and
makes one law and one ``expm`` per query.  ``sweep`` passes one query per
horizon with that horizon's carry-scaled loading, and ``yield-sweep`` one
query per evaluation time with every yield's carry-scaled loading.  The
pipeline is one array pass over the (query, loading, gamma, state) block,
with the arithmetic of a single evaluation per element, so its results are
bit-identical to evaluating each (query, loading, gamma) triple on its own.

Two samplers share the dynamics, one per shape of work.  The Monte-Carlo
engine (:func:`_simulate_grid`) steps many paths at once over a few grid
times: a terminal claim is the one-step grid [s, T], a swap its settlement
grid.  :func:`sample_paths` draws one path over thousands of grid times, as
the ``simulate`` command does; it loops over scalars, which is several times
faster than the engine on one path, and draws each jump target by bisecting
a per-state CDF built once, the draw ``Generator.choice`` would make.

Determinism: all Monte-Carlo randomness comes from a Philox (counter-based)
bit stream keyed by (seed, starting state), consumed in a fixed
path-indexed layout — full-length draw rounds, never active-subset draws —
so every path's inputs are a pure function of (seed, round, path index).
The regime kernel's arithmetic runs only on the paths still moving; the
draws of a round cover every path all the same.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily: inside a command, otherwise)

from .errors import (
    BadDistribution,
    ConfigError,
    DimensionError,
    EmptySamples,
    LengthMismatch,
    NonFinite,
    NonPositiveGamma,
    StateOutOfRange,
    TimeOrder,
    require_finite,
)
from .instruments import (
    FutureClaim,
    GibsonSchwartzParams,
    LinearSpotClaim,
    SwapClaim,
    step_correlation,
    swap_value,
)
from .ou_model import OUParams, conditional_law, step_coefficients
from .regime_chain import Generator, matrix_exp

@dataclass(frozen=True)
class RiskQuery:
    """Evaluation point: aversion gamma, observation time s, horizon T, spot x_s."""

    gamma: float
    s: float
    T: float
    x_s: float

    def __post_init__(self) -> None:
        for name in ("s", "T", "x_s"):
            if not math.isfinite(getattr(self, name)):
                raise NonFinite(f"{name} must be finite, got {getattr(self, name)}")
        _check_gamma(self.gamma)
        if not 0 <= self.s < self.T:
            raise TimeOrder(f"need 0 <= s < T, got s={self.s}, T={self.T}")

    @property
    def horizon(self) -> float:
        return self.T - self.s


@dataclass(frozen=True)
class RiskVector:
    """Per-state closed-form result: ``risks[i]`` is the risk given starting state i."""

    risks: np.ndarray

    def __post_init__(self) -> None:
        risks = np.array(self.risks, dtype=float)
        if risks.ndim != 1:
            raise DimensionError(f"risks must be 1-d, got shape {risks.shape}")
        if not np.all(np.isfinite(risks)):
            raise NonFinite(f"non-finite risk entries: {risks!r}")
        risks.setflags(write=False)
        object.__setattr__(self, "risks", risks)

    @classmethod
    def _checked(cls, risks: np.ndarray) -> RiskVector:
        """Wrap a 1-d, finite, read-only float array the caller has checked."""
        rv = object.__new__(cls)
        object.__setattr__(rv, "risks", risks)
        return rv

    @property
    def n_states(self) -> int:
        return self.risks.size

    def risk_given_state(self, i: int) -> float:
        if not 0 <= i < self.n_states:
            raise StateOutOfRange(f"state {i} outside [0, {self.n_states})")
        return float(self.risks[i])


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo estimate with a delta-method standard error."""

    value: float
    std_error: float
    n_paths: int

    def __post_init__(self) -> None:
        require_finite(value=self.value, std_error=self.std_error)
        if self.std_error < 0:
            raise BadDistribution(f"std_error must be nonnegative, got {self.std_error}")

    def z_score(self, reference: float) -> float:
        """Standardized discrepancy against a reference value (inf if se == 0 and off)."""
        diff = reference - self.value
        if self.std_error == 0.0:
            return 0.0 if diff == 0.0 else float(np.inf)
        return float(diff / self.std_error)


def _check_gamma(gamma: float) -> None:
    if not math.isfinite(gamma):
        raise NonFinite(f"gamma must be finite, got {gamma}")
    if gamma <= 0:
        raise NonPositiveGamma(f"gamma must be positive, got {gamma}")


def entropic_mc(samples, gamma: float) -> MCEstimate:
    """Entropic risk of empirical payoff samples.

    Computes -gamma ln mean(exp(-psi/gamma)) through a max-shift (log-sum-exp)
    so arbitrarily large exponents cannot overflow; the standard error comes
    from the delta method on the mean of exp(-psi/gamma) and is invariant
    under the shift.
    """
    _check_gamma(gamma)
    psi = np.asarray(samples, dtype=float).ravel()
    if psi.size == 0:
        raise EmptySamples("no payoff samples")
    if not np.isfinite(psi).all():
        raise NonFinite("non-finite payoff samples")
    logw = -psi / gamma
    shift = logw.max()
    w = np.exp(logw - shift)
    wbar = w.mean()
    value = -gamma * (shift + np.log(wbar))
    if psi.size >= 2:
        se = gamma * w.std(ddof=1) / (wbar * np.sqrt(psi.size))
    else:
        se = 0.0
    return MCEstimate(value=float(value), std_error=float(se), n_paths=psi.size)


def _gamma_grid(q: RiskQuery, gammas) -> list[float]:
    """``[q.gamma]`` by default, else ``gammas`` checked: nonempty, finite, positive."""
    grid = [q.gamma] if gammas is None else list(gammas)
    if not grid:
        raise DimensionError("gammas must be nonempty")
    for gamma in grid:
        _check_gamma(gamma)
    return grid


def _risk_closed(ou: OUParams, g: Generator, deltas, queries, gammas) -> np.ndarray:
    """Shared closed-form pipeline: the (query, loading, gamma, state) risk block.

    ``deltas`` is a (Q, k, n) stack, k loadings for each of the Q ``queries``.
    Each query has its own law and its own ``expm``, made in query order, and
    shares them with all its loadings and every gamma of the grid (each
    query's own ``gamma`` when ``gammas`` is None).  The whole block is one
    array pass, with the arithmetic of a single (query, loading, gamma)
    evaluation per element, and one finiteness check covers every vector.
    The block is read-only.
    """
    grid = [[q.gamma] for q in queries] if gammas is None else [_gamma_grid(queries[0], gammas)]
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape[2:] != (g.n,):
        raise DimensionError(f"delta must have shape ({g.n},), got {deltas.shape[2:]}")
    laws, kernels = [], []
    for q in queries:
        laws.append(conditional_law(ou, q.x_s, q.s, q.T))
        kernels.append(matrix_exp(g, q.horizon))
    mean = np.array([law.mean for law in laws])[:, None, None]
    variance = np.array([law.variance for law in laws])[:, None, None]
    # P[q, j, i] = P(Z_T = j | Z_s = i) at query q's horizon; mix phi over the
    # terminal law per start state.  The shift is the max of logphi over each
    # start state's reachable support (not the global max: for a reducible
    # chain an unreachable block could hold the maximum and underflow every
    # reachable term).
    P = np.stack(kernels)
    gamma = np.array(grid, dtype=float)[:, None, :, None]
    # gamma**2 as Python computes it: numpy's square can differ in the last bit
    twice_sq = np.array([[2.0 * gm**2 for gm in row] for row in grid])[:, None, :, None]
    logphi = (-deltas * mean)[:, :, None] / gamma + (deltas**2 * variance)[:, :, None] / twice_sq
    masked = np.where(P[:, None, None] > 0.0, logphi[..., None], -np.inf)
    shift = masked.max(axis=-2)
    weights = np.exp(masked - shift[..., None, :])
    # the mixture over the kernel's column mass, summed the same way, so that a
    # zero or state-constant loading gives its risk exactly: the columns of P
    # sum to 1 only to within rounding
    mixed = np.einsum("qji,qkgji->qkgi", P, weights)
    mass = np.einsum("qji,qkgji->qkgi", P, np.ones_like(weights))
    risks = -gamma * (shift + np.log(mixed / mass))
    bad = ~np.isfinite(risks).all(axis=-1)
    if bad.any():
        raise NonFinite(f"non-finite risk entries: {risks[tuple(np.argwhere(bad)[0])]!r}")
    risks.setflags(write=False)
    return risks


def _risk_vectors(block: np.ndarray, gammas) -> RiskVector | list[RiskVector]:
    """One query's single loading from a :func:`_risk_closed` block, as the
    vector at ``q.gamma`` or, with ``gammas``, a list of one vector per gamma."""
    vectors = [RiskVector._checked(row) for row in block[0, 0]]
    return vectors[0] if gammas is None else vectors


def spot_risk_closed(
    ou: OUParams, g: Generator, delta, q: RiskQuery, *, gammas=None
) -> RiskVector | list[RiskVector]:
    """Closed-form entropic risk of the linear spot claim X_T delta[Z_T].

    Returns the per-state vector at ``q.gamma``, ``risks[i]`` given start state i;
    with ``gammas``, a list of vectors, one per gamma (as :func:`claim_risk_mc`).
    """
    return _risk_vectors(_risk_closed(ou, g, [[delta]], [q], gammas), gammas)


def future_risk_closed(
    ou: OUParams, g: Generator, c: FutureClaim, q: RiskQuery, *, gammas=None
) -> RiskVector | list[RiskVector]:
    """Closed-form entropic risk of a future: the spot pipeline applied to
    the carry-discounted loading delta * e^{-(r+y)(T-s)}.

    The future matures at the query horizon T; the carry discount and the
    regime propagation use the same T.  ``gammas`` as in :func:`spot_risk_closed`.
    """
    scale = np.exp(-c.carry * q.horizon)
    return _risk_vectors(_risk_closed(ou, g, [[c.delta * scale]], [q], gammas), gammas)


# ---------------------------------------------------------------------------
# Monte-Carlo machinery
# ---------------------------------------------------------------------------


def _state_rng(seed: int, state: int) -> np.random.Generator:
    """Counter-based stream for one starting state: Philox keyed by (seed, state)."""
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    key = np.array([seed, state], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _jump_table(g: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exit rates and per-column cumulative jump-target probabilities.

    Every column is nondecreasing in [0, 1] and ends at exactly 1.0 (a
    zero-rate state's column is all ones), so the target of a uniform u < 1
    is the count of its column's entries that are <= u.
    """
    rates = g.exit_rates()
    n = g.n
    cum = np.ones((n, n))
    for s in range(n):
        col = np.maximum(g.q[:, s].copy(), 0.0)
        col[s] = 0.0
        tot = col.sum()
        if tot > 0:
            # clamped at 1, so that each column is nondecreasing in [0, 1]
            cum[:, s] = np.minimum(np.cumsum(col / tot), 1.0)
            # the sum can round to just below 1; a uniform past it must not
            # fall through to state 0, so the last target's entry is exactly 1
            cum[np.flatnonzero(col)[-1]:, s] = 1.0
    return rates, cum


def _advance_regimes(
    rates: np.ndarray,
    jump_cum: np.ndarray,
    states: np.ndarray,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact chain transition of every path over ``dt``.

    Identical in law to per-path holding-time/jump simulation.  Draws come in
    full-length rounds (one exponential and one uniform array over every
    path per round), so the layout is path-indexed and
    decomposition-independent; the arithmetic of a round runs only on the
    paths still moving.  A path stops moving once its next holding time
    outlasts its time left or it reaches a zero-rate state.
    """
    states = states.copy()
    if dt <= 0.0:
        return states
    n = states.size
    idx = np.flatnonzero(rates[states] > 0)
    src = states[idx]
    t_left = np.full(idx.size, dt)
    while idx.size:
        e = rng.exponential(1.0, n)
        u = rng.random(n)
        hold = e[idx] / rates[src]
        jump = hold < t_left
        if not jump.all():
            idx, src, hold, t_left = idx[jump], src[jump], hold[jump], t_left[jump]
        t_left = t_left - hold
        # the target is the count of the source column's entries <= u (see
        # _jump_table); the last entry is 1.0 > u and never counts
        u = u[idx]
        dest = np.zeros(idx.size, dtype=states.dtype)
        for row in jump_cum[:-1]:
            dest += row[src] <= u
        states[idx] = src = dest
        moving = rates[dest] > 0
        if not moving.all():
            idx, src, t_left = idx[moving], src[moving], t_left[moving]
    return states


def _simulate_grid(
    ou: OUParams,
    g: Generator,
    grid: np.ndarray,
    x_s: float,
    state: int,
    n_paths: int,
    rng: np.random.Generator,
    gs: GibsonSchwartzParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Exact joint paths of (X, Z[, Y]) started at (x_s, state[, gs.y0]) at grid[0].

    Returns arrays of shape (len(grid), n_paths), one row per grid time; Y is
    None without a Gibson-Schwartz spec.  Draw layout per step: a spot normal
    round, a yield normal round when ``gs`` is given (correlated with the
    spot innovation at the exact per-step correlation), then the chain's jump
    rounds.
    """
    rates, jump_cum = _jump_table(g)
    shape = (len(grid), n_paths)
    X = np.full(shape, x_s, dtype=float)
    Z = np.full(shape, state, dtype=np.int64)
    Y = None if gs is None else np.full(shape, gs.y0, dtype=float)
    for k in range(len(grid) - 1):
        dt = float(grid[k + 1] - grid[k])
        bx, cx, sdx = step_coefficients(ou, dt)
        e1 = rng.standard_normal(n_paths)
        X[k + 1] = bx * X[k] + cx + sdx * e1
        if gs is not None:
            by, cy, sdy = step_coefficients(gs.historical_ou, dt)
            corr = step_correlation(ou, gs, dt)
            e2 = corr * e1 + np.sqrt(1.0 - corr * corr) * rng.standard_normal(n_paths)
            Y[k + 1] = by * Y[k] + cy + sdy * e2
        Z[k + 1] = _advance_regimes(rates, jump_cum, Z[k], dt, rng)
    return X, Z, Y


def _payoffs_for_state(ou, g, claim, q, state, n_paths, seed) -> np.ndarray:
    """Simulate one starting state's paths on the claim's grid and evaluate the claim.

    A spot or future claim is simulated on the one-step grid [s, T]; a
    future pays the carry-discounted terminal value e^{-(r+y)(T-s)} X_T
    delta[Z_T], the random variable whose entropic risk the closed form
    targets.  A swap is simulated on its settlement grid s + (0, 1, ..., T)
    and valued by :func:`swap_value`.
    """
    gs = None
    if isinstance(claim, (LinearSpotClaim, FutureClaim)):
        grid = np.array([q.s, q.T])
    elif isinstance(claim, SwapClaim):
        if q.s != 0.0:
            raise TimeOrder(f"swap risk is evaluated from s=0, got s={q.s}")
        if q.T != float(claim.n_periods):
            raise LengthMismatch(
                f"query horizon T={q.T} != swap settlement count {claim.n_periods}"
            )
        grid = np.concatenate([[q.s], q.s + claim.settlement_times])
        if isinstance(claim.yield_spec, GibsonSchwartzParams):
            gs = claim.yield_spec
    else:
        raise TypeError(f"unsupported claim type {type(claim).__name__}")
    X, Z, Y = _simulate_grid(ou, g, grid, q.x_s, state, n_paths, _state_rng(seed, state), gs)
    return _blockwise(claim, q, X, Z, Y)


def _blockwise(claim, q, X, Z, Y) -> np.ndarray:
    """Every path's payoff from its simulated (X, Z[, Y]) rows.

    The name is kept because the benchmark's tracer wraps this attribute as
    its ``entropic_risk.payoff_eval`` span, one per simulated stream.
    """
    if isinstance(claim, SwapClaim):
        return np.atleast_1d(swap_value(X[1:], Z[1:], claim, None if Y is None else Y[1:]))
    scale = float(np.exp(-claim.carry * q.horizon)) if isinstance(claim, FutureClaim) else 1.0
    return scale * X[-1] * claim.delta[Z[-1]]


def claim_risk_mc(
    ou: OUParams,
    g: Generator,
    claim,
    q: RiskQuery,
    n_paths: int,
    seed: int,
    *,
    gammas=None,
    states=None,
) -> list[MCEstimate] | list[list[MCEstimate]]:
    """Monte-Carlo entropic risk of a claim, one entry per starting regime.

    Spot values use the exact Gaussian transition; regimes use the exact
    holding-time/jump simulation (never the matrix exponential, keeping this
    route independent of the closed form); swaps get full joint paths over
    their settlement grid.

    One payoff sample is simulated per requested state in ``states``
    (default: every state, in order) and reduced at every gamma in
    ``gammas`` (default: ``q.gamma`` alone); ``q`` supplies s, T and x_s.
    Each state's stream is keyed by (seed, state) alone, so an estimate does
    not depend on which other states or gammas are requested.  Without
    ``gammas`` each entry is the :class:`MCEstimate` at ``q.gamma``; with
    ``gammas`` it is a list of estimates, one per gamma.
    """
    if n_paths < 2:
        raise EmptySamples(f"need n_paths >= 2, got {n_paths}")
    if getattr(claim, "n_states", g.n) != g.n:
        raise DimensionError(
            f"claim loading has {claim.n_states} states, chain has {g.n}"
        )
    states = range(g.n) if states is None else list(states)
    for state in states:
        if not 0 <= state < g.n:
            raise StateOutOfRange(f"state {state} outside [0, {g.n})")
    grid = _gamma_grid(q, gammas)
    out = []
    for state in states:
        payoffs = _payoffs_for_state(ou, g, claim, q, state, n_paths, seed)
        ests = [entropic_mc(payoffs, gamma) for gamma in grid]
        out.append(ests[0] if gammas is None else ests)
    return out


def sample_paths(
    ou: OUParams,
    g: Generator,
    z0: int,
    grid,
    rng: np.random.Generator,
    yield_spec: GibsonSchwartzParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One exact joint path of spot, regime and (optionally) yield on ``grid``.

    ``grid`` holds increasing times in years from 0, where the path starts at
    (ou.x0, z0, yield_spec.y0).  Returns ``(x, z, y)``, each with one entry
    per grid time; ``y`` is None without a yield spec.  The yield runs under
    the historical measure and its innovations are correlated with the
    spot's at the exact per-step correlation (:func:`step_correlation`).

    Draw order on the caller-owned ``rng``: every spot normal, then the
    chain's holding times and jump targets in time order, then every yield
    normal.  A one-state chain draws nothing, so it gives a spot-only path.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionError(f"grid must be a nonempty 1-d array, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise NonFinite("grid times must be finite")
    steps = np.diff(grid)
    if grid[0] != 0.0 or not np.all(steps > 0):
        raise TimeOrder("grid must start at 0 and be strictly increasing")
    if not 0 <= z0 < g.n:
        raise StateOutOfRange(f"z0={z0} outside [0, {g.n})")
    eps = rng.standard_normal(steps.size)

    # exact chain: exponential holding time at the exit rate, then a jump
    # target drawn in proportion to the rates in the state's column
    times, states = [0.0], [int(z0)]
    t, state = 0.0, int(z0)
    rates = g.exit_rates()
    cdfs = [_jump_cdf(g, s) if rate > 0.0 else None for s, rate in enumerate(rates)]
    while rates[state] > 0.0:
        t += rng.exponential(1.0 / rates[state])
        if t >= grid[-1]:
            break
        state = bisect.bisect_right(cdfs[state], rng.random())
        times.append(t)
        states.append(state)
    z = np.array(states)[np.searchsorted(times, grid, side="right") - 1]

    # step coefficients once per distinct step length
    dts, which = np.unique(steps, return_inverse=True)
    x = _ar1_path(ou.x0, [step_coefficients(ou, dt) for dt in dts], which, eps)
    if yield_spec is None:
        return x, z, None
    corr = np.array([step_correlation(ou, yield_spec, dt) for dt in dts])[which]
    e2 = corr * eps + np.sqrt(1.0 - corr * corr) * rng.standard_normal(steps.size)
    y = _ar1_path(yield_spec.y0, [step_coefficients(yield_spec.historical_ou, dt) for dt in dts], which, e2)
    return x, z, y


def _jump_cdf(g: Generator, state: int) -> list[float]:
    """Jump-target CDF of ``state``: the off-diagonal rates of its column,
    normalized, then cumulated and divided by the last entry as
    ``Generator.choice(n, p=...)`` does, so that ``bisect_right`` on one
    ``rng.random()`` draw picks the target ``choice`` would."""
    probs = np.maximum(g.q[:, state], 0.0)
    probs[state] = 0.0
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf.tolist()


def _ar1_path(v0: float, coeffs: list, which: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """v[k+1] = b v[k] + c + sd eps[k], with (b, c, sd) = coeffs[which[k]]."""
    v = [v0]
    for k, e in zip(which.tolist(), eps.tolist()):
        b, c, sd = coeffs[k]
        v.append(b * v[-1] + c + sd * e)
    return np.array(v)
