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
exponential.  A claim's loading is delta * discount(T - s): a linear claim's
discount is 1, a future's (it matures at T) its carry discount.  The MC route
simulates the chain by its exact holding-time/jump construction and the
spot by its exact Gaussian transition, so the two routes share no kernel
beyond the transition-law parameters.

Simulate once, reduce many: a payoff sample and ``expm(Q h)`` do not depend
on gamma, so both routes take gamma only as a ``gammas=`` grid and reduce
each (horizon, starting state) sample, or each horizon's law and kernel, at
every gamma, one result entry per gamma.
Nor do the law and kernel depend on the loading: :func:`claim_risk_closed`
takes a list of queries and a list of claims, reads each claim's loading at
every query's horizon (a future's folds in its carry discount), and makes one
law per query and one stacked ``expm`` over every query's horizon.  It is one
array pass over the (query, claim, gamma, state) block, with the arithmetic
of a single evaluation per element, so its results are bit-identical to
evaluating each (query, claim, gamma) triple on its own.

Two samplers share the dynamics, one per shape of work.  The Monte-Carlo
engine (:func:`_simulate_grid`) steps many paths at once over a few grid
times: a terminal claim is the one-step grid [s, T], a swap its settlement
grid.  :func:`sample_paths` draws one path over thousands of grid times, as
the ``simulate`` command does; it loops over scalars, which is several times
faster than the engine on one path.  Both read one jump law, the exit rates
and per-state target CDFs of :func:`_jump_table`, whose target for a uniform
is the draw ``Generator.choice`` would make.

Determinism: all Monte-Carlo randomness comes from a Philox (counter-based)
bit stream keyed by (seed, starting state), consumed in a fixed
path-indexed layout — full-length draw rounds, never active-subset draws —
so every path's inputs are a pure function of (seed, round, path index).
A stream draws every grid step's normals first, in step order (the spot's,
then the yield's), then the regime kernel's jump rounds, one pass over the
whole grid: round j holds every path's j-th jump, whatever grid step it
falls in.  The kernel runs each path on one clock, the time left to the
grid's last time; a jump lands in the row of the grid step it falls in, and
a row no jump wrote takes the state of the row above.  The regime kernel's
arithmetic runs only on the paths still moving, which it compacts by index,
in their original order; the draws of a round cover every path all the
same.  Jump-table rows of only 0s and 1s do not depend on the uniform, and
the kernel folds them into one base target per state.  The round layout
(one exponential, then one uniform array per round) is a contract with
``bench/tracer.py`` and ``tests/test_tracing_contract.py``, which count
rounds by those calls: a different draw method is a benchmark change, not
a kernel change.
"""

from __future__ import annotations

import bisect
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
    real_array,
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
    """Evaluation point: observation time s, horizon T, spot x_s; each risk
    route evaluates it at every gamma of its ``gammas=`` grid."""

    s: float
    T: float
    x_s: float

    def __post_init__(self) -> None:
        require_finite(s=self.s, T=self.T, x_s=self.x_s)
        if not 0 <= self.s < self.T:
            raise TimeOrder(f"need 0 <= s < T, got s={self.s}, T={self.T}")

    @property
    def horizon(self) -> float:
        return self.T - self.s


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo estimate with a delta-method standard error over n_paths >= 1 samples."""

    value: float
    std_error: float
    n_paths: int

    def __post_init__(self) -> None:
        require_finite(value=self.value, std_error=self.std_error)
        if not _is_int(self.n_paths):
            raise ConfigError(f"n_paths must be an integer, got {self.n_paths!r}")
        if self.n_paths < 1:
            raise EmptySamples(f"need n_paths >= 1, got {self.n_paths}")
        if self.std_error < 0:
            raise BadDistribution(f"std_error must be nonnegative, got {self.std_error}")

    def z_score(self, reference: float) -> float:
        """Standardized discrepancy against a reference value (inf if se == 0 and off)."""
        diff = reference - self.value
        if self.std_error == 0.0:
            return 0.0 if diff == 0.0 else float(np.inf)
        return float(diff / self.std_error)


def entropic_mc(samples, gamma: float) -> MCEstimate:
    """Entropic risk of empirical payoff samples.

    Computes -gamma ln mean(exp(-psi/gamma)) through a max-shift (log-sum-exp)
    so arbitrarily large exponents cannot overflow; the standard error comes
    from the delta method on the mean of exp(-psi/gamma) and is invariant
    under the shift.
    """
    _gamma_grid([gamma])
    psi = real_array(samples, "samples").ravel()
    if psi.size == 0:
        raise EmptySamples("no payoff samples")
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


def _nonempty_list(values, name: str) -> list:
    """A grid argument, any iterable, as a list; one value or none raises :class:`DimensionError`."""
    try:
        entries = iter(values)
    except TypeError:
        raise DimensionError(f"{name} must be a list or 1-d array, got {type(values).__name__}") from None
    listed = list(entries)
    if not listed:
        raise DimensionError(f"{name} must be nonempty")
    return listed


def _gamma_grid(gammas) -> list[float]:
    """``gammas`` as a list, checked: nonempty, finite, positive."""
    grid = _nonempty_list(gammas, "gammas")
    for gamma in grid:
        require_finite(gamma=gamma)
        if gamma <= 0:
            raise NonPositiveGamma(f"gamma must be positive, got {gamma}")
    return grid


def _check_states(claim, g: Generator) -> None:
    if getattr(claim, "n_states", g.n) != g.n:
        raise DimensionError(f"claim loading has {claim.n_states} states, chain has {g.n}")


def claim_risk_closed(ou: OUParams, g: Generator, claims, queries, *, gammas) -> np.ndarray:
    """Closed-form entropic risk of each claim at each query: the read-only
    ``block[q, c, j, i]`` is claim c's risk at query q, gamma j, start state i.

    A claim pays X_T times ``claim.loading`` at the query horizon, read at
    the terminal regime; a claim with no loading (a swap) has no closed form.
    Each query's law and kernel serve every claim and gamma; the kernels come
    from one ``matrix_exp`` call on the stack of horizons, in query order.
    The block is one array pass with the arithmetic of a single (query,
    claim, gamma) evaluation per element, and one finiteness check.
    ``claims`` and ``queries`` may be any iterables; each is read once."""
    claims, queries = _nonempty_list(claims, "claims"), _nonempty_list(queries, "queries")
    grid = _gamma_grid(gammas)
    for claim in claims:
        if not hasattr(claim, "loading"):
            raise TypeError(f"unsupported claim type {type(claim).__name__}")
        _check_states(claim, g)
    horizons = [q.horizon for q in queries]
    # deltas[q, c] is claim c's loading at query q's horizon
    deltas = np.stack([claim.loading(horizons) for claim in claims], axis=1)
    laws = [conditional_law(ou, q.x_s, q.s, q.T) for q in queries]
    # P[q, j, i] = P(Z_T = j | Z_s = i) at query q's horizon, one stacked call
    P = matrix_exp(g, horizons)
    mean = np.array([law.mean for law in laws])[:, None, None]
    variance = np.array([law.variance for law in laws])[:, None, None]
    # mix phi over the terminal law per start state.  The shift is the max of
    # logphi over each start state's reachable support (not the global max:
    # for a reducible chain an unreachable block could hold the maximum and
    # underflow every reachable term).
    gamma = np.array(grid, dtype=float)[:, None]
    # gamma**2 as Python computes it: numpy's square can differ in the last bit
    twice_sq = np.array([2.0 * gm**2 for gm in grid])[:, None]
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


def spot_risk_closed(ou: OUParams, g: Generator, delta, q: RiskQuery, *, gammas) -> np.ndarray:
    """Closed-form entropic risk of the linear spot claim X_T delta[Z_T]: the
    read-only ``(gamma, state)`` rows of :func:`claim_risk_closed`, one row
    per gamma of ``gammas``, in grid order."""
    return claim_risk_closed(ou, g, [LinearSpotClaim(delta)], [q], gammas=gammas)[0, 0]


def future_risk_closed(ou: OUParams, g: Generator, c: FutureClaim, q: RiskQuery, *, gammas) -> np.ndarray:
    """Closed-form entropic risk of a future maturing at the query horizon T:
    the read-only ``(gamma, state)`` rows of :func:`claim_risk_closed`, one
    row per gamma of ``gammas``, in grid order."""
    return claim_risk_closed(ou, g, [c], [q], gammas=gammas)[0, 0]


# ---------------------------------------------------------------------------
# Monte-Carlo machinery
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _state_index(state, n: int, name: str = "state") -> int:
    """``state`` checked as an index of an n-state chain: an integer in [0, n)."""
    if not (_is_int(state) and 0 <= state < n):
        raise StateOutOfRange(f"{name}={state!r} is not a state index in [0, {n})")
    return int(state)


def _state_rng(seed: int, state: int) -> np.random.Generator:
    """Counter-based stream for one starting state: Philox keyed by (seed, state)."""
    key = np.array([seed, state], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _jump_table(g: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exit rates and per-column jump-target CDFs: the one jump law of both samplers.

    A column holds the off-diagonal rates of its state, normalized, then
    cumulated and divided by the last entry, as ``Generator.choice(n, p=...)``
    does; so it is nondecreasing in [0, 1] and ends at exactly 1.0, and the
    target of a uniform u < 1, the count of its entries <= u, is the one
    ``choice`` would draw.  A state with no positive target (a column leak
    the generator check admits) gets rate 0 and, as a zero-rate state, an
    all-ones column: it never leaves.
    """
    rates = g.exit_rates()
    cum = np.ones((g.n, g.n))
    for s in range(g.n):
        probs = g.q[:, s].copy()
        probs[s] = 0.0
        total = probs.sum()
        if rates[s] > 0.0 and total > 0.0:
            cdf = np.cumsum(probs / total)
            cum[:, s] = cdf / cdf[-1]
        else:
            rates[s] = 0.0
    return rates, cum


def _advance_regimes(
    rates: np.ndarray,
    jump_cum: np.ndarray,
    Z: np.ndarray,
    steps,
    rng: np.random.Generator,
) -> None:
    """Exact chain paths over a grid, in one pass of draw rounds.

    ``Z`` is a C-contiguous signed-integer array whose row 0 holds each
    path's start state; the kernel writes its state at the end of step k
    (of length ``steps[k]``) into ``Z[k + 1]``.  Identical in law to
    per-path holding-time/jump simulation.  Each round draws one
    ``rng.exponential(1.0, n)`` array, then one ``rng.random(n)`` array, over
    every path: round j holds every path's j-th jump, whatever step it falls
    in, so a one-step grid draws what a per-step kernel would.  This round
    layout is a contract with ``bench/tracer.py``, which counts rounds by
    these calls, and with ``tests/test_tracing_contract.py``, which pins
    their counts: drawing another way is a benchmark change, not a kernel
    change.

    A moving path carries its state, that state's exit rate and one clock,
    ``t_left = ends[-1] - h1 - h2 - ...``: the time left to the last grid
    time after its holding times so far (on a one-step grid, the time left
    in the step).  A path stops once a holding time is at least its
    ``t_left`` or it reaches a zero-rate state (tested only when the chain
    has one).  A jump writes its target into row ``n_steps + 1 -
    after.searchsorted(t_left)``, where ``after`` holds the times left at
    the grid times in ascending order: the row of the first grid time
    strictly after the jump, so a jump exactly on a grid time shows from the
    next one on, and one on the last grid time is not made.  A later jump
    in the same step overwrites an earlier one.  Rows 1 onwards start at
    -1; after the last round, each row no jump wrote takes the state of the
    row above.  Beyond ``Z`` the kernel keeps O(paths) state, no jump
    history.  On a grid of several steps the round loop of the tests
    (``advance_by_rounds``) restarts its clock at each grid time, so the two
    sum grid times differently: they agree except when a jump lands within
    rounding of a grid time.

    The arithmetic of a round runs only on the paths still moving, held as
    an index array in the paths' original order and compacted by index.
    The target of a jump is the count of the source column's entries <= u
    (see :func:`_jump_table`).  A row each of whose entries is 0 (always
    counted, as u >= 0) or 1 (never counted, as u < 1) does not depend on
    u: such rows are folded into a base count per state, and u is compared
    only against the other rows.
    """
    steps = np.asarray(steps, dtype=float)
    n_steps, n = steps.size, Z.shape[1]
    if not Z.flags.c_contiguous:
        raise DimensionError("Z must be C-contiguous: the kernel writes it through a flat view")
    flat = Z.reshape(-1)  # Z[k, i] is flat[k * n + i]
    ends = np.cumsum(steps)
    after = (ends[-1] - ends)[::-1]  # the time left at grid time n_steps - j
    rows = jump_cum[:-1]  # the last row is 1.0 > u and never counts
    fixed = ((rows == 0.0) | (rows == 1.0)).all(axis=1)
    base = (rows[fixed] == 0.0).sum(axis=0).astype(Z.dtype)
    fractional = rows[~fixed]
    has_zero_rate = bool((rates <= 0).any())
    Z[1:] = -1
    idx = np.flatnonzero(rates.take(Z[0]) > 0)
    src = Z[0].take(idx)
    rate = rates.take(src)
    t_left = np.full(idx.size, ends[-1])
    while idx.size:
        e = rng.exponential(1.0, n)
        u = rng.random(n)
        hold = e.take(idx) / rate
        jump = hold < t_left
        t_left -= hold
        if not jump.all():
            keep = np.flatnonzero(jump)
            idx, src, t_left = (a.take(keep) for a in (idx, src, t_left))
        u = u.take(idx)
        dest = base.take(src)
        for row in fractional:
            dest += row.take(src) <= u
        if n_steps == 1:
            Z[1][idx] = dest
        else:
            flat[(n_steps + 1 - after.searchsorted(t_left)) * n + idx] = dest
        rate = rates.take(dest)
        if has_zero_rate:
            moving = rate > 0
            if not moving.all():
                keep = np.flatnonzero(moving)
                idx, dest, rate, t_left = (a.take(keep) for a in (idx, dest, rate, t_left))
        src = dest
    # a row no jump wrote holds the state at the grid time before it
    for k in range(1, n_steps + 1):
        np.copyto(Z[k], Z[k - 1], where=Z[k] < 0)


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
    None without a Gibson-Schwartz spec.  Draw layout: for each step in
    order, a spot normal round, then a yield normal round when ``gs`` is
    given (correlated with the spot innovation at the exact per-step
    correlation); then one :func:`_advance_regimes` pass of jump rounds over
    the whole grid.  A one-step grid (a spot or future claim) so draws its
    normals, then its jump rounds, as a per-step layout would.
    """
    shape = (len(grid), n_paths)
    X = np.full(shape, x_s, dtype=float)
    Z = np.full(shape, state, dtype=np.int64)
    Y = None if gs is None else np.full(shape, gs.y0, dtype=float)
    steps = np.diff(grid)
    for k, dt in enumerate(steps.tolist()):
        bx, cx, sdx = step_coefficients(ou, dt)
        e1 = rng.standard_normal(n_paths)
        X[k + 1] = bx * X[k] + cx + sdx * e1
        if gs is not None:
            by, cy, sdy = step_coefficients(gs.historical_ou, dt)
            corr = step_correlation(ou, gs, dt)
            e2 = corr * e1 + np.sqrt(1.0 - corr * corr) * rng.standard_normal(n_paths)
            Y[k + 1] = by * Y[k] + cy + sdy * e2
    _advance_regimes(*_jump_table(g), Z, steps, rng)
    return X, Z, Y


def _payoffs_for_state(ou, g, claim, q, state, n_paths, seed) -> np.ndarray:
    """Simulate one starting state's paths on the claim's grid and evaluate the claim.

    A linear claim, a future among them, is simulated on the one-step grid
    [s, T] and pays ``discount(T - s) X_T delta[Z_T]``, the random variable
    whose entropic risk the closed form targets.  A swap is simulated on
    its settlement grid s + (0, 1, ..., T) and valued by :func:`swap_value`.
    """
    gs = None
    if isinstance(claim, LinearSpotClaim):
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
        return swap_value(X[1:], Z[1:], claim, None if Y is None else Y[1:])
    return claim.discount(q.horizon) * X[-1] * claim.delta[Z[-1]]


def claim_risk_mc(
    ou: OUParams,
    g: Generator,
    claim,
    q: RiskQuery,
    n_paths: int,
    seed: int,
    *,
    gammas,
    states=None,
) -> list[list[MCEstimate]]:
    """Monte-Carlo entropic risk of a claim, one entry per starting regime.

    Spot values use the exact Gaussian transition; regimes use the exact
    holding-time/jump simulation (never the matrix exponential, keeping this
    route independent of the closed form); swaps get full joint paths over
    their settlement grid.

    One payoff sample is simulated per requested state in ``states``
    (default: every state, in order) and reduced at every gamma in
    ``gammas``; ``q`` supplies s, T and x_s.  Each entry is a list of
    :class:`MCEstimate`, one per gamma, in grid order.  Each state's stream
    is keyed by (seed, state) alone, so an estimate does not depend on which
    other states or gammas are requested.
    """
    if not _is_int(n_paths):
        raise ConfigError(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 2:
        raise EmptySamples(f"need n_paths >= 2, got {n_paths}")
    if not (_is_int(seed) and 0 <= seed < 1 << 64):
        # the Philox key holds the seed in one 64-bit word
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    _check_states(claim, g)
    states = range(g.n) if states is None else [_state_index(i, g.n) for i in _nonempty_list(states, "states")]
    grid = _gamma_grid(gammas)
    out = []
    for state in states:
        payoffs = _payoffs_for_state(ou, g, claim, q, state, n_paths, seed)
        out.append([entropic_mc(payoffs, gamma) for gamma in grid])
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
    normal.  The chain follows the Monte-Carlo engine's jump law
    (:func:`_jump_table`).  A one-state chain draws nothing, so it gives a
    spot-only path.
    """
    grid = real_array(grid, "grid")
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionError(f"grid must be a nonempty 1-d array, got shape {grid.shape}")
    steps = np.diff(grid)
    if grid[0] != 0.0 or not np.all(steps > 0):
        raise TimeOrder("grid must start at 0 and be strictly increasing")
    z0 = _state_index(z0, g.n, "z0")
    eps = rng.standard_normal(steps.size)

    # exact chain: exponential holding time at the exit rate, then a jump
    # target bisected from the state's column of the engine's jump table
    times, states = [0.0], [z0]
    t, state = 0.0, z0
    rates, cum = _jump_table(g)
    rates, cdfs = rates.tolist(), cum.T.tolist()
    end, exponential, uniform = float(grid[-1]), rng.exponential, rng.random
    while rates[state] > 0.0:
        t += exponential(1.0 / rates[state])
        if t >= end:
            break
        state = bisect.bisect_right(cdfs[state], uniform())
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


def _ar1_path(v0: float, coeffs: list, which: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """v[k+1] = b v[k] + c + sd eps[k], with (b, c, sd) = coeffs[which[k]]."""
    v = [v0]
    for k, e in zip(which.tolist(), eps.tolist()):
        b, c, sd = coeffs[k]
        v.append(b * v[-1] + c + sd * e)
    return np.array(v)
