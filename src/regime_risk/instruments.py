"""Commodity claims (linear spot, future, swap) and the convenience-yield dynamics.

A terminal claim pays its loading ``delta * discount(h)`` times the spot at horizon h:
a linear claim's discount is 1, a future's e^{-(r+y) h}.  Yields are annualized rates.
Every field is checked once, at construction: a NaN, an infinity or a value
that is not a real number raises :class:`NonFinite`.  Each claim states its
Monte-Carlo grid, ``mc_grid(q)``, and the yield simulated with the spot, ``stochastic_yield``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDistribution,
    LengthMismatch,
    NotMeanReverting,
    StateOutOfRange,
    TimeOrder,
    real_array,
    store_reals,
)
from .ou_model import OUParams, step_coefficients


def _freeze_vec(v, name: str) -> np.ndarray:
    a = real_array(v, name, rank=1).copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LinearSpotClaim:
    """Pays X_t * delta[Z_t]."""

    delta: np.ndarray
    stochastic_yield = None  # a class attribute, not a field: no yield is simulated

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _freeze_vec(self.delta, "delta"))

    @property
    def n_states(self) -> int:
        return self.delta.size

    def discount(self, h):
        """The discount at horizon ``h`` (a number or an array): 1, in ``h``'s shape."""
        return np.ones_like(real_array(h, "h"))

    def loading(self, h) -> np.ndarray:
        """The loading ``delta * discount(h)``, one row per horizon of an array ``h``."""
        return self.delta * self.discount(h)[..., None]

    def mc_grid(self, q) -> np.ndarray:
        """The Monte-Carlo grid of query ``q``: the one step [s, T]."""
        return np.array([q.s, q.T])


@dataclass(frozen=True)
class FutureClaim(LinearSpotClaim):
    """Pays e^{(r+y)(t-T)} X_t * delta[Z_t]; r risk-free rate, y convenience yield.

    The future matures at the horizon T of the query that evaluates it.
    """

    r: float
    y: float

    def __post_init__(self) -> None:
        super().__post_init__()
        store_reals(self, "r", "y")

    @property
    def carry(self) -> float:
        return self.r + self.y

    def discount(self, h):
        """The carry discount e^{-(r+y) h} at horizon ``h`` (a number or an array)."""
        return np.exp(-self.carry * real_array(h, "h"))


@dataclass(frozen=True)
class ConstantYield:
    """Flat convenience-yield specification: the scalar yield is r + y at all times."""

    r: float
    y: float

    def __post_init__(self) -> None:
        store_reals(self)

    @property
    def level(self) -> float:
        return self.r + self.y


@dataclass(frozen=True)
class GibsonSchwartzParams:
    """Mean-reverting stochastic convenience yield.

    Risk-neutral dynamics dY = kappa (y_bar - Y) dt + sigma_y dB2 with
    corr(dB1, dB2) = rho against the spot driver; under the historical
    measure the long-run level shifts to y_bar - lambda_y/kappa - lambda_y.
    """

    kappa: float
    y_bar: float
    sigma_y: float
    rho: float
    lambda_y: float
    y0: float

    def __post_init__(self) -> None:
        store_reals(self)
        if self.kappa <= 0:
            raise NotMeanReverting(f"kappa must be positive, got {self.kappa}")
        if self.sigma_y < 0:
            raise BadDistribution(f"sigma_y must be nonnegative, got {self.sigma_y}")
        if abs(self.rho) > 1:
            raise BadDistribution(f"rho must be in [-1, 1], got {self.rho}")

    @property
    def historical_level(self) -> float:
        return self.y_bar - self.lambda_y / self.kappa - self.lambda_y

    @property
    def historical_ou(self) -> OUParams:
        """The yield under the historical measure, an OU process of its own."""
        return OUParams(alpha=self.kappa, mu=self.historical_level, sigma=self.sigma_y, x0=self.y0)


@dataclass(frozen=True)
class SwapClaim:
    """Cash-settled commodity swap over settlement times t = 1..T (years).

    ``rates[t-1]`` is the discount exponent of period t (the period-t
    settlement is discounted by e^{-rates[t-1]}).  The scalar yield path is
    regime-modulated pointwise through ``delta``: the period-t yield is
    Y_t * delta[Z_t].
    """

    rates: np.ndarray
    delta: np.ndarray
    yield_spec: ConstantYield | GibsonSchwartzParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", _freeze_vec(self.rates, "rates"))
        object.__setattr__(self, "delta", _freeze_vec(self.delta, "delta"))
        if not isinstance(self.yield_spec, (ConstantYield, GibsonSchwartzParams)):
            raise TypeError(f"unsupported yield spec {type(self.yield_spec).__name__}")

    @property
    def n_periods(self) -> int:
        return self.rates.size

    @property
    def n_states(self) -> int:
        return self.delta.size

    @property
    def settlement_times(self) -> np.ndarray:
        return np.arange(1, self.n_periods + 1, dtype=float)

    @property
    def stochastic_yield(self) -> GibsonSchwartzParams | None:
        return self.yield_spec if isinstance(self.yield_spec, GibsonSchwartzParams) else None

    def mc_grid(self, q) -> np.ndarray:
        """The grid of query ``q``, from s = 0 to T = ``n_periods``: s, then s + each settlement time."""
        if q.s != 0.0:
            raise TimeOrder(f"swap risk is evaluated from s=0, got s={q.s}")
        if q.T != float(self.n_periods):
            raise LengthMismatch(f"query horizon T={q.T} != swap settlement count {self.n_periods}")
        return np.concatenate([[q.s], q.s + self.settlement_times])


def swap_value(x_path, z_path, c: SwapClaim, y_path=None):
    """Discounted sum of the swap's cash settlements.

        W = sum_t e^{-rates[t-1]} X_t (e^{Y_t delta[Z_t] (t - T)} - 1)

    ``x_path`` and ``z_path`` hold the values at the settlement times 1..T
    (shape (T,) for one path, or (T, m) for m paths, returning a vector);
    ``z_path`` holds integer state indices, read by the integer rule of
    :func:`~regime_risk.errors.real_array` with :class:`StateOutOfRange` as
    its error, as is an index outside the chain.
    ``y_path`` supplies the scalar yield at the settlements when the claim
    uses a Gibson-Schwartz spec; it must be omitted for a constant spec.  A
    NaN or infinite spot or yield raises :class:`NonFinite`.

    Working set: one buffer the shape of ``x_path``, filled one settlement
    row at a time, plus a few temporaries the size of one row.
    """
    x = real_array(x_path, "x_path")
    z = real_array(z_path, "z_path", StateOutOfRange, integer=True)
    T = c.n_periods
    if x.shape[:1] != (T,) or z.shape != x.shape:
        raise LengthMismatch(
            f"spot/state series must have {T} settlement values, got {x.shape} / {z.shape}"
        )
    if z.size and (z.min() < 0 or z.max() >= c.n_states):
        bad = (z < 0) | (z >= c.n_states)
        raise StateOutOfRange(f"state index outside [0, {c.n_states}): {z[bad][:1]!r}")
    if c.stochastic_yield is None:
        if y_path is not None:
            raise LengthMismatch("y_path must be omitted for a constant yield spec")
        y = np.full(T, c.yield_spec.level)  # one scalar per settlement row
    else:
        if y_path is None:
            raise LengthMismatch("y_path is required for a Gibson-Schwartz yield spec")
        y = real_array(y_path, "y_path")
        if y.shape != x.shape:
            raise LengthMismatch(f"y_path shape {y.shape} != spot shape {x.shape}")
    time_to_mat = c.settlement_times - T
    disc = np.exp(-c.rates)
    settlements = np.empty(x.shape)
    for k in range(T):
        settlements[k] = disc[k] * x[k] * (np.exp(y[k] * c.delta[z[k]] * time_to_mat[k]) - 1.0)
    # One reduction over a C-ordered buffer: its order, and so its bits, do
    # not follow the inputs' layout, and a running sum of the rows would lose
    # numpy's pairwise sum of a 1-d path.
    total = settlements.sum(axis=0)
    return float(total) if total.ndim == 0 else total


def step_correlation(ou: OUParams, gs: GibsonSchwartzParams, dt: float) -> float:
    """Correlation of the exact spot and yield transition innovations over ``dt``.

    Both transitions integrate their drivers against exponential kernels, so
    the innovation correlation is rho * cov_kernel / (sd_x * sd_y) with
    cov_kernel = sigma sigma_y (1 - e^{-(alpha+kappa) dt}) / (alpha + kappa).
    """
    _, _, sd_x = step_coefficients(ou, dt)
    _, _, sd_y = step_coefficients(gs.historical_ou, dt)
    if sd_x == 0.0 or sd_y == 0.0:
        return 0.0
    rate = ou.alpha + gs.kappa
    cov = gs.rho * ou.sigma * gs.sigma_y * (1.0 - np.exp(-rate * dt)) / rate
    return float(np.clip(cov / (sd_x * sd_y), -1.0, 1.0))
