"""Mean-reverting (Ornstein-Uhlenbeck) spot model.

    dX = alpha (mu - X) dt + sigma dB

with exact Gaussian transitions: knowing X_s, the value X_t is normal with

    mean     = X_s e^{-alpha (t-s)} + mu (1 - e^{-alpha (t-s)})
    variance = sigma^2 / (2 alpha) (1 - e^{-2 alpha (t-s)})

All times are in years; daily price data uses dt = 1/252 by default.  Paths
are sampled by the two samplers in :mod:`regime_risk.entropic_risk`.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadDistribution,
    ConfigError,
    LengthMismatch,
    NotMeanReverting,
    TimeOrder,
    TooFewPoints,
    read_text,
    real_array,
    require_finite,
)

TRADING_DAYS_PER_YEAR = 252.0
DEFAULT_DT = 1.0 / TRADING_DAYS_PER_YEAR
_EPOCH_ORDINAL = _dt.date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


@dataclass(frozen=True)
class OUParams:
    """Reversion rate (1/yr), long-run mean, volatility (per sqrt yr), initial spot."""

    alpha: float
    mu: float
    sigma: float
    x0: float

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if self.alpha <= 0:
            raise NotMeanReverting(f"alpha must be positive, got {self.alpha}")
        if self.sigma < 0:
            raise BadDistribution(f"sigma must be nonnegative, got {self.sigma}")

    @property
    def stationary_variance(self) -> float:
        return self.sigma**2 / (2.0 * self.alpha)


@dataclass(frozen=True)
class ConditionalLaw:
    """Gaussian transition law; ``variance`` is the plain second central moment."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        require_finite(mean=self.mean, variance=self.variance)
        if self.variance < 0:
            raise BadDistribution(f"variance must be nonnegative, got {self.variance}")

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


@dataclass(frozen=True)
class PriceSeries:
    """Historical spot observations on consecutive opening days.

    ``dt`` is the year fraction between consecutive rows (1/252 for daily
    data); calendar gaps are ignored — absent days are simply absent.  A NaN
    or infinite timestamp, price or ``dt`` raises :class:`NonFinite`.
    """

    timestamps: np.ndarray  # datetime64, or numbers stored as given
    prices: np.ndarray
    dt: float = DEFAULT_DT

    def __post_init__(self) -> None:
        if not np.issubdtype(getattr(self.timestamps, "dtype", float), np.datetime64):
            real_array(self.timestamps, "timestamps")
        ts = np.asarray(self.timestamps)
        px = real_array(self.prices, "prices")
        require_finite(dt=self.dt)
        if ts.shape != px.shape or ts.ndim != 1:
            raise LengthMismatch("timestamps and prices must be equal-length 1-d arrays")
        if px.size < 3:
            raise TooFewPoints(f"need at least 3 observations, got {px.size}")
        if not np.all(ts[1:] > ts[:-1]):
            i = int(np.argmax(~(ts[1:] > ts[:-1]))) + 1
            raise TimeOrder(f"timestamps not strictly increasing at row {i} ({ts[i]!r})")
        if not np.all(px > 0):
            i = int(np.argmax(~(px > 0)))
            raise BadDistribution(f"price {px[i]!r} at row {i} is not positive")
        if not self.dt > 0:
            raise TimeOrder(f"dt must be positive, got {self.dt}")
        ts, px = ts.copy(), px.copy()
        ts.setflags(write=False)
        px.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)

    def __len__(self) -> int:
        return self.prices.size


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted parameters plus delta-method standard errors."""

    params: OUParams
    alpha_se: float
    mu_se: float
    sigma_se: float
    ar1_slope: float
    ar1_intercept: float
    n_obs: int
    dt: float


def step_coefficients(p: OUParams, dt: float) -> tuple[float, float, float]:
    """Exact one-step recursion X' = b X + c + sd * N(0,1) over a step of ``dt`` years."""
    b = float(np.exp(-p.alpha * dt))
    c = p.mu * (1.0 - b)
    sd = float(np.sqrt(p.stationary_variance * (1.0 - b * b)))
    return b, c, sd


def conditional_law(p: OUParams, x_s: float, s: float, t: float) -> ConditionalLaw:
    """Law of X_t given X_s = x_s, 0 <= s <= t."""
    require_finite(x_s=x_s, s=s, t=t)
    if t < s:
        raise TimeOrder(f"t={t} earlier than s={s}")
    b, c, sd = step_coefficients(p, t - s)
    return ConditionalLaw(mean=x_s * b + c, variance=sd * sd)


def calibrate(series: PriceSeries) -> CalibrationResult:
    """Fit (alpha, mu, sigma) by OLS on the exact AR(1) discretization.

    X_{t+dt} = c + b X_t + eps maps back to the continuous parameters via
    alpha = -ln(b)/dt, mu = c/(1-b), sigma^2 = Var(eps) 2 alpha / (1-b^2);
    for Gaussian transitions the OLS point estimates coincide with maximum
    likelihood.  x0 is the first observation.  Standard errors come from the
    OLS covariance and the delta method (residual-variance uncertainty
    included for sigma).

    Raises
    ------
    TooFewPoints
        Fewer than 3 observations (also enforced by PriceSeries).
    NotMeanReverting
        Fitted slope b <= 0 or b >= 1, a constant series, or a slope within
        two standard errors of 1 (unit root not rejected): alpha is not
        identified.
    """
    x = series.prices
    if x.size < 3:
        raise TooFewPoints(f"need at least 3 observations, got {x.size}")
    if np.var(x) == 0.0:
        raise NotMeanReverting("constant series: reversion rate not identified")
    dt = series.dt
    x_prev, x_next = x[:-1], x[1:]
    n = x_prev.size
    design = np.column_stack([np.ones(n), x_prev])
    beta, _, _, _ = np.linalg.lstsq(design, x_next, rcond=None)
    c, b = float(beta[0]), float(beta[1])
    resid = x_next - design @ beta
    dof = n - 2
    s2 = float(resid @ resid / dof)
    cov = s2 * np.linalg.inv(design.T @ design)
    b_se = float(np.sqrt(cov[1, 1]))

    if b <= 0.0:
        raise NotMeanReverting(f"fitted AR(1) slope b={b:.6g} <= 0")
    if b >= 1.0:
        raise NotMeanReverting(f"fitted AR(1) slope b={b:.6g} >= 1")
    if 1.0 - b <= 2.0 * b_se:
        raise NotMeanReverting(
            f"fitted AR(1) slope b={b:.6g} within 2 standard errors ({b_se:.2g}) "
            "of 1: unit root not rejected, reversion rate not identified"
        )

    alpha = -np.log(b) / dt
    mu = c / (1.0 - b)
    h = 2.0 * alpha / (1.0 - b * b)
    sigma = float(np.sqrt(s2 * h))

    alpha_se = b_se / (b * dt)
    grad_mu = np.array([1.0 / (1.0 - b), c / (1.0 - b) ** 2])
    mu_se = float(np.sqrt(grad_mu @ cov @ grad_mu))
    # sigma = sqrt(s2 * h(b)); independent s2 and b terms
    dh_db = (-2.0 * (1.0 - b * b) / b - 4.0 * b * np.log(b)) / (dt * (1.0 - b * b) ** 2)
    dsig_ds2 = h / (2.0 * sigma)
    dsig_db = s2 * dh_db / (2.0 * sigma)
    var_s2 = 2.0 * s2 * s2 / dof
    sigma_se = float(np.sqrt(dsig_ds2**2 * var_s2 + dsig_db**2 * cov[1, 1]))

    params = OUParams(alpha=float(alpha), mu=float(mu), sigma=sigma, x0=float(x[0]))
    return CalibrationResult(
        params=params,
        alpha_se=float(alpha_se),
        mu_se=mu_se,
        sigma_se=sigma_se,
        ar1_slope=b,
        ar1_intercept=c,
        n_obs=n,
        dt=dt,
    )


def load_price_csv(path: str | Path, dt: float = DEFAULT_DT) -> PriceSeries:
    """Read a ``date,price`` CSV (ISO-8601 dates, one row per opening day).

    Raises ConfigError naming the file when it cannot be read as UTF-8 text,
    and naming the file and row on a malformed header, date or price (a
    price must be a finite positive number); TimeOrder on out-of-order
    dates, and TooFewPoints below 3 rows.
    """
    path = Path(path)
    dates: list[_dt.date] = []
    prices: list[float] = []
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["date", "price"]:
            raise ConfigError(f"{path}: expected header 'date,price', got {header!r}")
        for i, row in enumerate(reader, start=1):
            first = row[0].strip() if row else ""
            # a row is skipped when every cell is blank; one with a date is not
            if not first and all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ConfigError(f"{path} row {i}: expected 2 fields, got {row!r}")
            try:
                d = _dt.date.fromisoformat(first)
            except ValueError as exc:
                raise ConfigError(f"{path} row {i}: bad date {row[0]!r}") from exc
            try:
                v = float(row[1])
            except ValueError:
                v = math.nan  # reported as a bad price just below
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{path} row {i}: bad price {row[1]!r}, need a finite positive number")
            if dates and d <= dates[-1]:
                raise TimeOrder(f"{path} row {i}: date {d} not after {dates[-1]}")
            dates.append(d)
            prices.append(v)
    if len(prices) < 3:
        raise TooFewPoints(f"{path}: need at least 3 rows, got {len(prices)}")
    # day offsets from the epoch, viewed as dates: numpy converts a list of
    # date objects one by one, about 25x slower
    days = np.fromiter(map(_dt.date.toordinal, dates), dtype=np.int64, count=len(dates))
    ts = (days - _EPOCH_ORDINAL).view("datetime64[D]")
    return PriceSeries(timestamps=ts, prices=np.array(prices), dt=dt)
