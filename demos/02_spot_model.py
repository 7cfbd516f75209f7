"""Mean-reverting spot model: exact law, simulation, calibration round trip.

Simulates a year of daily crude-oil-like prices from known parameters, then
refits them from the series and compares against the reported standard
errors.
"""

import numpy as np

from regime_risk import (
    Generator,
    OUParams,
    PriceSeries,
    calibrate,
    conditional_law,
    sample_paths,
)

truth = OUParams(alpha=5.0, mu=48.22, sigma=13.66, x0=62.24)

law = conditional_law(truth, x_s=truth.x0, s=0.0, t=50 / 252)
print("spot law 50 trading days out, conditional on today's 62.24:")
print(f"  mean {law.mean:.4f}, std {law.std:.4f}")
print(f"  stationary std {np.sqrt(truth.stationary_variance):.4f}")

# Daily exact simulation for 8 years (no discretization error at any step).
# A one-state chain never switches, so the path is the spot alone.
n_days = 2016
grid = np.arange(n_days + 1) / 252
rng = np.random.default_rng(11)
prices, _, _ = sample_paths(truth, Generator([[0.0]]), 0, grid, rng)
print(f"\nsimulated {n_days} daily steps: min {prices.min():.2f}, max {prices.max():.2f}")

days = np.datetime64("2016-01-04") + np.arange(n_days + 1).astype("timedelta64[D]")
series = PriceSeries(timestamps=days, prices=prices, dt=1 / 252)
result = calibrate(series)
p = result.params
print("\nrefitted parameters (truth in brackets):")
print(f"  alpha {p.alpha:8.4f}  se {result.alpha_se:.4f}   [5.0]")
print(f"  mu    {p.mu:8.4f}  se {result.mu_se:.4f}   [48.22]")
print(f"  sigma {p.sigma:8.4f}  se {result.sigma_se:.4f}   [13.66]")
for name, got, want, se in [
    ("alpha", p.alpha, truth.alpha, result.alpha_se),
    ("mu", p.mu, truth.mu, result.mu_se),
    ("sigma", p.sigma, truth.sigma, result.sigma_se),
]:
    print(f"  {name}: |error| = {abs(got - want) / se:.2f} standard errors")
