"""Commodity-swap risk by simulation.

A swap settles the gap between futures and spot each period; there is no
closed form for its entropic risk, so the estimate comes from joint
(spot, regime, yield) paths over the settlement dates.  Estimates are
bit-identical for a fixed seed at any worker count.
"""

import numpy as np

from regime_risk import (
    ConstantYield,
    Generator,
    GibsonSchwartzParams,
    OUParams,
    RiskQuery,
    SwapClaim,
    claim_risk_mc,
    swap_value,
)

ou = OUParams(alpha=2.0, mu=50.0, sigma=8.0, x0=55.0)
gen = Generator([[-0.8, 0.5], [0.8, -0.5]])


def swap_risk(ou, gen, swap, gamma, n_paths, seed, z0=0):
    """Entropic risk of the swap from regime z0: settlements at t = 1..T from s = 0."""
    q = RiskQuery(s=0.0, T=float(swap.n_periods), x_s=ou.x0)
    return claim_risk_mc(ou, gen, swap, q, n_paths, seed, gammas=[gamma], states=[z0])[0][0]


flat = SwapClaim(
    rates=[0.05, 0.05, 0.05, 0.05],
    delta=[1.0, 1.0],
    yield_spec=ConstantYield(r=0.02, y=0.06),
)
print("four-period swap, flat 8% carry:")
for z0 in (0, 1):
    est = swap_risk(ou, gen, flat, gamma=5.0, n_paths=100_000, seed=12, z0=z0)
    print(f"  start regime {z0}: risk {est.value:9.4f} +/- {est.std_error:.4f}")

# One deterministic settlement by hand: sigma = 0 and a frozen chain make
# the swap value a constant, and the entropic risk must equal it exactly.
frozen_ou = OUParams(alpha=2.0, mu=50.0, sigma=0.0, x0=55.0)
frozen_gen = Generator(np.zeros((1, 1)))
tiny = SwapClaim(rates=[0.05, 0.05], delta=[1.0], yield_spec=ConstantYield(r=0.02, y=0.06))
est = swap_risk(frozen_ou, frozen_gen, tiny, gamma=5.0, n_paths=100, seed=0)
x1 = 55.0 * np.exp(-2.0) + 50.0 * (1 - np.exp(-2.0))
hand = np.exp(-0.05) * x1 * (np.exp(-0.08) - 1.0)
print(f"\ndegenerate two-period swap: mc {est.value:.6f}, hand value {hand:.6f}, se {est.std_error}")

# Stochastic convenience yield, negatively correlated with the spot.
gs = GibsonSchwartzParams(kappa=1.5, y_bar=0.08, sigma_y=0.12, rho=-0.4, lambda_y=0.02, y0=0.05)
stochastic = SwapClaim(rates=[0.05] * 4, delta=[1.0, 0.8], yield_spec=gs)
print("\nsame swap with a mean-reverting stochastic yield (regime-loaded 1.0 / 0.8):")
# The paths do not depend on gamma: simulate regime 0's paths once and
# reduce them at every gamma.
gammas = (1.0, 5.0, 20.0)
q = RiskQuery(s=0.0, T=float(stochastic.n_periods), x_s=ou.x0)
ests = claim_risk_mc(ou, gen, stochastic, q, n_paths=100_000, seed=12, gammas=gammas, states=[0])[0]
for gamma, est in zip(gammas, ests):
    print(f"  gamma {gamma:5.1f}: risk {est.value:9.4f} +/- {est.std_error:.4f}")
print("  (risk increases with gamma: the certainty equivalent of the same cash flows)")

# swap_value itself is a plain function of realized paths; useful for
# valuing a specific scenario.
x_path = np.array([54.0, 57.0, 52.0, 50.0])
z_path = np.array([0, 0, 1, 1])
print(f"\nvalue on one hand-built scenario: {swap_value(x_path, z_path, flat):.4f}")
