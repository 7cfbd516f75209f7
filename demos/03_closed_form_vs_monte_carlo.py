"""The central cross-check: closed-form regime risk vs the simulation oracle.

The closed form mixes Gaussian moment factors through the chain's matrix
exponential; the Monte-Carlo route simulates the chain by its jump
construction and the spot by its exact transition, sharing no kernel with
the closed form.  Agreement within standard errors validates both.
"""

import numpy as np

from regime_risk import (
    FutureClaim,
    LinearSpotClaim,
    OUParams,
    RiskQuery,
    claim_risk_mc,
    future_risk_closed,
    spot_risk_closed,
    validate_generator,
)

ou = OUParams(alpha=5.0, mu=48.22, sigma=13.66, x0=62.24)
gen = validate_generator([[-2.0, 1.0], [2.0, -1.0]])  # slow regime 1, fast regime 0
delta = np.array([0.75, 1.10])  # price haircut in downturn, premium in recovery
query = RiskQuery(s=0.0, T=50 / 252, x_s=ou.x0)

print("linear spot claim, 50-day horizon, gamma = 2.5")
closed = spot_risk_closed(ou, gen, delta, query, gammas=[2.5])[0]
estimates = claim_risk_mc(ou, gen, LinearSpotClaim(delta), query, n_paths=200_000, seed=3, gammas=[2.5])
for i, (est,) in enumerate(estimates):
    z = est.z_score(closed[i])
    print(
        f"  start regime {i}: closed {closed[i]:9.4f}   "
        f"mc {est.value:9.4f} +/- {est.std_error:.4f}   z = {z:+.2f}"
    )

future = FutureClaim(delta=delta, r=0.02, y=0.08)  # matures at query.T
print("\nfuture claim with 10% total carry:")
closed_f = future_risk_closed(ou, gen, future, query, gammas=[2.5])[0]
estimates_f = claim_risk_mc(ou, gen, future, query, n_paths=200_000, seed=4, gammas=[2.5])
for i, (est,) in enumerate(estimates_f):
    z = est.z_score(closed_f[i])
    print(
        f"  start regime {i}: closed {closed_f[i]:9.4f}   "
        f"mc {est.value:9.4f} +/- {est.std_error:.4f}   z = {z:+.2f}"
    )

print("\nrisk aversion limits (start regime 0):")
gammas = (0.5, 1.0, 5.0, 100.0, 1e6)
for gamma, row in zip(gammas, spot_risk_closed(ou, gen, delta, query, gammas=gammas)):
    print(f"  gamma {gamma:>9.1f}: risk {row[0]:9.4f}")
print("  (small gamma punishes the downside; large gamma tends to the expectation)")
