"""Convenience yield: risk term structure across yield levels, and a
stochastic yield simulated jointly with the spot.

Futures discount the loading by e^{-(r+y)(T-t)}, so risk curves for
different yields fan out at long time-to-maturity and pinch together as the
contract approaches delivery — the cross-yield spread contracts to zero.
"""

import numpy as np

from regime_risk import (
    FutureClaim,
    Generator,
    GibsonSchwartzParams,
    OUParams,
    RiskQuery,
    claim_risk_closed,
    sample_paths,
)

ou = OUParams(alpha=5.0, mu=48.22, sigma=13.66, x0=62.24)
gen = Generator([[-0.8, 0.5], [0.8, -0.5]])
T = 150 / 252
yields = [0.0, 0.04, 0.08]
times = [k * T / 10 for k in range(10)]
# one closed-form block: risks[i, k] is time i, yield k, at gamma 2.5 from regime 0
queries = [RiskQuery(s=t, T=T, x_s=ou.x0) for t in times]
claims = [FutureClaim(delta=[0.75, 0.75], r=0.0, y=y) for y in yields]
risks = claim_risk_closed(ou, gen, claims, queries, gammas=[2.5])[:, :, 0, 0].tolist()

print("future-claim risk over evaluation time, one curve per yield level")
print("(gamma = 2.5, delta = 0.75, r = 0, start regime 0)\n")
print("  t (days)" + "".join(f"   y={y:<5g}" for y in yields) + "   spread")
for t, row in zip(times, risks):
    spread = max(row) - min(row)
    print(f"  {t * 252:7.1f} " + "".join(f"  {v:8.4f}" for v in row) + f"  {spread:7.4f}")
print("\nthe spread column contracts toward zero as t approaches delivery.")

# A mean-reverting stochastic yield under the historical measure: the
# risk premium lambda_y shifts the long-run level away from y_bar.
gs = GibsonSchwartzParams(kappa=1.5, y_bar=0.08, sigma_y=0.12, rho=-0.4, lambda_y=0.03, y0=0.02)
print(f"\nstochastic yield: risk-neutral level {gs.y_bar:.3f}, historical level {gs.historical_level:.3f}")
grid = np.linspace(0.0, 2.0, 9)
x_path, z_path, y_path = sample_paths(ou, gen, 0, grid, np.random.default_rng(22), gs)
print("jointly simulated spot, regime and yield (correlation rho = -0.4), quarterly:")
for t, x, z, y in zip(grid, x_path, z_path, y_path):
    print(f"  t={t:4.2f}  spot {x:6.2f}  regime {z}  yield {y:+.4f}")
