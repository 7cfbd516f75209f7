"""Sensitivity table: horizons as rows, risk-aversion levels as columns.

Reproduces the report layout (two horizon rows plus labelled variation
rows) for a linear claim with a 25% haircut loading in every regime.
The same table is produced by `regime-risk sweep --config configs/crude_oil.json`.
"""

import numpy as np

from regime_risk import LinearSpotClaim, OUParams, RiskQuery, claim_risk_closed, from_transition

ou = OUParams(alpha=5.0, mu=48.22, sigma=13.66, x0=62.24)
P = np.array(
    [
        [0.75, 0.25, 0.0, 0.0],
        [0.25, 0.75, 0.0, 0.0],
        [0.0, 0.0, 0.25, 0.75],
        [0.0, 0.0, 0.75, 0.25],
    ]
)
gen = from_transition(P, dt=1 / 252)
delta = np.full(4, 0.75)
gammas = [1.0, 2.5, 5.0, 10.0]
horizons_days = [50.0, 150.0]

# one closed-form block: cells[i, j] is horizon i, gamma j, from regime 0
queries = [RiskQuery(s=0.0, T=days / 252, x_s=ou.x0) for days in horizons_days]
cells = claim_risk_closed(ou, gen, [LinearSpotClaim(delta)], queries, gammas=gammas)[:, 0, :, 0]

header = "".join(f"  gamma={g:<6g}" for g in gammas)
print(f"{'':14s}{header}")
for i, days in enumerate(horizons_days):
    row = "".join(f"  {v:12.4f}" for v in cells[i])
    print(f"T={days:3.0f} days    {row}")
diff = cells[1] - cells[0]
print(f"{'variation':14s}" + "".join(f"  {v:12.4f}" for v in diff))
print(f"{'variation %':14s}" + "".join(f"  {abs(d) / abs(f) * 100:11.2f}%" for d, f in zip(diff, cells[0])))

print("\nreading the table:")
print("  - each row is nondecreasing in gamma (weaker aversion, higher certainty equivalent)")
print("  - the 150-day row sits below the 50-day row: the spot relaxes from 62.24")
print("    toward the long-run 48.22 and accumulates more variance on the way")
