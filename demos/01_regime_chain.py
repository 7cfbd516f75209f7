"""Economy-regime chain basics: build, exponentiate, simulate.

The generator is stored column-wise (columns sum to zero): entry q[j, i] is
the rate of switching from regime i to regime j, and the law of the chain
evolves as p(t) = expm(q t) @ p(0).
"""

import numpy as np

from regime_risk import (
    OUParams,
    distribution_at,
    from_transition,
    matrix_exp,
    sample_paths,
)

# A daily two-block transition matrix: regimes 0/1 are persistent
# (downturn/recovery), regimes 2/3 flip fast.
P = np.array(
    [
        [0.75, 0.25, 0.0, 0.0],
        [0.25, 0.75, 0.0, 0.0],
        [0.0, 0.0, 0.25, 0.75],
        [0.0, 0.0, 0.75, 0.25],
    ]
)
gen = from_transition(P, dt=1 / 252)
print("generator (per-year rates), columns sum to zero:")
print(np.array_str(gen.q, precision=2, suppress_small=True))

horizon = 50 / 252
kernel = matrix_exp(gen, horizon)
print(f"\nregime law after 50 trading days, starting from regime 0:")
print(np.array_str(kernel[:, 0], precision=4))
print("column sums of the kernel:", kernel.sum(axis=0))

# Exact simulation: holding times are exponential with the diagonal rates.
# sample_paths draws the regime jointly with the spot and reads it on a grid.
ou = OUParams(alpha=5.0, mu=48.22, sigma=13.66, x0=62.24)
rng = np.random.default_rng(7)
days = np.arange(51) / 252
_, regimes, _ = sample_paths(ou, gen, 0, days, rng)
print(f"\none sampled path: {np.count_nonzero(np.diff(regimes))} regime changes between trading days in 50 days")
print("  regime on the first ten days:", regimes[:10])

# Empirical terminal law over many paths converges to expm's column.
n = 20_000
terminal = np.array([sample_paths(ou, gen, 0, [0.0, horizon], rng)[1][-1] for _ in range(n)])
empirical = np.bincount(terminal, minlength=4) / n
analytic = distribution_at(gen, np.eye(4)[0], horizon)
print("\nterminal regime law, 20k simulated paths vs matrix exponential:")
for i, (e, a) in enumerate(zip(empirical, analytic)):
    print(f"  regime {i}: empirical {e:.4f}   analytic {a:.4f}")
