"""The closed form against a seedless 30-digit reference.

``claim_risk_closed`` has two numerical parts: the kernel ``expm(Q h)`` from
``matrix_exp``, and the regime-mixed Gaussian formula on it (the shift over
each start state's reachable support, the division by the kernel's column
mass, the einsum).  Each is checked against ``mpmath`` at 30 digits on random
instances that reach the corners of the inputs: stiff and slow rates, sparse
and reducible chains, states that never leave, extreme aversion and horizons
from days to a decade.

- The kernel against ``mp.expm``, in absolute terms: within a few eps times
  ``max(1, ||Q h||_1)``, the accuracy of scaling and squaring.
- The risk block against the formula evaluated at 30 digits on the same
  double kernel and on the law from ``conditional_law``: within 64 ulps of
  the block's largest |risk|.

The risk is not bounded end to end in ulps.  On a stiff chain the kernel's
absolute error, however small, is a large relative error in a small
transition probability, and the risk can rest on that probability; and a
probability below the double range (a state left at 1e3 a year, held for
years) reads 0.  The check pins the closed form's arithmetic, not its
derivation, which is the same formula; that stays with the Monte-Carlo
oracle.
"""

import mpmath
import numpy as np
from mpmath import mp

from regime_risk.entropic_risk import RiskQuery, claim_risk_closed
from regime_risk.instruments import FutureClaim, LinearSpotClaim
from regime_risk.ou_model import OUParams, conditional_law
from regime_risk.regime_chain import Generator, matrix_exp

DIGITS = 30
N_INSTANCES = 200
# measured at most 7 ulps and 1.01 eps over 800 instances
RISK_ULPS = 64
KERNEL_EPS = 16


def draw_instance(rng):
    """(OU params, chain, claims, queries, gammas): 2-5 states with
    off-diagonal rates log-uniform in [1e-2, 1e3], about 30% of them zero;
    a quarter of the chains reducible (no jump from the first block into the
    second) and a fifth with a state that never leaves; a spot and a future
    claim with loadings in [-2, 2]; one query, or two for a fifth of the
    instances, with a horizon log-uniform in [0.01, 10] years; and one to
    three gammas log-uniform in [0.03, 100]."""
    n = int(rng.integers(2, 6))
    q = 10.0 ** rng.uniform(-2.0, 3.0, (n, n))
    q[rng.random((n, n)) < 0.3] = 0.0
    if rng.random() < 0.25:
        k = int(rng.integers(1, n))
        q[k:, :k] = 0.0
    if rng.random() < 0.2:
        q[:, rng.integers(n)] = 0.0
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    ou = OUParams(
        alpha=float(10.0 ** rng.uniform(-1.0, 1.0)),
        mu=float(rng.uniform(20.0, 100.0)),
        sigma=float(rng.uniform(1.0, 30.0)),
        x0=float(rng.uniform(20.0, 100.0)),
    )
    claims = [
        LinearSpotClaim(rng.uniform(-2.0, 2.0, n)),
        FutureClaim(rng.uniform(-2.0, 2.0, n), r=float(rng.uniform(0.0, 0.1)), y=float(rng.uniform(-0.05, 0.1))),
    ]
    queries = []
    for _ in range(1 + int(rng.random() < 0.2)):
        s = float(rng.choice([0.0, 0.5]))
        queries.append(RiskQuery(s, s + float(10.0 ** rng.uniform(-2.0, 1.0)), float(rng.uniform(20.0, 100.0))))
    gammas = (10.0 ** rng.uniform(np.log10(0.03), 2.0, int(rng.integers(1, 4)))).tolist()
    return ou, Generator(q), claims, queries, gammas


def reference_block(ou, g, claims, queries, gammas, kernels):
    """``block[q, c, j, i]`` at the working precision: the formula on query
    q's law from ``conditional_law`` and on the double kernel ``kernels[q]``,
    each mixture divided by its column's mass."""
    n = g.n
    block = np.empty((len(queries), len(claims), len(gammas), n))
    for a, query in enumerate(queries):
        h = mp.mpf(query.horizon)
        P = [[mp.mpf(p) for p in row] for row in kernels[a].tolist()]
        law = conditional_law(ou, query.x_s, query.s, query.T)
        mean, variance = mp.mpf(law.mean), mp.mpf(law.variance)
        for c, claim in enumerate(claims):
            carry = mp.mpf(claim.r) + mp.mpf(claim.y) if isinstance(claim, FutureClaim) else 0
            delta = [mp.mpf(d) * mp.exp(-carry * h) for d in claim.delta.tolist()]
            for k, gamma in enumerate(gammas):
                gm = mp.mpf(gamma)
                phi = [mp.exp(-d * mean / gm + d**2 * variance / (2 * gm**2)) for d in delta]
                for i in range(n):
                    mixed = mp.fsum(P[j][i] * phi[j] for j in range(n))
                    mass = mp.fsum(P[j][i] for j in range(n))
                    block[a, c, k, i] = float(-gm * mp.log(mixed / mass))
    return block


def test_closed_form_matches_the_30_digit_reference():
    rng = np.random.default_rng(14)
    eps = np.finfo(float).eps
    kernel_errors, risk_errors = [], []
    with mpmath.workdps(DIGITS):
        for _ in range(N_INSTANCES):
            ou, g, claims, queries, gammas = draw_instance(rng)
            got = claim_risk_closed(ou, g, claims, queries, gammas=gammas)
            horizons = [q.horizon for q in queries]
            kernels = matrix_exp(g, horizons)
            Q = mp.matrix(g.q.tolist())
            for h, P in zip(horizons, kernels):
                exact = np.array(mp.expm(Q * h).tolist(), dtype=float)
                scale = max(1.0, np.abs(g.q).sum(axis=0).max() * h)
                kernel_errors.append(np.abs(P - exact).max() / (eps * scale))
            want = reference_block(ou, g, claims, queries, gammas, kernels)
            risk_errors.append(np.abs(got - want).max() / np.spacing(np.abs(want).max()))
    assert max(kernel_errors) <= KERNEL_EPS, sorted(kernel_errors)[-5:]
    assert max(risk_errors) <= RISK_ULPS, sorted(risk_errors)[-5:]
