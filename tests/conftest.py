from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_CONFIG = REPO_ROOT / "configs" / "crude_oil.json"

# for property tests: an example's numpy work can outlast hypothesis's deadline
SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def random_generator_matrix(rng: np.random.Generator, n: int, lo=0.1, hi=2.0) -> np.ndarray:
    """Random column-convention generator with off-diagonal rates in [lo, hi]."""
    q = rng.uniform(lo, hi, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    return q


def draw_mc_instance(rng: np.random.Generator, exponent_sd_cap: float = 2.0):
    """Random (generator, OU params, loading, query) for closed-vs-MC checks.

    Chain rates in [0.1, 2], alpha in [0.5, 6], sigma in [1, 20], loadings in
    [-2, 2]^N, gamma from {0.5, 1, 5, 20}.  The horizon is drawn so that the
    payoff-exponent standard deviation max|delta| sqrt(v) / gamma stays below
    ``exponent_sd_cap``: beyond that the log-sum-exp estimator leaves its CLT
    regime (the sample mean of exp is tail-dominated) and no affordable path
    count converges, so horizon choice is part of a sound MC design.
    """
    from regime_risk.ou_model import OUParams
    from regime_risk.regime_chain import Generator

    n = int(rng.choice([1, 2, 4]))
    g = Generator(random_generator_matrix(rng, n))
    alpha = float(rng.uniform(0.5, 6.0))
    sigma = float(rng.uniform(1.0, 20.0))
    ou = OUParams(alpha=alpha, mu=float(rng.uniform(30, 70)), sigma=sigma,
                  x0=float(rng.uniform(30, 70)))
    delta = rng.uniform(-2.0, 2.0, size=n)
    gamma = float(rng.choice([0.5, 1.0, 5.0, 20.0]))
    d_max = max(float(np.abs(delta).max()), 1e-6)
    v_target = (exponent_sd_cap * gamma / d_max) ** 2
    v_stat = sigma**2 / (2.0 * alpha)
    arg = 1.0 - v_target / v_stat
    gap_max = 0.3 if arg <= 0 else min(0.3, -np.log(arg) / (2.0 * alpha))
    gap = float(rng.uniform(0.5, 1.0) * gap_max)
    s = float(rng.uniform(0.0, 0.1))
    return g, ou, delta, gamma, s, s + gap


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def expm_calls(monkeypatch):
    """The horizon of every kernel the closed form asks ``matrix_exp`` for,
    each horizon of a stacked call in stack order."""
    from regime_risk import entropic_risk

    calls = []
    real = entropic_risk.matrix_exp

    def counting(g, t):
        calls.extend(np.atleast_1d(t).tolist())
        return real(g, t)

    monkeypatch.setattr(entropic_risk, "matrix_exp", counting)
    return calls
