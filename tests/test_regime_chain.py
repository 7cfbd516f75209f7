"""Chain layer: generator validation, exponentials, and the chain law of the
single-path sampler."""

import numpy as np
import pytest
from scipy.stats import chisquare

from regime_risk.entropic_risk import sample_paths
from regime_risk.errors import (
    BadDistribution,
    DimensionError,
    NonFinite,
    NotAGenerator,
    NotStochastic,
    StateOutOfRange,
)
from regime_risk.ou_model import OUParams
from regime_risk.regime_chain import (
    Generator,
    distribution_at,
    from_transition,
    matrix_exp,
    validate_generator,
)

from conftest import random_generator_matrix

# Daily 4-regime matrix whose third row sums to 0.95; must be rejected, never fixed.
DEFECTIVE_4X4 = np.array(
    [
        [0.75, 0.25, 0.0, 0.0],
        [0.25, 0.75, 0.0, 0.0],
        [0.0, 0.0, 0.25, 0.70],
        [0.0, 0.0, 0.75, 0.25],
    ]
)

SPOT = OUParams(alpha=1.0, mu=0.0, sigma=1.0, x0=0.0)


def regimes(g, z0, grid, rng):
    """The regime column of one sampled path on ``grid``."""
    return sample_paths(SPOT, g, z0, grid, rng)[1]


def regimes_by_choice(g, z0, grid, rng):
    """Oracle for the regime column of :func:`sample_paths`: after the spot
    normals, one ``rng.choice(n, p=...)`` per jump target."""
    grid = np.asarray(grid, dtype=float)
    rng.standard_normal(grid.size - 1)
    times, states = [0.0], [z0]
    t, state = 0.0, z0
    rates = g.exit_rates()
    while rates[state] > 0.0:
        t += rng.exponential(1.0 / rates[state])
        if t >= grid[-1]:
            break
        probs = np.maximum(g.q[:, state], 0.0)
        probs[state] = 0.0
        probs /= probs.sum()
        state = int(rng.choice(g.n, p=probs))
        times.append(t)
        states.append(state)
    return np.array(states)[np.searchsorted(times, grid, side="right") - 1]


class TestValidateGenerator:
    def test_zero_1x1_is_valid(self):
        g = validate_generator([[0.0]])
        assert g.n == 1
        assert g.q[0, 0] == 0.0

    def test_symmetric_two_state(self):
        g = validate_generator([[-0.5, 0.5], [0.5, -0.5]])
        assert g.n == 2
        np.testing.assert_allclose(g.q.sum(axis=0), 0.0, atol=1e-15)

    def test_row_stochastic_matrix_is_not_a_generator(self):
        with pytest.raises(NotAGenerator):
            validate_generator(DEFECTIVE_4X4)

    def test_non_square_raises_dimension_error(self):
        with pytest.raises(DimensionError):
            validate_generator(np.zeros((2, 3)))

    def test_negative_offdiagonal_rejected_with_entry(self):
        q = np.array([[-1.0, -0.2], [1.0, 0.2]])
        with pytest.raises(NotAGenerator, match=r"\(0,1\)"):
            validate_generator(q)

    def test_positive_diagonal_rejected(self):
        with pytest.raises(NotAGenerator):
            validate_generator([[0.5, -0.5], [-0.5, 0.5]])

    def test_bad_column_sum_names_column(self):
        q = np.array([[-0.5, 0.5], [0.5, -0.4]])
        with pytest.raises(NotAGenerator, match="column 1"):
            validate_generator(q)

    def test_tiny_negative_dust_is_clamped(self):
        q = np.array([[-0.5, 0.5], [0.5, -0.5]])
        q[0, 1] = 0.5 - 1e-13
        q[1, 1] = -0.5 + 1e-13
        q[1, 0] = -1e-13
        q[0, 0] = 1e-13
        g = validate_generator(q)
        assert g.q[1, 0] == 0.0
        assert g.q[0, 0] <= 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NonFinite, match=r"\(1,0\)"):
            validate_generator([[-0.5, 0.5], [bad, -0.5]])

    def test_immutable(self):
        g = validate_generator([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(ValueError):
            g.q[0, 0] = 1.0


class TestTransitionMatrix:
    def test_valid(self):
        g = from_transition([[0.9, 0.1], [0.2, 0.8]], dt=1 / 252)
        assert g.n == 2

    def test_row_sum_violation(self):
        with pytest.raises(NotStochastic, match="row 0"):
            from_transition([[0.9, 0.2], [0.2, 0.8]], dt=1.0)

    def test_entry_outside_unit_interval(self):
        with pytest.raises(NotStochastic):
            from_transition([[1.1, -0.1], [0.2, 0.8]], dt=1.0)

    def test_nonpositive_dt(self):
        with pytest.raises(ValueError):
            from_transition([[1.0, 0.0], [0.0, 1.0]], dt=0.0)


class TestFromTransition:
    def test_identity_gives_zero_generator(self):
        g = from_transition(np.eye(3), dt=1.0)
        np.testing.assert_array_equal(g.q, np.zeros((3, 3)))

    def test_symmetric_two_state_hand_computed(self):
        # (P - I)^T for P = [[0.75, 0.25], [0.25, 0.75]], dt = 1
        g = from_transition([[0.75, 0.25], [0.25, 0.75]], dt=1.0)
        np.testing.assert_allclose(g.q, [[-0.25, 0.25], [0.25, -0.25]], atol=1e-15)
        np.testing.assert_allclose(g.q.sum(axis=0), 0.0, atol=1e-15)

    def test_defective_matrix_reports_row_and_sum(self):
        with pytest.raises(NotStochastic, match="row 2") as err:
            from_transition(DEFECTIVE_4X4, dt=1 / 252)
        assert "0.95" in str(err.value)

    def test_raw_matrix_requires_dt(self):
        with pytest.raises(TypeError, match="dt"):
            from_transition(np.eye(2))


class TestMatrixExp:
    def test_t_zero_is_identity(self, rng):
        g = Generator(random_generator_matrix(rng, 3))
        np.testing.assert_array_equal(matrix_exp(g, 0.0), np.eye(3))

    def test_negative_t_rejected(self):
        g = validate_generator([[0.0]])
        with pytest.raises(ValueError):
            matrix_exp(g, -0.1)

    @pytest.mark.parametrize("a,t", [(0.5, 0.3), (2.0, 1.7), (0.1, 10.0)])
    def test_symmetric_two_state_analytic(self, a, t):
        g = validate_generator([[-a, a], [a, -a]])
        same = (1 + np.exp(-2 * a * t)) / 2
        cross = (1 - np.exp(-2 * a * t)) / 2
        np.testing.assert_allclose(
            matrix_exp(g, t), [[same, cross], [cross, same]], atol=1e-12
        )

    def test_block_diagonal_preserved(self, rng):
        b1 = random_generator_matrix(rng, 2)
        b2 = random_generator_matrix(rng, 2)
        q = np.zeros((4, 4))
        q[:2, :2], q[2:, 2:] = b1, b2
        full = matrix_exp(Generator(q), 0.8)
        expected = np.zeros((4, 4))
        expected[:2, :2] = matrix_exp(Generator(b1), 0.8)
        expected[2:, 2:] = matrix_exp(Generator(b2), 0.8)
        np.testing.assert_allclose(full, expected, atol=1e-12)

    def test_columns_stochastic_and_nonnegative(self, rng):
        for n in (1, 2, 4, 6):
            g = Generator(random_generator_matrix(rng, n))
            for t in (0.01, 0.5, 3.0, 25.0):
                p = matrix_exp(g, t)
                np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-9)
                assert p.min() >= 0.0

    def test_semigroup_property(self, rng):
        for _ in range(10):
            g = Generator(random_generator_matrix(rng, 3))
            s, t = rng.uniform(0.05, 1.5, size=2)
            lhs = matrix_exp(g, s + t)
            rhs = matrix_exp(g, s) @ matrix_exp(g, t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestDistributionAt:
    def test_t_zero_returns_p0(self, rng):
        g = Generator(random_generator_matrix(rng, 3))
        p0 = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(distribution_at(g, p0, 0.0), p0, atol=1e-15)

    def test_symmetric_two_state_stationary_limit(self):
        g = validate_generator([[-0.5, 0.5], [0.5, -0.5]])
        p = distribution_at(g, np.array([1.0, 0.0]), 50.0)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-10)

    def test_unit_vectors_recover_exp_columns(self, rng):
        g = Generator(random_generator_matrix(rng, 4))
        t = 0.7
        full = matrix_exp(g, t)
        for i in range(4):
            e_i = np.eye(4)[i]
            np.testing.assert_allclose(distribution_at(g, e_i, t), full[:, i], atol=1e-12)

    def test_bad_distribution(self):
        g = validate_generator([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(BadDistribution):
            distribution_at(g, np.array([0.7, 0.7]), 1.0)
        with pytest.raises(BadDistribution):
            distribution_at(g, np.array([1.5, -0.5]), 1.0)
        with pytest.raises(DimensionError):
            distribution_at(g, np.array([1.0, 0.0, 0.0]), 1.0)

    def test_sums_to_one(self, rng):
        g = Generator(random_generator_matrix(rng, 5))
        p0 = rng.dirichlet(np.ones(5))
        p = distribution_at(g, p0, 2.3)
        assert abs(p.sum() - 1.0) < 1e-9


class TestSamplePath:
    def test_zero_generator_never_leaves(self, rng):
        g = validate_generator(np.zeros((3, 3)))
        z = regimes(g, 2, np.linspace(0.0, 10.0, 101), rng)
        np.testing.assert_array_equal(z, np.full(101, 2))

    def test_deterministic_given_seed(self):
        g = validate_generator([[-1.0, 2.0], [1.0, -2.0]])
        grid = np.linspace(0.0, 5.0, 501)
        x1, z1, _ = sample_paths(SPOT, g, 0, grid, np.random.default_rng(42))
        x2, z2, _ = sample_paths(SPOT, g, 0, grid, np.random.default_rng(42))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(z1, z2)

    # a dense chain, one with an absorbing state and a zero rate, a
    # reducible one, and rates spread over six decades
    CHAINS = {
        "dense": random_generator_matrix(np.random.default_rng(1), 5, 5.0, 60.0),
        "absorbing": [[-3.0, 0.0, 0.0], [2.0, 0.0, 7.0], [1.0, 0.0, -7.0]],
        "reducible": [[-40.0, 9.0, 0.0, 0.0], [40.0, -9.0, 0.0, 0.0], [0.0, 0.0, -2.0, 90.0], [0.0, 0.0, 2.0, -90.0]],
        "wide_rates": [[-1000.001, 0.5, 3.0], [0.001, -300.5, 1.0], [1000.0, 300.0, -4.0]],
    }

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("seed", [0, 3, 41, 2**40 + 7])
    def test_jump_targets_match_rng_choice_draw_for_draw(self, chain, seed):
        g = validate_generator(self.CHAINS[chain])
        grid = np.arange(1261) / 252.0
        for z0 in range(g.n):
            ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            z = sample_paths(SPOT, g, z0, grid, ours)[1]
            np.testing.assert_array_equal(z, regimes_by_choice(g, z0, grid, oracle))
            assert ours.bit_generator.state == oracle.bit_generator.state

    def test_state_out_of_range(self, rng):
        g = validate_generator([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(StateOutOfRange):
            sample_paths(SPOT, g, 2, [0.0, 1.0], rng)

    def test_occupation_of_symmetric_chain(self):
        # time-average occupation of each state tends to the 50/50 stationary law
        g = validate_generator([[-0.5, 0.5], [0.5, -0.5]])
        rng = np.random.default_rng(7)
        horizon = 4000.0
        z = regimes(g, 0, np.linspace(0.0, horizon, 40_001), rng)
        occ0 = np.mean(z == 0)
        assert abs(occ0 - 0.5) < 0.05

    def test_jump_count_mean_matches_exit_rate(self):
        # exponential clock: every state leaves at rate a, so the jump count
        # over the horizon is Poisson(a * horizon); on a chain that only
        # counts up, the terminal state is the jump count
        a, horizon, n_paths, n = 0.7, 2.0, 2000, 40
        q = np.zeros((n, n))
        up = np.arange(n - 1)
        q[up + 1, up] = a
        q[up, up] = -a
        g = validate_generator(q)
        rng = np.random.default_rng(11)
        counts = [regimes(g, 0, [0.0, horizon], rng)[-1] for _ in range(n_paths)]
        mean = np.mean(counts)
        se = np.sqrt(a * horizon / n_paths)
        assert abs(mean - a * horizon) < 4 * se

    def test_empirical_law_matches_distribution_at(self):
        # chi-squared goodness of fit at 10^4 paths, significance 0.01
        q = np.array(
            [
                [-1.2, 0.4, 0.3],
                [0.7, -0.9, 0.6],
                [0.5, 0.5, -0.9],
            ]
        )
        g = validate_generator(q)
        t = 0.8
        rng = np.random.default_rng(3)
        n = 10_000
        terminal = np.array([regimes(g, 0, [0.0, t], rng)[-1] for _ in range(n)])
        counts = np.bincount(terminal, minlength=3)
        expected = distribution_at(g, np.eye(3)[0], t) * n
        stat = chisquare(counts, expected)
        assert stat.pvalue > 0.01

    def test_times_strictly_increasing(self):
        # a cyclic chain 0 -> 1 -> 2 -> 0: read on a fine grid, the regimes
        # start at z0 and change only to the next state of the cycle
        g = validate_generator([[-3.0, 0.0, 3.0], [3.0, -3.0, 0.0], [0.0, 3.0, -3.0]])
        z = regimes(g, 0, np.linspace(0.0, 10.0, 100_001), np.random.default_rng(0))
        changes = np.flatnonzero(np.diff(z))
        assert z[0] == 0 and changes.size > 10
        np.testing.assert_array_equal(z[changes + 1], (z[changes] + 1) % 3)


class TestStatePath:
    def test_rejects_unsorted_times(self, rng):
        g = validate_generator([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(ValueError):
            sample_paths(SPOT, g, 0, [0.0, 0.5, 0.4], rng)
