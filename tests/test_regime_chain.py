"""Chain layer: generator validation, exponentials, and the chain law of the
single-path sampler."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm
from scipy.stats import chisquare

from regime_risk import regime_chain
from regime_risk.entropic_risk import sample_paths
from regime_risk.errors import (
    BadDistribution,
    DimensionError,
    NonFinite,
    NotAGenerator,
    NotStochastic,
    StateOutOfRange,
    TimeOrder,
)
from regime_risk.ou_model import OUParams
from regime_risk.regime_chain import (
    Generator,
    distribution_at,
    from_transition,
    matrix_exp,
)

from conftest import SETTINGS, random_generator_matrix

# Daily 4-regime matrix whose third row sums to 0.95; must be rejected, never fixed.
DEFECTIVE_4X4 = np.array(
    [
        [0.75, 0.25, 0.0, 0.0],
        [0.25, 0.75, 0.0, 0.0],
        [0.0, 0.0, 0.25, 0.70],
        [0.0, 0.0, 0.75, 0.25],
    ]
)

# The shipped daily matrix with row 0 short of 1 by 3e-12, which is inside the
# row tolerance 1e-9 * dt: its generator's column 0 sums to -7.6e-10, a leak
# the generator check admits.
LEAKY_DAILY = [
    [0.5, 0.5 - 3e-12, 0.0, 0.0],
    [0.25, 0.75, 0.0, 0.0],
    [0.0, 0.0, 0.25, 0.75],
    [0.0, 0.0, 0.75, 0.25],
]

SPOT = OUParams(alpha=1.0, mu=0.0, sigma=1.0, x0=0.0)


@st.composite
def generators(draw, max_states: int = 8) -> Generator:
    """Generators of 1 to ``max_states`` states with rates over six decades:
    dense, sparse, upper triangular (each state jumps only to lower-numbered
    ones, so state 0 absorbs), all-zero, or reducible (two blocks that cannot
    reach each other)."""
    n = draw(st.integers(1, max_states))
    rates = draw(arrays(np.float64, (n, n), elements=st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
    kind = draw(st.sampled_from(["dense", "sparse", "triangular", "zero", "reducible"]))
    if kind == "sparse":
        rates *= draw(arrays(np.bool_, (n, n)))
    elif kind == "triangular":
        rates = np.triu(rates)
    elif kind == "zero":
        rates[:] = 0.0
    elif kind == "reducible" and n > 1:
        k = draw(st.integers(1, n - 1))
        rates[:k, k:] = rates[k:, :k] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=0))
    return Generator(rates)


@st.composite
def horizon_stacks(draw, g: Generator) -> list[float]:
    """1 to 70 horizons for ``g``, picked with repeats from up to 12 distinct
    ones: signed zeros, and horizons at which ``||q t||_1`` is 1e-6 to 1e4."""
    norm = float(np.abs(g.q).sum(axis=0).max()) or 1.0
    distinct = st.sampled_from([0.0, -0.0]) | st.floats(-6.0, 4.0).map(lambda e: 10.0**e / norm)
    pool = draw(st.lists(distinct, min_size=1, max_size=12))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=70))


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


class TestGenerator:
    def test_zero_1x1_is_valid(self):
        g = Generator([[0.0]])
        assert g.n == 1
        assert g.q[0, 0] == 0.0

    def test_symmetric_two_state(self):
        g = Generator([[-0.5, 0.5], [0.5, -0.5]])
        assert g.n == 2
        np.testing.assert_allclose(g.q.sum(axis=0), 0.0, atol=1e-15)

    def test_row_stochastic_matrix_is_not_a_generator(self):
        with pytest.raises(NotAGenerator):
            Generator(DEFECTIVE_4X4)

    def test_non_square_raises_dimension_error(self):
        with pytest.raises(DimensionError):
            Generator(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "q, dtype",
        [
            (np.array([[-0.5 + 0.3j, 0.5], [0.5, -0.5]]), "complex"),
            ([[-0.5 + 0.3j, 0.5], [0.5, -0.5]], "complex"),
            ([[-0.5 + 0j, 0.5], [0.5, -0.5]], "complex"),
            ([["-1", "1"], ["1", "-1"]], "<U2"),
            ([[False, False], [False, False]], "bool"),
            ([[None, 0.5], [0.5, -0.5]], "object"),
        ],
        ids=["complex_array", "complex_list", "zero_imaginary", "strings", "bool", "none"],
    )
    def test_matrix_of_non_reals_rejected_before_casting(self, q, dtype):
        """Never cast: a complex matrix lost its imaginary part (with only a
        ComplexWarning), a list of complex numbers failed with a bare
        TypeError, and a matrix of numeric strings was parsed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAGenerator, match=f"real numbers, got dtype {dtype}"):
                Generator(q)

    def test_integer_matrix_accepted_as_float(self):
        g = Generator(np.array([[-1, 1], [1, -1]], dtype=np.int32))
        assert g.q.dtype == np.float64
        assert g.q.tolist() == [[-1.0, 1.0], [1.0, -1.0]]

    def test_negative_offdiagonal_rejected_with_entry(self):
        q = np.array([[-1.0, -0.2], [1.0, 0.2]])
        with pytest.raises(NotAGenerator, match=r"\(0,1\)"):
            Generator(q)

    def test_positive_diagonal_rejected(self):
        with pytest.raises(NotAGenerator):
            Generator([[0.5, -0.5], [-0.5, 0.5]])

    def test_bad_column_sum_names_column(self):
        q = np.array([[-0.5, 0.5], [0.5, -0.4]])
        with pytest.raises(NotAGenerator, match="column 1"):
            Generator(q)

    def test_tiny_negative_dust_is_clamped(self):
        q = np.array([[-0.5, 0.5], [0.5, -0.5]])
        q[0, 1] = 0.5 - 1e-13
        q[1, 1] = -0.5 + 1e-13
        q[1, 0] = -1e-13
        q[0, 0] = 1e-13
        g = Generator(q)
        assert g.q[1, 0] == 0.0
        assert g.q[0, 0] <= 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NonFinite, match=r"\(1,0\)"):
            Generator([[-0.5, 0.5], [bad, -0.5]])

    def test_immutable(self):
        g = Generator([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(ValueError):
            g.q[0, 0] = 1.0

    def test_column_sums_are_read_after_the_clamp(self):
        """Column 0 sums to 1e-9 - 5e-13 as given, inside the tolerance, but to
        1e-9 + 5e-13 once its -1e-12 dust is clamped: the stored matrix is
        the one checked, so it raises."""
        q = np.array([[-0.5, 0.5, 0.0], [0.5 + 1e-9 + 5e-13, -0.5, 0.0], [-1e-12, 0.0, 0.0]])
        assert abs(q.sum(axis=0)[0]) <= 1e-9
        with pytest.raises(NotAGenerator, match="column 0"):
            Generator(q)

    @SETTINGS
    @given(g=generators(max_states=4), data=st.data())
    def test_dust_rule_holds_on_every_route(self, g, data):
        """With +-1e-13 dust on every entry, ``Generator(q)`` stores no
        negative off-diagonal and no positive diagonal, rebuilding it from
        its own matrix changes no bit, and ``from_transition`` stores the
        bits ``Generator`` does for the same rate matrix."""
        n = g.n
        dust = data.draw(arrays(np.float64, (n, n), elements=st.sampled_from([-1e-13, 0.0, 1e-13])))
        q = g.q + dust
        stored = Generator(q).q
        assert not (stored[~np.eye(n, dtype=bool)] < 0).any()
        assert not (np.diag(stored) > 0).any()
        assert Generator(stored).q.tobytes() == stored.tobytes()
        dt = 0.5 / max(float(np.abs(q).sum(axis=0).max()), 1.0)
        p = np.eye(n) + dt * q.T
        assert from_transition(p, dt).q.tobytes() == Generator((p - np.eye(n)).T / dt).q.tobytes()

    def test_every_route_checks_once(self, monkeypatch):
        calls = []
        check = regime_chain._check_generator
        monkeypatch.setattr(regime_chain, "_check_generator", lambda q: calls.append(1) or check(q))
        Generator([[-0.5, 0.5], [0.5, -0.5]])
        assert len(calls) == 1
        from_transition([[0.9, 0.1], [0.2, 0.8]], dt=1 / 252)
        assert len(calls) == 2


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

    @pytest.mark.parametrize(
        "p, dtype",
        [
            (np.array([[0.9 + 0.5j, 0.1], [0.1, 0.9]]), "complex"),
            ([["0.9", "0.1"], ["0.1", "0.9"]], "<U3"),
        ],
        ids=["complex", "strings"],
    )
    def test_matrix_of_non_reals_rejected_before_casting(self, p, dtype):
        """A complex matrix lost its imaginary part (with only a
        ComplexWarning), and a matrix of numeric strings was parsed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotStochastic, match=f"real numbers, got dtype {dtype}"):
                from_transition(p, dt=1.0)

    def test_defective_matrix_reports_row_and_sum(self):
        with pytest.raises(NotStochastic, match="row 2") as err:
            from_transition(DEFECTIVE_4X4, dt=1 / 252)
        assert "0.95" in str(err.value)

    def test_daily_row_off_by_1e_8_is_not_stochastic(self):
        """The row check is the generator's column-sum tolerance times dt, so a
        daily row off by 1e-8 is named as a row, not as a generator column."""
        p = [[0.75 + 1e-8, 0.25], [0.25, 0.75]]
        with pytest.raises(NotStochastic, match="row 0"):
            from_transition(p, dt=1 / 252)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_named_in_the_transition_matrix(self, bad):
        """The entry is named by its own (row, column), not by its place in
        the derived generator, which is transposed."""
        with pytest.raises(NonFinite, match=r"transition matrix entry \(0,1\)"):
            from_transition([[0.5, bad], [0.5, 0.5]], 1 / 252)

    def test_raw_matrix_requires_dt(self):
        with pytest.raises(TypeError, match="dt"):
            from_transition(np.eye(2))


class TestMatrixExp:
    def test_t_zero_is_identity(self, rng):
        g = Generator(random_generator_matrix(rng, 3))
        np.testing.assert_array_equal(matrix_exp(g, 0.0), np.eye(3))

    def test_negative_t_rejected(self):
        g = Generator([[0.0]])
        with pytest.raises(ValueError):
            matrix_exp(g, -0.1)

    @pytest.mark.parametrize("a,t", [(0.5, 0.3), (2.0, 1.7), (0.1, 10.0)])
    def test_symmetric_two_state_analytic(self, a, t):
        g = Generator([[-a, a], [a, -a]])
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

    @SETTINGS
    @given(g=generators(), log_norm=st.floats(-6.0, 4.0))
    def test_matches_scipy_expm(self, g, log_norm):
        """Against SciPy's scaling and squaring (Al-Mohy & Higham 2009), with
        ``||q t||_1`` from 1e-6 to 1e4."""
        norm = np.abs(g.q).sum(axis=0).max()
        t = 10.0**log_norm / (norm if norm > 0 else 1.0)
        p = matrix_exp(g, t)
        assert np.abs(p - expm(g.q * t)).max() <= 1e-10
        assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-10

    @SETTINGS
    @given(q=st.floats(-1e-12, 0.0), t=st.floats(0.0, 50.0))
    def test_one_state_is_exact(self, q, t):
        assert matrix_exp(Generator([[q]]), t)[0, 0] == np.exp(q * t)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("t", [math.inf, math.nan, 1e308])
    def test_non_finite_time_or_exponent_rejected(self, t):
        with pytest.raises(NonFinite):
            matrix_exp(Generator([[-1.0, 1.0], [1.0, -1.0]]), t)

    @SETTINGS
    @given(g=generators(max_states=5), data=st.data())
    def test_stack_is_bit_identical_to_scalar_calls(self, g, data):
        """A stack of 1 to 70 horizons, drawn with zeros and repeats from 1-norms
        ``||q t||_1`` of 1e-6 to 1e4 (0 to 12 squarings), gives each horizon's
        own kernel bit for bit."""
        ts = data.draw(horizon_stacks(g))
        stack = matrix_exp(g, np.array(ts))
        assert stack.shape == (len(ts), g.n, g.n)
        for t, p in zip(ts, stack):
            assert np.array_equal(p, matrix_exp(g, t))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @SETTINGS
    @given(
        g=generators(max_states=5),
        data=st.data(),
        bad=st.sampled_from([math.nan, math.inf, -math.inf, -5e-324, -1e-9, -3.0]),
    )
    def test_stack_with_a_bad_horizon_raises_as_its_scalar_call(self, g, data, bad):
        ts = data.draw(horizon_stacks(g))
        ts.insert(data.draw(st.integers(0, len(ts))), bad)
        with pytest.raises((NonFinite, TimeOrder)) as scalar:
            matrix_exp(g, bad)
        with pytest.raises(type(scalar.value)):
            matrix_exp(g, np.array(ts))

    def test_stack_shape_checked(self):
        g = Generator([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(DimensionError):
            matrix_exp(g, np.array([]))
        with pytest.raises(DimensionError):
            matrix_exp(g, np.ones((2, 2)))

    @pytest.mark.parametrize(
        "g, t",
        [
            (from_transition(LEAKY_DAILY, dt=1 / 252), 150 / 252),
            (from_transition(LEAKY_DAILY, dt=1 / 252), 504 / 252),
            (Generator([[-1e-9, 0.0], [0.0, 0.0]]), 0.5),
            (Generator([[-1e-9, 0.0], [0.0, 0.0]]), 5.0),
        ],
        ids=["daily_150d", "daily_504d", "absorbing_leak_0.5", "absorbing_leak_5"],
    )
    def test_admitted_column_leak_gives_kernels(self, g, t):
        """A column leak the generator check admits moves each kernel column's
        mass by at most t times the leak: the kernel is made, not refused."""
        leak = np.abs(g.q.sum(axis=0)).max()
        p = matrix_exp(g, t)
        assert p.min() >= 0.0
        assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-10 + t * leak
        assert np.abs(p - expm(g.q * t)).max() <= 1e-10

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
        g = Generator([[-0.5, 0.5], [0.5, -0.5]])
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
        g = Generator([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(BadDistribution):
            distribution_at(g, np.array([0.7, 0.7]), 1.0)
        with pytest.raises(BadDistribution):
            distribution_at(g, np.array([1.5, -0.5]), 1.0)
        with pytest.raises(DimensionError):
            distribution_at(g, np.array([1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(NonFinite):
            distribution_at(g, np.array([np.nan, np.nan]), 1.0)

    def test_sums_to_one(self, rng):
        g = Generator(random_generator_matrix(rng, 5))
        p0 = rng.dirichlet(np.ones(5))
        p = distribution_at(g, p0, 2.3)
        assert abs(p.sum() - 1.0) < 1e-9


class TestSamplePath:
    def test_zero_generator_never_leaves(self, rng):
        g = Generator(np.zeros((3, 3)))
        z = regimes(g, 2, np.linspace(0.0, 10.0, 101), rng)
        np.testing.assert_array_equal(z, np.full(101, 2))

    def test_deterministic_given_seed(self):
        g = Generator([[-1.0, 2.0], [1.0, -2.0]])
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
        g = Generator(self.CHAINS[chain])
        grid = np.arange(1261) / 252.0
        for z0 in range(g.n):
            ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            z = sample_paths(SPOT, g, z0, grid, ours)[1]
            np.testing.assert_array_equal(z, regimes_by_choice(g, z0, grid, oracle))
            assert ours.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("z0", [2, -1, 1.5, 1.0, True, np.True_], ids=["two", "negative", "float", "integral_float", "bool", "np_bool"])
    def test_state_out_of_range(self, z0):
        """z0 is an index in [0, n): a float or bool is not truncated to one,
        and nothing is drawn before it is checked."""
        g = Generator([[-0.5, 0.5], [0.5, -0.5]])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(StateOutOfRange):
            sample_paths(SPOT, g, z0, [0.0, 1.0], rng)
        assert rng.bit_generator.state == before

    def test_numpy_integer_start_state(self):
        g = Generator([[-0.5, 0.5], [0.5, -0.5]])
        grid = np.linspace(0.0, 5.0, 50)
        want = sample_paths(SPOT, g, 1, grid, np.random.default_rng(4))
        got = sample_paths(SPOT, g, np.int64(1), grid, np.random.default_rng(4))
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)

    def test_occupation_of_symmetric_chain(self):
        # time-average occupation of each state tends to the 50/50 stationary law
        g = Generator([[-0.5, 0.5], [0.5, -0.5]])
        rng = np.random.default_rng(7)
        horizon = 4000.0
        z = regimes(g, 0, np.linspace(0.0, horizon, 40_001), rng)
        occ0 = np.mean(z == 0)
        assert abs(occ0 - 0.5) < 0.05

    def test_jump_count_mean_matches_exit_rate(self):
        """False-alarm rate about 6.3e-5: the mean of 2000 Poisson counts is
        more than 4 se off with 2 Phi(-4) = 6.3e-5 (normal approximation,
        ``scipy.stats``)."""
        # exponential clock: every state leaves at rate a, so the jump count
        # over the horizon is Poisson(a * horizon); on a chain that only
        # counts up, the terminal state is the jump count
        a, horizon, n_paths, n = 0.7, 2.0, 2000, 40
        q = np.zeros((n, n))
        up = np.arange(n - 1)
        q[up + 1, up] = a
        q[up, up] = -a
        g = Generator(q)
        rng = np.random.default_rng(11)
        counts = [regimes(g, 0, [0.0, horizon], rng)[-1] for _ in range(n_paths)]
        mean = np.mean(counts)
        se = np.sqrt(a * horizon / n_paths)
        assert abs(mean - a * horizon) < 4 * se

    def test_empirical_law_matches_distribution_at(self):
        """False-alarm rate 1%, the level of its chi-square test."""
        # chi-squared goodness of fit at 10^4 paths, significance 0.01
        q = np.array(
            [
                [-1.2, 0.4, 0.3],
                [0.7, -0.9, 0.6],
                [0.5, 0.5, -0.9],
            ]
        )
        g = Generator(q)
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
        g = Generator([[-3.0, 0.0, 3.0], [3.0, -3.0, 0.0], [0.0, 3.0, -3.0]])
        z = regimes(g, 0, np.linspace(0.0, 10.0, 100_001), np.random.default_rng(0))
        changes = np.flatnonzero(np.diff(z))
        assert z[0] == 0 and changes.size > 10
        np.testing.assert_array_equal(z[changes + 1], (z[changes] + 1) % 3)


class TestStatePath:
    def test_rejects_unsorted_times(self, rng):
        g = Generator([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(ValueError):
            sample_paths(SPOT, g, 0, [0.0, 0.5, 0.4], rng)
