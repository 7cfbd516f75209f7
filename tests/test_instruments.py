"""Claim payoffs and the convenience-yield dynamics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from regime_risk.entropic_risk import RiskQuery, claim_risk_mc, sample_paths
from regime_risk.errors import DimensionError, LengthMismatch, NonFinite, StateOutOfRange, TimeOrder
from regime_risk.instruments import (
    ConstantYield,
    FutureClaim,
    GibsonSchwartzParams,
    LinearSpotClaim,
    SwapClaim,
    step_correlation,
    swap_value,
)
from regime_risk.ou_model import OUParams
from regime_risk.regime_chain import Generator

from conftest import SETTINGS

SPOT = OUParams(alpha=1.0, mu=0.0, sigma=1.0, x0=0.0)
ONE_STATE = Generator([[0.0]])  # draws nothing


def terminal_payoff(claim, x: float, z: int, s: float = 0.0, T: float = 1.0) -> float:
    """The MC engine's payoff of ``claim`` in regime z with the spot at x.

    A reversion rate of 1000/yr with sigma = 0 puts X_T exactly at mu = x, and
    a zero generator keeps Z_T at z; the risk of that constant payoff at
    gamma = 1 is the payoff itself.
    """
    ou = OUParams(alpha=1000.0, mu=x, sigma=0.0, x0=x)
    frozen = Generator(np.zeros((claim.n_states, claim.n_states)))
    q = RiskQuery(s=s, T=T, x_s=x)
    return claim_risk_mc(ou, frozen, claim, q, 2, seed=0, gammas=[1.0], states=[z])[0][0].value


def yield_path(gs, grid, rng):
    return sample_paths(SPOT, ONE_STATE, 0, grid, rng, gs)[2]


class TestLinearPayoff:
    def test_identity_loading_returns_spot(self):
        c = LinearSpotClaim(delta=np.ones(4))
        assert terminal_payoff(c, 62.24, 3) == 62.24

    def test_quarter_haircut(self):
        c = LinearSpotClaim(delta=[0.75, 0.75])
        assert terminal_payoff(c, 62.24, 0) == pytest.approx(46.68)

    def test_zero_loading(self):
        c = LinearSpotClaim(delta=[0.0, 0.0])
        assert terminal_payoff(c, 123.0, 1) == 0.0

    def test_state_out_of_range(self):
        c = LinearSpotClaim(delta=[1.0, 2.0])
        with pytest.raises(StateOutOfRange):
            terminal_payoff(c, 1.0, 2)


class TestFuturePayoff:
    def test_zero_carry_equals_linear(self):
        c = FutureClaim(delta=[1.5], r=0.04, y=-0.04)
        assert terminal_payoff(c, 77.0, 0, s=0.2) == terminal_payoff(
            LinearSpotClaim(c.delta), 77.0, 0, s=0.2
        )

    def test_eight_percent_carry_over_one_year(self):
        c = FutureClaim(delta=[1.0], r=0.0, y=0.08)
        assert terminal_payoff(c, 100.0, 0) == pytest.approx(92.31163463866358, rel=1e-12)


GS_FIELDS = dict(kappa=1.0, y_bar=0.05, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.05)


class TestFieldChecks:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: LinearSpotClaim(delta=[1.0, np.inf]),
            lambda: FutureClaim(delta=[1.0], r=0.0, y=np.nan),
            lambda: ConstantYield(r=np.nan, y=0.0),
            lambda: SwapClaim(rates=[0.05, np.nan], delta=[1.0], yield_spec=ConstantYield(r=0.0, y=0.0)),
            lambda: GibsonSchwartzParams(**dict(GS_FIELDS, rho=np.inf)),
            lambda: GibsonSchwartzParams(**dict(GS_FIELDS, y0=np.nan)),
            lambda: OUParams(alpha=np.nan, mu=50.0, sigma=5.0, x0=50.0),
        ],
        ids=["delta", "future_y", "constant_r", "swap_rates", "gs_rho", "gs_y0", "ou_alpha"],
    )
    def test_non_finite_field_rejected(self, build):
        with pytest.raises(NonFinite):
            build()


def swap_value_by_one_expression(x, z, c, y=None):
    """The swap value as one (settlement x path) expression: the reference
    that ``swap_value`` reproduces bit for bit."""
    T = c.n_periods
    if y is None:
        y = np.full(x.shape, c.yield_spec.level)
    shape = (T,) + (1,) * (x.ndim - 1)
    time_to_mat = (c.settlement_times - T).reshape(shape)
    disc = np.exp(-c.rates).reshape(shape)
    total = (disc * x * (np.exp(y * c.delta[z] * time_to_mat) - 1.0)).sum(axis=0)
    return float(total) if total.ndim == 0 else total


@st.composite
def swap_instances(draw):
    """(claim, x, z, y) for ``swap_value``: 1 to 40 settlements (past the
    8-element block of numpy's pairwise sum), paths as a (T,) vector, a
    (T, 1) column, a (T, m) block or no paths at all, 1 to 4 states, and a
    constant or a Gibson-Schwartz yield.  The values come from a drawn seed,
    so that every entry differs and a change in the order of the sum shows."""
    T = draw(st.integers(1, 40))
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(T,), (T, 1), (T, 0), (T, draw(st.integers(2, 64)))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates, delta = rng.uniform(-0.2, 0.3, T), rng.uniform(-2.0, 2.0, n)
    x, z = rng.uniform(-200.0, 200.0, shape), rng.integers(0, n, shape)
    if draw(st.booleans()):
        gs = GibsonSchwartzParams(kappa=1.0, y_bar=0.05, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.04)
        return SwapClaim(rates, delta, gs), x, z, rng.uniform(-0.5, 0.5, shape)
    spec = ConstantYield(r=draw(st.floats(-0.25, 0.25)), y=draw(st.floats(-0.25, 0.25)))
    return SwapClaim(rates, delta, spec), x, z, None


class TestSwapValue:
    def test_zero_yield_gives_zero_value(self):
        c = SwapClaim(rates=[0.05, 0.04, 0.03], delta=[1.0, 1.0], yield_spec=ConstantYield(r=0.0, y=0.0))
        x = np.array([50.0, 60.0, 70.0])
        z = np.array([0, 1, 0])
        assert swap_value(x, z, c) == 0.0

    def test_single_period_settles_at_maturity(self):
        c = SwapClaim(rates=[0.05], delta=[1.0], yield_spec=ConstantYield(r=0.02, y=0.06))
        assert swap_value([123.0], [0], c) == 0.0

    def test_two_period_hand_value(self):
        # e^{-0.05} * 55 * (e^{-0.1} - 1) + e^{-0.06} * 60 * (e^0 - 1)
        c = SwapClaim(rates=[0.05, 0.06], delta=[1.0, 1.0], yield_spec=ConstantYield(r=0.04, y=0.06))
        v = swap_value([55.0, 60.0], [0, 0], c)
        assert v == pytest.approx(-4.978679644161094, rel=1e-12)

    def test_linear_in_spot_path_for_fixed_yield(self, rng):
        gs = GibsonSchwartzParams(kappa=1.0, y_bar=0.05, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.04)
        c = SwapClaim(rates=[0.05, 0.05, 0.05], delta=[1.0, 0.5], yield_spec=gs)
        y = rng.normal(0.05, 0.02, size=3)
        z = np.array([0, 1, 1])
        x1, x2 = rng.uniform(40, 80, size=(2, 3))
        a, b = 0.7, -1.3
        lhs = swap_value(a * x1 + b * x2, z, c, y)
        rhs = a * swap_value(x1, z, c, y) + b * swap_value(x2, z, c, y)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_settlement_sign_tracks_carry_factor(self, rng):
        c = SwapClaim(rates=[0.03, 0.03, 0.03], delta=[1.0, -0.5], yield_spec=ConstantYield(r=0.02, y=0.05))
        for _ in range(20):
            z = rng.integers(0, 2, size=3)
            x = rng.uniform(1.0, 100.0, size=3)
            t = np.arange(1, 4)
            yz = c.yield_spec.level * np.asarray(c.delta)[z]
            factor = np.exp(yz * (t - 3)) - 1.0
            per_period = np.exp(-c.rates) * x * factor
            # positive spot: each settlement has the sign of its carry factor
            assert np.all(np.sign(per_period) == np.sign(factor))
            assert swap_value(x, z, c) == pytest.approx(per_period.sum(), rel=1e-12)

    def test_length_mismatch(self):
        c = SwapClaim(rates=[0.05, 0.05], delta=[1.0], yield_spec=ConstantYield(r=0.0, y=0.1))
        with pytest.raises(LengthMismatch):
            swap_value([50.0], [0], c)
        with pytest.raises(LengthMismatch):
            swap_value([50.0, 51.0], [0], c)
        with pytest.raises(LengthMismatch):
            swap_value(5.0, 0, SwapClaim(rates=[0.1], delta=[1.0], yield_spec=ConstantYield(0.0, 0.1)))

    @pytest.mark.parametrize(
        "z",
        [[True, False], [1.0, 0.0], [True, 0], (0, np.True_)],
        ids=["bool", "float", "bool_in_list", "bool_in_tuple"],
    )
    def test_state_path_must_hold_integers(self, z):
        """A bool path would index delta as a mask, a bool in a list of ints
        be read as state 0 or 1, and a float path fail in numpy."""
        c = SwapClaim(rates=[0.01, 0.02], delta=[1.0, 1.1], yield_spec=ConstantYield(0.01, 0.05))
        with pytest.raises(StateOutOfRange, match="integer"):
            swap_value([50.0, 51.0], z, c)
        assert swap_value([50.0, 51.0], [1, 0], c) != swap_value([50.0, 51.0], [0, 0], c)
        # an integer path keeps its bits, however it is given
        want = swap_value(np.array([50.0, 51.0]), np.array([1, 0]), c)
        for ints in ([1, 0], (1, 0), np.array([1, 0], dtype=np.int32), [np.int64(1), 0]):
            assert swap_value([50.0, 51.0], ints, c) == want

    def test_ragged_state_path_is_a_dimension_error(self):
        c = SwapClaim(rates=[0.01, 0.02], delta=[1.0, 1.1], yield_spec=ConstantYield(0.01, 0.05))
        with pytest.raises(DimensionError, match="z_path"):
            swap_value([1.0, 2.0], [0, [1, 0]], c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_spot_or_yield_path_raises(self, bad):
        """A NaN or infinite path value is surfaced, not summed into the value."""
        c = SwapClaim(rates=[0.05, 0.05], delta=[1.0], yield_spec=ConstantYield(r=0.02, y=0.06))
        with pytest.raises(NonFinite, match="x_path"):
            swap_value([bad, 51.0], [0, 0], c)
        with pytest.raises(NonFinite, match="x_path"):
            swap_value(np.array([[50.0, bad], [51.0, 52.0]]), np.zeros((2, 2), dtype=int), c)
        gs = GibsonSchwartzParams(kappa=1.0, y_bar=0.05, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.04)
        c = SwapClaim(rates=[0.05, 0.05], delta=[1.0], yield_spec=gs)
        with pytest.raises(NonFinite, match="y_path"):
            swap_value([50.0, 51.0], [0, 0], c, [0.05, bad])

    def test_gibson_schwartz_requires_yield_path(self):
        gs = GibsonSchwartzParams(kappa=1.0, y_bar=0.05, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.04)
        c = SwapClaim(rates=[0.05, 0.05], delta=[1.0], yield_spec=gs)
        with pytest.raises(LengthMismatch):
            swap_value([50.0, 51.0], [0, 0], c)

    def test_constant_spec_rejects_yield_path(self):
        c = SwapClaim(rates=[0.05, 0.05], delta=[1.0], yield_spec=ConstantYield(r=0.0, y=0.1))
        with pytest.raises(LengthMismatch):
            swap_value([50.0, 51.0], [0, 0], c, y_path=[0.1, 0.1])

    def test_vectorized_paths_match_scalar(self, rng):
        c = SwapClaim(rates=[0.05, 0.04], delta=[1.0, 2.0], yield_spec=ConstantYield(r=0.01, y=0.05))
        x = rng.uniform(40, 80, size=(2, 5))
        z = rng.integers(0, 2, size=(2, 5))
        vec = swap_value(x, z, c)
        scalars = [swap_value(x[:, j], z[:, j], c) for j in range(5)]
        np.testing.assert_allclose(vec, scalars, rtol=1e-14)

    @SETTINGS
    @given(swap_instances())
    def test_equals_the_one_expression_bit_for_bit(self, instance):
        """On C-ordered inputs, as the Monte-Carlo engine passes them."""
        c, x, z, y = instance
        got, want = swap_value(x, z, c, y), swap_value_by_one_expression(x, z, c, y)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # the bits do not follow the inputs' memory layout
        fortran = swap_value(np.asfortranarray(x), np.asfortranarray(z), c, None if y is None else np.asfortranarray(y))
        assert np.asarray(fortran).tobytes() == np.asarray(got).tobytes()

    @SETTINGS
    @given(swap_instances(), st.data())
    def test_state_outside_the_chain_names_the_first_bad_entry(self, instance, data):
        c, x, z, y = instance
        assume(z.size)
        n = c.n_states
        flat = z.reshape(-1)
        for at in data.draw(st.lists(st.integers(0, z.size - 1), min_size=1, max_size=3)):
            flat[at] = data.draw(st.sampled_from([-1, n, n + 5]))
        first = z[(z < 0) | (z >= n)][:1]
        with pytest.raises(StateOutOfRange) as raised:
            swap_value(x, z, c, y)
        assert str(raised.value) == f"state index outside [0, {n}): {first!r}"

    @pytest.mark.parametrize("gibson_schwartz", [False, True], ids=["constant", "gibson_schwartz"])
    def test_working_set_is_one_buffer_of_the_paths(self, rng, gibson_schwartz):
        """The traced heap peak on 8 settlements x 20 000 paths stays within
        1.6 float64 buffers of that shape: the settlement buffer plus
        temporaries the size of one row."""
        shape = (8, 20_000)
        if gibson_schwartz:
            spec = GibsonSchwartzParams(kappa=1.0, y_bar=0.05, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.04)
            y = rng.normal(0.03, 0.02, shape)
        else:
            spec, y = ConstantYield(r=0.02, y=0.03), None
        c = SwapClaim(rates=np.full(8, 0.05), delta=[1.0, 0.8, 1.2], yield_spec=spec)
        x = rng.uniform(40.0, 80.0, shape)
        z = rng.integers(0, 3, shape)
        tracemalloc.start()
        try:
            swap_value(x, z, c, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * x.nbytes


class TestYieldSimulation:
    def test_zero_vol_relaxes_to_historical_level(self, rng):
        gs = GibsonSchwartzParams(kappa=2.0, y_bar=0.08, sigma_y=0.0, rho=0.0, lambda_y=0.04, y0=0.20)
        assert gs.historical_level == pytest.approx(0.08 - 0.02 - 0.04)
        grid = np.linspace(0.0, 6.0, 40)
        y = yield_path(gs, grid, rng)
        assert np.all(np.diff(y) < 0)
        assert abs(y[-1] - gs.historical_level) < 1e-4

    def test_zero_risk_premium_recovers_risk_neutral_level(self):
        gs = GibsonSchwartzParams(kappa=1.5, y_bar=0.07, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.07)
        assert gs.historical_level == gs.y_bar
        # with y0 at the level and zero premium the path oscillates around y_bar
        y = yield_path(gs, np.linspace(0, 50, 5000), np.random.default_rng(4))
        assert abs(y.mean() - gs.y_bar) < 4 * gs.sigma_y / np.sqrt(2 * gs.kappa * 50)

    def test_exact_step_matches_recursion_oracle(self):
        gs = GibsonSchwartzParams(kappa=1.2, y_bar=0.05, sigma_y=0.3, rho=0.0, lambda_y=0.01, y0=0.02)
        grid = np.array([0.0, 0.4, 1.1])
        eps = np.random.default_rng(9).standard_normal(4)[2:]  # after the two spot normals
        y = yield_path(gs, grid, np.random.default_rng(9))
        level = gs.historical_level
        expect = gs.y0
        for k, dt in enumerate(np.diff(grid)):
            b = np.exp(-gs.kappa * dt)
            sd = np.sqrt(gs.sigma_y**2 / (2 * gs.kappa) * (1 - b * b))
            expect = expect * b + level * (1 - b) + sd * eps[k]
            assert y[k + 1] == pytest.approx(expect, rel=1e-12)

    def test_stationary_variance(self):
        gs = GibsonSchwartzParams(kappa=3.0, y_bar=0.06, sigma_y=0.2, rho=0.0, lambda_y=0.0, y0=0.06)
        ends = np.array(
            [
                yield_path(gs, np.linspace(0, 2, 21), np.random.default_rng(k))[-1]
                for k in range(1500)
            ]
        )
        target = gs.sigma_y**2 / (2 * gs.kappa)
        se = target * np.sqrt(2.0 / (len(ends) - 1))
        assert abs(ends.var(ddof=1) - target) < 4 * se

    def test_unsorted_grid(self, rng):
        gs = GibsonSchwartzParams(kappa=1.0, y_bar=0.05, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.05)
        with pytest.raises(TimeOrder):
            yield_path(gs, [0.0, 0.5, 0.2], rng)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GibsonSchwartzParams(kappa=0.0, y_bar=0.0, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.0)
        with pytest.raises(ValueError):
            GibsonSchwartzParams(kappa=1.0, y_bar=0.0, sigma_y=0.1, rho=1.5, lambda_y=0.0, y0=0.0)


class TestJointSpotYield:
    OU = OUParams(alpha=3.0, mu=50.0, sigma=8.0, x0=50.0)

    def test_innovation_correlation_matches_formula(self):
        gs = GibsonSchwartzParams(kappa=1.5, y_bar=0.05, sigma_y=0.2, rho=-0.6, lambda_y=0.0, y0=0.05)
        dt = 0.05
        target = step_correlation(self.OU, gs, dt)
        n = 4000
        grid = np.array([0.0, dt])
        xs, ys = np.empty(n), np.empty(n)
        for k in range(n):
            x, _, y = sample_paths(self.OU, ONE_STATE, 0, grid, np.random.default_rng(k), gs)
            xs[k], ys[k] = x[1], y[1]
        emp = np.corrcoef(xs, ys)[0, 1]
        assert abs(emp - target) < 4 / np.sqrt(n)
        assert np.sign(target) == np.sign(gs.rho)

    def test_perfect_correlation_degenerates(self):
        gs = GibsonSchwartzParams(kappa=3.0, y_bar=0.05, sigma_y=0.2, rho=1.0, lambda_y=0.0, y0=0.05)
        # same reversion rate as the spot: innovations are then perfectly aligned
        ou = OUParams(alpha=3.0, mu=50.0, sigma=8.0, x0=50.0)
        assert step_correlation(ou, gs, 0.1) == pytest.approx(1.0)

    def test_grid_checks(self, rng):
        gs = GibsonSchwartzParams(kappa=1.0, y_bar=0.05, sigma_y=0.1, rho=0.0, lambda_y=0.0, y0=0.05)
        with pytest.raises(TimeOrder):
            sample_paths(self.OU, ONE_STATE, 0, [0.5, 1.0], rng, gs)
