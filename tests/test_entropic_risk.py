"""Closed-form risks, the MC estimator, and their agreement."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chi2, poisson

from regime_risk.entropic_risk import (
    MCEstimate,
    RiskQuery,
    claim_risk_closed,
    claim_risk_mc,
    entropic_mc,
    future_risk_closed,
    spot_risk_closed,
)
from regime_risk import entropic_risk
from regime_risk.errors import (
    BadDistribution,
    ConfigError,
    DimensionError,
    EmptySamples,
    LengthMismatch,
    NonFinite,
    NonPositiveGamma,
    StateOutOfRange,
    TimeOrder,
)
from regime_risk.config import load_config
from regime_risk.instruments import (
    ConstantYield,
    FutureClaim,
    GibsonSchwartzParams,
    LinearSpotClaim,
    SwapClaim,
    step_correlation,
)
from regime_risk.ou_model import ConditionalLaw, OUParams, conditional_law, step_coefficients
from regime_risk.regime_chain import Generator, distribution_at, matrix_exp

from conftest import EXAMPLE_CONFIG, SETTINGS, draw_mc_instance, random_generator_matrix

CRUDE = OUParams(alpha=5.0, mu=48.22, sigma=13.66, x0=62.24)
TWO_STATE = Generator([[-0.8, 0.5], [0.8, -0.5]])


def swap_risk_mc(ou, g, c, gamma, n_paths, seed, z0=0):
    """Swap risk from regime z0: settlements at t = 1..T from s = 0, x_0 = ou.x0."""
    q = RiskQuery(0.0, float(c.n_periods), ou.x0)
    return claim_risk_mc(ou, g, c, q, n_paths, seed, gammas=[gamma], states=[z0])[0][0]


def expected_payoff_closed(ou, g, delta, q):
    """Independent expectation oracle: E[X_T] * sum_j P(Z_T=j|Z_s=i) delta_j."""
    law = conditional_law(ou, q.x_s, q.s, q.T)
    P = matrix_exp(g, q.T - q.s)
    return law.mean * (P.T @ np.asarray(delta, dtype=float))


class TestEntropicMC:
    def test_constant_samples_return_the_constant(self):
        est = entropic_mc(np.full(100, 7.25), gamma=2.0)
        assert est.value == 7.25
        assert est.std_error == 0.0
        assert est.n_paths == 100

    def test_two_point_closed_form(self):
        # equiprobable {0, K} at gamma=1: -ln((1 + e^{-K}) / 2)
        K = 3.0
        samples = np.array([0.0, K] * 500)
        est = entropic_mc(samples, gamma=1.0)
        assert est.value == pytest.approx(0.6445598289862033, rel=1e-12)

    def test_cash_additivity_and_stable_std_error(self, rng):
        psi = rng.normal(5.0, 2.0, size=4000)
        base = entropic_mc(psi, gamma=1.5)
        shifted = entropic_mc(psi + 123.0, gamma=1.5)
        assert shifted.value == pytest.approx(base.value + 123.0, abs=1e-10)
        assert shifted.std_error == pytest.approx(base.std_error, rel=1e-9)

    def test_no_overflow_for_extreme_exponents(self):
        est = entropic_mc(np.array([-1e5, 0.0, 1e5]), gamma=0.5)
        assert np.isfinite(est.value)
        assert np.isfinite(est.std_error)

    def test_errors(self):
        with pytest.raises(EmptySamples):
            entropic_mc(np.array([]), gamma=1.0)
        with pytest.raises(NonPositiveGamma):
            entropic_mc(np.array([1.0]), gamma=0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(NonFinite):
            entropic_mc(np.array([1.0, 2.0]), gamma=gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(NonFinite):
            entropic_mc(np.array([1.0, bad, 2.0]), gamma=1.0)

    def test_below_expectation(self, rng):
        psi = rng.normal(0.0, 3.0, size=20_000)
        est = entropic_mc(psi, gamma=2.0)
        assert est.value < psi.mean()

    @SETTINGS
    @given(
        n=st.sampled_from([1, 2, 3, 1000, 100_000]),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 1.0, -50.0, 1e3, -1e6, 1e6]),
        log_scale=st.floats(-3.0, 3.0),
        log_gamma=st.floats(-3.0, 4.0),
    )
    def test_bits_of_the_numpy_formula(self, n, seed, offset, log_scale, log_gamma):
        # the in-place pass does what these numpy expressions do, on every numpy CI runs
        psi = offset + 10.0**log_scale * np.random.default_rng(seed).standard_normal(n)
        gamma = 10.0**log_gamma
        logw = -psi / gamma
        w = np.exp(logw - logw.max())
        value = -gamma * (logw.max() + np.log(w.mean()))
        se = gamma * w.std(ddof=1) / (w.mean() * np.sqrt(n)) if n > 1 else 0.0
        est = entropic_mc(psi, gamma)
        assert np.array([est.value, est.std_error]).tobytes() == np.array([value, se]).tobytes()

    def test_heap_peak_is_one_buffer_the_size_of_the_samples(self):
        psi = np.random.default_rng(5).normal(50.0, 10.0, size=100_000)
        entropic_mc(psi, 2.0)  # numpy's lazy set-up is not the call's
        tracemalloc.start()
        try:
            entropic_mc(psi, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * psi.nbytes


class TestRiskQuery:
    @pytest.mark.parametrize(
        "gamma, error",
        [(0.0, NonPositiveGamma), (-1.0, NonPositiveGamma), (np.nan, NonFinite), (np.inf, NonFinite)],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_gamma_must_be_finite_and_positive(self, gamma, error):
        """A query carries no gamma: each route rejects a bad one on its grid."""
        q = RiskQuery(s=0.0, T=1.0, x_s=50.0)
        with pytest.raises(error):
            spot_risk_closed(CRUDE, TWO_STATE, [1.0, 1.0], q, gammas=[gamma])
        with pytest.raises(error):
            claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0, 1.0]), q, 100, seed=0, gammas=[gamma])

    @pytest.mark.parametrize("field", [{"T": np.inf}, {"s": np.nan}, {"x_s": np.nan}])
    def test_non_finite_fields_rejected(self, field):
        with pytest.raises(NonFinite):
            RiskQuery(**{"s": 0.0, "T": 1.0, "x_s": 50.0, **field})

    def test_time_order(self):
        with pytest.raises(TimeOrder):
            RiskQuery(s=1.0, T=1.0, x_s=50.0)
        with pytest.raises(TimeOrder):
            RiskQuery(s=-0.1, T=1.0, x_s=50.0)

    def test_risk_is_minus_gamma_log_mixture(self):
        """risks[i] = -gamma ln sum_j P(Z_T = j | Z_s = i) phi_j."""
        gamma, q = 2.0, RiskQuery(s=0.0, T=0.5, x_s=60.0)
        delta = np.array([0.7, 1.3])
        law = conditional_law(CRUDE, q.x_s, q.s, q.T)
        phi = np.exp(-delta * law.mean / gamma + delta**2 * law.variance / (2 * gamma**2))
        log_mixture = gamma * np.log(matrix_exp(TWO_STATE, q.horizon).T @ phi)
        np.testing.assert_allclose(
            spot_risk_closed(CRUDE, TWO_STATE, delta, q, gammas=[gamma])[0], -log_mixture, rtol=1e-12
        )


Q_HALF_YEAR = RiskQuery(s=0.0, T=0.5, x_s=60.0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: matrix_exp(TWO_STATE, -0.1), TimeOrder),
        (lambda: ConditionalLaw(mean=60.0, variance=-1.0), BadDistribution),
        (lambda: MCEstimate(value=1.0, std_error=-0.5, n_paths=10), BadDistribution),
        (lambda: spot_risk_closed(CRUDE, TWO_STATE, [1.0, 1.0], Q_HALF_YEAR, gammas=[]), DimensionError),
        (lambda: claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0, 1.0]), Q_HALF_YEAR, 1, 0, gammas=[1.0]), EmptySamples),
        (lambda: claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0, 1.0]), Q_HALF_YEAR, 2, -1, gammas=[1.0]), ConfigError),
        (lambda: claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0, 1.0]), Q_HALF_YEAR, 2, 1 << 64, gammas=[1.0]), ConfigError),
        (lambda: ConditionalLaw(mean=np.nan, variance=1.0), NonFinite),
        (lambda: ConditionalLaw(0.0, np.nan), NonFinite),
        (lambda: conditional_law(CRUDE, np.nan, 0.0, 1.0), NonFinite),
        (lambda: MCEstimate(value=np.nan, std_error=0.5, n_paths=10), NonFinite),
        (lambda: MCEstimate(value=1.0, std_error=np.nan, n_paths=10), NonFinite),
        # an MCEstimate's n_paths is checked as claim_risk_mc's is
        (lambda: MCEstimate(value=1.0, std_error=0.5, n_paths=-3), EmptySamples),
        (lambda: MCEstimate(value=1.0, std_error=0.5, n_paths=0), EmptySamples),
        (lambda: MCEstimate(value=1.0, std_error=0.5, n_paths=2.5), ConfigError),
        (lambda: MCEstimate(value=1.0, std_error=0.5, n_paths=True), ConfigError),
    ],
    ids=["negative_time", "negative_variance", "negative_std_error", "empty_gammas", "one_path", "negative_seed",
         "seed_past_64_bits", "nan_mean", "nan_variance", "nan_spot", "nan_mc_value", "nan_std_error",
         "mc_negative_paths", "mc_zero_paths", "mc_fractional_paths", "mc_bool_paths"],
)
def test_out_of_range_arguments_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("reference, z", [(1.0, 0.0), (1.5, np.inf)], ids=["on_the_value", "off_the_value"])
def test_z_score_of_an_estimate_without_spread(reference, z):
    """An estimate whose standard error is 0 scores 0 against its own value and inf against any other."""
    assert MCEstimate(value=1.0, std_error=0.0, n_paths=2).z_score(reference) == z


class TestSpotRiskClosed:
    def test_single_regime_reduces_to_gaussian_certainty_equivalent(self):
        g = Generator([[0.0]])
        for gamma in (0.5, 1.0, 5.0, 20.0):
            for d in (-1.5, 0.3, 2.0):
                q = RiskQuery(s=0.1, T=0.6, x_s=58.0)
                law = conditional_law(CRUDE, q.x_s, q.s, q.T)
                expected = d * law.mean - d * d * law.variance / (2 * gamma)
                row = spot_risk_closed(CRUDE, g, [d], q, gammas=[gamma])[0]
                assert row[0] == pytest.approx(expected, abs=1e-10)

    def test_zero_vol_reduces_to_finite_regime_sum(self):
        ou = OUParams(alpha=2.0, mu=45.0, sigma=0.0, x0=50.0)
        delta = np.array([0.5, -1.0, 2.0])
        gamma, q = 2.0, RiskQuery(s=0.0, T=0.7, x_s=50.0)
        g = Generator(random_generator_matrix(np.random.default_rng(1), 3))
        m = conditional_law(ou, q.x_s, q.s, q.T).mean
        P = matrix_exp(g, q.T)
        row = spot_risk_closed(ou, g, delta, q, gammas=[gamma])[0]
        for i in range(3):
            mix = sum(P[j, i] * np.exp(-delta[j] * m / gamma) for j in range(3))
            assert row[i] == pytest.approx(-gamma * np.log(mix), abs=1e-10)

    def test_zero_loading_gives_zero_risk(self):
        q = RiskQuery(s=0.0, T=1.0, x_s=50.0)
        row = spot_risk_closed(CRUDE, TWO_STATE, [0.0, 0.0], q, gammas=[1.0])[0]
        np.testing.assert_allclose(row, 0.0, atol=1e-12)

    @pytest.mark.parametrize("chain", ["two_state", "shipped"])
    def test_zero_and_constant_loadings_are_exact(self, chain):
        """A zero loading's risk is exactly 0 and a state-constant loading's is
        one value for every state, at every horizon: the columns of the kernel
        sum to 1 only to within rounding."""
        g = TWO_STATE if chain == "two_state" else load_config(EXAMPLE_CONFIG).chain
        gammas = [1.0, 2.5, 5.0, 10.0]
        for T in np.random.default_rng(8).uniform(1.0 / 252.0, 2.0, size=250):
            q = RiskQuery(s=0.0, T=float(T), x_s=62.24)
            for row in spot_risk_closed(CRUDE, g, np.zeros(g.n), q, gammas=gammas):
                assert np.all(row == 0.0)
            for row in spot_risk_closed(CRUDE, g, np.full(g.n, 0.75), q, gammas=gammas):
                assert np.all(row == row[0])

    def test_wrong_delta_length(self):
        q = RiskQuery(s=0.0, T=1.0, x_s=50.0)
        with pytest.raises(DimensionError):
            spot_risk_closed(CRUDE, TWO_STATE, [1.0, 2.0, 3.0], q, gammas=[1.0])

    def test_extreme_exponents_stay_finite(self):
        # |log phi| far beyond 30: the max-shift path must hold
        q = RiskQuery(s=0.0, T=1.0, x_s=62.24)
        row = spot_risk_closed(CRUDE, TWO_STATE, [2.0, -2.0], q, gammas=[0.05])[0]
        assert np.all(np.isfinite(row))

    def test_reducible_chain_with_extreme_loadings(self):
        # block-diagonal chain: the giant log-moment lives in the block the
        # other block cannot reach, so each block must be shifted on its own
        g = reducible_chain()
        delta = np.array([0.5, 0.6, -40.0, -42.0])
        q = RiskQuery(s=0.0, T=0.5, x_s=62.24)
        row = spot_risk_closed(CRUDE, g, delta, q, gammas=[0.05])[0]
        assert np.all(np.isfinite(row))
        # the benign block must match its own standalone 2-state computation
        g_small = Generator(g.q[:2, :2])
        row_small = spot_risk_closed(CRUDE, g_small, delta[:2], q, gammas=[0.05])[0]
        np.testing.assert_allclose(row[:2], row_small, rtol=1e-12)


def closed_by_loop(ou, g, deltas, q, gammas) -> np.ndarray:
    """Reference for :func:`claim_risk_closed`: one (loading, gamma) pair at a
    time, stacked as a (loading, gamma, state) array."""
    law = conditional_law(ou, q.x_s, q.s, q.T)
    P = matrix_exp(g, q.horizon)
    out = []
    for delta in np.asarray(deltas, dtype=float):
        rows = []
        for gamma in gammas:
            logphi = -delta * law.mean / gamma + delta**2 * law.variance / (2.0 * gamma**2)
            masked = np.where(P > 0.0, logphi[:, None], -np.inf)
            shift = masked.max(axis=0)
            weights = np.exp(masked - shift)
            mixed = np.einsum("ji,ji->i", P, weights) / np.einsum("ji,ji->i", P, np.ones_like(weights))
            rows.append(-gamma * (shift + np.log(mixed)))
        out.append(rows)
    return np.array(out)


def random_chain(rng, reducible: bool) -> Generator:
    """A random generator; when ``reducible``, two blocks that cannot reach each other."""
    if not reducible:
        return Generator(random_generator_matrix(rng, int(rng.integers(1, 7))))
    a, b = (random_generator_matrix(rng, int(rng.integers(1, 4))) for _ in range(2))
    q_mat = np.zeros((len(a) + len(b),) * 2)
    q_mat[: len(a), : len(a)] = a
    q_mat[len(a) :, len(a) :] = b
    return Generator(q_mat)


def reducible_chain() -> Generator:
    """Two blocks that cannot reach each other (see the extreme-loading test)."""
    q_mat = np.zeros((4, 4))
    q_mat[:2, :2] = [[-1.0, 1.0], [1.0, -1.0]]
    q_mat[2:, 2:] = [[-2.0, 2.0], [2.0, -2.0]]
    return Generator(q_mat)


class TestClosedFormGammaGrid:
    """One conditional law and one matrix exponential per call, reduced at every gamma."""

    GAMMAS = [0.05, 0.5, 2.0, 7.0]

    @pytest.mark.parametrize(
        "route, g, loading",
        [
            ("spot", TWO_STATE, [0.75, 1.25]),
            ("future", TWO_STATE, FutureClaim(delta=[0.75, 1.25], r=0.03, y=0.05)),
            ("spot", reducible_chain(), [0.5, 0.6, -40.0, -42.0]),
        ],
        ids=["spot", "future", "reducible_extreme"],
    )
    def test_grid_is_bit_identical_to_single_gamma_calls(self, expm_calls, route, g, loading):
        closed = spot_risk_closed if route == "spot" else future_risk_closed
        q = RiskQuery(s=0.1, T=0.6, x_s=62.24)
        grid = closed(CRUDE, g, loading, q, gammas=self.GAMMAS)
        assert len(expm_calls) == 1
        assert len(grid) == len(self.GAMMAS)
        for gamma, row in zip(self.GAMMAS, grid):
            single = closed(CRUDE, g, loading, q, gammas=[gamma])[0]
            assert np.array_equal(row, single)

    @pytest.mark.parametrize("route", ["spot", "future"])
    def test_wrappers_return_the_blocks_rows(self, route):
        """Each wrapper returns the read-only (gamma, state) rows of its
        one-claim, one-query block."""
        q = RiskQuery(s=0.1, T=0.6, x_s=62.24)
        if route == "spot":
            got = spot_risk_closed(CRUDE, TWO_STATE, [0.75, 1.25], q, gammas=self.GAMMAS)
            claim = LinearSpotClaim([0.75, 1.25])
        else:
            claim = FutureClaim(delta=[0.75, 1.25], r=0.03, y=0.05)
            got = future_risk_closed(CRUDE, TWO_STATE, claim, q, gammas=self.GAMMAS)
        assert isinstance(got, np.ndarray)
        assert got.shape == (len(self.GAMMAS), TWO_STATE.n)
        assert not got.flags.writeable
        assert np.array_equal(got, claim_risk_closed(CRUDE, TWO_STATE, [claim], [q], gammas=self.GAMMAS)[0, 0])

    YIELDS = [-0.05, 0.0, 0.08, 0.2]

    @pytest.mark.parametrize("gammas", [[0.5], GAMMAS], ids=["one_gamma", "grid"])
    @pytest.mark.parametrize("case", ["spot", "carry_scaled", "reducible_extreme"])
    def test_stack_is_bit_identical_to_one_loading_calls(self, expm_calls, case, gammas):
        q = RiskQuery(s=0.1, T=0.6, x_s=62.24)
        if case == "carry_scaled":
            # the claims yield-sweep builds: one future per yield
            g = TWO_STATE
            claims = [FutureClaim(delta=[0.75, 1.25], r=0.03, y=y) for y in self.YIELDS]
            singles = [future_risk_closed(CRUDE, g, c, q, gammas=gammas) for c in claims]
        else:
            if case == "spot":
                g, stack = TWO_STATE, [[0.75, 1.25], [-0.3, 2.0], [1.0, 1.0]]
            else:
                g, stack = reducible_chain(), [[0.5, 0.6, -40.0, -42.0], [-40.0, -42.0, 0.5, 0.6]]
            claims = [LinearSpotClaim(d) for d in stack]
            singles = [spot_risk_closed(CRUDE, g, d, q, gammas=gammas) for d in stack]
        expm_calls.clear()
        block = claim_risk_closed(CRUDE, g, claims, [q], gammas=gammas)
        assert expm_calls == [q.horizon]
        assert block.shape == (1, len(singles), len(gammas), g.n)
        for got, want in zip(block[0], singles):
            for risks, single in zip(got, want):
                assert np.array_equal(risks, single)

    # gammas whose Python square (libm pow) is not x * x, numpy's square, on
    # glibc: a block that squared gamma with numpy would differ in the last bit
    POW_NOT_PRODUCT = [0.139527, 2.073721, 16.510002]

    @pytest.mark.parametrize("gamma_type", [float, np.float64])
    @pytest.mark.parametrize("reducible", [False, True], ids=["irreducible", "reducible"])
    def test_block_is_bit_identical_to_the_per_pair_loop(self, expm_calls, gamma_type, reducible):
        """A stack of queries with random (s, T, x_s), horizons drawn from
        three lengths, and a list of random linear and future claims (negative
        yields included) gives each query's block of the per-pair loop on
        each claim's carry-discounted loading, and each claim's own
        ``future_risk_closed``, with one ``expm`` per query in query order."""
        rng = np.random.default_rng(8100 + reducible)
        for _ in range(20):
            g = random_chain(rng, reducible)
            n_q, k = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            s = rng.uniform(0.0, 0.5, n_q)
            T = s + rng.choice([0.1, 1.0, 1e-3 + rng.uniform(0.0, 3.0)], n_q)
            queries = [
                RiskQuery(s=float(a), T=float(b), x_s=float(rng.uniform(30, 70))) for a, b in zip(s, T)
            ]
            claims = []
            for _ in range(k):
                delta = rng.uniform(-3.0, 3.0, g.n) * 10 ** rng.uniform(-1, 1.3)
                if rng.random() < 0.5:
                    claims.append(LinearSpotClaim(delta))
                else:
                    r, y = rng.uniform(-0.05, 0.15), rng.uniform(-0.4, 0.4)
                    claims.append(FutureClaim(delta, r=float(r), y=float(y)))
            draws = 10 ** rng.uniform(-1.5, 1.5, int(rng.integers(1, 9)))
            gammas = [gamma_type(gm) for gm in [*draws, *self.POW_NOT_PRODUCT]]
            expm_calls.clear()
            block = claim_risk_closed(CRUDE, g, claims, queries, gammas=gammas)
            assert expm_calls == [q.horizon for q in queries]
            assert not block.flags.writeable
            want = []
            for q in queries:
                # each loading as a future pays it: delta e^{-(r+y)(T-s)}
                loadings = [
                    c.delta * np.exp(-(c.r + c.y) * q.horizon) if isinstance(c, FutureClaim) else c.delta
                    for c in claims
                ]
                want.append(closed_by_loop(CRUDE, g, loadings, q, gammas))
            assert np.array_equal(block, np.array(want))
            for i, q in enumerate(queries):
                for j, c in enumerate(claims):
                    if isinstance(c, FutureClaim):
                        single = future_risk_closed(CRUDE, g, c, q, gammas=gammas)
                        assert np.array_equal(block[i, j], single)

    @SETTINGS
    @given(
        hs=arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 40.0)),
        r=st.floats(-0.5, 0.5),
        y=st.floats(-1.0, 1.0),
        delta=arrays(np.float64, st.integers(1, 5), elements=st.floats(-50.0, 50.0)),
    )
    def test_future_loading_rows_are_one_horizon_calls(self, hs, r, y, delta):
        c = FutureClaim(delta, r=r, y=y)
        stack = c.loading(hs)
        assert stack.shape == (hs.size, delta.size)
        for h, row in zip(hs, stack):
            assert np.array_equal(row, c.loading(h))
            assert np.array_equal(row, c.delta * c.discount(float(h)))
        assert np.array_equal(LinearSpotClaim(delta).loading(hs), np.broadcast_to(delta, stack.shape))

    def test_swap_has_no_closed_form(self, expm_calls):
        swap = SwapClaim(rates=[0.05, 0.05], delta=[1.0, 1.0], yield_spec=ConstantYield(r=0.03, y=0.05))
        q = RiskQuery(s=0.0, T=2.0, x_s=60.0)
        with pytest.raises(TypeError, match="SwapClaim"):
            claim_risk_closed(CRUDE, TWO_STATE, [LinearSpotClaim([1.0, 1.0]), swap], [q], gammas=[1.0])
        assert expm_calls == []

    def test_both_routes_check_the_state_count_alike(self, expm_calls):
        q = RiskQuery(s=0.0, T=0.5, x_s=60.0)
        claim = FutureClaim([1.0, 2.0, 3.0], r=0.01, y=0.02)
        message = "claim loading has 3 states, chain has 2"
        with pytest.raises(DimensionError, match=message):
            claim_risk_closed(CRUDE, TWO_STATE, [claim], [q], gammas=[1.0])
        with pytest.raises(DimensionError, match=message):
            claim_risk_mc(CRUDE, TWO_STATE, claim, q, 10, 0, gammas=[1.0])
        with pytest.raises(DimensionError, match="claims must be nonempty"):
            claim_risk_closed(CRUDE, TWO_STATE, [], [q], gammas=[1.0])
        assert expm_calls == []

    def test_claims_and_queries_read_once_from_any_iterable(self):
        """A generator of queries gave an empty (0, 1, 1, n) block, and a
        generator of claims a bare numpy ValueError: each was read twice."""
        claims = [LinearSpotClaim([1.0, 1.2]), FutureClaim([0.9, 1.1], r=0.01, y=0.03)]
        queries = [RiskQuery(s=0.0, T=0.5, x_s=60.0), RiskQuery(s=0.1, T=1.0, x_s=55.0)]
        want = claim_risk_closed(CRUDE, TWO_STATE, claims, queries, gammas=[1.0, 4.0])
        assert want.shape == (2, 2, 2, 2)
        got = claim_risk_closed(CRUDE, TWO_STATE, iter(claims), (q for q in queries), gammas=[1.0, 4.0])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("empty", ["claims", "queries"])
    def test_empty_generator_rejected_at_entry(self, expm_calls, empty):
        claims = iter([]) if empty == "claims" else [LinearSpotClaim([1.0, 1.0])]
        queries = iter([]) if empty == "queries" else [RiskQuery(s=0.0, T=0.5, x_s=60.0)]
        with pytest.raises(DimensionError, match=f"{empty} must be nonempty"):
            claim_risk_closed(CRUDE, TWO_STATE, claims, queries, gammas=[1.0])
        assert expm_calls == []

    def test_empty_query_list_rejected_at_entry(self, expm_calls):
        with pytest.raises(DimensionError, match="queries must be nonempty"):
            claim_risk_closed(CRUDE, TWO_STATE, [LinearSpotClaim([1.0, 1.0])], [], gammas=[1.0])
        assert expm_calls == []

    @pytest.mark.parametrize(
        "delta, error",
        [([np.inf, 1.0], NonFinite), ([np.nan, 1.0], NonFinite), ([[1.0, 1.0]], DimensionError)],
        ids=["inf", "nan", "not_1d"],
    )
    def test_spot_loading_checked_before_matrix_exp(self, expm_calls, delta, error):
        q = RiskQuery(s=0.0, T=0.5, x_s=60.0)
        with pytest.raises(error):
            spot_risk_closed(CRUDE, TWO_STATE, delta, q, gammas=[1.0])
        assert expm_calls == []

    @pytest.mark.parametrize(
        "gammas, error",
        [
            ([], ValueError),
            ([1.0, np.nan], NonFinite),
            ([1.0, np.inf], NonFinite),
            ([1.0, 0.0], NonPositiveGamma),
            ([1.0, -2.0], NonPositiveGamma),
        ],
        ids=["empty", "nan", "inf", "zero", "negative"],
    )
    @pytest.mark.parametrize("route", ["spot", "future"])
    def test_gamma_grid_checked_before_matrix_exp(self, expm_calls, route, gammas, error):
        q = RiskQuery(s=0.0, T=0.5, x_s=60.0)
        with pytest.raises(error):
            if route == "spot":
                spot_risk_closed(CRUDE, TWO_STATE, [1.0, 1.0], q, gammas=gammas)
            else:
                future_risk_closed(CRUDE, TWO_STATE, FutureClaim([1.0, 1.0], r=0.0, y=0.0), q, gammas=gammas)
        assert expm_calls == []


def advance_by_rounds(rates, jump_cum, states, steps, rng):
    """Reference for ``_advance_regimes``: the ``(len(steps) + 1, n)`` grid
    rows of paths started in ``states``, every path recomputed in every
    round, grid times passed one at a time, jump targets by the first column
    entry above the uniform.

    A holding time at least as long as the time left in its step runs past
    the step's end, to ``reach`` (the step's end time less the time left
    after the holding time), and past every later step end at or before
    reach; so a jump on a grid time shows from the next grid time on, and
    one on the last grid time is not made."""
    steps = np.asarray(steps, dtype=float)
    n, n_steps = states.size, steps.size
    ends = np.cumsum(steps)
    last = n_steps - 1
    states = states.copy()
    Z = np.repeat(states[None, :], n_steps + 1, axis=0)
    k = np.zeros(n, dtype=int)
    t_left = np.full(n, steps[0])
    active = rates[states] > 0
    while active.any():
        e = rng.exponential(1.0, n)
        u = rng.random(n)
        r = rates[states]
        hold = np.where(active, e / np.where(active, r, 1.0), 0.0)
        over = active & (hold >= t_left)
        t_left = t_left - hold
        reach = np.where(over, ends[np.minimum(k, last)] - t_left, 0.0)
        past = over.copy()
        while past.any():
            Z[k[past] + 1, past] = states[past]
            k[past] += 1
            past &= (k < n_steps) & (ends[np.minimum(k, last)] <= reach)
        t_left = np.where(over, ends[np.minimum(k, last)] - reach, t_left)
        jump = active & (k < n_steps)
        if jump.any():
            cum_cols = jump_cum[:, states[jump]]
            states[jump] = (u[jump][None, :] < cum_cols).argmax(axis=0)
        active = jump & (rates[states] > 0)
    # rows after a path's last step end hold the state it rests in
    later = np.arange(1, n_steps + 1)[:, None] > k[None, :]
    Z[1:] = np.where(later, states[None, :], Z[1:])
    return Z


def advance(rates, jump_cum, states, steps, rng):
    """``_advance_regimes`` on paths started in ``states``: their grid rows."""
    Z = np.empty((len(steps) + 1, states.size), dtype=states.dtype)
    Z[0] = states
    entropic_risk._advance_regimes(rates, jump_cum, Z, steps, rng)
    return Z


@st.composite
def kernel_instances(draw):
    """(chain, start states, dt) for the regime kernel: 1 to 8 states with
    off-diagonal rates of 0, 1e-3 to 1e3, or tenths (whose normalized column
    sums can round below 1); absorbing columns and two blocks that cannot
    reach each other half of the time each; start states anywhere, zero-rate
    ones included; a grid of 1 to 4 steps, each of 0 or 1e-4 to 1."""
    n = draw(st.integers(1, 8))
    rate = st.one_of(
        st.just(0.0),
        st.floats(-3.0, 3.0).map(lambda x: 10.0**x),
        st.sampled_from([0.1, 0.2, 0.3, 0.7]),
    )
    q = draw(arrays(np.float64, (n, n), elements=rate))
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        q[:k, k:] = q[k:, :k] = 0.0
    if draw(st.booleans()):
        q[:, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))] = 0.0
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    states = draw(arrays(np.int64, draw(st.integers(1, 40)), elements=st.integers(0, n - 1)))
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 1.0)), min_size=1, max_size=4))
    return Generator(q), states, steps


class FixedUniformRng:
    """Holding times from a seeded stream and every jump uniform equal to
    ``u``; ``random()`` without a size reads that stream's next draw."""

    def __init__(self, seed, u):
        self._rng = np.random.default_rng(seed)
        self.u = u

    def exponential(self, scale, size):
        return self._rng.exponential(scale, size)

    def random(self, size=None):
        return self._rng.random() if size is None else np.full(size, self.u)


class TestRegimeKernel:
    def test_uniform_below_one_never_falls_through_to_state_0(self):
        """State 3 jumps to 1 or 2 only, and its cumulative jump column sums to
        0.9999999999999999; a uniform of nextafter(1, 0) must still land on 2."""
        q = np.zeros((4, 4))
        q[:, 3] = [0.0, 0.1, 0.3, -0.4]
        col = q[:, 3].clip(min=0.0)
        assert np.cumsum(col / col.sum())[-1] < 1.0

        class JumpNowRng:
            """Zero holding times (every path jumps at once), uniforms just below 1."""

            def exponential(self, scale, size):
                return np.zeros(size)

            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        rates, cum = entropic_risk._jump_table(Generator(q))
        Z = advance(rates, cum, np.full(5, 3), [1.0], JumpNowRng())
        assert Z[1].tolist() == [2] * 5

    @pytest.mark.parametrize(
        "holds, want",
        [([1.0, 9.0], [0, 0, 1, 1]), ([2.0, 9.0], [0, 0, 0, 1]), ([3.0], [0, 0, 0, 0])],
        ids=["first_time", "second_time", "last_time"],
    )
    def test_jump_on_a_grid_time_shows_from_the_next(self, holds, want):
        """Holding times that end exactly on a grid time: the state there is
        the one held up to it, and a jump on the last grid time is not made."""

        class ScriptedRng:
            """Round j's holding times all equal ``holds[j]``; uniforms 0.5."""

            def __init__(self):
                self.holds = list(holds)

            def exponential(self, scale, size):
                return np.full(size, self.holds.pop(0))

            def random(self, size):
                return np.full(size, 0.5)

        rates, cum = entropic_risk._jump_table(Generator([[-1.0, 1.0], [1.0, -1.0]]))
        for kernel in (advance, advance_by_rounds):
            rng = ScriptedRng()
            Z = kernel(rates, cum, np.zeros(3, dtype=np.int64), [1.0, 1.0, 1.0], rng)
            assert Z.T.tolist() == [want] * 3
            assert rng.holds == []

    @SETTINGS
    @given(kernel_instances(), st.integers(0, 2**64 - 1), st.sampled_from(["philox", "u=0", "u=1-"]))
    def test_matches_the_round_loop(self, instance, seed, draws):
        """Same grid rows and the same draws consumed as the loop over every
        path, on Philox streams and on uniforms at both ends of [0, 1)."""
        g, states, steps = instance
        rates, cum = entropic_risk._jump_table(g)

        def make_rng():
            if draws == "philox":
                return entropic_risk._state_rng(seed, 0)
            return FixedUniformRng(seed, 0.0 if draws == "u=0" else np.nextafter(1.0, 0.0))

        rng, oracle = make_rng(), make_rng()
        got = advance(rates, cum, states, steps, rng)
        want = advance_by_rounds(rates, cum, states, steps, oracle)
        assert np.array_equal(got[0], states)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert rng.random() == oracle.random()

    @SETTINGS
    @given(kernel_instances())
    def test_jump_columns_are_monotone_cdfs(self, instance):
        """Each column is nondecreasing in [0, 1] and ends at exactly 1.0, the
        invariant under which the count of entries <= u picks the target."""
        g = instance[0]
        rates, cum = entropic_risk._jump_table(g)
        assert np.all(np.diff(cum, axis=0) >= 0.0)
        assert np.all((cum >= 0.0) & (cum <= 1.0))
        assert np.all(cum[-1] == 1.0)
        assert np.all(cum[:, rates == 0.0] == 1.0)
        # a state is never its own target
        moving = np.flatnonzero(rates > 0.0)
        below = np.where(moving > 0, cum[np.maximum(moving - 1, 0), moving], 0.0)
        assert np.array_equal(cum[moving, moving], below)


@st.composite
def long_grid_instances(draw):
    """(chain, start states, steps) for the regime kernel on grids of 5 to 64
    steps, each of 0 or a power of two from 2^-10 (much shorter than a
    holding time) to 1.  Every state leaves at 0, 1/4, 1 or 2 and splits that
    rate among its targets in eighths, so holding times in eighths (see
    ``LongGridRng``) keep every clock exact and land jumps on grid times."""
    n = draw(st.integers(1, 6))
    q = np.zeros((n, n))
    for s in range(n):
        rate = draw(st.sampled_from([0.0, 0.25, 1.0, 2.0])) if n > 1 else 0.0
        if rate:
            targets = [t for t in range(n) if t != s]
            eighths = draw(st.lists(st.sampled_from(targets), min_size=8, max_size=8))
            for t in eighths:
                q[t, s] += rate / 8.0
            q[s, s] = -rate
    states = draw(arrays(np.int64, draw(st.integers(1, 40)), elements=st.integers(0, n - 1)))
    step = st.sampled_from([0.0, 2.0**-10, 2.0**-4, 0.25, 1.0])
    steps = draw(st.lists(step, min_size=5, max_size=64))
    return Generator(q), states, steps


class LongGridRng:
    """A Philox stream whose holding times are rounded to eighths when
    ``eighths`` is set, and whose jump uniforms all equal ``u`` unless ``u``
    is None; ``random()`` without a size reads the stream's next draw."""

    def __init__(self, seed, eighths, u):
        self._rng = entropic_risk._state_rng(seed, 0)
        self.eighths, self.u = eighths, u

    def exponential(self, scale, size):
        e = self._rng.exponential(scale, size)
        return np.round(e * 8.0) / 8.0 if self.eighths else e

    def random(self, size=None):
        return self._rng.random(size) if size is None or self.u is None else np.full(size, self.u)


class TestRegimeKernelOnLongGrids:
    @SETTINGS
    @given(
        long_grid_instances(),
        st.integers(0, 2**64 - 1),
        st.booleans(),
        st.sampled_from(["philox", "u=0", "u=1-"]),
    )
    def test_matches_the_round_loop(self, instance, seed, eighths, draws):
        """Same grid rows and the same next draw as the loop over every path,
        with holding times from Philox or in eighths, which end exactly on
        grid times, and a jump row picked among up to 64 grid times."""
        g, states, steps = instance
        rates, cum = entropic_risk._jump_table(g)
        u = {"philox": None, "u=0": 0.0, "u=1-": np.nextafter(1.0, 0.0)}[draws]
        rng, oracle = LongGridRng(seed, eighths, u), LongGridRng(seed, eighths, u)
        got = advance(rates, cum, states, steps, rng)
        want = advance_by_rounds(rates, cum, states, steps, oracle)
        assert np.array_equal(got, want)
        assert rng.random() == oracle.random()

    # every state leaves at 2 and splits it among two targets in eighths
    EIGHTHS = [[-2.0, 1.0, 0.75], [1.25, -2.0, 1.25], [0.75, 1.0, -2.0]]

    @pytest.mark.parametrize("eighths", [False, True], ids=["philox", "eighths"])
    @pytest.mark.parametrize("n_steps", [255, 256, 300])
    def test_row_count_past_one_byte(self, n_steps, eighths):
        """The kernel counts a jump's grid row in the narrowest type that holds
        the step count: one byte up to 255 steps, two from 256.  On grids of
        1/16-year steps that straddle that width, jumps early in the grid
        have counts above 255, and must still land in the loop's rows."""
        rates, cum = entropic_risk._jump_table(Generator(self.EIGHTHS))
        states = np.arange(300) % 3
        steps = [2.0**-4] * n_steps
        rng, oracle = LongGridRng(n_steps, eighths, None), LongGridRng(n_steps, eighths, None)
        got = advance(rates, cum, states, steps, rng)
        want = advance_by_rounds(rates, cum, states, steps, oracle)
        assert np.array_equal(got, want)
        assert rng.random() == oracle.random()


def dense_chain(n):
    """An n-state chain in which every state leaves at 2 per year, to any
    other state."""
    q = np.random.default_rng(n).uniform(0.5, 1.5, (n, n))
    np.fill_diagonal(q, 0.0)
    q *= 2.0 / q.sum(axis=0)
    np.fill_diagonal(q, -2.0)
    return Generator(q)


class TestNarrowStateType:
    """The engine stores Z in the narrowest signed type that holds every
    state index: int8 up to 128 states, int16 from 129."""

    N = 2000

    @pytest.mark.parametrize("n, dtype", [(128, np.int8), (129, np.int16)])
    def test_kernel_rows_on_the_narrow_type(self, n, dtype):
        """The kernel's rows on the engine's Z equal the loop's on int64
        starts, with the same next draw, and reach the last state."""
        g = dense_chain(n)
        rates, cum = entropic_risk._jump_table(g)
        states = np.arange(self.N) % n
        steps = [1.0] * 8
        _, Z, _ = entropic_risk._working_set(g, len(steps) + 1, self.N, False)
        assert Z.dtype == dtype
        Z[0] = states
        rng, oracle = entropic_risk._state_rng(n, 0), entropic_risk._state_rng(n, 0)
        entropic_risk._advance_regimes(rates, cum, Z, steps, rng)
        want = advance_by_rounds(rates, cum, states, steps, oracle)
        assert np.array_equal(Z, want)
        assert (Z[1:] == n - 1).any()
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("n", [128, 129])
    def test_claim_risk_mc_from_the_last_state(self, n):
        """``claim_risk_mc`` from the last state equals its estimates on an
        int64 working set."""
        g = dense_chain(n)
        spec = GibsonSchwartzParams(kappa=1.5, y_bar=0.08, sigma_y=0.12, rho=-0.4, lambda_y=0.02, y0=0.05)
        c = SwapClaim([0.03, 0.02, 0.04, 0.05], np.linspace(0.5, 1.5, n), spec)
        q = RiskQuery(0.0, 4.0, CRUDE.x0)

        def risk():
            return claim_risk_mc(CRUDE, g, c, q, self.N, seed=9, gammas=[0.5, 5.0], states=[n - 1])

        narrow = risk()
        real = entropic_risk._working_set

        def wide(*args):
            X, Z, Y = real(*args)
            return X, Z.astype(np.int64), Y

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropic_risk, "_working_set", wide)
            assert risk() == narrow

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.float64])
    def test_kernel_rejects_a_z_that_cannot_hold_the_states(self, dtype):
        """On a 200-state chain an int8 Z would wrap states 128 onwards and a
        uint8 one cannot hold -1: both raise before the first draw."""
        rates, cum = entropic_risk._jump_table(dense_chain(200))
        Z = np.zeros((3, 10), dtype=dtype)
        rng, fresh = entropic_risk._state_rng(1, 0), entropic_risk._state_rng(1, 0)
        with pytest.raises(DimensionError, match=f"dtype {np.dtype(dtype)} .* 200-state chain"):
            entropic_risk._advance_regimes(rates, cum, Z, [0.5, 0.5], rng)
        assert rng.random() == fresh.random()

    def test_kernel_rejects_a_z_not_in_c_order(self):
        """The kernel writes Z through a flat view, which a Fortran-ordered Z
        would make a copy: it raises before the first draw."""
        rates, cum = entropic_risk._jump_table(dense_chain(4))
        Z = np.asfortranarray(np.zeros((3, 10), dtype=np.int8))
        rng, fresh = entropic_risk._state_rng(1, 0), entropic_risk._state_rng(1, 0)
        with pytest.raises(DimensionError, match="Z must be C-contiguous"):
            entropic_risk._advance_regimes(rates, cum, Z, [0.5, 0.5], rng)
        assert rng.random() == fresh.random()


def fixed_rows(cum):
    """Which rows of a jump table, the last one aside, hold only 0s and 1s."""
    rows = cum[:-1]
    return ((rows == 0.0) | (rows == 1.0)).all(axis=1)


# every state leaves at 2 per year, as in the benchmark's swap part
DENSE = np.array([
    [0.0, 0.5, 0.9, 0.7],
    [0.6, 0.0, 0.4, 0.8],
    [0.9, 0.7, 0.0, 0.5],
    [0.5, 0.8, 0.7, 0.0],
])
DENSE = DENSE * (2.0 / DENSE.sum(axis=0))
np.fill_diagonal(DENSE, -2.0)

# row 0 of its jump table holds only 0s and 1s, rows 1 to 3 do not; state 4
# is a zero-rate state that state 3 reaches
MIXED = np.array([
    [-4.0, 3.0, 0.0, 0.0, 0.0],
    [2.0, -3.0, 0.0, 0.0, 0.0],
    [2.0, 0.0, -4.0, 1.0, 0.0],
    [0.0, 0.0, 4.0, -2.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0],
])


class TestRegimeKernelAtScale:
    """``_advance_regimes`` against the round loop on 1e4 Philox paths, where
    the paths still moving are large random mixes of kept and dropped ones."""

    N = 10_000

    def assert_matches(self, g, start, steps, seed):
        rates, cum = entropic_risk._jump_table(g)
        rng, oracle = entropic_risk._state_rng(seed, start), entropic_risk._state_rng(seed, start)
        got = advance(rates, cum, np.full(self.N, start), steps, rng)
        want = advance_by_rounds(rates, cum, np.full(self.N, start), steps, oracle)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert rng.random() == oracle.random()
        return got[-1]

    @pytest.mark.parametrize("days", [50, 150])
    @pytest.mark.parametrize("start", range(4))
    def test_shipped_chain(self, start, days):
        g = load_config(EXAMPLE_CONFIG).chain
        assert fixed_rows(entropic_risk._jump_table(g)[1]).all()
        self.assert_matches(g, start, [days / 252.0], seed=2)

    @pytest.mark.parametrize("start", range(4))
    def test_dense_chain_over_eight_settlements(self, start):
        """One pass over a swap-like grid, on which about one holding time
        in seven runs past a settlement and some run past several."""
        g = Generator(DENSE)
        assert not fixed_rows(entropic_risk._jump_table(g)[1]).any()
        self.assert_matches(g, start, [1.0] * 8, seed=3)

    @pytest.mark.parametrize("start", range(5))
    def test_chain_mixing_fixed_and_fractional_rows(self, start):
        g = Generator(MIXED)
        assert fixed_rows(entropic_risk._jump_table(g)[1]).tolist() == [True, False, False, False]
        # some paths come to rest in state 4 partway through a round
        assert (self.assert_matches(g, start, [0.5, 1.0], seed=4) == 4).any()


class TestGridPrefix:
    """Row k of one pass over a grid is the last row of a one-step pass to
    grid time k from the same ``_state_rng(seed, state)`` stream: the
    property that one pass over every horizon of ``sweep --mc`` rests on."""

    N = 10_000

    def assert_prefix(self, g, times, seed):
        rates, cum = entropic_risk._jump_table(g)
        for start in range(g.n):
            states = np.full(self.N, start)
            grid = advance(rates, cum, states, np.diff(times), entropic_risk._state_rng(seed, start))
            for k in range(1, len(times)):
                one = advance(rates, cum, states, [times[k]], entropic_risk._state_rng(seed, start))
                assert np.array_equal(grid[k], one[1]), (start, k)

    @pytest.mark.parametrize("seed", [2, 7])
    def test_shipped_chain_at_50_and_150_days(self, seed):
        self.assert_prefix(load_config(EXAMPLE_CONFIG).chain, [0.0, 50 / 252.0, 150 / 252.0], seed)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_dense_chain_over_eight_settlements(self, seed):
        self.assert_prefix(Generator(DENSE), np.arange(9.0), seed)


class TestSimulateGridBits:
    """``_simulate_grid`` writes each row in place; its rows must hold the bits
    of the textbook recursion on the same normals, replayed from the same
    ``_state_rng(seed, state)`` stream."""

    @pytest.mark.parametrize(
        "spec",
        [
            GibsonSchwartzParams(kappa=1.5, y_bar=0.08, sigma_y=0.12, rho=-0.4, lambda_y=0.02, y0=0.05),
            ConstantYield(r=0.02, y=0.06),
        ],
        ids=["gibson_schwartz", "constant"],
    )
    def test_rows_are_the_textbook_recursion(self, spec):
        gs = spec if isinstance(spec, GibsonSchwartzParams) else None
        grid = np.array([0.0, 0.5, 1.0, 1.0, 2.75, 3.0, 4.0, 7.0])
        n, seed, state = 1000, 11, 1
        work = entropic_risk._working_set(TWO_STATE, len(grid), n, gs is not None)
        X, Z, Y = entropic_risk._simulate_grid(
            CRUDE, grid, 61.5, state, entropic_risk._state_rng(seed, state), gs,
            entropic_risk._jump_table(TWO_STATE), work,
        )
        rng = entropic_risk._state_rng(seed, state)
        x, y = np.full(n, 61.5), None if gs is None else np.full(n, gs.y0)
        assert np.array_equal(X[0], x) and np.array_equal(Z[0], np.full(n, state))
        for k, dt in enumerate(np.diff(grid).tolist()):
            bx, cx, sdx = step_coefficients(CRUDE, dt)
            e1 = rng.standard_normal(n)
            x = bx * x + cx + sdx * e1
            assert np.array_equal(X[k + 1], x), k
            if gs is not None:
                by, cy, sdy = step_coefficients(gs.historical_ou, dt)
                corr = step_correlation(CRUDE, gs, dt)
                e2 = corr * e1 + np.sqrt(1.0 - corr * corr) * rng.standard_normal(n)
                y = by * y + cy + sdy * e2
                assert np.array_equal(Y[k + 1], y), k
        if gs is None:
            assert Y is None
        else:
            assert np.array_equal(Y[0], np.full(n, gs.y0))


class TestJumpLaw:
    """Both samplers read one jump table: a state whose column has an exit rate
    but no positive target (a leak the generator check admits) never leaves."""

    NO_TARGET = Generator([[0.0, 0.0], [0.0, -1e-10]])

    def test_state_without_target_reads_rate_zero(self):
        rates, cum = entropic_risk._jump_table(self.NO_TARGET)
        assert rates.tolist() == [0.0, 0.0]
        assert np.all(cum == 1.0)

    def test_sample_paths_never_leaves(self):
        # at rate 1e-10 a jump before 1e11 years is all but certain
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            z = entropic_risk.sample_paths(CRUDE, self.NO_TARGET, 1, [0.0, 1e11], np.random.default_rng(0))[1]
        assert z.tolist() == [1, 1]

    def test_advance_keeps_state_at_zero_holding_times(self):
        class JumpNowRng:
            def exponential(self, scale, size):
                return np.zeros(size)

            def random(self, size):
                return np.full(size, 0.5)

        rates, cum = entropic_risk._jump_table(self.NO_TARGET)
        Z = advance(rates, cum, np.full(5, 1), [1.0, 1.0], JumpNowRng())
        assert Z.tolist() == [[1] * 5] * 3


@st.composite
def law_instances(draw):
    """(chain, start state, grid) for the simulated law: 1 to 5 states with
    off-diagonal rates of 0, 0.1 to 10, or tenths; absorbing columns and two
    blocks that cannot reach each other half of the time each; a start state
    anywhere, zero-rate ones included; a grid of 1 to 4 steps, each 0.01 to 3
    mean holding times at the largest exit rate."""
    n = draw(st.integers(1, 5))
    rate = st.one_of(
        st.just(0.0), st.floats(-1.0, 1.0).map(lambda x: 10.0**x), st.sampled_from([0.1, 0.3, 0.7])
    )
    q = draw(arrays(np.float64, (n, n), elements=rate))
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        q[:k, k:] = q[k:, :k] = 0.0
    if draw(st.booleans()):
        q[:, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))] = 0.0
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    g = Generator(q)
    steps = np.array(draw(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=4)))
    top = g.exit_rates().max()
    s = draw(st.floats(0.0, 1.0))
    grid = s + np.concatenate([[0.0], np.cumsum(steps / (top if top > 0 else 1.0))])
    return g, draw(st.integers(0, n - 1)), grid


def assert_counts_follow(counts: np.ndarray, probs: np.ndarray, alpha: float = 1e-9) -> None:
    """Observed counts against the law ``probs``: a chi-square over the cells
    expected at least 5 times, the others pooled (into the smallest such cell
    when the pool is expected fewer than 5 times), plus a Poisson tail on
    the pool's count, so that mass where the law has next to none fails."""
    n = counts.sum()
    expected = probs * n
    big = expected >= 5.0
    rest_obs, rest_exp = counts[~big].sum(), expected[~big].sum()
    assert poisson.sf(rest_obs - 1, rest_exp) > alpha, (counts, expected)
    obs, exp = counts[big].astype(float), expected[big]
    if rest_exp >= 5.0:
        obs, exp = np.append(obs, rest_obs), np.append(exp, rest_exp)
    elif obs.size:
        smallest = np.argmin(exp)
        obs[smallest] += rest_obs
        exp[smallest] += rest_exp
    if obs.size >= 2:
        stat = float(((obs - exp) ** 2 / exp).sum())
        assert chi2.sf(stat, obs.size - 1) > alpha, (counts, expected)


class TestSimulatedLaw:
    """The engine's regimes follow the chain's law: the kernel is checked
    against ``expm`` through ``distribution_at``, whatever the kernel's draws."""

    N_PATHS = 4000

    @SETTINGS
    @given(law_instances(), st.integers(0, 2**64 - 1))
    def test_grid_rows_follow_distribution_at(self, instance, seed):
        """Each row of Z, and each pair of consecutive rows, against the
        chain's marginal and one-step laws."""
        g, state, grid = instance
        rng = entropic_risk._state_rng(seed, state)
        work = entropic_risk._working_set(g, len(grid), self.N_PATHS, False)
        _, Z, _ = entropic_risk._simulate_grid(
            CRUDE, grid, 60.0, state, rng, None, entropic_risk._jump_table(g), work
        )
        assert np.all(Z[0] == state)
        p = np.eye(g.n)[state]
        for k in range(1, len(grid)):
            kernel = matrix_exp(g, float(grid[k] - grid[k - 1]))
            joint = kernel * p  # joint[j, i] = P(Z[k-1] = i, Z[k] = j)
            pairs = np.bincount(Z[k] * g.n + Z[k - 1], minlength=g.n * g.n)
            assert_counts_follow(pairs, joint.ravel())
            p = distribution_at(g, np.eye(g.n)[state], float(grid[k] - grid[0]))
            assert_counts_follow(np.bincount(Z[k], minlength=g.n), p)


class TestFutureRiskClosed:
    def test_zero_carry_equals_spot_risk(self):
        q = RiskQuery(s=0.0, T=0.5, x_s=60.0)
        c = FutureClaim(delta=[0.7, 1.3], r=0.04, y=-0.04)
        row_f = future_risk_closed(CRUDE, TWO_STATE, c, q, gammas=[2.0])[0]
        row_s = spot_risk_closed(CRUDE, TWO_STATE, c.delta, q, gammas=[2.0])[0]
        np.testing.assert_array_equal(row_f, row_s)

    def test_scaling_identity_against_spot_pipeline(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            g = Generator(random_generator_matrix(rng, n))
            ou = OUParams(
                alpha=rng.uniform(0.5, 6.0),
                mu=rng.uniform(30, 70),
                sigma=rng.uniform(1, 20),
                x0=rng.uniform(30, 70),
            )
            s = rng.uniform(0.0, 0.2)
            T = s + rng.uniform(0.05, 0.4)
            gamma = float(rng.choice([0.5, 1.0, 5.0, 20.0]))
            q = RiskQuery(s=s, T=T, x_s=rng.uniform(30, 70))
            c = FutureClaim(
                delta=rng.uniform(-2, 2, size=n),
                r=rng.uniform(0, 0.1),
                y=rng.uniform(-0.05, 0.15),
            )
            scaled = c.delta * np.exp(-(c.r + c.y) * (T - s))
            lhs = future_risk_closed(ou, g, c, q, gammas=[gamma])[0]
            rhs = spot_risk_closed(ou, g, scaled, q, gammas=[gamma])[0]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestClaimRiskMC:
    Q = RiskQuery(s=0.0, T=0.25, x_s=62.24)
    GAMMAS = [2.0]

    def test_linear_matches_closed_form(self):
        delta = np.array([0.75, 1.25])
        row = spot_risk_closed(CRUDE, TWO_STATE, delta, self.Q, gammas=self.GAMMAS)[0]
        ests = claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim(delta), self.Q, 60_000, seed=17, gammas=self.GAMMAS)
        for i, (est,) in enumerate(ests):
            assert abs(est.z_score(row[i])) < 3.0

    def test_future_matches_closed_form(self):
        c = FutureClaim(delta=[0.75, 1.25], r=0.03, y=0.05)
        row = future_risk_closed(CRUDE, TWO_STATE, c, self.Q, gammas=self.GAMMAS)[0]
        ests = claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 60_000, seed=23, gammas=self.GAMMAS)
        for i, (est,) in enumerate(ests):
            assert abs(est.z_score(row[i])) < 3.0

    def test_degenerate_instance_is_exact(self):
        ou = OUParams(alpha=1.0, mu=50.0, sigma=0.0, x0=55.0)
        frozen = Generator(np.zeros((2, 2)))
        delta = np.array([0.8, 1.1])
        ests = claim_risk_mc(ou, frozen, LinearSpotClaim(delta), self.Q, 1000, seed=1, gammas=self.GAMMAS)
        m = conditional_law(ou, self.Q.x_s, self.Q.s, self.Q.T).mean
        for i, (est,) in enumerate(ests):
            assert est.std_error == 0.0
            assert est.value == pytest.approx(m * delta[i], rel=1e-12)

    def test_deterministic_given_seed(self):
        c = FutureClaim(delta=[1.0, 0.5], r=0.02, y=0.04)
        a = claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 5000, seed=9, gammas=self.GAMMAS)
        b = claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 5000, seed=9, gammas=self.GAMMAS)
        assert [e.value for (e,) in a] == [e.value for (e,) in b]

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0, 1.0]), self.Q, 1, seed=0, gammas=self.GAMMAS)

    def test_delta_dimension_checked(self):
        with pytest.raises(DimensionError):
            claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0]), self.Q, 100, seed=0, gammas=self.GAMMAS)

    @pytest.mark.parametrize(
        "claim, T",
        [
            (LinearSpotClaim([0.75, 1.25]), 0.25),
            (FutureClaim(delta=[0.75, 1.25], r=0.03, y=0.05), 0.25),
            (
                SwapClaim(
                    rates=[0.05, 0.04, 0.06],
                    delta=[1.0, 0.8],
                    yield_spec=GibsonSchwartzParams(
                        kappa=1.5, y_bar=0.08, sigma_y=0.12, rho=-0.4, lambda_y=0.02, y0=0.05
                    ),
                ),
                3.0,
            ),
        ],
        ids=["spot", "future", "gibson_schwartz_swap"],
    )
    def test_many_gamma_path_is_bit_identical(self, claim, T):
        gammas = [0.5, 2.0, 7.0]
        states = [1, 0]
        q = RiskQuery(s=0.0, T=T, x_s=62.24)
        grid = claim_risk_mc(CRUDE, TWO_STATE, claim, q, 3000, seed=31, gammas=gammas, states=states)
        assert len(grid) == len(states)
        for k, state in enumerate(states):
            assert len(grid[k]) == len(gammas)
            for j, gamma in enumerate(gammas):
                single = claim_risk_mc(CRUDE, TWO_STATE, claim, q, 3000, seed=31, gammas=[gamma])[state][0]
                assert grid[k][j] == single

    def test_one_simulation_per_requested_state(self, monkeypatch):
        calls = []
        real = entropic_risk._payoffs_for_state

        def counting(ou, claim, q, state, *args):
            calls.append(state)
            return real(ou, claim, q, state, *args)

        monkeypatch.setattr(entropic_risk, "_payoffs_for_state", counting)
        c = LinearSpotClaim([0.75, 1.25])
        claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 500, seed=3, gammas=[1.0, 2.0, 4.0])
        assert calls == [0, 1]
        calls.clear()
        claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 500, seed=3, gammas=[1.0, 2.0], states=[1])
        assert calls == [1]

    @staticmethod
    def never(*args):
        raise AssertionError("simulated before the arguments were checked")

    def test_state_and_gamma_grid_checked_before_simulating(self, monkeypatch):
        monkeypatch.setattr(entropic_risk, "_payoffs_for_state", self.never)
        c = LinearSpotClaim([1.0, 1.0])
        for states in ([2], [0, -1]):
            with pytest.raises(StateOutOfRange):
                claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 100, seed=0, gammas=self.GAMMAS, states=states)
        with pytest.raises(NonFinite):
            claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 100, seed=0, gammas=[1.0, np.nan])
        with pytest.raises(NonFinite):
            claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 100, seed=0, gammas=[1.0, np.inf])
        with pytest.raises(NonPositiveGamma):
            claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 100, seed=0, gammas=[1.0, -2.0])
        with pytest.raises(NonPositiveGamma):
            claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 100, seed=0, gammas=[0.0])
        with pytest.raises(ValueError):
            claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 100, seed=0, gammas=[])

    @pytest.mark.parametrize("states", [[1.5], [True], [np.True_], [0, 1.0]], ids=["float", "bool", "np_bool", "float_one"])
    def test_non_integer_state_rejected_before_simulating(self, monkeypatch, states):
        """A state is an index: a float or bool is not truncated to one."""
        monkeypatch.setattr(entropic_risk, "_payoffs_for_state", self.never)
        with pytest.raises(StateOutOfRange):
            claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0, 1.0]), self.Q, 100, seed=0, gammas=self.GAMMAS, states=states)

    @pytest.mark.parametrize("seed", [3.7, 3.0, True, "3"], ids=["float", "integral_float", "bool", "str"])
    def test_bad_seed_rejected_before_simulating(self, monkeypatch, seed):
        monkeypatch.setattr(entropic_risk, "_payoffs_for_state", self.never)
        with pytest.raises(ConfigError):
            claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0, 1.0]), self.Q, 100, seed=seed, gammas=self.GAMMAS)

    @pytest.mark.parametrize(
        "n_paths", [1000.0, np.float64(1000.0), 1000.7, True, "1000"],
        ids=["integral_float", "np_float", "float", "bool", "str"],
    )
    def test_non_integer_path_count_rejected_before_simulating(self, monkeypatch, n_paths):
        """A path count is an integer: a float is not truncated to one, nor is
        a bool read as 1."""
        monkeypatch.setattr(entropic_risk, "_payoffs_for_state", self.never)
        with pytest.raises(ConfigError, match="n_paths must be an integer"):
            claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0, 1.0]), self.Q, n_paths, seed=0, gammas=self.GAMMAS)

    @pytest.mark.parametrize("claim", ["linear", "gs_swap"])
    def test_path_count_past_numpys_byte_limit_rejected_before_simulating(self, monkeypatch, claim):
        """2**62 paths fit a signed 64-bit count, but not the working set's
        bytes into numpy's (an intp): refused by name, not by numpy's bare
        ValueError from the allocation."""
        monkeypatch.setattr(entropic_risk, "_payoffs_for_state", self.never)
        q, c = self.Q, LinearSpotClaim([1.0, 1.0])
        if claim == "gs_swap":
            gs = GibsonSchwartzParams(kappa=1.2, y_bar=0.05, sigma_y=0.04, rho=-0.3, lambda_y=0.0, y0=0.04)
            q, c = RiskQuery(s=0.0, T=2.0, x_s=62.24), SwapClaim(rates=[0.05, 0.05], delta=[1.0, 0.9], yield_spec=gs)
        with pytest.raises(ConfigError, match=r"^n_paths=4611686018427387904 needs a working set"):
            claim_risk_mc(CRUDE, TWO_STATE, c, q, 1 << 62, seed=0, gammas=self.GAMMAS)

    def test_empty_state_list_rejected_before_simulating(self, monkeypatch):
        monkeypatch.setattr(entropic_risk, "_payoffs_for_state", self.never)
        with pytest.raises(DimensionError, match="states must be nonempty"):
            claim_risk_mc(CRUDE, TWO_STATE, LinearSpotClaim([1.0, 1.0]), self.Q, 100, seed=0, gammas=self.GAMMAS, states=[])

    def test_unsupported_claim_rejected_before_simulating(self, monkeypatch):
        """An object that states no Monte-Carlo grid is refused by name, not
        by an AttributeError from inside the first stream."""
        monkeypatch.setattr(entropic_risk, "_payoffs_for_state", self.never)
        with pytest.raises(TypeError, match="unsupported claim type ConstantYield"):
            claim_risk_mc(CRUDE, TWO_STATE, ConstantYield(r=0.02, y=0.04), self.Q, 100, seed=0, gammas=self.GAMMAS)

    def test_numpy_integer_state_and_seed_are_integers(self):
        c = LinearSpotClaim([0.75, 1.25])
        want = claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, 200, seed=3, gammas=self.GAMMAS, states=[1])
        state, seed = np.random.default_rng(0).integers(1, 2), np.uint64(3)
        got = claim_risk_mc(CRUDE, TWO_STATE, c, self.Q, np.int32(200), seed=seed, gammas=self.GAMMAS, states=[state])
        assert got == want

    def test_swap_query_constraints(self):
        c = SwapClaim(rates=[0.05, 0.05], delta=[1.0, 1.0], yield_spec=ConstantYield(r=0.02, y=0.04))
        with pytest.raises(TimeOrder):
            claim_risk_mc(CRUDE, TWO_STATE, c, RiskQuery(s=0.5, T=2.5, x_s=60.0), 100, seed=0, gammas=self.GAMMAS)
        with pytest.raises(LengthMismatch):
            claim_risk_mc(CRUDE, TWO_STATE, c, RiskQuery(s=0.0, T=3.0, x_s=60.0), 100, seed=0, gammas=self.GAMMAS)


class TestWorkingSetReuse:
    """One ``claim_risk_mc`` call simulates every start state into one
    working set, so a cell one state leaves unwritten would leak into the
    next.  Each call's buffers start poisoned, as such a leak would leave
    them, and with a different state in every cell of Z per call."""

    G = Generator(DENSE)
    DELTA = [0.6, 0.75, 1.0, 1.1]
    GS = GibsonSchwartzParams(kappa=1.2, y_bar=0.05, sigma_y=0.04, rho=-0.3, lambda_y=0.0, y0=0.04)

    @staticmethod
    def poisoned(mp, state):
        real = entropic_risk._working_set

        def filled(*args):
            X, Z, Y = real(*args)
            X.fill(np.nan)
            Z.fill(state)
            if Y is not None:
                Y.fill(np.nan)
            return X, Z, Y

        mp.setattr(entropic_risk, "_working_set", filled)

    @pytest.mark.parametrize(
        "claim, T",
        [
            (SwapClaim([0.03, 0.06, 0.09, 0.12], DELTA, GS), 4.0),
            (SwapClaim([0.03, 0.06, 0.09, 0.12], DELTA, ConstantYield(r=0.02, y=0.06)), 4.0),
            (LinearSpotClaim(DELTA), 0.5),
            (FutureClaim([0.75] * 4, r=0.02, y=0.06), 0.5),
        ],
        ids=["gibson_schwartz_swap", "constant_swap", "linear", "state_constant_future"],
    )
    def test_each_state_as_if_alone(self, claim, T):
        q = RiskQuery(0.0, T, CRUDE.x0)
        states = [3, 1, 0, 1, 2]

        def risk(states, poison):
            with pytest.MonkeyPatch.context() as mp:
                self.poisoned(mp, poison)
                return claim_risk_mc(CRUDE, self.G, claim, q, 2000, seed=5, gammas=[0.5, 5.0], states=states)

        together = risk(states, 3)
        assert len(together) == len(states)
        for state, ests in zip(states, together):
            assert ests == risk([state], 0)[0], state


class TestSetupOncePerCall:
    """One ``claim_risk_mc`` call reads the claim's grid and builds the
    chain's jump table once for all its streams, and builds no jump table
    for a loading of one value, whatever the number of start states."""

    G = Generator(DENSE)
    RATES = [0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1]

    @staticmethod
    def counted(mp, owner, name):
        calls = []
        real = getattr(owner, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        mp.setattr(owner, name, counting)
        return calls

    @pytest.mark.parametrize("states", [None, [2], [3, 1, 3]], ids=["all", "one", "repeated"])
    @pytest.mark.parametrize(
        "delta, builds", [([0.6, 0.75, 1.0, 1.1], 1), ([0.8] * 4, 0)], ids=["state_varying", "state_constant"]
    )
    def test_grid_read_once_and_jump_table_built_at_most_once(self, monkeypatch, states, delta, builds):
        claim = SwapClaim(self.RATES, delta, ConstantYield(r=0.02, y=0.06))
        grids = self.counted(monkeypatch, SwapClaim, "mc_grid")
        tables = self.counted(monkeypatch, entropic_risk, "_jump_table")
        q = RiskQuery(0.0, 8.0, CRUDE.x0)
        claim_risk_mc(CRUDE, self.G, claim, q, 200, seed=7, gammas=[0.5, 5.0], states=states)
        assert len(grids) == 1
        assert len(tables) == builds


class TestSwapRiskMC:
    def test_zero_yield_means_zero_risk(self):
        c = SwapClaim(rates=[0.05, 0.04, 0.06], delta=[1.0, 1.0], yield_spec=ConstantYield(r=0.0, y=0.0))
        est = swap_risk_mc(CRUDE, TWO_STATE, c, gamma=1.0, n_paths=500, seed=3)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_single_period_swap_is_riskless(self):
        c = SwapClaim(rates=[0.05], delta=[1.0, 1.0], yield_spec=ConstantYield(r=0.02, y=0.06))
        est = swap_risk_mc(CRUDE, TWO_STATE, c, gamma=1.0, n_paths=500, seed=3)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_deterministic_two_period_hand_value(self):
        # sigma = 0 and a frozen chain: W is a constant, risk equals it exactly
        ou = OUParams(alpha=1.0, mu=50.0, sigma=0.0, x0=70.0)
        frozen = Generator(np.zeros((1, 1)))
        c = SwapClaim(rates=[0.05, 0.06], delta=[1.0], yield_spec=ConstantYield(r=0.04, y=0.06))
        x1 = 70.0 * np.exp(-1.0) + 50.0 * (1 - np.exp(-1.0))
        w = np.exp(-0.05) * x1 * (np.exp(-0.1) - 1.0)
        est = swap_risk_mc(ou, frozen, c, gamma=3.0, n_paths=100, seed=0)
        assert est.std_error == 0.0
        assert est.value == pytest.approx(w, rel=1e-12)

    def test_matches_per_state_dispatch(self):
        c = SwapClaim(rates=[0.05, 0.05], delta=[1.0, 0.5], yield_spec=ConstantYield(r=0.02, y=0.06))
        q = RiskQuery(s=0.0, T=2.0, x_s=CRUDE.x0)
        per_state = claim_risk_mc(CRUDE, TWO_STATE, c, q, 4000, seed=21, gammas=[5.0])
        for z0 in range(2):
            single = swap_risk_mc(CRUDE, TWO_STATE, c, gamma=5.0, n_paths=4000, seed=21, z0=z0)
            assert single.value == per_state[z0][0].value

    def test_frozen_chain_swap_matches_gaussian_oracle(self):
        # zero generator and constant yield make W a linear combination of
        # jointly Gaussian spot values: risk = E[W] - Var(W) / (2 gamma),
        # with the OU covariance Cov(X_s, X_t) = e^{-alpha (t-s)} Var(X_s)
        ou = OUParams(alpha=2.0, mu=50.0, sigma=8.0, x0=55.0)
        frozen = Generator(np.zeros((1, 1)))
        rates = np.array([0.05, 0.05, 0.05])
        carry = 0.08
        c = SwapClaim(rates=rates, delta=[1.0], yield_spec=ConstantYield(r=0.02, y=0.06))
        T = 3
        t_grid = np.arange(1, T + 1, dtype=float)
        a = np.exp(-rates) * (np.exp(carry * (t_grid - T)) - 1.0)
        means = np.array([conditional_law(ou, ou.x0, 0.0, t).mean for t in t_grid])
        variances = np.array([conditional_law(ou, ou.x0, 0.0, t).variance for t in t_grid])
        cov = np.empty((T, T))
        for i in range(T):
            for j in range(T):
                s, t = min(t_grid[i], t_grid[j]), max(t_grid[i], t_grid[j])
                cov[i, j] = np.exp(-ou.alpha * (t - s)) * variances[int(s) - 1]
        gamma = 2.0
        oracle = a @ means - (a @ cov @ a) / (2.0 * gamma)
        est = swap_risk_mc(ou, frozen, c, gamma=gamma, n_paths=200_000, seed=14)
        assert abs(est.z_score(oracle)) < 3.0

    def test_stochastic_yield_swap_matches_lognormal_mean_oracle(self):
        # deterministic spot, frozen chain: each settlement's expectation is
        # a lognormal moment of the Gaussian yield, and at huge gamma the
        # entropic risk converges to E[W] computed from those moments
        ou = OUParams(alpha=2.0, mu=50.0, sigma=0.0, x0=55.0)
        frozen = Generator(np.zeros((1, 1)))
        gs = GibsonSchwartzParams(
            kappa=1.5, y_bar=0.08, sigma_y=0.15, rho=0.0, lambda_y=0.02, y0=0.05
        )
        rates = np.array([0.05, 0.05, 0.05])
        loading = 0.5
        c = SwapClaim(rates=rates, delta=[loading], yield_spec=gs)
        T = 3
        expected = 0.0
        for t in range(1, T + 1):
            x_t = conditional_law(ou, ou.x0, 0.0, float(t)).mean
            decay = np.exp(-gs.kappa * t)
            m_y = gs.y0 * decay + gs.historical_level * (1.0 - decay)
            v_y = gs.sigma_y**2 / (2.0 * gs.kappa) * (1.0 - decay * decay)
            a_t = loading * (t - T)
            expected += np.exp(-rates[t - 1]) * x_t * (
                np.exp(a_t * m_y + a_t * a_t * v_y / 2.0) - 1.0
            )
        est = swap_risk_mc(ou, frozen, c, gamma=1e6, n_paths=200_000, seed=15)
        assert abs(est.z_score(expected)) < 3.0

    def test_stochastic_yield_swap_runs(self):
        gs = GibsonSchwartzParams(kappa=1.5, y_bar=0.08, sigma_y=0.15, rho=-0.4, lambda_y=0.02, y0=0.05)
        c = SwapClaim(rates=[0.05, 0.05, 0.05], delta=[1.0, 0.8], yield_spec=gs)
        est = swap_risk_mc(CRUDE, TWO_STATE, c, gamma=5.0, n_paths=4000, seed=2)
        assert np.isfinite(est.value)
        assert est.std_error > 0

    def test_z0_out_of_range(self):
        c = SwapClaim(rates=[0.05, 0.05], delta=[1.0, 1.0], yield_spec=ConstantYield(r=0.0, y=0.1))
        with pytest.raises(StateOutOfRange):
            swap_risk_mc(CRUDE, TWO_STATE, c, gamma=1.0, n_paths=100, seed=0, z0=2)


@st.composite
def state_constant_instances(draw):
    """(chain, claim, query) for a claim whose loading takes one value in
    every state: a chain of :func:`law_instances` (1 to 5 states, reducible
    and zero-rate states included), and a linear claim or future from s up
    to T, or a constant-yield or Gibson-Schwartz swap of 1 to 4 settlements
    from s = 0."""
    g = draw(law_instances())[0]
    delta = np.full(g.n, draw(st.floats(-2.0, 2.0)))
    kind = draw(st.sampled_from(["linear", "future", "constant_swap", "gibson_schwartz_swap"]))
    if kind in ("linear", "future"):
        s = draw(st.floats(0.0, 1.0))
        q = RiskQuery(s, s + draw(st.floats(0.01, 2.0)), draw(st.floats(30.0, 90.0)))
        claim = LinearSpotClaim(delta) if kind == "linear" else FutureClaim(delta, r=0.02, y=0.06)
        return g, claim, q
    rates = draw(st.lists(st.floats(0.0, 0.1), min_size=1, max_size=4))
    if kind == "constant_swap":
        spec = ConstantYield(r=0.02, y=0.06)
    else:
        spec = GibsonSchwartzParams(kappa=1.5, y_bar=0.08, sigma_y=0.12, rho=-0.4, lambda_y=0.02, y0=0.05)
    return g, SwapClaim(rates, delta, spec), RiskQuery(0.0, float(len(rates)), CRUDE.x0)


def risk_with_kernel(ou, g, claim, q, n_paths, seed, gammas):
    """``claim_risk_mc`` of every start state with the regime kernel run on
    each stream, whatever the claim's loading."""
    grid, gs, jumps = claim.mc_grid(q), claim.stochastic_yield, entropic_risk._jump_table(g)
    work = entropic_risk._working_set(g, len(grid), n_paths, gs is not None)
    out = []
    for state in range(g.n):
        rng = entropic_risk._state_rng(seed, state)
        paths = entropic_risk._simulate_grid(ou, grid, q.x_s, state, rng, gs, jumps, work)
        payoffs = entropic_risk._blockwise(claim, q, *paths)
        out.append([entropic_mc(payoffs, gamma) for gamma in gammas])
    return out


class TestStateConstantLoading:
    """A claim reads the regime path only through ``delta[Z]``: a loading
    that takes one value, bit for bit, draws no jump rounds and gives the
    estimates the simulated regimes give."""

    GAMMAS = [0.5, 5.0]

    @staticmethod
    def count_kernel_calls(call):
        calls = []
        real = entropic_risk._advance_regimes

        def counting(*args):
            calls.append(args)
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropic_risk, "_advance_regimes", counting)
            out = call()
        return out, len(calls)

    @SETTINGS
    @given(state_constant_instances(), st.integers(0, 2**64 - 1))
    def test_matches_the_kernel_run_without_calling_it(self, instance, seed):
        g, claim, q = instance
        want = risk_with_kernel(CRUDE, g, claim, q, 200, seed, self.GAMMAS)
        got, calls = self.count_kernel_calls(
            lambda: claim_risk_mc(CRUDE, g, claim, q, 200, seed, gammas=self.GAMMAS)
        )
        assert got == want
        assert calls == 0

    @pytest.mark.parametrize(
        "claim, T",
        [
            (LinearSpotClaim([0.0, -0.0, 0.0]), 0.5),
            (SwapClaim(rates=[0.05, 0.05], delta=[-0.0, 0.0, 0.0], yield_spec=ConstantYield(r=0.02, y=0.06)), 2.0),
        ],
        ids=["linear", "constant_swap"],
    )
    def test_signed_zero_loading_runs_the_kernel(self, claim, T):
        """0.0 and -0.0 are equal values with different bits, so the payoff's
        sign of zero reads the regime path."""
        g = Generator(random_generator_matrix(np.random.default_rng(5), 3))
        q = RiskQuery(0.0, T, CRUDE.x0)
        got, calls = self.count_kernel_calls(
            lambda: claim_risk_mc(CRUDE, g, claim, q, 500, 11, gammas=self.GAMMAS)
        )
        assert calls == g.n
        assert got == risk_with_kernel(CRUDE, g, claim, q, 500, 11, self.GAMMAS)


@st.composite
def closed_instances(draw):
    """(chain, OU params, loading, query, increasing gamma grid): rates in
    [0.1, 5] on 1 to 5 states, split into two blocks that cannot reach each
    other half of the time, loadings in [-2, 2], horizons 0.05 to 2 years."""
    n = draw(st.integers(1, 5))
    rates = draw(arrays(np.float64, (n, n), elements=st.floats(0.1, 5.0)))
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        rates[:k, k:] = rates[k:, :k] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=0))
    ou = OUParams(
        alpha=draw(st.floats(0.5, 6.0)),
        mu=draw(st.floats(30.0, 70.0)),
        sigma=draw(st.floats(1.0, 20.0)),
        x0=draw(st.floats(30.0, 70.0)),
    )
    delta = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    s = draw(st.floats(0.0, 0.2))
    q = RiskQuery(s=s, T=s + draw(st.floats(0.05, 2.0)), x_s=ou.x0)
    gammas = sorted(draw(st.lists(st.floats(0.25, 100.0), min_size=2, max_size=6, unique=True)))
    return Generator(rates), ou, delta, q, gammas


class TestRiskProperties:
    """Properties of the closed form over random chains, loadings and grids;
    tolerances are relative to the payoff's scale, max |delta| E[X_T]."""

    @staticmethod
    def _scale(ou, delta, q) -> float:
        return max(1.0, float(np.abs(delta).max()) * abs(conditional_law(ou, q.x_s, q.s, q.T).mean))

    @SETTINGS
    @given(closed_instances())
    def test_non_decreasing_in_gamma_on_grids(self, instance):
        g, ou, delta, q, gammas = instance
        risks = spot_risk_closed(ou, g, delta, q, gammas=gammas)
        assert np.all(np.diff(risks, axis=0) >= -1e-12 * self._scale(ou, delta, q))

    @SETTINGS
    @given(closed_instances())
    def test_at_most_the_conditional_mean_on_grids(self, instance):
        g, ou, delta, q, gammas = instance
        mean = expected_payoff_closed(ou, g, delta, q)
        for row in spot_risk_closed(ou, g, delta, q, gammas=gammas):
            assert np.all(row <= mean + 1e-12 * self._scale(ou, delta, q))

    @SETTINGS
    @given(closed_instances(), st.data())
    def test_permuting_states_permutes_risks(self, instance, data):
        g, ou, delta, q, gammas = instance
        perm = np.array(data.draw(st.permutations(range(g.n))))
        permuted = Generator(g.q[np.ix_(perm, perm)])
        got = spot_risk_closed(ou, permuted, delta[perm], q, gammas=gammas)
        for row, ref in zip(got, spot_risk_closed(ou, g, delta, q, gammas=gammas)):
            np.testing.assert_allclose(row, ref[perm], rtol=1e-12, atol=1e-12 * self._scale(ou, delta, q))

    @SETTINGS
    @given(closed_instances(), st.floats(-2.0, 2.0), st.floats(-20.0, 20.0))
    def test_cash_additive_in_the_spot(self, instance, d, shift):
        """A state-constant loading d moves every risk by d e^{-alpha h} when
        x_s moves by 1: the payoff moves by that constant on every path."""
        g, ou, _, q, gammas = instance
        delta = np.full(g.n, d)
        moved = dataclasses.replace(q, x_s=q.x_s + shift)
        step = d * np.exp(-ou.alpha * q.horizon) * shift
        scale = max(self._scale(ou, delta, q), self._scale(ou, delta, moved))
        base = spot_risk_closed(ou, g, delta, q, gammas=gammas)
        for row, ref in zip(spot_risk_closed(ou, g, delta, moved, gammas=gammas), base):
            np.testing.assert_allclose(row - ref, step, rtol=0, atol=1e-12 * scale)

    @SETTINGS
    @given(closed_instances())
    def test_between_the_reachable_certainty_equivalents(self, instance):
        """risks[i] is a mixture of the Gaussian certainty equivalents
        delta_j m - delta_j^2 v / (2 gamma) over the states j reachable from i."""
        g, ou, delta, q, gammas = instance
        law = conditional_law(ou, q.x_s, q.s, q.T)
        reachable = matrix_exp(g, q.horizon) > 0.0
        tol = 1e-12 * self._scale(ou, delta, q)
        for gamma, row in zip(gammas, spot_risk_closed(ou, g, delta, q, gammas=gammas)):
            ce = delta * law.mean - delta**2 * law.variance / (2.0 * gamma)
            for i, risk in enumerate(row):
                assert ce[reachable[:, i]].min() - tol <= risk <= ce[reachable[:, i]].max() + tol

    @SETTINGS
    @given(closed_instances())
    def test_blocks_of_a_reducible_chain_are_evaluated_alone(self, instance):
        """On a block-diagonal generator each block's risks are those of the
        block's own generator: an unreachable block does not enter the shift."""
        g, ou, delta, q, gammas = instance
        linked = (g.q != 0.0) | np.eye(g.n, dtype=bool)
        for _ in range(g.n):
            linked = (linked.astype(int) @ linked) > 0
        blocks = {tuple(np.flatnonzero(row)) for row in linked}
        full = spot_risk_closed(ou, g, delta, q, gammas=gammas)
        for block in map(list, blocks):
            alone = Generator(g.q[np.ix_(block, block)])
            for row, ref in zip(full, spot_risk_closed(ou, alone, delta[block], q, gammas=gammas)):
                np.testing.assert_allclose(row[block], ref, rtol=1e-12, atol=1e-12 * self._scale(ou, delta, q))

    def _random_instance(self, rng):
        n = int(rng.integers(1, 5))
        g = Generator(random_generator_matrix(rng, n))
        ou = OUParams(
            alpha=rng.uniform(0.5, 6.0),
            mu=rng.uniform(30, 70),
            sigma=rng.uniform(1, 20),
            x0=rng.uniform(30, 70),
        )
        delta = rng.uniform(-2, 2, size=n)
        s = rng.uniform(0.0, 0.2)
        T = s + rng.uniform(0.05, 0.4)
        return g, ou, delta, s, T

    def test_monotone_in_gamma(self, rng):
        gammas = [0.25, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        for _ in range(15):
            g, ou, delta, s, T = self._random_instance(rng)
            q = RiskQuery(s=s, T=T, x_s=ou.x0)
            risks = np.array([spot_risk_closed(ou, g, delta, q, gammas=[gm])[0] for gm in gammas])
            assert np.all(np.diff(risks, axis=0) >= -1e-9)

    def test_jensen_upper_bound(self, rng):
        for _ in range(15):
            g, ou, delta, s, T = self._random_instance(rng)
            gamma, q = float(rng.choice([0.5, 1.0, 5.0])), RiskQuery(s=s, T=T, x_s=ou.x0)
            risks = spot_risk_closed(ou, g, delta, q, gammas=[gamma])[0]
            bound = expected_payoff_closed(ou, g, delta, q)
            assert np.all(risks <= bound + 1e-8)

    def test_large_gamma_tends_to_expectation(self, rng):
        for _ in range(10):
            g, ou, delta, s, T = self._random_instance(rng)
            q = RiskQuery(s=s, T=T, x_s=ou.x0)
            risks = spot_risk_closed(ou, g, delta, q, gammas=[1e6])[0]
            expect = expected_payoff_closed(ou, g, delta, q)
            scale = np.maximum(np.abs(expect), 1.0)
            assert np.all(np.abs(risks - expect) / scale < 1e-3)

    def test_closed_vs_mc_randomized(self, rng):
        hits = total = 0
        for k in range(20):
            g, ou, delta, gamma, s, T = draw_mc_instance(rng)
            q = RiskQuery(s=s, T=T, x_s=ou.x0)
            row = spot_risk_closed(ou, g, delta, q, gammas=[gamma])[0]
            state = int(rng.integers(0, g.n))
            est = claim_risk_mc(
                ou, g, LinearSpotClaim(delta), q, 20_000, seed=1000 + k, gammas=[gamma], states=[state]
            )[0][0]
            total += 1
            hits += abs(est.z_score(row[state])) <= 3.0
        assert hits >= total - 1
