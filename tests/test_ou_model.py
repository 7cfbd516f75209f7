"""Spot model: exact law, exact simulation, AR(1) calibration."""

import datetime

import numpy as np
import pytest

from regime_risk.entropic_risk import sample_paths
from regime_risk.errors import ConfigError, NonFinite, NotMeanReverting, TimeOrder, TooFewPoints
from regime_risk.ou_model import (
    OUParams,
    PriceSeries,
    calibrate,
    conditional_law,
    load_price_csv,
)
from regime_risk.regime_chain import Generator

CRUDE = OUParams(alpha=5.0, mu=48.22, sigma=13.66, x0=62.24)
ONE_STATE = Generator([[0.0]])  # draws nothing: spot-only paths


def simulate_path(p, grid, rng):
    return sample_paths(p, ONE_STATE, 0, grid, rng)[0]


class TestConditionalLaw:
    def test_degenerate_at_t_equals_s(self):
        law = conditional_law(CRUDE, x_s=55.0, s=0.3, t=0.3)
        assert law.mean == 55.0
        assert law.variance == 0.0

    def test_zero_vol_is_deterministic_decay(self):
        p = OUParams(alpha=2.0, mu=40.0, sigma=0.0, x0=60.0)
        law = conditional_law(p, x_s=60.0, s=0.0, t=1.5)
        assert law.variance == 0.0
        expected = 60.0 * np.exp(-3.0) + 40.0 * (1 - np.exp(-3.0))
        assert abs(law.mean - expected) < 1e-12

    def test_crude_oil_parameters_one_year(self):
        # frozen against a 40-digit evaluation of the two formulas
        law = conditional_law(CRUDE, x_s=62.24, s=0.0, t=1.0)
        assert abs(law.mean - 48.31446601692718) < 1e-12
        assert abs(law.variance - 18.65871285728660) < 1e-12

    def test_time_order(self):
        with pytest.raises(TimeOrder):
            conditional_law(CRUDE, x_s=50.0, s=1.0, t=0.5)

    def test_conditioning_value_drives_the_mean(self):
        # the mean decays from the observed x_s, not from x0
        law = conditional_law(CRUDE, x_s=100.0, s=2.0, t=2.1)
        b = np.exp(-5.0 * 0.1)
        assert abs(law.mean - (100.0 * b + 48.22 * (1 - b))) < 1e-12

    def test_variance_monotone_and_capped(self):
        gaps = np.linspace(0.01, 8.0, 200)
        variances = np.array(
            [conditional_law(CRUDE, 50.0, 0.0, g).variance for g in gaps]
        )
        assert np.all(np.diff(variances) >= 0)
        assert np.all(np.diff(variances[gaps < 1.0]) > 0)
        cap = CRUDE.stationary_variance
        assert np.all(variances <= cap + 1e-12)
        assert abs(variances[-1] - cap) < 1e-10

    def test_tower_property_of_means(self):
        s, t, u, x_s = 0.2, 0.9, 2.4, 71.0
        inner = conditional_law(CRUDE, x_s, s, t).mean
        composed = conditional_law(CRUDE, inner, t, u).mean
        direct = conditional_law(CRUDE, x_s, s, u).mean
        assert abs(composed - direct) < 1e-10


class TestSampleExact:
    def test_zero_vol_returns_mean(self, rng):
        p = OUParams(alpha=1.0, mu=10.0, sigma=0.0, x0=20.0)
        law = conditional_law(p, 20.0, 0.0, 0.5)
        assert simulate_path(p, [0.0, 0.5], rng)[1] == law.mean

    def test_moments_match_law_at_1e5_draws(self):
        # every step of a path is one draw from the law given the previous value
        rng = np.random.default_rng(5)
        n, dt = 100_000, 0.25
        x = simulate_path(CRUDE, np.arange(n + 1) * dt, rng)
        law = conditional_law(CRUDE, x[:-1], 0.0, dt)
        resid = x[1:] - law.mean
        se_mean = law.std / np.sqrt(n)
        assert abs(resid.mean()) < 4 * se_mean
        se_var = law.variance * np.sqrt(2.0 / (n - 1))
        assert abs(resid.var(ddof=1) - law.variance) < 4 * se_var


class TestSimulatePath:
    def test_single_point_grid(self, rng):
        out = simulate_path(CRUDE, [0.0], rng)
        np.testing.assert_array_equal(out, [62.24])

    def test_zero_vol_relaxes_toward_mu(self, rng):
        p = OUParams(alpha=3.0, mu=40.0, sigma=0.0, x0=80.0)
        grid = np.linspace(0.0, 2.0, 50)
        x = simulate_path(p, grid, rng)
        assert np.all(np.diff(x) < 0)
        assert np.all(x >= 40.0)
        assert abs(x[-1] - (40.0 + 40.0 * np.exp(-6.0))) < 1e-12

    def test_endpoint_variance_reaches_stationary(self):
        p = OUParams(alpha=2.0, mu=0.0, sigma=1.5, x0=0.0)
        grid = np.linspace(0.0, 3.0, 31)
        endpoints = np.array(
            [simulate_path(p, grid, np.random.default_rng(k))[-1] for k in range(800)]
        )
        target = p.stationary_variance
        se = target * np.sqrt(2.0 / (len(endpoints) - 1))
        assert abs(endpoints.var(ddof=1) - target) < 4 * se

    def test_grid_must_start_at_zero(self, rng):
        with pytest.raises(TimeOrder):
            simulate_path(CRUDE, [0.5, 1.0], rng)

    def test_grid_must_increase(self, rng):
        with pytest.raises(TimeOrder):
            simulate_path(CRUDE, [0.0, 1.0, 0.5], rng)

    def test_empty_grid(self, rng):
        with pytest.raises(ValueError):
            simulate_path(CRUDE, [], rng)


class TestPriceSeries:
    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            PriceSeries(
                timestamps=np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
                prices=np.array([1.0, 2.0]),
            )

    def test_unsorted_timestamps_name_row(self):
        ts = np.array(["2020-01-01", "2020-01-03", "2020-01-02"], dtype="datetime64[D]")
        with pytest.raises(ValueError, match="row 2"):
            PriceSeries(timestamps=ts, prices=np.array([1.0, 2.0, 3.0]))

    def test_nonpositive_price_rejected(self):
        ts = np.array(["2020-01-01", "2020-01-02", "2020-01-03"], dtype="datetime64[D]")
        with pytest.raises(ValueError, match="row 1"):
            PriceSeries(timestamps=ts, prices=np.array([1.0, -2.0, 3.0]))

    @pytest.mark.parametrize(
        "field, match",
        [
            ({"prices": [1.0, np.inf, 3.0]}, r"prices entry \(1\)"),
            ({"prices": [1.0, 2.0, -np.inf]}, r"prices entry \(2\)"),
            ({"dt": np.inf}, "dt"),
            ({"dt": np.nan}, "dt"),
        ],
        ids=["inf_price", "minus_inf_price", "inf_dt", "nan_dt"],
    )
    def test_non_finite_value_rejected_when_built(self, field, match):
        """An infinite price was accepted (and ``calibrate`` then failed in
        LAPACK with a bare LinAlgError), an infinite dt was accepted, and a
        NaN dt raised TimeOrder."""
        ts = np.array(["2020-01-01", "2020-01-02", "2020-01-03"], dtype="datetime64[D]")
        with pytest.raises(NonFinite, match=match):
            PriceSeries(**{"timestamps": ts, "prices": [1.0, 2.0, 3.0], **field})


class TestLoadPriceCsv(object):
    def _write(self, tmp_path, rows, header="date,price"):
        f = tmp_path / "px.csv"
        f.write_text("\n".join([header] + rows) + "\n")
        return f

    def test_round_trip(self, tmp_path):
        f = self._write(tmp_path, ["2020-01-02,10.5", "2020-01-03,11.0", "2020-01-06,10.8"])
        series = load_price_csv(f)
        assert len(series) == 3
        np.testing.assert_allclose(series.prices, [10.5, 11.0, 10.8])
        assert series.dt == pytest.approx(1 / 252)

    def test_timestamps_are_numpys_dates(self, tmp_path):
        """Epoch day offsets give the array numpy builds from the dates, on
        both sides of 1970 and at the ends of the ISO range."""
        days = ["0001-01-01", "1969-12-31", "1970-01-01", "1970-01-02", "2024-02-29", "9999-12-31"]
        series = load_price_csv(self._write(tmp_path, [f"{d},1.0" for d in days]))
        want = np.array([datetime.date.fromisoformat(d) for d in days], dtype="datetime64[D]")
        assert series.timestamps.dtype == want.dtype
        np.testing.assert_array_equal(series.timestamps, want)

    def test_bad_header(self, tmp_path):
        f = self._write(tmp_path, ["2020-01-02,10.5"], header="day,px")
        with pytest.raises(ValueError, match="header"):
            load_price_csv(f)

    def test_bad_date_names_row(self, tmp_path):
        f = self._write(tmp_path, ["2020-01-02,10.5", "not-a-date,11.0", "2020-01-04,12.0"])
        with pytest.raises(ValueError, match="row 2"):
            load_price_csv(f)

    def test_unsorted_dates_name_row(self, tmp_path):
        f = self._write(tmp_path, ["2020-01-02,10.5", "2020-01-05,11.0", "2020-01-03,12.0"])
        with pytest.raises(ValueError, match="row 3"):
            load_price_csv(f)

    def test_only_rows_blank_in_every_cell_are_skipped(self, tmp_path):
        """Empty lines and rows of blank cells are skipped and still count as
        rows; a blank date before a price is a bad date, and a padded date is
        read."""
        rows = ["2020-01-02,10.5", "", ",", " ,  ", "\t", " 2020-01-03 ,11.0", "2020-01-06,10.8"]
        series = load_price_csv(self._write(tmp_path, rows))
        np.testing.assert_allclose(series.prices, [10.5, 11.0, 10.8])
        with pytest.raises(ConfigError, match=r"row 3: bad date ' '"):
            load_price_csv(self._write(tmp_path, ["2020-01-02,10.5", ",", " ,11.0", "2020-01-06,10.8"]))
        with pytest.raises(ConfigError, match="row 2: expected 2 fields"):
            load_price_csv(self._write(tmp_path, ["2020-01-02,10.5", "2020-01-03", "2020-01-06,10.8"]))

    def test_two_rows_too_few(self, tmp_path):
        f = self._write(tmp_path, ["2020-01-02,10.5", "2020-01-03,11.0"])
        with pytest.raises(TooFewPoints):
            load_price_csv(f)


def _daily_series(p: OUParams, n: int, seed: int, dt: float = 1 / 252) -> PriceSeries:
    rng = np.random.default_rng(seed)
    grid = np.arange(n + 1) * dt
    x = simulate_path(p, grid, rng)
    ts = np.datetime64("2010-01-04") + np.arange(n + 1).astype("timedelta64[D]")
    return PriceSeries(timestamps=ts, prices=x, dt=dt)


class TestCalibrate:
    def test_round_trip_within_three_ses(self):
        """False-alarm rate at most 0.81%: with exactly normal estimates each
        3-se check fails with p = 2 Phi(-3) = 0.0027, so the three fail
        together with at most 3 p = 0.0081 (union bound, ``scipy.stats``)."""
        series = _daily_series(CRUDE, 10_000, seed=31)
        res = calibrate(series)
        assert abs(res.params.alpha - CRUDE.alpha) < 3 * res.alpha_se
        assert abs(res.params.mu - CRUDE.mu) < 3 * res.mu_se
        assert abs(res.params.sigma - CRUDE.sigma) < 3 * res.sigma_se
        assert res.params.x0 == series.prices[0]

    def test_recovery_across_parameter_draws(self):
        """False-alarm rate at most 0.28%: a draw misses with at most 0.0081
        (as in the round trip), and 2 or more of 10 independent draws miss
        with ``binom.sf(1, 10, 0.0081)`` = 0.0028 (``scipy.stats``)."""
        rng = np.random.default_rng(2)
        hits = 0
        for k in range(10):
            p = OUParams(
                alpha=rng.uniform(1.0, 6.0),
                mu=rng.uniform(20.0, 80.0),
                sigma=rng.uniform(2.0, 20.0),
                x0=rng.uniform(20.0, 80.0),
            )
            res = calibrate(_daily_series(p, 8000, seed=100 + k))
            ok = (
                abs(res.params.alpha - p.alpha) < 3 * res.alpha_se
                and abs(res.params.mu - p.mu) < 3 * res.mu_se
                and abs(res.params.sigma - p.sigma) < 3 * res.sigma_se
            )
            hits += ok
        assert hits >= 9

    def test_constant_series_flagged(self):
        ts = np.datetime64("2010-01-04") + np.arange(10).astype("timedelta64[D]")
        series = PriceSeries(timestamps=ts, prices=np.full(10, 42.0))
        with pytest.raises(NotMeanReverting, match="constant"):
            calibrate(series)

    def test_random_walk_not_mean_reverting(self):
        # driftless Brownian motion: the AR(1) slope is statistically a unit root
        rng = np.random.default_rng(8)
        n = 2000
        bm = 50.0 + np.cumsum(0.3 * rng.standard_normal(n))
        bm -= bm.min() - 1.0  # keep prices positive
        ts = np.datetime64("2010-01-04") + np.arange(n).astype("timedelta64[D]")
        series = PriceSeries(timestamps=ts, prices=bm)
        with pytest.raises(NotMeanReverting):
            calibrate(series)
