"""End-to-end command tests: every command is a pure function of
(config, input files, seed) and writes deterministic CSV/JSON pairs."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from regime_risk import cli, entropic_risk
from regime_risk.cli import main
from regime_risk.config import load_config
from regime_risk.entropic_risk import RiskQuery, sample_paths, spot_risk_closed
from regime_risk.errors import ConfigError
from regime_risk.instruments import GibsonSchwartzParams, step_correlation
from regime_risk.ou_model import OUParams, TRADING_DAYS_PER_YEAR, step_coefficients
from regime_risk.regime_chain import Generator

from conftest import EXAMPLE_CONFIG


def run(args) -> int:
    return main([str(a) for a in args])


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    rows = [r for r in csv.reader(line for line in lines if not line.startswith("#"))]
    return rows[0], rows[1:]


def write_config(tmp_path: Path, payload: dict, name="cfg.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(payload, indent=1))
    return p


def write_input(path: Path, content: str | bytes | None) -> None:
    """Write an input file as text or raw bytes; None makes a directory there instead."""
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def base_config(**overrides) -> dict:
    cfg = {
        "chain": {
            "kind": "generator",
            "matrix": [[-0.8, 0.5], [0.8, -0.5]],
            "z0": 0,
        },
        "ou": {"alpha": 5.0, "mu": 48.22, "sigma": 13.66, "x0": 62.24},
        "claim": {"type": "linear", "delta": [0.75, 0.75]},
        "grids": {
            "gammas": [1.0, 2.5, 5.0, 10.0],
            "horizons_days": [50.0, 150.0],
            "yields": [0.0, 0.04, 0.08],
            "n_times": 8,
        },
        "mc": {"n_paths": 4000, "seed": 11},
        "output": {"dir": "out"},
    }
    cfg.update(overrides)
    return cfg


GS_SWAP = {
    "type": "swap",
    "delta": [1.0, 1.0],
    "rates": [0.05, 0.05],
    "yield": {
        "kind": "gibson_schwartz",
        "kappa": 1.5,
        "y_bar": 0.08,
        "sigma_y": 0.1,
        "rho": -0.6,
        "lambda_y": 0.0,
        "y0": 0.05,
    },
}


def gs_swap(**yield_overrides) -> dict:
    claim = json.loads(json.dumps(GS_SWAP))
    claim["yield"].update(yield_overrides)
    return claim


def synthetic_csv(tmp_path: Path, n=6000, seed=77) -> Path:
    p = OUParams(alpha=5.0, mu=48.22, sigma=13.66, x0=62.24)
    rng = np.random.default_rng(seed)
    one_state = Generator([[0.0]])  # spot-only path: the chain draws nothing
    x = sample_paths(p, one_state, 0, np.arange(n + 1) / TRADING_DAYS_PER_YEAR, rng)[0]
    days = np.datetime64("2012-01-03") + np.arange(n + 1).astype("timedelta64[D]")
    f = tmp_path / "prices.csv"
    f.write_text(
        "date,price\n"
        + "\n".join(f"{d},{v:.8f}" for d, v in zip(days, x))
        + "\n"
    )
    return f


class TestCalibrateCommand:
    def test_round_trip_recovery(self, tmp_path, capsys):
        csv_path = synthetic_csv(tmp_path)
        cfg = write_config(tmp_path, {"ou": {"csv": csv_path.name}, "output": {"dir": "out"}})
        assert run(["calibrate", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "ou_params.json").read_text())
        fitted = payload["data"]["params"]
        ses = payload["data"]["std_errors"]
        assert abs(fitted["alpha"] - 5.0) < 3 * ses["alpha"]
        assert abs(fitted["mu"] - 48.22) < 3 * ses["mu"]
        assert abs(fitted["sigma"] - 13.66) < 3 * ses["sigma"]
        assert "alpha" in capsys.readouterr().out

    def test_params_file_feeds_other_commands(self, tmp_path):
        csv_path = synthetic_csv(tmp_path)
        cfg1 = write_config(tmp_path, {"ou": {"csv": csv_path.name}, "output": {"dir": "out"}})
        run(["calibrate", "--config", cfg1])
        cfg2 = write_config(
            tmp_path,
            base_config(ou={"params_file": "out/ou_params.json"}),
            name="risk.json",
        )
        assert run(["risk", "--config", cfg2, "--out", tmp_path / "out2"]) == 0

    def test_two_row_csv_reports_too_few_points(self, tmp_path, capsys):
        f = tmp_path / "short.csv"
        f.write_text("date,price\n2020-01-02,10.0\n2020-01-03,11.0\n")
        cfg = write_config(tmp_path, {"ou": {"csv": "short.csv"}})
        assert run(["calibrate", "--config", cfg]) == 2
        assert "TooFewPoints" in capsys.readouterr().err

    def test_unsorted_csv_names_row(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("date,price\n2020-01-02,10.0\n2020-01-06,11.0\n2020-01-03,12.0\n")
        cfg = write_config(tmp_path, {"ou": {"csv": "bad.csv"}})
        assert run(["calibrate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "TimeOrder" in err and "bad.csv row 3" in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ("date,price\n2020-01-02,10.0\n2020-01-03,abc\n2020-01-06,12.0\n", "row 2: bad price 'abc'"),
            ("date,price\n2020-01-02,10.0\n2020-01-03,11.0\n2020-01-06,-1\n", "row 3: bad price '-1'"),
            ("date,price\n2020-01-02,10.0\n2020-01-03,nan\n2020-01-06,12.0\n", "row 2: bad price 'nan'"),
            ("date,price\n2020-01-02,10.0\n2020-13-03,11.0\n2020-01-06,12.0\n", "row 2: bad date"),
            ("day,value\n2020-01-02,10.0\n2020-01-03,11.0\n2020-01-06,12.0\n", "expected header"),
            ("date,price\n2020-01-02,10.0\n".encode() + "2020-01-03,11\u20ac\n".encode("cp1252"),
             "bad.csv as UTF-8 text"),
            (None, "bad.csv as UTF-8 text"),
        ],
        ids=["price_text", "price_negative", "price_nan", "bad_date", "bad_header", "not_utf8", "directory"],
    )
    def test_malformed_csv_rejected(self, tmp_path, capsys, text, named):
        """``text`` is the file's text, its raw bytes, or None for a directory."""
        write_input(tmp_path / "bad.csv", text)
        cfg = write_config(tmp_path, {"ou": {"csv": "bad.csv"}})
        assert run(["calibrate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "bad.csv" in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dt", [0.0, float("nan")], ids=["zero", "nan"])
    def test_bad_step_rejected(self, tmp_path, capsys, dt):
        csv_path = synthetic_csv(tmp_path, n=500)
        cfg = write_config(tmp_path, {"ou": {"csv": csv_path.name, "dt": dt}})
        assert run(["calibrate", "--config", cfg]) == 2
        assert "ConfigError: ou.dt must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRiskCommand:
    def test_zero_loading_gives_zero_vector(self, tmp_path):
        cfg = write_config(tmp_path, base_config(claim={"type": "linear", "delta": [0.0, 0.0]}))
        assert run(["risk", "--config", cfg]) == 0
        header, rows = read_csv(tmp_path / "out" / "risk.csv")
        closed = [float(r[header.index("closed")]) for r in rows]
        assert closed == [0.0] * len(rows)

    def test_single_regime_matches_oracle_column(self, tmp_path):
        cfg = base_config(
            chain={"kind": "generator", "matrix": [[0.0]], "z0": 0},
            claim={"type": "future", "delta": [0.75], "r": 0.01, "y": 0.07},
        )
        path = write_config(tmp_path, cfg)
        assert run(["risk", "--config", path]) == 0
        header, rows = read_csv(tmp_path / "out" / "risk.csv")
        for r in rows:
            closed = float(r[header.index("closed")])
            oracle = float(r[header.index("oracle")])
            assert closed == pytest.approx(oracle, abs=1e-10)

    def test_single_regime_oracle_reads_one_law(self, tmp_path, monkeypatch):
        """The oracle's conditional law is the same at every gamma: one call."""
        calls = []
        real = cli.conditional_law

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "conditional_law", counting)
        cfg = base_config(
            chain={"kind": "generator", "matrix": [[0.0]], "z0": 0},
            claim={"type": "linear", "delta": [0.75]},
        )
        assert len(cfg["grids"]["gammas"]) == 4
        assert run(["risk", "--config", write_config(tmp_path, cfg)]) == 0
        assert len(calls) == 1

    def test_example_config_mc_z_scores_within_three(self, tmp_path):
        assert run(["risk", "--config", EXAMPLE_CONFIG, "--mc", "--out", tmp_path]) == 0
        header, rows = read_csv(tmp_path / "risk.csv")
        zs = [abs(float(r[header.index("z_score")])) for r in rows]
        assert len(zs) == 16
        assert max(zs) <= 3.0

    def test_swap_requires_mc(self, tmp_path, capsys):
        cfg = base_config(
            claim={
                "type": "swap",
                "delta": [1.0, 1.0],
                "rates": [0.05, 0.05],
                "yield": {"kind": "constant", "r": 0.02, "y": 0.06},
            }
        )
        path = write_config(tmp_path, cfg)
        assert run(["risk", "--config", path]) == 2
        assert "--mc" in capsys.readouterr().err
        assert run(["risk", "--config", path, "--mc"]) == 0
        header, rows = read_csv(tmp_path / "out" / "risk.csv")
        assert all(r[header.index("closed")] == "" for r in rows)
        assert all(r[header.index("mc_value")] != "" for r in rows)

    def test_swap_needs_no_horizons(self, tmp_path):
        """A swap's horizon is its settlement count: ``risk`` reads no configured one."""
        cfg = base_config(
            claim={
                "type": "swap",
                "delta": [1.0, 0.9],
                "rates": [0.05, 0.05],
                "yield": {"kind": "constant", "r": 0.02, "y": 0.06},
            }
        )
        del cfg["grids"]["horizons_days"]
        assert run(["risk", "--config", write_config(tmp_path, cfg), "--mc", "--paths", 500]) == 0
        header, rows = read_csv(tmp_path / "out" / "risk.csv")
        gammas, n_states = cfg["grids"]["gammas"], len(cfg["chain"]["matrix"])
        assert [(float(r[0]), int(r[1])) for r in rows] == [(g, i) for g in gammas for i in range(n_states)]
        assert all(r[header.index("mc_value")] != "" for r in rows)


class TestSweepCommand:
    def test_table_shape_matches_report_layout(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert run(["sweep", "--config", cfg]) == 0
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert header == ["horizon", "gamma=1", "gamma=2.5", "gamma=5", "gamma=10"]
        assert [r[0] for r in rows] == [
            "T=50 days",
            "T=150 days",
            "variation_abs (last-first)",
            "variation_pct (%)",
        ]
        payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
        cells = np.array(payload["data"]["cells"])
        assert cells.shape == (2, 4)
        var_abs = payload["data"]["variation_abs"]
        np.testing.assert_allclose(var_abs, cells[1] - cells[0], rtol=1e-12)

    def test_single_cell_grid_has_empty_variation(self, tmp_path):
        cfg = base_config()
        cfg["grids"] = {"gammas": [2.0], "horizons_days": [50.0]}
        path = write_config(tmp_path, cfg)
        assert run(["sweep", "--config", path]) == 0
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 3
        assert rows[1] == ["variation_abs (last-first)", ""]
        assert rows[2] == ["variation_pct (%)", ""]

    def test_rows_nondecreasing_in_gamma(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        run(["sweep", "--config", cfg])
        payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
        cells = np.array(payload["data"]["cells"])
        assert np.all(np.diff(cells, axis=1) >= -1e-9)

    def test_mc_cross_check_writes_flags(self, tmp_path):
        cfg = base_config()
        cfg["grids"] = {"gammas": [2.0, 5.0], "horizons_days": [50.0]}
        cfg["mc"] = {"n_paths": 20000, "seed": 6}
        path = write_config(tmp_path, cfg)
        assert run(["sweep", "--config", path, "--mc"]) == 0
        header, rows = read_csv(tmp_path / "out" / "sweep_mc.csv")
        assert header[-1] == "flagged"
        for r in rows:
            z = float(r[header.index("z_score")])
            assert r[-1] == str(abs(z) > 3.0)
        assert all(r[-1] == "False" for r in rows)

    def test_swap_claim_rejected(self, tmp_path, capsys):
        cfg = base_config(
            claim={
                "type": "swap",
                "delta": [1.0, 1.0],
                "rates": [0.05],
                "yield": {"kind": "constant", "r": 0.0, "y": 0.0},
            }
        )
        path = write_config(tmp_path, cfg)
        assert run(["sweep", "--config", path]) == 2
        assert "sweep" in capsys.readouterr().err


class TestYieldSweepCommand:
    def test_zero_yield_curve_equals_spot_risk(self, tmp_path):
        cfg = base_config(claim={"type": "future", "delta": [0.75, 0.9], "r": 0.0, "y": 0.05})
        cfg["grids"]["yields"] = [0.0]
        path = write_config(tmp_path, cfg)
        assert run(["yield-sweep", "--config", path]) == 0
        payload = json.loads((tmp_path / "out" / "yield_sweep.json").read_text())
        ou = OUParams(alpha=5.0, mu=48.22, sigma=13.66, x0=62.24)
        g = Generator([[-0.8, 0.5], [0.8, -0.5]])
        T = 50.0 / TRADING_DAYS_PER_YEAR
        for t, y, risk in payload["data"]["rows"]:
            assert y == 0.0
            q = RiskQuery(s=t, T=T, x_s=62.24)
            expected = spot_risk_closed(ou, g, [0.75, 0.9], q, gammas=[1.0])[0, 0]
            assert risk == pytest.approx(expected, abs=1e-12)

    def test_configured_yield_levels_present(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(claim={"type": "future", "delta": [0.75, 0.75], "r": 0.0, "y": 0.08}),
        )
        assert run(["yield-sweep", "--config", cfg]) == 0
        header, rows = read_csv(tmp_path / "out" / "yield_sweep.csv")
        yields = {r[1] for r in rows}
        assert "0.08" in yields and "0" in yields and "0.04" in yields

    def test_spread_shrinks_toward_maturity(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(claim={"type": "future", "delta": [0.75, 0.75], "r": 0.0, "y": 0.08}),
        )
        run(["yield-sweep", "--config", cfg])
        _, rows = read_csv(tmp_path / "out" / "yield_sweep_summary.csv")
        spreads = [float(r[1]) for r in rows]
        assert spreads[-1] < spreads[0]

    def test_linear_claim_rejected(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert run(["yield-sweep", "--config", cfg]) == 2


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        run(["simulate", "--config", cfg, "--out", tmp_path / "a"])
        run(["simulate", "--config", cfg, "--out", tmp_path / "b"])
        assert (tmp_path / "a" / "paths.csv").read_bytes() == (tmp_path / "b" / "paths.csv").read_bytes()
        assert (tmp_path / "a" / "paths.json").read_bytes() == (tmp_path / "b" / "paths.json").read_bytes()

    def test_zero_vol_path_is_monotone_relaxation(self, tmp_path):
        cfg = base_config(ou={"alpha": 5.0, "mu": 48.22, "sigma": 0.0, "x0": 62.24})
        path = write_config(tmp_path, cfg)
        run(["simulate", "--config", path])
        header, rows = read_csv(tmp_path / "out" / "paths.csv")
        spot = [float(r[header.index("spot")]) for r in rows]
        assert all(a > b for a, b in zip(spot, spot[1:]))
        assert spot[-1] > 48.22

    def test_whole_day_float_horizon_runs(self, tmp_path):
        cfg = base_config()
        cfg["grids"]["horizons_days"] = [3.0]
        assert run(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "paths.csv")
        assert [r[header.index("step")] for r in rows] == ["0", "1", "2", "3"]

    def test_daily_year_path_within_gaussian_envelope(self, tmp_path):
        cfg = base_config()
        cfg["grids"]["horizons_days"] = [252.0]
        path = write_config(tmp_path, cfg)
        run(["simulate", "--config", path])
        header, rows = read_csv(tmp_path / "out" / "paths.csv")
        spot = np.array([float(r[header.index("spot")]) for r in rows])
        sd = np.sqrt(13.66**2 / 10.0)
        low = min(48.22, 62.24) - 6 * sd
        high = max(48.22, 62.24) + 6 * sd
        assert spot.min() > low and spot.max() < high

    def test_swap_with_stochastic_yield_adds_column(self, tmp_path):
        cfg = base_config(
            claim={
                "type": "swap",
                "delta": [1.0, 1.0],
                "rates": [0.05, 0.05],
                "yield": {
                    "kind": "gibson_schwartz",
                    "kappa": 1.5,
                    "y_bar": 0.08,
                    "sigma_y": 0.1,
                    "rho": -0.3,
                    "lambda_y": 0.0,
                    "y0": 0.05,
                },
            }
        )
        path = write_config(tmp_path, cfg)
        run(["simulate", "--config", path])
        header, _ = read_csv(tmp_path / "out" / "paths.csv")
        assert header == ["step", "t_years", "spot", "regime", "yield"]


    def test_yield_innovations_correlate_with_spot(self, tmp_path):
        # residuals of the exact one-step recursions are the two innovations;
        # their correlation is the exact per-step one implied by rho
        cfg = base_config(claim=gs_swap())
        cfg["grids"]["horizons_days"] = [5000.0]
        assert run(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "paths.csv")
        x, y = (np.array([float(r[header.index(k)]) for r in rows]) for k in ("spot", "yield"))
        ou = OUParams(**cfg["ou"])
        gs = GibsonSchwartzParams(**{k: v for k, v in GS_SWAP["yield"].items() if k != "kind"})
        dt = 1.0 / TRADING_DAYS_PER_YEAR
        bx, cx, _ = step_coefficients(ou, dt)
        by, cy, _ = step_coefficients(gs.historical_ou, dt)
        innov_x = x[1:] - (bx * x[:-1] + cx)
        innov_y = y[1:] - (by * y[:-1] + cy)
        target = step_correlation(ou, gs, dt)
        assert target < -0.5
        assert abs(np.corrcoef(innov_x, innov_y)[0, 1] - target) < 0.05

    @pytest.mark.parametrize(
        "claim",
        [
            dict(gs_swap(), delta=[1.0, 1.0, 1.0]),
            gs_swap(kind="gibson"),
            {**GS_SWAP, "yield": {k: v for k, v in GS_SWAP["yield"].items() if k != "y_bar"}},
        ],
        ids=["delta_length", "unknown_yield_kind", "missing_y_bar"],
    )
    def test_malformed_swap_claim_rejected(self, tmp_path, capsys, claim):
        path = write_config(tmp_path, base_config(claim=claim))
        assert run(["simulate", "--config", path]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDeterminismAndOverrides:
    def test_sweep_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        run(["sweep", "--config", cfg, "--out", tmp_path / "a"])
        run(["sweep", "--config", cfg, "--out", tmp_path / "b"])
        for name in ("sweep.csv", "sweep.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_calibrate_and_yield_sweep_byte_identical_reruns(self, tmp_path):
        csv_path = synthetic_csv(tmp_path, n=500)
        calib = write_config(tmp_path, {"ou": {"csv": csv_path.name}}, name="calib.json")
        run(["calibrate", "--config", calib, "--out", tmp_path / "c1"])
        run(["calibrate", "--config", calib, "--out", tmp_path / "c2"])
        assert (tmp_path / "c1" / "ou_params.json").read_bytes() == (
            tmp_path / "c2" / "ou_params.json"
        ).read_bytes()
        ys = write_config(
            tmp_path,
            base_config(claim={"type": "future", "delta": [0.75, 0.75], "r": 0.0, "y": 0.08}),
            name="ys.json",
        )
        run(["yield-sweep", "--config", ys, "--out", tmp_path / "y1"])
        run(["yield-sweep", "--config", ys, "--out", tmp_path / "y2"])
        for name in ("yield_sweep.csv", "yield_sweep_summary.csv"):
            assert (tmp_path / "y1" / name).read_bytes() == (tmp_path / "y2" / name).read_bytes()

    def test_seed_override_changes_provenance_and_results(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        run(["risk", "--config", cfg, "--mc", "--out", tmp_path / "s1", "--seed", "1"])
        run(["risk", "--config", cfg, "--mc", "--out", tmp_path / "s2", "--seed", "2"])
        a = (tmp_path / "s1" / "risk.csv").read_text()
        b = (tmp_path / "s2" / "risk.csv").read_text()
        assert "# seed=1" in a and "# seed=2" in b
        assert a != b

    def test_paths_override(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        run(["risk", "--config", cfg, "--mc", "--out", tmp_path / "p", "--paths", "2500"])
        payload = json.loads((tmp_path / "p" / "risk.json").read_text())
        assert payload["provenance"]["n_paths"] == 2500


def every_command_config(tmp_path: Path) -> Path:
    """A config every command runs on: a future claim, and OU parameters beside a price CSV."""
    ou = dict(base_config()["ou"], csv=synthetic_csv(tmp_path, n=500).name)
    claim = {"type": "future", "delta": [0.75, 0.75], "r": 0.0, "y": 0.08}
    return write_config(tmp_path, base_config(ou=ou, claim=claim))


class TestWorkersFlag:
    @pytest.mark.parametrize("command", ["calibrate", "simulate", "risk", "sweep", "yield-sweep"])
    def test_offered_only_where_used(self, tmp_path, command):
        """No command takes ``--workers``: an unknown option exits 2."""
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", cfg, "--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [("calibrate", "--seed"), ("calibrate", "--paths"), ("yield-sweep", "--seed"), ("yield-sweep", "--paths"),
         ("simulate", "--paths")],
    )
    def test_override_offered_only_where_read(self, tmp_path, capsys, command, flag):
        """``calibrate`` and ``yield-sweep`` read no seed and no path count,
        and ``simulate`` no path count: each such override is an unknown
        option, which exits 2 and writes nothing."""
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", every_command_config(tmp_path), flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args, output, line",
        [(["simulate", "--seed", "3"], "paths.csv", "# seed=3"),
         (["risk", "--mc", "--paths", "200"], "risk.csv", "# n_paths=200")],
        ids=["simulate_seed", "risk_mc_paths"],
    )
    def test_override_read_where_offered(self, tmp_path, args, output, line):
        assert run(args + ["--config", every_command_config(tmp_path)]) == 0
        assert line in (tmp_path / "out" / output).read_text().splitlines()


class TestSimulateOnce:
    """Each (horizon, starting state) stream is simulated once per command and
    reduced at every gamma."""

    @pytest.fixture
    def sims(self, monkeypatch):
        calls = []
        real = entropic_risk._payoffs_for_state

        def counting(ou, claim, q, state, *args):
            calls.append((q.T, state))
            return real(ou, claim, q, state, *args)

        monkeypatch.setattr(entropic_risk, "_payoffs_for_state", counting)
        return calls

    def test_risk_mc_simulates_each_state_once(self, tmp_path, sims):
        shipped = json.loads(EXAMPLE_CONFIG.read_text())
        n_states = len(shipped["chain"]["matrix"])
        assert run(["risk", "--config", EXAMPLE_CONFIG, "--mc", "--paths", 2000, "--out", tmp_path]) == 0
        assert len(sims) == n_states
        assert sorted(state for _, state in sims) == list(range(n_states))

    def test_sweep_mc_simulates_the_start_state_once_per_horizon(self, tmp_path, sims):
        shipped = json.loads(EXAMPLE_CONFIG.read_text())
        horizons = shipped["grids"]["horizons_days"]
        z0 = shipped["chain"]["z0"]
        assert run(["sweep", "--config", EXAMPLE_CONFIG, "--mc", "--paths", 2000, "--out", tmp_path]) == 0
        assert len(sims) == len(horizons)
        assert sims == [(h / TRADING_DAYS_PER_YEAR, z0) for h in horizons]
        _, rows = read_csv(tmp_path / "sweep_mc.csv")
        assert len(rows) == len(horizons) * len(shipped["grids"]["gammas"])


class TestOneKernelPerHorizon:
    """The closed form runs one matrix exponential per horizon, shared by every
    gamma; ``sweep`` and ``yield-sweep`` ask for all of theirs in one call."""

    @pytest.mark.parametrize("command", ["risk", "sweep"])
    def test_shipped_config(self, tmp_path, expm_calls, command):
        horizons = json.loads(EXAMPLE_CONFIG.read_text())["grids"]["horizons_days"]
        assert run([command, "--config", EXAMPLE_CONFIG, "--out", tmp_path]) == 0
        used = horizons[:1] if command == "risk" else horizons
        assert expm_calls == [h / TRADING_DAYS_PER_YEAR for h in used]

    def test_yield_sweep_runs_one_per_evaluation_time(self, tmp_path, expm_calls):
        """Every yield shares its time's kernel: one call per time, not per (yield, time)."""
        grids = json.loads(EXAMPLE_CONFIG.read_text())["grids"]
        T = grids["horizons_days"][0] / TRADING_DAYS_PER_YEAR
        n = grids["n_times"]
        assert run(["yield-sweep", "--config", EXAMPLE_CONFIG, "--out", tmp_path]) == 0
        assert expm_calls == [T - k * T / n for k in range(n)]

    @pytest.mark.parametrize("command", ["sweep", "yield-sweep"])
    def test_one_matrix_exp_call_per_command(self, tmp_path, monkeypatch, command):
        """Every horizon's kernel comes from one stacked ``matrix_exp`` call."""
        stacks = []
        real = entropic_risk.matrix_exp

        def recording(g, t):
            stacks.append(t)
            return real(g, t)

        monkeypatch.setattr(entropic_risk, "matrix_exp", recording)
        assert run([command, "--config", EXAMPLE_CONFIG, "--out", tmp_path]) == 0
        grids = json.loads(EXAMPLE_CONFIG.read_text())["grids"]
        n_kernels = len(grids["horizons_days"]) if command == "sweep" else grids["n_times"]
        assert len(stacks) == 1
        assert len(stacks[0]) == n_kernels


class TestConfigValidation:
    @pytest.mark.parametrize("directory", [False, True], ids=["absent", "directory"])
    def test_missing_file(self, tmp_path, capsys, directory):
        """A config path that names no readable file: nothing there, or a directory."""
        path = tmp_path / "cfg.json"
        if directory:
            path.mkdir()
        assert run(["risk", "--config", path]) == 2
        assert f"ConfigError: cannot read {path} as UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, named",
        [
            (b"{not json", "{file}: invalid JSON"),
            ('{"note": "caf\u00e9"}'.encode("latin-1"), "cannot read {file} as UTF-8 text"),
            # past Python's 4300-digit limit json.loads raises a bare ValueError
            (b'{"mc": {"n_paths": ' + b"1" * 5001 + b"}}", "{file}: invalid JSON"),
            # past the recursion limit it raises RecursionError
            (b'{"unused": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "{file}: invalid JSON"),
            (b"[1, 2]", "{file} must hold a JSON object"),
        ],
        ids=["not_json", "not_utf8", "int_past_digit_limit", "nested_past_recursion_limit", "top_level_list"],
    )
    def test_invalid_json(self, tmp_path, capsys, content, named):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        assert run(["risk", "--config", p]) == 2
        assert f"ConfigError: {named.format(file=p)}" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_unwritable_output_path(self, tmp_path, capsys, below):
        """``--out`` naming a regular file, or a path below one, is refused by
        name (exit 2), and the file is left as it was."""
        blocker = tmp_path / "taken"
        blocker.write_bytes(b"keep me\n")
        out = blocker / "sub" if below else blocker
        assert run(["risk", "--config", write_config(tmp_path, base_config()), "--out", out]) == 2
        assert f"ConfigError: cannot write {out / 'risk.csv'}: " in capsys.readouterr().err
        assert blocker.read_bytes() == b"keep me\n"

    def test_defective_transition_matrix_surfaces(self, tmp_path, capsys):
        cfg = base_config()
        cfg["chain"] = {
            "kind": "transition",
            "matrix": [
                [0.75, 0.25, 0.0, 0.0],
                [0.25, 0.75, 0.0, 0.0],
                [0.0, 0.0, 0.25, 0.70],
                [0.0, 0.0, 0.75, 0.25],
            ],
            "dt": 1 / 252,
        }
        path = write_config(tmp_path, cfg)
        assert run(["risk", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "NotStochastic" in err and "row 2" in err

    def test_admitted_column_leak_runs(self, tmp_path, capsys):
        """Row 0 short of 1 by 3e-12 passes the row check; every kernel of the
        sweep then absorbs the leak its generator column was admitted with."""
        cfg = json.loads(EXAMPLE_CONFIG.read_text())
        cfg["chain"]["matrix"][0] = [0.5, 0.5 - 3e-12, 0.0, 0.0]
        path = write_config(tmp_path, cfg)
        assert run(["sweep", "--config", path, "--out", tmp_path / "out"]) == 0, capsys.readouterr().err

    def test_transition_requires_dt(self, tmp_path):
        cfg = base_config()
        cfg["chain"] = {"kind": "transition", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
        assert run(["risk", "--config", write_config(tmp_path, cfg)]) == 2

    def test_bad_kind(self, tmp_path):
        cfg = base_config()
        cfg["chain"]["kind"] = "mystery"
        assert run(["risk", "--config", write_config(tmp_path, cfg)]) == 2

    def test_z0_bounds(self, tmp_path):
        cfg = base_config()
        cfg["chain"]["z0"] = 5
        assert run(["risk", "--config", write_config(tmp_path, cfg)]) == 2

    def test_nonpositive_gamma_rejected(self, tmp_path):
        cfg = base_config()
        cfg["grids"]["gammas"] = [0.0, 1.0]
        assert run(["risk", "--config", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize(
        "key, values",
        [
            ("gammas", [1.0, float("nan")]),
            ("gammas", [1.0, float("inf")]),
            ("horizons_days", [50.0, float("nan")]),
            ("horizons_days", [float("inf")]),
            ("yields", [0.0, float("nan")]),
        ],
    )
    @pytest.mark.parametrize("command", [["sweep"], ["sweep", "--mc"], ["risk", "--mc"]])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, key, values, command):
        cfg = base_config()
        cfg["grids"][key] = values
        path = write_config(tmp_path, cfg)
        assert run(command + ["--config", path]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_gamma_rejected_for_swap(self, tmp_path, capsys):
        cfg = base_config(
            claim={
                "type": "swap",
                "delta": [1.0, 1.0],
                "rates": [0.05, 0.05],
                "yield": {"kind": "constant", "r": 0.02, "y": 0.06},
            }
        )
        cfg["grids"]["gammas"] = [1.0, float("nan")]
        assert run(["risk", "--config", write_config(tmp_path, cfg), "--mc"]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, section, key, value, error",
        [
            ("sweep", "claim", "r", None, "ConfigError"),
            ("sweep", "ou", "alpha", -1.0, "NotMeanReverting"),
            ("simulate", "ou", "alpha", float("nan"), "ConfigError: ou.alpha must be a finite number"),
            ("sweep", "ou", "sigma", float("nan"), "ConfigError: ou.sigma must be a finite number"),
            ("sweep", "claim", "y", float("nan"), "ConfigError: claim.y must be a finite number"),
            ("sweep", "chain", "matrix", [[-0.8, 0.5], [float("nan"), -0.5]],
             "ConfigError: chain.matrix[1][0] must be a finite number"),
            ("sweep", "ou", "alpha", "x", "ConfigError: ou.alpha must be a finite number"),
            ("sweep", "ou", "alpha", True, "ConfigError: ou.alpha must be a finite number"),
            ("sweep", "claim", "delta", "abcd", "ConfigError: claim.delta must be a list"),
            ("sweep", "grids", "horizons_days", ["x"],
             "ConfigError: grids.horizons_days[0] must be a finite number"),
            ("sweep", "chain", "matrix", [[1, "a"], [0, 1]],
             "ConfigError: chain.matrix[0][1] must be a finite number"),
            ("sweep", "chain", "matrix", [[-0.8, 0.5], [0.8]], "ConfigError: chain.matrix rows differ"),
            ("sweep", "claim", "type", ["future"], "ConfigError: claim.type must be a string"),
            ("sweep", "chain", "kind", ["generator"], "ConfigError: chain.kind must be a string"),
            ("calibrate", "ou", "csv", 5, "ConfigError: ou.csv must be a string"),
            ("calibrate", "ou", "params_file", 7, "ConfigError: ou.params_file must be a string"),
            ("sweep", "output", "dir", 5, "ConfigError: output.dir must be a string"),
            ("simulate", "grids", "horizons_days", [0.3],
             "ConfigError: grids.horizons_days[0] must be a whole number of days for simulate, got 0.3"),
            ("simulate", "grids", "horizons_days", [2.6, 50.0],
             "ConfigError: grids.horizons_days[0] must be a whole number of days for simulate, got 2.6"),
            ("sweep", "mc", "n_paths", 10**400,
             "ConfigError: mc.n_paths must be a finite number, got an int of 1329 bits"),
            ("sweep", "ou", "alpha", 10**400,
             "ConfigError: ou.alpha must be a finite number, got an int of 1329 bits"),
            ("sweep", "grids", "n_times", 10**400,
             "ConfigError: grids.n_times must be a finite number, got an int of 1329 bits"),
            ("risk", "grids", "horizons_days", None,
             "ConfigError: config grids.horizons_days must be a nonempty list"),
            ("calibrate", "ou", "csv", "missing.csv", "ConfigError: ou.csv does not exist: "),
            ("sweep", "ou", "alpha", None,
             "ConfigError: ou section needs (alpha, mu, sigma, x0), params_file, or csv"),
            ("sweep", "claim", "type", "option", "ConfigError: unknown claim type 'option'"),
            ("sweep", "grids", "horizons_days", [50.0, 0.0], "ConfigError: grids.horizons_days must be positive"),
            ("yield-sweep", "grids", "n_times", 1, "ConfigError: grids.n_times must be at least 2"),
        ],
        ids=["claim.r_missing", "ou.alpha_negative", "ou.alpha_nan", "ou.sigma_nan",
             "claim.y_nan", "chain_entry_nan", "ou.alpha_text", "ou.alpha_bool",
             "claim.delta_text", "grids.horizons_text", "chain_entry_text", "chain_ragged",
             "claim.type_list", "chain.kind_list", "ou.csv_number", "ou.params_file_number",
             "output.dir_number", "simulate_fractional_day", "simulate_fractional_days",
             "mc.n_paths_past_float", "ou.alpha_past_float", "grids.n_times_past_float",
             "risk_future_without_horizons", "ou.csv_missing", "ou_without_parameters", "claim.type_unknown",
             "grids.horizons_zero", "grids.n_times_one"],
    )
    def test_defective_field_rejected(self, tmp_path, capsys, command, section, key, value, error):
        cfg = base_config(claim={"type": "future", "delta": [0.75, 0.75], "r": 0.0, "y": 0.08})
        if value is None:
            del cfg[section][key]
        else:
            cfg[section][key] = value
        assert run([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"data": [1, 2]}, "ou.params_file.data must be a JSON object"),
            ({"params": 5}, "ou.params_file.params must be a JSON object"),
            ('{"alpha": 5.0, "note": "caf\u00e9"}'.encode("latin-1"), "cannot read {file} as UTF-8 text"),
            (None, "cannot read {file} as UTF-8 text"),
        ],
        ids=["data_list", "params_number", "not_utf8", "directory"],
    )
    def test_malformed_params_file_named(self, tmp_path, capsys, payload, named):
        """``payload`` is a JSON value, raw bytes, or None for a directory."""
        params_file = tmp_path / "ou_params.json"
        write_input(params_file, json.dumps(payload) if isinstance(payload, dict) else payload)
        cfg = base_config(ou={"params_file": "ou_params.json"})
        assert run(["risk", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"ConfigError: {named.format(file=params_file.resolve())}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("chain", "z0", 1.7), ("grids", "n_times", 8.5), ("mc", "n_paths", 4000.5), ("mc", "seed", 11.2)],
    )
    def test_non_integral_value_rejected(self, tmp_path, capsys, section, key, value):
        cfg = base_config()
        cfg[section][key] = value
        assert run(["risk", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"{section}.{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 7], ids=["negative", "2**64", "past_2**64"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys, where, seed):
        """The MC stream's key holds the seed in one 64-bit word: a seed past
        it must not wrap around to the stream of ``seed mod 2**64``."""
        cfg = base_config()
        args = ["risk", "--mc", "--out", tmp_path / "out"]
        if where == "config":
            cfg["mc"]["seed"] = seed
        else:
            args += ["--seed", seed]
        assert run(args + ["--config", write_config(tmp_path, cfg)]) == 2
        assert "ConfigError: mc.seed must be an integer in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "where, n_paths",
        [("config", 1e300), ("config", 1 << 63), ("flag", 1 << 63)],
        ids=["config_1e300", "config_2**63", "flag_2**63"],
    )
    def test_path_count_past_63_bits_rejected(self, tmp_path, capsys, where, n_paths):
        """numpy sizes an array by a signed 64-bit count: a path count at or
        past 2**63 is refused by name before anything is allocated, not by
        numpy's bare ValueError from inside the first Monte-Carlo call."""
        cfg = base_config()
        args = ["risk", "--mc", "--out", tmp_path / "out"]
        if where == "config":
            cfg["mc"]["n_paths"] = n_paths
        else:
            args += ["--paths", n_paths]
        assert run(args + ["--config", write_config(tmp_path, cfg)]) == 2
        assert "ConfigError: mc.n_paths must be an integer in [2, 2**63)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_path_count_past_numpys_byte_limit_rejected(self, tmp_path, capsys):
        """A path count below 2**63 whose working set numpy cannot size (its
        bytes past the largest intp) is refused by name before anything is
        allocated, not by numpy's bare ValueError."""
        path = write_config(tmp_path, base_config())
        args = ["risk", "--mc", "--paths", (1 << 63) - 1, "--out", tmp_path / "out", "--config", path]
        assert run(args) == 2
        assert "ConfigError: n_paths=9223372036854775807 needs a working set" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override, value",
        [("seed", 3.7), ("seed", True), ("seed", "3"), ("paths", 2000.9), ("paths", 2000.0), ("paths", np.float64(2000))],
        ids=["seed_float", "seed_bool", "seed_str", "paths_float", "paths_integral_float", "paths_np_float"],
    )
    def test_override_is_never_cast(self, tmp_path, override, value):
        """An override is read by the library's integer rule: 3.7 is not
        seed 3, True not seed 1, 2000.9 not 2000 paths."""
        key = {"seed": "mc.seed", "paths": "mc.n_paths"}[override]
        with pytest.raises(ConfigError, match=rf"^{key} must be an integer, got dtype"):
            load_config(write_config(tmp_path, base_config()), **{f"{override}_override": value})

    def test_numpy_integer_overrides_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()), seed_override=np.uint64(7), paths_override=np.array(2500))
        assert (cfg.seed, cfg.n_paths) == (7, 2500)
        assert type(cfg.seed) is int and type(cfg.n_paths) is int

    def test_largest_seed_accepted(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert run(["risk", "--mc", "--paths", "100", "--config", path, "--seed", (1 << 64) - 1]) == 0
        assert "# seed=18446744073709551615" in (tmp_path / "out" / "risk.csv").read_text()

    @pytest.mark.parametrize(
        "path, value, named",
        [
            ("chain.dt", "x", "chain.dt must be a finite number"),
            ("claim.rates", [0.03, "abc"], "claim.rates[1] must be a finite number"),
            ("claim.yield.kappa", None, "claim.yield.kappa must be a finite number"),
            ("claim.yield", [1], "claim.yield must be a JSON object"),
            ("grids", [1], "grids must be a JSON object"),
            ("claim.yield.kind", ["constant"], "claim.yield.kind must be a string"),
        ],
        ids=["chain.dt_text", "claim.rates_text", "claim.yield.kappa_null", "claim.yield_list", "grids_list",
             "claim.yield.kind_list"],
    )
    def test_malformed_value_named(self, tmp_path, capsys, path, value, named):
        """The shipped config with a four-state Gibson-Schwartz swap, one value broken."""
        cfg = json.loads(EXAMPLE_CONFIG.read_text())
        cfg["claim"] = dict(gs_swap(), delta=[1.0] * 4)
        *parents, key = path.split(".")
        node = cfg
        for p in parents:
            node = node[p]
        node[key] = value
        assert run(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"ConfigError: {named}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_delta_length_checked_against_chain(self, tmp_path):
        cfg = base_config(claim={"type": "linear", "delta": [1.0, 1.0, 1.0]})
        assert run(["risk", "--config", write_config(tmp_path, cfg)]) == 2

    def test_missing_section_for_command(self, tmp_path, capsys):
        cfg = {"ou": {"alpha": 1.0, "mu": 50.0, "sigma": 5.0, "x0": 50.0}}
        assert run(["risk", "--config", write_config(tmp_path, cfg)]) == 2
        assert "chain" in capsys.readouterr().err
