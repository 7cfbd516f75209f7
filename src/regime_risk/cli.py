"""Command-line interface.

    regime-risk calibrate|simulate|yield-sweep --config cfg.json
                [--seed N] [--paths N] [--out DIR]
    regime-risk risk|sweep --config cfg.json
                [--seed N] [--paths N] [--mc] [--out DIR]

Every command is a pure function of (config, input files, seed): rerunning
with identical inputs produces byte-identical outputs.  Horizons are
configured in days and converted at 252 trading days per year; outputs
record that convention in their provenance headers.  The configuration
is parsed once, by :func:`regime_risk.config.load_config`; commands read
its typed values.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .config import (
    RunConfig,
    horizon_years,
    load_config,
    provenance,
    write_csv,
    write_json,
)
from .entropic_risk import (
    RiskQuery,
    claim_risk_closed,
    claim_risk_mc,
    sample_paths,
)
# unused here; kept because bench/tracer.py wraps both names on this module
from .entropic_risk import future_risk_closed, spot_risk_closed  # noqa: F401
from .errors import ConfigError, RiskModelError
from .instruments import FutureClaim, SwapClaim
from .ou_model import calibrate, conditional_law, load_price_csv


def cmd_calibrate(cfg: RunConfig) -> int:
    """Fit OU parameters from the configured price CSV and write them as JSON."""
    cfg.require("ou_csv")
    series = load_price_csv(cfg.ou_csv, dt=cfg.ou_dt)
    result = calibrate(series)
    p = result.params
    print(f"fitted on {result.n_obs} transitions (dt={result.dt:.6g} years)")
    print(f"  alpha = {p.alpha:.6g}  (se {result.alpha_se:.3g})")
    print(f"  mu    = {p.mu:.6g}  (se {result.mu_se:.3g})")
    print(f"  sigma = {p.sigma:.6g}  (se {result.sigma_se:.3g})")
    print(f"  x0    = {p.x0:.6g}  (first observation)")
    data = {
        "params": {"alpha": p.alpha, "mu": p.mu, "sigma": p.sigma, "x0": p.x0},
        "std_errors": {
            "alpha": result.alpha_se,
            "mu": result.mu_se,
            "sigma": result.sigma_se,
        },
        "ar1": {"slope": result.ar1_slope, "intercept": result.ar1_intercept},
        "n_obs": result.n_obs,
        "dt": result.dt,
    }
    out = cfg.out_dir / "ou_params.json"
    write_json(out, provenance(cfg, "calibrate"), data)
    print(f"wrote {out}")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    """Write spot, regime, and (for stochastic-yield swaps) yield paths on a daily grid."""
    cfg.require("chain", "ou", "horizons")
    days = cfg.horizons_days[0]
    if days != int(days):
        raise ConfigError(f"grids.horizons_days[0] must be a whole number of days for simulate, got {days!r}")
    n_days = int(days)
    grid = np.arange(n_days + 1) * horizon_years(1.0)
    rng = np.random.default_rng(cfg.seed)
    yield_spec = getattr(cfg.claim, "stochastic_yield", None)  # None but for a stochastic-yield swap
    spot, regimes, yld = sample_paths(cfg.ou, cfg.chain, cfg.z0, grid, rng, yield_spec)
    header = ["step", "t_years", "spot", "regime"]
    cols = [list(range(n_days + 1)), grid.tolist(), spot.tolist(), regimes.tolist()]
    if yld is not None:
        header.append("yield")
        cols.append(yld.tolist())
    prov = provenance(cfg, "simulate")
    # the row tuples are a temporary, freed before the JSON is built
    write_csv(cfg.out_dir / "paths.csv", prov, header, list(zip(*cols)))
    write_json(
        cfg.out_dir / "paths.json",
        prov,
        {name: col for name, col in zip(header, cols)},
    )
    print(f"wrote {cfg.out_dir / 'paths.csv'} ({n_days + 1} grid points)")
    return 0


def _mc_cells(est, closed: float | None) -> list:
    """The ``mc_value``, ``mc_std_error`` and ``z_score`` cells of one MC
    estimate against its closed-form value (no z-score without one)."""
    return [est.value, est.std_error, None if closed is None else est.z_score(closed)]


def cmd_risk(cfg: RunConfig, use_mc: bool) -> int:
    """Per-state risk report for the configured claim at each configured gamma.

    On a one-state chain the ``oracle`` column holds the one-regime formula
    d m - d^2 v / (2 gamma), from one conditional law and one loading, as an
    independent check of ``closed``; on any other chain, and for a swap, it
    is empty."""
    claim = cfg.claim
    cfg.require("chain", "ou", "claim", "gammas")
    oracle = [None] * len(cfg.gammas)
    if isinstance(claim, SwapClaim):
        if not use_mc:
            raise ConfigError("swap risk has no closed form; rerun with --mc")
        q = RiskQuery(s=0.0, T=float(claim.n_periods), x_s=cfg.ou.x0)
        closed = [[None] * cfg.chain.n] * len(cfg.gammas)
    else:
        cfg.require("horizons")
        q = RiskQuery(s=0.0, T=horizon_years(cfg.horizons_days[0]), x_s=cfg.ou.x0)
        closed = claim_risk_closed(cfg.ou, cfg.chain, [claim], [q], gammas=cfg.gammas)[0, 0].tolist()
        if cfg.chain.n == 1:
            law = conditional_law(cfg.ou, q.x_s, q.s, q.T)
            d = float(claim.loading(q.horizon)[0])
            oracle = [d * law.mean - d * d * law.variance / (2.0 * gamma) for gamma in cfg.gammas]

    header = ["gamma", "state", "closed", "oracle", "mc_value", "mc_std_error", "z_score"]
    rows: list[list] = []
    ests = None
    if use_mc:  # one payoff sample per starting state, reduced at every gamma
        ests = claim_risk_mc(cfg.ou, cfg.chain, claim, q, cfg.n_paths, cfg.seed, gammas=cfg.gammas)
    for j, gamma in enumerate(cfg.gammas):
        for state in range(cfg.chain.n):
            row: list = [gamma, state, closed[j][state], oracle[j]]
            row += [None] * 3 if ests is None else _mc_cells(ests[state][j], closed[j][state])
            rows.append(row)

    _write_table(cfg, "risk", provenance(cfg, "risk"), header, rows)
    for r in rows:
        closed_s = "" if r[2] is None else f" closed={r[2]:.6g}"
        mc_s = "" if r[4] is None else f" mc={r[4]:.6g} se={r[5]:.3g}"
        z_s = "" if r[6] is None else f" z={r[6]:.2f}"
        print(f"gamma={r[0]:g} state={r[1]}{closed_s}{mc_s}{z_s}")
    print(f"wrote {cfg.out_dir / 'risk.csv'}")
    return 0


def _write_table(cfg: RunConfig, name: str, prov: dict, header: list[str], rows: list[list]) -> None:
    """``name``.csv plus its JSON mirror {"columns": header, "rows": rows}."""
    write_csv(cfg.out_dir / f"{name}.csv", prov, header, rows)
    write_json(cfg.out_dir / f"{name}.json", prov, {"columns": header, "rows": rows})


def cmd_sweep(cfg: RunConfig, use_mc: bool) -> int:
    """Risk per (horizon, gamma) for the starting regime, with variation rows."""
    cfg.require("chain", "ou", "claim", "gammas", "horizons")
    if isinstance(cfg.claim, SwapClaim):
        raise ConfigError("sweep supports linear and future claims (swaps fix their own schedule)")
    # one closed-form pass over every horizon; cells[i, j] is horizon i, gamma j
    queries = [RiskQuery(s=0.0, T=horizon_years(hd), x_s=cfg.ou.x0) for hd in cfg.horizons_days]
    cells = claim_risk_closed(cfg.ou, cfg.chain, [cfg.claim], queries, gammas=cfg.gammas)[:, 0, :, cfg.z0]
    mc_rows: list[list] = []
    if use_mc:
        for i, (hd, q) in enumerate(zip(cfg.horizons_days, queries)):
            # one payoff sample for the starting regime, reduced at every gamma
            ests = claim_risk_mc(
                cfg.ou, cfg.chain, cfg.claim, q, cfg.n_paths, cfg.seed,
                gammas=cfg.gammas, states=[cfg.z0],
            )[0]
            for j, (gamma, est) in enumerate(zip(cfg.gammas, ests)):
                mc = _mc_cells(est, cells[i, j])
                mc_rows.append([hd, gamma, cells[i, j], *mc, abs(mc[2]) > 3.0])

    # variation rows: the change from the first to the last horizon, absolute
    # and in percent of the first-horizon magnitude (None when that is ~0 or
    # there is a single horizon)
    var_abs: list[float | None] = [None] * len(cfg.gammas)
    var_pct: list[float | None] = [None] * len(cfg.gammas)
    if len(cfg.horizons_days) >= 2:
        for j, first in enumerate(cells[0]):
            var_abs[j] = float(cells[-1, j] - first)
            if abs(first) > 1e-12:
                var_pct[j] = abs(var_abs[j]) / abs(first) * 100.0
    row_labels = [f"T={h:.12g} days" for h in cfg.horizons_days]
    col_labels = [f"gamma={g:.12g}" for g in cfg.gammas]
    prov = provenance(cfg, "sweep")
    header = ["horizon"] + col_labels
    rows: list[list] = [[label] + list(cells[i]) for i, label in enumerate(row_labels)]
    rows.append(["variation_abs (last-first)"] + var_abs)
    rows.append(["variation_pct (%)"] + var_pct)
    write_csv(cfg.out_dir / "sweep.csv", prov, header, rows)
    write_json(
        cfg.out_dir / "sweep.json",
        prov,
        {
            "row_labels": row_labels,
            "col_labels": col_labels,
            "cells": cells.tolist(),
            "variation_abs": var_abs,
            "variation_pct": var_pct,
        },
    )
    if use_mc:
        mc_header = ["horizon_days", "gamma", "closed", "mc_value", "mc_std_error", "z_score", "flagged"]
        write_csv(cfg.out_dir / "sweep_mc.csv", prov, mc_header, mc_rows)
        flagged = [r for r in mc_rows if r[-1]]
        print(f"mc cross-check: {len(flagged)} of {len(mc_rows)} cells flagged (|z| > 3)")
    for r in rows:
        print(",".join("" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v)) for v in r))
    print(f"wrote {cfg.out_dir / 'sweep.csv'}")
    return 0


def cmd_yield_sweep(cfg: RunConfig) -> int:
    """Future-claim risk over evaluation time for each configured yield level."""
    cfg.require("chain", "ou", "claim", "gammas", "horizons", "yields")
    if not isinstance(cfg.claim, FutureClaim):
        raise ConfigError("yield-sweep requires a future claim")
    T = horizon_years(cfg.horizons_days[0])
    times = [k * T / cfg.n_times for k in range(cfg.n_times)]
    # one closed-form pass at the first gamma, one future per yield: every
    # time's law and expm are shared by all of them; risks[i, k] is time i, yield k
    queries = [RiskQuery(s=t, T=T, x_s=cfg.ou.x0) for t in times]
    claims = [dataclasses.replace(cfg.claim, y=y) for y in cfg.yields]
    risks = claim_risk_closed(cfg.ou, cfg.chain, claims, queries, gammas=cfg.gammas[:1])[:, :, 0, cfg.z0]
    rows = [[t, y, risk] for y, col in zip(cfg.yields, risks.T.tolist()) for t, risk in zip(times, col)]
    summary = [[t, max(row) - min(row)] for t, row in zip(times, risks.tolist())]

    prov = provenance(cfg, "yield-sweep")
    _write_table(cfg, "yield_sweep", prov, ["t_years", "yield", "risk"], rows)
    _write_table(cfg, "yield_sweep_summary", prov, ["t_years", "cross_yield_spread"], summary)
    print(
        f"spread at t={summary[0][0]:.6g}: {summary[0][1]:.6g}; "
        f"at t={summary[-1][0]:.6g}: {summary[-1][1]:.6g}"
    )
    print(f"wrote {cfg.out_dir / 'yield_sweep.csv'}")
    return 0


_COMMAND_HELP = {
    "calibrate": "fit spot-model parameters from a date,price CSV",
    "simulate": "write spot/regime (and yield) paths on a daily grid",
    "risk": "per-regime risk report; --mc adds the simulation cross-check",
    "sweep": "risk per (horizon, gamma) with variation rows",
    "yield-sweep": "future risk over time for each yield level",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regime-risk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMAND_HELP.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--paths", type=int, default=None, help="override mc.n_paths")
        p.add_argument("--out", default=None, help="override output directory")
        if name in ("risk", "sweep"):
            p.add_argument("--mc", action="store_true", help="add the Monte-Carlo cross-check")
    return parser


# built at import, which also loads what argparse loads on first use (gettext,
# locale), so that a command imports no module of its own
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            seed_override=args.seed,
            paths_override=args.paths,
            out_override=args.out,
        )
        if args.command == "calibrate":
            return cmd_calibrate(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "risk":
            return cmd_risk(cfg, args.mc)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.mc)
        if args.command == "yield-sweep":
            return cmd_yield_sweep(cfg)
    except RiskModelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
