"""Run configuration: a single JSON file with sections chain / ou / claim /
grids / mc / output, validated up front, plus the sweep-table container and
deterministic CSV/JSON writers.

Units: matrices are row-major; chain ``dt`` is in years; horizons are given
in days and converted at 252 trading days per year; gammas are in price
units; yields and rates are annualized.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .instruments import (
    ConstantYield,
    FutureClaim,
    GibsonSchwartzParams,
    LinearSpotClaim,
    SwapClaim,
)
from .ou_model import DEFAULT_DT, OUParams, TRADING_DAYS_PER_YEAR
from .regime_chain import Generator, from_transition, validate_generator


def horizon_years(days: float) -> float:
    return days / TRADING_DAYS_PER_YEAR


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    raw: dict
    path: Path | None
    chain: Generator | None
    z0: int
    ou: OUParams | None
    ou_csv: Path | None
    ou_dt: float
    claim: dict | None
    gammas: list[float]
    horizons_days: list[float]
    yields: list[float]
    n_times: int
    n_paths: int
    seed: int
    out_dir: Path

    def require(self, *sections: str) -> None:
        """Fail fast when a command needs a section the file does not provide."""
        for s in sections:
            attr, message = _REQUIREMENTS[s]
            if not getattr(self, attr):
                raise ConfigError(message)

    def build_claim(self, horizon: float):
        """Instantiate the configured claim; futures mature at ``horizon`` (years)."""
        if self.claim is None:
            raise ConfigError("no claim configured")
        c = self.claim
        kind = c["type"]
        if kind not in _CLAIM_KEYS:
            raise ConfigError(f"unknown claim type {kind!r}")
        _require_keys(c, _CLAIM_KEYS[kind], "claim")
        delta = np.asarray(c["delta"], dtype=float)
        if self.chain is not None and delta.size != self.chain.n:
            raise ConfigError(
                f"claim.delta has {delta.size} entries, chain has {self.chain.n} states"
            )
        if kind == "linear":
            return LinearSpotClaim(delta)
        if kind == "future":
            return FutureClaim(
                delta=delta,
                r=float(c["r"]),
                y=float(c["y"]),
                maturity=horizon,
            )
        spec = c["yield"]
        spec_type = _YIELD_SPECS.get(spec.get("kind"))
        if spec_type is None:
            raise ConfigError(f"unknown yield spec kind {spec.get('kind')!r}")
        keys = [f.name for f in fields(spec_type)]
        _require_keys(spec, keys, "claim.yield")
        return SwapClaim(
            rates=np.asarray(c["rates"], dtype=float),
            delta=delta,
            yield_spec=spec_type(**{k: float(spec[k]) for k in keys}),
        )


_REQUIREMENTS = {
    "chain": ("chain", "config section 'chain' is required for this command"),
    "ou": ("ou", "config section 'ou' with parameters is required"),
    "ou_csv": ("ou_csv", "config section 'ou' must name a csv file to calibrate"),
    "claim": ("claim", "config section 'claim' is required for this command"),
    "gammas": ("gammas", "config grids.gammas must be a nonempty list"),
    "horizons": ("horizons_days", "config grids.horizons_days must be a nonempty list"),
    "yields": ("yields", "config grids.yields must be a nonempty list"),
}
_CLAIM_KEYS = {"linear": ("delta",), "future": ("delta", "r", "y"), "swap": ("delta", "rates", "yield")}
_YIELD_SPECS = {"constant": ConstantYield, "gibson_schwartz": GibsonSchwartzParams}
_OU_KEYS = ("alpha", "mu", "sigma", "x0")


def _require_keys(section: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"{where} section missing key(s) {missing}")


def _integer(value, name: str) -> int:
    """An integral JSON number; 1.7 is rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _parse_chain(section: dict) -> tuple[Generator, int]:
    _require_keys(section, ("kind", "matrix"), "chain")
    kind, matrix = section["kind"], section["matrix"]
    z0 = _integer(section.get("z0", 0), "chain.z0")
    if kind == "generator":
        gen = validate_generator(np.asarray(matrix, dtype=float))
    elif kind == "transition":
        if "dt" not in section:
            raise ConfigError("chain.kind 'transition' requires chain.dt (years)")
        gen = from_transition(np.asarray(matrix, dtype=float), float(section["dt"]))
    else:
        raise ConfigError(f"chain.kind must be 'generator' or 'transition', got {kind!r}")
    if not 0 <= z0 < gen.n:
        raise ConfigError(f"chain.z0={z0} outside [0, {gen.n})")
    return gen, z0


def _parse_ou(section: dict, base: Path) -> tuple[OUParams | None, Path | None, float]:
    dt = float(section.get("dt", DEFAULT_DT))
    params, csv_path = section, None
    if "params_file" in section:
        pf = (base / section["params_file"]).resolve()
        if not pf.exists():
            raise ConfigError(f"ou.params_file does not exist: {pf}")
        payload = json.loads(pf.read_text())
        payload = payload.get("data", payload)
        params = payload.get("params", payload)
        _require_keys(params, _OU_KEYS, "ou.params_file params")
    elif "csv" in section:
        csv_path = (base / section["csv"]).resolve()
        if not csv_path.exists():
            raise ConfigError(f"ou.csv does not exist: {csv_path}")
        if not all(k in section for k in _OU_KEYS):
            return None, csv_path, dt
    elif not all(k in section for k in _OU_KEYS):
        raise ConfigError("ou section needs (alpha, mu, sigma, x0), params_file, or csv")
    return OUParams(**{k: float(params[k]) for k in _OU_KEYS}), csv_path, dt


def _finite_grid(grids: dict, key: str) -> list[float]:
    values = [float(x) for x in grids.get(key, [])]
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"grids.{key} must be finite, got {values}")
    return values


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    paths_override: int | None = None,
    out_override: str | None = None,
) -> RunConfig:
    """Load and validate a run configuration, applying CLI overrides.

    Every section present in the file is validated immediately; commands
    additionally call :meth:`RunConfig.require` for the sections they need.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    base = path.parent

    chain, z0 = (None, 0)
    if "chain" in raw:
        chain, z0 = _parse_chain(raw["chain"])
    ou = ou_csv = None
    ou_dt = DEFAULT_DT
    if "ou" in raw:
        ou, ou_csv, ou_dt = _parse_ou(raw["ou"], base)
    claim = raw.get("claim")
    if claim is not None and "type" not in claim:
        raise ConfigError("claim section requires a 'type' key")
    grids = raw.get("grids", {})
    gammas = _finite_grid(grids, "gammas")
    horizons = _finite_grid(grids, "horizons_days")
    yields = _finite_grid(grids, "yields")
    n_times = _integer(grids.get("n_times", 16), "grids.n_times")
    if any(gm <= 0 for gm in gammas):
        raise ConfigError("grids.gammas must be positive")
    if any(h <= 0 for h in horizons):
        raise ConfigError("grids.horizons_days must be positive")
    if n_times < 2:
        raise ConfigError("grids.n_times must be at least 2")

    mc = raw.get("mc", {})
    n_paths = _integer(mc.get("n_paths", 10_000), "mc.n_paths")
    seed = _integer(mc.get("seed", 0), "mc.seed")
    if paths_override is not None:
        n_paths = int(paths_override)
    if seed_override is not None:
        seed = int(seed_override)
    if n_paths < 2:
        raise ConfigError("mc.n_paths must be at least 2")
    if seed < 0:
        raise ConfigError("mc.seed must be a nonnegative integer")

    out_dir = Path(out_override) if out_override else base / raw.get("output", {}).get("dir", "out")

    effective = json.loads(json.dumps(raw))
    effective.setdefault("mc", {})
    effective["mc"]["n_paths"] = n_paths
    effective["mc"]["seed"] = seed

    cfg = RunConfig(
        raw=effective,
        path=path,
        chain=chain,
        z0=z0,
        ou=ou,
        ou_csv=ou_csv,
        ou_dt=ou_dt,
        claim=claim,
        gammas=gammas,
        horizons_days=horizons,
        yields=yields,
        n_times=n_times,
        n_paths=n_paths,
        seed=seed,
        out_dir=out_dir,
    )
    if claim is not None:
        cfg.build_claim(1.0)  # every claim field is checked up front, whatever the command
    return cfg


# ---------------------------------------------------------------------------
# Sweep table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepTable:
    """Risk per (horizon row, gamma column) plus variation rows.

    The variation rows hold the change from the first to the last horizon:
    absolute, and percent of the first-horizon magnitude (None when the
    reference is ~0 or there is a single horizon).
    """

    row_labels: list[str]
    col_labels: list[str]
    cells: np.ndarray
    variation_abs: list[float | None] = field(default_factory=list)
    variation_pct: list[float | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=float)
        if cells.shape != (len(self.row_labels), len(self.col_labels)):
            raise ConfigError(
                f"sweep table is not rectangular: {cells.shape} vs "
                f"{len(self.row_labels)}x{len(self.col_labels)}"
            )
        if not np.all(np.isfinite(cells)):
            raise ConfigError("sweep table has non-finite cells")
        object.__setattr__(self, "cells", cells)


def make_sweep_table(
    horizons_days: list[float], gammas: list[float], cells: np.ndarray
) -> SweepTable:
    cells = np.asarray(cells, dtype=float)
    n_h = len(horizons_days)
    var_abs: list[float | None] = [None] * len(gammas)
    var_pct: list[float | None] = [None] * len(gammas)
    if n_h >= 2:
        first, last = cells[0], cells[-1]
        for j in range(len(gammas)):
            diff = float(last[j] - first[j])
            var_abs[j] = diff
            if abs(first[j]) > 1e-12:
                var_pct[j] = abs(diff) / abs(first[j]) * 100.0
    return SweepTable(
        row_labels=[f"T={_fmt(h)} days" for h in horizons_days],
        col_labels=[f"gamma={_fmt(g)}" for g in gammas],
        cells=cells,
        variation_abs=var_abs,
        variation_pct=var_pct,
    )


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def config_hash(effective_raw: dict) -> str:
    canon = json.dumps(effective_raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def provenance(cfg: RunConfig, command: str) -> dict:
    from . import __version__

    return {
        "tool": "regime-risk",
        "version": __version__,
        "command": command,
        "config_sha256": config_hash(cfg.raw),
        "seed": cfg.seed,
        "n_paths": cfg.n_paths,
        "days_per_year": TRADING_DAYS_PER_YEAR,
    }


def write_csv(path: Path, prov: dict, header: list[str], rows: list[list]) -> None:
    """RFC-4180 table preceded by '#'-prefixed provenance comment lines.

    All formatting is locale-free and deterministic, so identical inputs
    produce byte-identical files.
    """
    lines = [f"# {k}={prov[k]}" for k in sorted(prov)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_field(_fmt(v)) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\r\n".join(lines) + "\r\n")


def _csv_field(s: str) -> str:
    if any(ch in s for ch in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def write_json(path: Path, prov: dict, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"provenance": prov, "data": data}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
