"""Run configuration: a single JSON file with sections chain / ou / claim /
grids / mc / output, parsed once into typed values and validated up front,
plus deterministic CSV/JSON writers.

Units: matrices are row-major; chain ``dt`` is in years; horizons are given
in days and converted at 252 trading days per year; gammas are in price
units; yields and rates are annualized.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, LengthMismatch, read_text
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
    chain: Generator | None
    z0: int
    ou: OUParams | None
    ou_csv: Path | None
    ou_dt: float
    claim: LinearSpotClaim | FutureClaim | SwapClaim | None
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


def _number(value, path: str, depth: int = 0, integer: bool = False):
    """Read a config number (depth 0), list of numbers (1) or matrix (2).

    Bools, strings, null, NaN and infinities raise ConfigError naming the
    key path, e.g. ``claim.rates[1]``, as do ragged matrix rows.  With
    ``integer`` a non-integral value such as 1.7 is rejected rather than
    truncated.
    """
    if depth:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        out = [_number(v, f"{path}[{i}]", depth - 1, integer) for i, v in enumerate(value)]
        if depth == 2 and len({len(row) for row in out}) > 1:
            raise ConfigError(f"{path} rows differ in length")
        return out
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if integer and not float(value).is_integer():
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return int(value) if integer else float(value)


def _text(value, path: str) -> str:
    """Read a config string; anything else raises ConfigError naming the key path."""
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _section(parent: dict, path: str) -> dict | None:
    """The JSON object at the last key of ``path``, or None when that key is absent."""
    key = path.rsplit(".", 1)[-1]
    if key not in parent:
        return None
    if not isinstance(parent[key], dict):
        raise ConfigError(f"{path} must be a JSON object, got {parent[key]!r}")
    return parent[key]


def _read_json(path: Path) -> dict:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


def _parse_chain(section: dict) -> tuple[Generator, int]:
    _require_keys(section, ("kind", "matrix"), "chain")
    kind = _text(section["kind"], "chain.kind")
    matrix = np.asarray(_number(section["matrix"], "chain.matrix", depth=2))
    z0 = _number(section.get("z0", 0), "chain.z0", integer=True)
    if kind == "generator":
        gen = validate_generator(matrix)
    elif kind == "transition":
        if "dt" not in section:
            raise ConfigError("chain.kind 'transition' requires chain.dt (years)")
        gen = from_transition(matrix, _number(section["dt"], "chain.dt"))
    else:
        raise ConfigError(f"chain.kind must be 'generator' or 'transition', got {kind!r}")
    if not 0 <= z0 < gen.n:
        raise ConfigError(f"chain.z0={z0} outside [0, {gen.n})")
    return gen, z0


def _parse_ou(section: dict, base: Path) -> tuple[OUParams | None, Path | None, float]:
    dt = _number(section.get("dt", DEFAULT_DT), "ou.dt")
    if dt <= 0:
        raise ConfigError(f"ou.dt must be positive, got {dt}")
    params, where, csv_path = section, "ou", None
    if "params_file" in section:
        pf = (base / _text(section["params_file"], "ou.params_file")).resolve()
        params, where = _read_json(pf), "ou.params_file params"
        for key in ("data", "params"):
            inner = _section(params, f"ou.params_file.{key}")
            params = params if inner is None else inner
        _require_keys(params, _OU_KEYS, where)
    elif "csv" in section:
        csv_path = (base / _text(section["csv"], "ou.csv")).resolve()
        if not csv_path.exists():
            raise ConfigError(f"ou.csv does not exist: {csv_path}")
        if not all(k in section for k in _OU_KEYS):
            return None, csv_path, dt
    elif not all(k in section for k in _OU_KEYS):
        raise ConfigError("ou section needs (alpha, mu, sigma, x0), params_file, or csv")
    return OUParams(**{k: _number(params[k], f"{where}.{k}") for k in _OU_KEYS}), csv_path, dt


def _parse_claim(c: dict, n_states: int | None) -> LinearSpotClaim | FutureClaim | SwapClaim:
    """The typed claim; a future matures at whatever horizon a query evaluates."""
    _require_keys(c, ("type",), "claim")
    kind = _text(c["type"], "claim.type")
    if kind not in _CLAIM_KEYS:
        raise ConfigError(f"unknown claim type {kind!r}")
    _require_keys(c, _CLAIM_KEYS[kind], "claim")
    delta = _number(c["delta"], "claim.delta", depth=1)
    if n_states is not None and len(delta) != n_states:
        raise ConfigError(f"claim.delta has {len(delta)} entries, chain has {n_states} states")
    if kind == "linear":
        return LinearSpotClaim(delta)
    if kind == "future":
        return FutureClaim(delta=delta, r=_number(c["r"], "claim.r"), y=_number(c["y"], "claim.y"))
    spec = _section(c, "claim.yield")
    spec_type = _YIELD_SPECS.get(_text(spec.get("kind"), "claim.yield.kind"))
    if spec_type is None:
        raise ConfigError(f"unknown yield spec kind {spec['kind']!r}")
    keys = [f.name for f in fields(spec_type)]
    _require_keys(spec, keys, "claim.yield")
    return SwapClaim(
        rates=_number(c["rates"], "claim.rates", depth=1),
        delta=delta,
        yield_spec=spec_type(**{k: _number(spec[k], f"claim.yield.{k}") for k in keys}),
    )


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    paths_override: int | None = None,
    out_override: str | None = None,
) -> RunConfig:
    """Load and validate a run configuration, applying CLI overrides.

    Every section present in the file is parsed and validated immediately,
    whatever the command; commands additionally call
    :meth:`RunConfig.require` for the sections they need.
    """
    path = Path(path)
    raw = _read_json(path)
    base = path.parent

    chain, z0 = (None, 0)
    if (section := _section(raw, "chain")) is not None:
        chain, z0 = _parse_chain(section)
    ou = ou_csv = None
    ou_dt = DEFAULT_DT
    if (section := _section(raw, "ou")) is not None:
        ou, ou_csv, ou_dt = _parse_ou(section, base)
    claim = None
    if (section := _section(raw, "claim")) is not None:
        claim = _parse_claim(section, None if chain is None else chain.n)
    grids = _section(raw, "grids") or {}
    gammas = _number(grids.get("gammas", []), "grids.gammas", depth=1)
    horizons = _number(grids.get("horizons_days", []), "grids.horizons_days", depth=1)
    yields = _number(grids.get("yields", []), "grids.yields", depth=1)
    n_times = _number(grids.get("n_times", 16), "grids.n_times", integer=True)
    if any(gm <= 0 for gm in gammas):
        raise ConfigError("grids.gammas must be positive")
    if any(h <= 0 for h in horizons):
        raise ConfigError("grids.horizons_days must be positive")
    if n_times < 2:
        raise ConfigError("grids.n_times must be at least 2")

    mc = _section(raw, "mc") or {}
    n_paths = _number(mc.get("n_paths", 10_000), "mc.n_paths", integer=True)
    seed = _number(mc.get("seed", 0), "mc.seed", integer=True)
    if paths_override is not None:
        n_paths = int(paths_override)
    if seed_override is not None:
        seed = int(seed_override)
    if n_paths < 2:
        raise ConfigError("mc.n_paths must be at least 2")
    if not 0 <= seed < 1 << 64:
        # the Philox key holds the seed in one 64-bit word
        raise ConfigError(f"mc.seed must be an integer in [0, 2**64), got {seed}")

    output = _section(raw, "output") or {}
    out_dir = base / _text(output.get("dir", "out"), "output.dir")
    out_dir = Path(out_override) if out_override else out_dir

    effective = json.loads(json.dumps(raw))
    effective.setdefault("mc", {})
    effective["mc"]["n_paths"] = n_paths
    effective["mc"]["seed"] = seed

    return RunConfig(
        raw=effective,
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


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    s = str(v)
    if any(ch in s for ch in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


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


def _csv_template(rows: list[list]) -> tuple[str, list[int]]:
    """One ``%`` template for every row, and the columns it leaves to :func:`_fmt`.

    A column of floats takes ``%.12g`` and a column of ints (never bools)
    ``%d``, which is what :func:`_fmt` writes for each of their cells; any
    other column (labels, ``None``, bools) goes through ``_fmt`` cell by cell.
    """
    specs, mixed = [], []
    for j, column in enumerate(zip(*rows)):
        types = set(map(type, column))
        if all(issubclass(t, float) for t in types):
            specs.append("%.12g")
        elif types == {int}:
            specs.append("%d")
        else:
            specs.append("%s")
            mixed.append(j)
    return ",".join(specs), mixed


def write_csv(path: Path, prov: dict, header: list[str], rows) -> None:
    """RFC-4180 table preceded by '#'-prefixed provenance comment lines.

    ``rows`` is a list of lists or tuples, one cell per header column.  All
    formatting is locale-free and deterministic, so identical inputs produce
    byte-identical files.  Each row is formatted by one ``%`` template chosen
    from its columns' types; the bytes are those of formatting every cell
    with :func:`_fmt`.
    """
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise LengthMismatch(f"{path.name} row {i} has {len(row)} cells, header has {len(header)}")
    template, mixed = _csv_template(rows)
    lines = [f"# {k}={prov[k]}" for k in sorted(prov)]
    lines.append(",".join(header))
    if mixed:
        for row in rows:
            cells = list(row)
            for j in mixed:
                cells[j] = _fmt(cells[j])
            lines.append(template % tuple(cells))
    else:
        # ``tuple`` returns a tuple row itself, not a copy
        lines += map(template.__mod__, map(tuple, rows))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\r\n".join(lines) + "\r\n")


@functools.lru_cache(maxsize=None)
def _flat_encoder(indent: str):
    """The C encoder's ``encode`` with the indented encoder's item separator at ``indent``."""
    return json.JSONEncoder(separators=(",\n" + indent, ": ")).encode


def _is_flat(values) -> bool:
    return not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values)))


def _json_rows(rows, indent: str) -> str | None:
    """The items of a list of nonempty flat rows ``indent`` deep, as
    :func:`_json` writes them, from one C-encoder call; None for any other list.

    The encoder writes every cell of every row with the rows' item separator
    between them, and the result is split back on it: a JSON scalar never
    holds a raw newline, so never the separator.
    """
    if not all(isinstance(row, (list, tuple)) and row for row in rows):
        return None
    cells = [cell for row in rows for cell in row]
    if not _is_flat(cells):
        return None
    inner = indent + "  "
    sep = ",\n" + inner
    encoded = _flat_encoder(inner)(cells)[1:-1].split(sep)
    out, k = [], 0
    for row in rows:
        out.append(f"[\n{inner}{sep.join(encoded[k:k + len(row)])}\n{indent}]")
        k += len(row)
    return (",\n" + indent).join(out)


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value ``indent`` deep.

    A flat list of scalars goes through the C encoder in one call, with the
    separators the indented (pure-Python) encoder would write between its
    items, and so does a list of nonempty flat rows (:func:`_json_rows`).
    Dicts, and other lists that hold containers, recurse here.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # the C encoder turns the key into its JSON string as json.dumps does
        items = (json.dumps({k: 0})[1:-4] + ": " + _json(v, inner) for k, v in sorted(value.items()))
        opening, body, closing = "{", (",\n" + inner).join(items), "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _is_flat(value):
            body = _flat_encoder(inner)(value)[1:-1]
        else:
            body = _json_rows(value, inner)
            if body is None:
                body = (",\n" + inner).join(_json(v, inner) for v in value)
        opening, closing = "[", "]"
    else:
        return json.dumps(value)
    return f"{opening}\n{inner}{body}\n{indent}{closing}"


def write_json(path: Path, prov: dict, data) -> None:
    """``{"provenance": prov, "data": data}`` as ``json.dumps(..., sort_keys=True,
    indent=2)`` writes it, byte for byte, plus a final newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json({"provenance": prov, "data": data}) + "\n")
