"""The two workloads: seeded input generators, references, and output checks.

Every input is a pure function of the benchmark seed.  References are computed
here, from the model's formulas, by code that shares nothing with the package
beyond numpy/scipy: the closed form (matrix exponential mixed with Gaussian
moments), the OLS calibration, and an independent swap simulator that moves
the chain with ``expm(Q dt)`` instead of the package's holding-time kernel.

Checks, per operation (an operation is one CLI command):

* an exception, a nonzero exit, a missing output file, or a non-finite value
  or standard error fails the operation;
* closed-form cells must match the reference within ``CLOSED_RTOL``;
* an MC cell fails on a gross error: ``|z| > Z_GROSS`` against the closed form
  (against the reference estimate and both standard errors for swaps).
  ``Z_GROSS`` is fixed here, not tuned per seed.  It is wide because the
  plain entropic estimator understates its standard error at small gamma
  (on the shipped config at 1e5 paths, 384 cells over 12 seeds gave max
  |z| = 3.9; ``mc_cli`` at ``CLI_PATHS``, 1600 cells over 40 seeds, 5.8), so
  only a wrong estimator crosses it.  The largest |z| is reported as a
  diagnostic.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import expm

CLOSED_RTOL = 1e-9
MIN_PASSES = 3
Z_GROSS = 10.0
DAYS_PER_YEAR = 252.0
# Paths per MC call: a tenth of the shipped config's 1e5, so that a command
# takes about a second and a run times each command many times.
CLI_PATHS = 10_000


@dataclass
class Op:
    """One child process in ``mode`` with ``args``, which must write ``outputs``."""

    label: str
    mode: str
    args: list[str]
    outputs: list[str] = field(default_factory=list)


@dataclass
class Check:
    """Failures keyed by the unit (call or cell) they belong to, and |z| values."""

    failures: dict[str, str] = field(default_factory=dict)
    z: list[float] = field(default_factory=list)

    def fail(self, msg: str, unit: str = "") -> None:
        self.failures.setdefault(unit or msg, msg)

    def closed(self, where: str, got: float, ref: float) -> None:
        if not math.isfinite(got) or abs(got - ref) > CLOSED_RTOL * max(1.0, abs(ref)):
            self.fail(f"{where}: closed form {got!r} != reference {ref!r}", f"{where} closed")

    def mc(self, where: str, value: float, se: float, ref: float, ref_se: float = 0.0) -> None:
        if not (math.isfinite(value) and math.isfinite(se)):
            self.fail(f"{where}: non-finite estimate {value!r} se {se!r}", f"{where} mc")
            return
        scale = math.hypot(se, ref_se)
        z = (value - ref) / scale if scale > 0 else (0.0 if value == ref else math.inf)
        self.z.append(abs(z))
        if abs(z) > Z_GROSS:
            self.fail(f"{where}: |z|={abs(z):.2f} > {Z_GROSS} (mc {value!r}, reference {ref!r})", f"{where} mc")


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def ou_step(alpha: float, mu: float, sigma: float, h: float) -> tuple[float, float, float]:
    b = math.exp(-alpha * h)
    return b, mu * (1.0 - b), math.sqrt(sigma**2 / (2.0 * alpha) * (1.0 - b * b))


def closed_risks(q, ou: dict, delta, gamma: float, s: float, T: float, x_s: float) -> np.ndarray:
    """Per-start-state entropic risk of X_T delta[Z_T] (delta already carry-scaled)."""
    delta = np.asarray(delta, dtype=float)
    b, c, sd = ou_step(ou["alpha"], ou["mu"], ou["sigma"], T - s)
    m, v = x_s * b + c, sd * sd
    logphi = -delta * m / gamma + delta**2 * v / (2.0 * gamma**2)
    P = np.maximum(expm(np.asarray(q, dtype=float) * (T - s)), 0.0)
    risks = np.empty(delta.size)
    for i in range(delta.size):
        reach = P[:, i] > 0.0
        shift = logphi[reach].max()
        risks[i] = -gamma * (shift + math.log(P[reach, i] @ np.exp(logphi[reach] - shift)))
    return risks


def future_scale(r: float, y: float, h: float) -> float:
    return math.exp(-(r + y) * h)


def future_risks(q, cfg: dict, gamma: float, s: float, T: float, y: float | None = None) -> np.ndarray:
    """Closed-form risks of the config's future claim maturing at T, seen from s."""
    claim, ou = cfg["claim"], cfg["ou"]
    delta = np.asarray(claim["delta"]) * future_scale(claim["r"], claim["y"] if y is None else y, T - s)
    return closed_risks(q, ou, delta, gamma, s, T, ou["x0"])


def entropic(samples: np.ndarray, gamma: float) -> tuple[float, float]:
    logw = -samples / gamma
    shift = logw.max()
    w = np.exp(logw - shift)
    value = -gamma * (shift + math.log(w.mean()))
    return value, gamma * w.std(ddof=1) / (w.mean() * math.sqrt(w.size))


def swap_samples(cfg: dict, state: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Swap values W on yearly settlements, simulated independently of the package.

    The chain moves by ``expm(Q)`` per yearly step; spot and yield take exact
    correlated Gaussian steps, as in the model.
    """
    ou, gs, claim = cfg["ou"], cfg["claim"]["yield"], cfg["claim"]
    q = np.asarray(cfg["chain"]["matrix"], dtype=float)
    rates, delta = np.asarray(claim["rates"]), np.asarray(claim["delta"])
    n_per = rates.size
    cum = np.cumsum(np.maximum(expm(q), 0.0), axis=0)
    cum[-1] = 1.0
    bx, cx, sdx = ou_step(ou["alpha"], ou["mu"], ou["sigma"], 1.0)
    level = gs["y_bar"] - gs["lambda_y"] / gs["kappa"] - gs["lambda_y"]
    by, cy, sdy = ou_step(gs["kappa"], level, gs["sigma_y"], 1.0)
    rate = ou["alpha"] + gs["kappa"]
    cov = gs["rho"] * ou["sigma"] * gs["sigma_y"] * (1.0 - math.exp(-rate)) / rate
    corr = float(np.clip(cov / (sdx * sdy), -1.0, 1.0))
    x = np.full(n, ou["x0"])
    y = np.full(n, gs["y0"])
    z = np.full(n, state)
    w = np.zeros(n)
    for k in range(n_per):
        e1 = rng.standard_normal(n)
        e2 = corr * e1 + math.sqrt(1.0 - corr * corr) * rng.standard_normal(n)
        x = bx * x + cx + sdx * e1
        y = by * y + cy + sdy * e2
        z = (rng.random(n)[None, :] < cum[:, z]).argmax(axis=0)
        w += math.exp(-rates[k]) * x * (np.exp(y * delta[z] * (k + 1 - n_per)) - 1.0)
    return w


def ols_fit(prices: np.ndarray, step: float) -> dict:
    x0, x1 = prices[:-1], prices[1:]
    design = np.column_stack([np.ones(x0.size), x0])
    (c, b), *_ = np.linalg.lstsq(design, x1, rcond=None)
    resid = x1 - design @ np.array([c, b])
    s2 = resid @ resid / (x0.size - 2)
    alpha = -math.log(b) / step
    return {
        "alpha": alpha,
        "mu": c / (1.0 - b),
        "sigma": math.sqrt(s2 * 2.0 * alpha / (1.0 - b * b)),
        "x0": float(prices[0]),
    }


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def num(s: str) -> float | None:
    return None if s == "" else float(s)


def finite_table(chk: Check, path: Path) -> tuple[list[str], list[list[str]]]:
    header, rows = read_table(path)
    for r in rows:
        for v in r[1:]:
            if v not in ("", "True", "False") and not math.isfinite(float(v)):
                chk.fail(f"{path.name}: non-finite value {v!r}")
                return header, rows
    return header, rows


def check_sweep(chk: Check, out: Path, q, cfg: dict) -> None:
    """Every cell of sweep.csv against the closed form at the config's z0."""
    _, rows = finite_table(chk, out / "sweep.csv")
    z0 = cfg["chain"]["z0"]
    for i, hd in enumerate(cfg["grids"]["horizons_days"]):
        for j, gamma in enumerate(cfg["grids"]["gammas"]):
            ref = future_risks(q, cfg, gamma, 0.0, hd / DAYS_PER_YEAR)[z0]
            chk.closed(f"sweep T={hd} gamma={gamma}", num(rows[i][j + 1]), ref)


def shipped_config(root: Path) -> dict:
    return json.loads((root / "configs" / "crude_oil.json").read_text())


def transition_generator(chain: dict) -> np.ndarray:
    p = np.asarray(chain["matrix"], dtype=float)
    return (p - np.eye(p.shape[0])).T / chain["dt"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CrudeMC:
    """``risk --mc`` then ``sweep --mc`` on the shipped crude-oil config, at
    ``CLI_PATHS`` paths.

    Why: the users' reference run and the ROADMAP's baseline.  Its fast chain
    makes the regime kernel nearly all of the time, and it simulates 48
    per-state streams where 6 reach an output, so both a kernel change and a
    simulate-once change show here.  It keeps the shipped MC seed, so its
    work is the same on every run: the seed sets the kernel's round count,
    which moves by about 5% from one seed to another.  The benchmark seed
    varies the swap part and ``light_cli``.
    """

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        self.config = root / "configs" / "crude_oil.json"
        self.raw = shipped_config(root)
        self.q = transition_generator(self.raw["chain"])

    def setup_config(self) -> Path:
        return self.config

    def ops(self, out: Path) -> list[Op]:
        common = [
            "--config", str(self.config), "--mc", "--paths", str(CLI_PATHS), "--out", str(out),
        ]
        return [
            Op("risk --mc", "cli", ["risk"] + common, ["risk.csv", "risk.json"]),
            Op("sweep --mc", "cli", ["sweep"] + common, ["sweep.csv", "sweep.json", "sweep_mc.csv"]),
        ]

    def _ref(self, hd: float, gamma: float) -> np.ndarray:
        return future_risks(self.q, self.raw, gamma, 0.0, hd / DAYS_PER_YEAR)

    def check(self, op: Op, out: Path) -> Check:
        chk = Check()
        grids = self.raw["grids"]
        z0 = self.raw["chain"]["z0"]
        if op.label == "risk --mc":
            _, rows = finite_table(chk, out / "risk.csv")
            for r in rows:
                gamma, state = float(r[0]), int(r[1])
                ref = self._ref(grids["horizons_days"][0], gamma)[state]
                chk.closed(f"risk gamma={gamma} state={state}", num(r[2]), ref)
                chk.mc(f"risk gamma={gamma} state={state}", num(r[4]), num(r[5]), ref)
            if len(rows) != len(grids["gammas"]) * len(self.raw["claim"]["delta"]):
                chk.fail(f"risk.csv has {len(rows)} rows")
        else:
            check_sweep(chk, out, self.q, self.raw)
            _, rows = finite_table(chk, out / "sweep_mc.csv")
            for r in rows:
                hd, gamma = float(r[0]), float(r[1])
                ref = self._ref(hd, gamma)[z0]
                chk.closed(f"sweep_mc T={hd} gamma={gamma}", num(r[2]), ref)
                chk.mc(f"sweep_mc T={hd} gamma={gamma}", num(r[3]), num(r[4]), ref)
            if len(rows) != len(grids["horizons_days"]) * len(grids["gammas"]):
                chk.fail(f"sweep_mc.csv has {len(rows)} rows")
        return chk


class SwapMC:
    """``risk --mc`` on a generated swap with a Gibson-Schwartz yield.

    Why: the regime kernel runs as many short per-settlement advances instead
    of one long one, next to correlated yield draws, ``swap_value`` and
    (periods x paths) arrays, so a change that trades memory for time shows in
    peak RSS.  Gammas are multiples of the payoff sd from a pilot run, keeping
    the exponent sd at most 1.  Every state leaves at the same rate, with
    seeded jump targets, so the kernel's round count does not swing with the
    seed.
    """

    exit_rate = 2.0
    n_ref = 200_000

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        n = 4
        q = rng.uniform(0.2, 1.0, size=(n, n))
        np.fill_diagonal(q, 0.0)
        q *= self.exit_rate / q.sum(axis=0)
        np.fill_diagonal(q, -self.exit_rate)
        periods = 8
        cfg = {
            "chain": {"kind": "generator", "matrix": q.tolist(), "z0": 0},
            "ou": {
                "alpha": float(rng.uniform(1.0, 4.0)),
                "mu": float(rng.uniform(40.0, 60.0)),
                "sigma": float(rng.uniform(8.0, 16.0)),
                "x0": float(rng.uniform(40.0, 60.0)),
            },
            "claim": {
                "type": "swap",
                "rates": (float(rng.uniform(0.01, 0.05)) * np.arange(1, periods + 1)).tolist(),
                "delta": rng.uniform(0.5, 1.5, size=n).tolist(),
                "yield": {
                    "kind": "gibson_schwartz",
                    "kappa": float(rng.uniform(0.5, 2.0)),
                    "y_bar": float(rng.uniform(0.02, 0.08)),
                    "sigma_y": float(rng.uniform(0.02, 0.08)),
                    "rho": float(rng.uniform(-0.6, 0.6)),
                    "lambda_y": float(rng.uniform(-0.01, 0.01)),
                    "y0": float(rng.uniform(0.0, 0.1)),
                },
            },
            "grids": {"horizons_days": [DAYS_PER_YEAR * periods]},
            "mc": {"n_paths": CLI_PATHS, "seed": int(rng.integers(0, 2**31))},
        }
        pilot_sd = float(swap_samples(cfg, 0, 20_000, rng).std())
        cfg["grids"]["gammas"] = [float(f"{pilot_sd * m:.4g}") for m in (1.0, 2.0, 4.0, 8.0)]
        self.cfg = cfg
        self.config = work / "swap.json"
        self.config.write_text(json.dumps(cfg, indent=2))
        self.refs = {}
        for state in range(n):
            w = swap_samples(cfg, state, self.n_ref, rng)
            for gamma in cfg["grids"]["gammas"]:
                self.refs[(gamma, state)] = entropic(w, gamma)

    def setup_config(self) -> Path:
        return self.config

    def ops(self, out: Path) -> list[Op]:
        args = ["risk", "--config", str(self.config), "--mc", "--out", str(out)]
        return [Op("risk --mc", "cli", args, ["risk.csv", "risk.json"])]

    def check(self, op: Op, out: Path) -> Check:
        chk = Check()
        _, rows = finite_table(chk, out / "risk.csv")
        for r in rows:
            gamma, state = float(r[0]), int(r[1])
            ref, ref_se = self.refs[(gamma, state)]
            chk.mc(f"swap gamma={gamma} state={state}", num(r[4]), num(r[5]), ref, ref_se)
        if len(rows) != len(self.refs):
            chk.fail(f"risk.csv has {len(rows)} rows, expected {len(self.refs)}")
        return chk


class LightCLI:
    """Every CLI command without MC: dense ``sweep`` and ``yield-sweep`` grids
    over the shipped chain, ``simulate`` on a long daily grid with a stochastic
    yield, and ``calibrate`` on a generated price CSV.

    Why: the only workload where ``matrix_exp``, the closed-form pipeline, the
    writers and calibration do the work; they are under 0.1% of the MC
    workloads.  The grids give 32 x 32 + 16 x 64 = 2048 closed-form calls.
    """

    name = "light_cli"
    min_passes = MIN_PASSES
    n_days_sim = 5_000
    n_prices = 5_040

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        shipped = shipped_config(root)
        self.q = transition_generator(shipped["chain"])
        n = self.q.shape[0]
        # The shipped chain has two closed classes, {0, 1} left at 63/yr and
        # {2, 3} at 189/yr, and simulate's cost follows the jump count, so z0
        # is drawn from the class of the shipped z0 only.
        chain = dict(shipped["chain"], z0=int(rng.integers(0, 2)))
        self.sweep_cfg = {
            "chain": chain,
            "ou": shipped["ou"],
            "claim": {
                "type": "future",
                "delta": rng.uniform(0.5, 1.5, size=n).tolist(),
                "r": float(rng.uniform(0.0, 0.05)),
                "y": float(rng.uniform(0.0, 0.1)),
            },
            "grids": {
                "horizons_days": np.sort(rng.uniform(5.0, 250.0, 32)).round(3).tolist(),
                "gammas": np.sort(np.exp(rng.uniform(math.log(0.5), math.log(50.0), 32))).round(4).tolist(),
                "yields": np.sort(rng.uniform(-0.05, 0.2, 16)).round(4).tolist(),
                "n_times": 64,
            },
        }
        ou = {
            "alpha": float(rng.uniform(3.0, 8.0)),
            "mu": float(rng.uniform(40.0, 60.0)),
            "sigma": float(rng.uniform(5.0, 15.0)),
        }
        ou["x0"] = ou["mu"]
        self.prices = self._prices(ou, rng)
        with (work / "prices.csv").open("w") as fh:
            fh.write("date,price\n")
            day = dt.date(2000, 1, 3)
            for p in self.prices:
                fh.write(f"{day.isoformat()},{float(p)!r}\n")
                day += dt.timedelta(days=3 if day.weekday() == 4 else 1)
        self.sim_cfg = {
            "chain": chain,
            "ou": dict(ou, csv="prices.csv", dt=1.0 / DAYS_PER_YEAR),
            "claim": {
                "type": "swap",
                "rates": [0.03, 0.06],
                "delta": [1.0] * n,
                "yield": {
                    "kind": "gibson_schwartz",
                    "kappa": float(rng.uniform(0.5, 2.0)),
                    "y_bar": float(rng.uniform(0.02, 0.08)),
                    "sigma_y": float(rng.uniform(0.02, 0.08)),
                    "rho": float(rng.uniform(-0.6, 0.6)),
                    "lambda_y": 0.0,
                    "y0": float(rng.uniform(0.0, 0.1)),
                },
            },
            "grids": {"horizons_days": [float(self.n_days_sim)]},
            "mc": {"seed": int(rng.integers(0, 2**31))},
        }
        self.sweep_path = work / "light_sweep.json"
        self.sim_path = work / "light_sim.json"
        self.sweep_path.write_text(json.dumps(self.sweep_cfg, indent=2))
        self.sim_path.write_text(json.dumps(self.sim_cfg, indent=2))

    def _prices(self, ou: dict, rng: np.random.Generator) -> np.ndarray:
        """Exact OU transitions on the daily grid, starting at the mean."""
        b, c, sd = ou_step(ou["alpha"], ou["mu"], ou["sigma"], 1.0 / DAYS_PER_YEAR)
        eps = rng.standard_normal(self.n_prices - 1)
        x = np.empty(self.n_prices)
        x[0] = ou["x0"]
        for k in range(self.n_prices - 1):
            x[k + 1] = b * x[k] + c + sd * eps[k]
        return x

    def setup_config(self) -> Path:
        return self.sweep_path

    def ops(self, out: Path) -> list[Op]:
        sweep = ["--config", str(self.sweep_path), "--out", str(out)]
        sim = ["--config", str(self.sim_path), "--out", str(out)]
        return [
            Op("sweep", "cli", ["sweep"] + sweep, ["sweep.csv", "sweep.json"]),
            Op(
                "yield-sweep",
                "cli",
                ["yield-sweep"] + sweep,
                ["yield_sweep.csv", "yield_sweep.json", "yield_sweep_summary.csv", "yield_sweep_summary.json"],
            ),
            Op("simulate", "cli", ["simulate"] + sim, ["paths.csv", "paths.json"]),
            Op("calibrate", "cli", ["calibrate"] + sim, ["ou_params.json"]),
        ]

    def check(self, op: Op, out: Path) -> Check:
        chk = Check()
        cfg = self.sweep_cfg
        grids = cfg["grids"]
        if op.label == "sweep":
            check_sweep(chk, out, self.q, cfg)
        elif op.label == "yield-sweep":
            _, rows = finite_table(chk, out / "yield_sweep.csv")
            finite_table(chk, out / "yield_sweep_summary.csv")
            T = grids["horizons_days"][0] / DAYS_PER_YEAR
            if len(rows) != len(grids["yields"]) * grids["n_times"]:
                chk.fail(f"yield_sweep.csv has {len(rows)} rows")
            for r in rows:
                t, y, risk = float(r[0]), float(r[1]), float(r[2])
                ref = future_risks(self.q, cfg, grids["gammas"][0], t, T, y)[cfg["chain"]["z0"]]
                chk.closed(f"yield-sweep t={t} y={y}", risk, ref)
        elif op.label == "simulate":
            header, rows = finite_table(chk, out / "paths.csv")
            sim = self.sim_cfg
            if header != ["step", "t_years", "spot", "regime", "yield"] or len(rows) != self.n_days_sim + 1:
                chk.fail(f"paths.csv has header {header} and {len(rows)} rows")
                return chk
            chk.closed("simulate spot[0]", float(rows[0][2]), sim["ou"]["x0"])
            chk.closed("simulate yield[0]", float(rows[0][4]), sim["claim"]["yield"]["y0"])
            if int(rows[0][3]) != sim["chain"]["z0"]:
                chk.fail(f"paths.csv starts in regime {rows[0][3]}, not z0={sim['chain']['z0']}")
            for r in rows:
                if abs(float(r[1]) - int(r[0]) / DAYS_PER_YEAR) > 1e-9 or not 0 <= int(r[3]) < self.q.shape[0]:
                    chk.fail(f"paths.csv row {r} off the daily grid or the state space")
                    break
            data = json.loads((out / "paths.json").read_text())["data"]
            if any(len(data[k]) != len(rows) for k in header):
                chk.fail("paths.json columns differ in length from paths.csv")
        else:
            data = json.loads((out / "ou_params.json").read_text())["data"]
            ref = ols_fit(self.prices, 1.0 / DAYS_PER_YEAR)
            for k, v in ref.items():
                chk.closed(f"calibrate {k}", float(data["params"][k]), v)
            ses = list(data["std_errors"].values())
            if not all(math.isfinite(s) and s > 0 for s in ses):
                chk.fail(f"calibrate standard errors {ses}")
            if data["n_obs"] != self.n_prices - 1:
                chk.fail(f"calibrate fitted {data['n_obs']} transitions")
        return chk


class MCCLI:
    """The two MC command lines, each writing into its own subdirectory:
    ``CrudeMC`` under ``crude/`` and ``SwapMC`` under ``swap/``.

    Why one workload: on a host whose speed drifts, two workloads with long
    runs measure more steadily than more workloads with short ones, and each
    part still has its own operations in the percentiles and its own spans.
    """

    name = "mc_cli"
    min_passes = MIN_PASSES

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        self.parts = {"crude": CrudeMC(), "swap": SwapMC()}
        for part in self.parts.values():
            part.prepare(root, work, seed)

    def setup_config(self) -> Path:
        return self.parts["crude"].setup_config()

    def ops(self, out: Path) -> list[Op]:
        return [
            dataclasses.replace(op, label=f"{tag} {op.label}", outputs=[f"{tag}/{name}" for name in op.outputs])
            for tag, part in self.parts.items()
            for op in part.ops(out / tag)
        ]

    def check(self, op: Op, out: Path) -> Check:
        tag, label = op.label.split(" ", 1)
        return self.parts[tag].check(dataclasses.replace(op, label=label), out / tag)


WORKLOADS = {w.name: w for w in (MCCLI, LightCLI)}
