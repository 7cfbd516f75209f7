"""The benchmark's tracer replaces package attributes by name (``bench/tracer.py``).

A refactor that renames or bypasses one of them makes every traced benchmark
operation fail while the rest of the suite passes; this runs one traced
``risk --mc`` per claim shape and checks the spans it records.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from regime_risk.cli import main

from conftest import EXAMPLE_CONFIG, REPO_ROOT


# two normal rounds per settlement: the spot's, then the correlated yield's
GS_SWAP = {
    "type": "swap",
    "delta": [1.0, 0.9, 1.1, 0.8],
    "rates": [0.03, 0.06, 0.09],
    "yield": {
        "kind": "gibson_schwartz",
        "kappa": 1.2,
        "y_bar": 0.05,
        "sigma_y": 0.04,
        "rho": -0.3,
        "lambda_y": 0.0,
        "y0": 0.04,
    },
}


REGIMES_CONFIG = EXAMPLE_CONFIG.with_name("crude_oil_regimes.json")


def traced_run(tmp_path, args, outputs):
    """The trace of one ``bench/child.py`` run of ``args``, after checking it
    wrote the bytes an untraced ``main(args)`` writes to each of ``outputs``."""
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "child.py"), "cli", str(result), "1",
         *args, "--out", str(tmp_path / "traced")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(result.read_text())
    assert payload["rc"] == 0, payload.get("error")

    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    for name in outputs:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    return payload["trace"]


# The regime kernel's rounds at 2000 paths: one exponential and one uniform
# array over every path per round, one kernel call per stream.  The regimes
# claim's count is that of the kernel that recomputed every path in every
# round, so a kernel that skips paths at rest must keep the same draw layout.
# The swap's is that of one pass over each stream's three-settlement grid,
# round j holding every path's j-th jump whatever settlement it falls in (a
# pass per settlement drew 1993 rounds).  The shipped claim's loading is
# 0.75 in every state, so its payoff does not read the regime path: its
# streams draw their normals and no jump round.
@pytest.mark.parametrize(
    "config, claim, normal_rounds, kernel_calls, jump_rounds",
    [
        (EXAMPLE_CONFIG, None, 1, 0, 0),
        (REGIMES_CONFIG, None, 1, 4, 176),
        (EXAMPLE_CONFIG, GS_SWAP, 6, 4, 1763),
    ],
    ids=["shipped", "regimes", "gibson_schwartz_swap"],
)
def test_traced_risk_mc_records_every_layer(tmp_path, config, claim, normal_rounds, kernel_calls, jump_rounds):
    cfg = json.loads(config.read_text())
    if claim is not None:
        cfg["claim"] = claim
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    n_states, n_gammas = len(cfg["chain"]["matrix"]), len(cfg["grids"]["gammas"])
    trace = traced_run(tmp_path, ["risk", "--config", str(config), "--mc", "--paths", "2000"], ["risk.csv"])

    spans = Counter(span[0] for span in trace["spans"])
    assert spans["entropic_risk.mc"] == 1
    assert spans["entropic_risk.sim"] == n_states
    assert spans["entropic_risk.payoff_eval"] == n_states
    assert spans["entropic_risk.gauss"] == n_states * normal_rounds
    assert spans["entropic_risk.advance"] == kernel_calls
    assert spans["instruments.swap_value"] == (0 if claim is None else n_states)
    # one reduction per (stream, gamma): the tracer's ESS metrics read each call's samples and gamma
    assert spans["entropic_risk.reduce"] == n_states * n_gammas

    counts = Counter(trace["counts"])  # a kind never drawn has no entry
    assert counts["rng.exponential.calls"] == jump_rounds
    assert counts["rng.exponential.elems"] == counts["rng.random.elems"] == jump_rounds * 2000


# ``sweep --mc`` simulates the starting regime once per horizon, each from the
# start of the same (seed, z0) stream: on the regimes config, 28 rounds at 50
# days and 59 at 150 at 2000 paths.  A change that shares one pass between the
# horizons moves these counts on purpose.
def test_traced_sweep_mc_simulates_each_horizon(tmp_path):
    args = ["sweep", "--config", str(REGIMES_CONFIG), "--mc", "--paths", "2000"]
    trace = traced_run(tmp_path, args, ["sweep.csv", "sweep_mc.csv"])

    spans = Counter(span[0] for span in trace["spans"])
    assert spans["entropic_risk.mc"] == 2
    assert spans["entropic_risk.sim"] == 2
    assert spans["entropic_risk.advance"] == 2
    assert trace["counts"]["rng.exponential.calls"] == 87


# The shipped config's state-constant loading: each horizon's stream draws
# its normals and no jump round.
def test_traced_sweep_mc_of_shipped_config_draws_no_jump_round(tmp_path):
    args = ["sweep", "--config", str(EXAMPLE_CONFIG), "--mc", "--paths", "2000"]
    trace = traced_run(tmp_path, args, ["sweep.csv", "sweep_mc.csv"])

    spans = Counter(span[0] for span in trace["spans"])
    assert spans["entropic_risk.sim"] == spans["entropic_risk.gauss"] == 2
    assert spans["entropic_risk.advance"] == 0
    assert "rng.exponential.calls" not in trace["counts"]
