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


# The regime kernel's rounds at 2000 paths: one exponential and one uniform
# array over every path per round, one kernel call per stream.  The shipped
# claim's count is that of the kernel that recomputed every path in every
# round, so a kernel that skips paths at rest must keep the same draw layout.
# The swap's is that of one pass over each stream's three-settlement grid,
# round j holding every path's j-th jump whatever settlement it falls in (a
# pass per settlement drew 1993 rounds).
@pytest.mark.parametrize(
    "claim, normal_rounds, jump_rounds",
    [(None, 1, 176), (GS_SWAP, 6, 1763)],
    ids=["shipped", "gibson_schwartz_swap"],
)
def test_traced_risk_mc_records_every_layer(tmp_path, claim, normal_rounds, jump_rounds):
    cfg = json.loads(EXAMPLE_CONFIG.read_text())
    if claim is not None:
        cfg["claim"] = claim
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    n_states = len(cfg["chain"]["matrix"])
    args = ["risk", "--config", str(config), "--mc", "--paths", "2000"]
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
    traced = (tmp_path / "traced" / "risk.csv").read_bytes()
    assert traced == (tmp_path / "plain" / "risk.csv").read_bytes()

    spans = Counter(span[0] for span in payload["trace"]["spans"])
    assert spans["entropic_risk.mc"] == 1
    assert spans["entropic_risk.sim"] == n_states
    assert spans["entropic_risk.payoff_eval"] == n_states
    assert spans["entropic_risk.gauss"] == n_states * normal_rounds
    assert spans["entropic_risk.advance"] == n_states
    assert spans["instruments.swap_value"] == (0 if claim is None else n_states)

    counts = payload["trace"]["counts"]
    assert counts["rng.exponential.calls"] == jump_rounds
    assert counts["rng.exponential.elems"] == counts["rng.random.elems"] == jump_rounds * 2000


# ``sweep --mc`` simulates the starting regime once per horizon, each from the
# start of the same (seed, z0) stream: 28 rounds at 50 days and 59 at 150 at
# 2000 paths.  A change that shares one pass between the horizons moves these
# counts on purpose.
def test_traced_sweep_mc_simulates_each_horizon(tmp_path):
    args = ["sweep", "--config", str(EXAMPLE_CONFIG), "--mc", "--paths", "2000"]
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
    for name in ("sweep.csv", "sweep_mc.csv"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    spans = Counter(span[0] for span in payload["trace"]["spans"])
    assert spans["entropic_risk.mc"] == 2
    assert spans["entropic_risk.sim"] == 2
    assert payload["trace"]["counts"]["rng.exponential.calls"] == 87
