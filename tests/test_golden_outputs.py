"""Golden outputs: the sha256 of every file each command writes.

The commands are pure functions of (config, seed, n_paths), so a refactor
that should not change results must leave every hash below unchanged.  A
change that alters outputs on purpose updates the hashes in the same commit
(a failing run shows the new ones) and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from regime_risk.cli import main

from conftest import EXAMPLE_CONFIG
from test_cli import synthetic_csv
from test_tracing_contract import GS_SWAP

LINEAR = {"type": "linear", "delta": [0.75, 0.9, 1.1, 1.3]}
# the only chain shape that fills risk's ``oracle`` column
ONE_STATE = {
    "chain": {"kind": "generator", "matrix": [[0.0]]},
    "claim": {"type": "future", "delta": [0.75], "r": 0.0, "y": 0.08},
}
# yield-sweep from a non-zero start state, on a regime-dependent loading, with
# more yields (negative ones too) and an odd number of evaluation times
SHIPPED = json.loads(EXAMPLE_CONFIG.read_text())
YIELD_SWEEP_DENSE = {
    "chain": dict(SHIPPED["chain"], z0=2),
    "claim": {"type": "future", "delta": [0.75, 0.9, 1.1, 1.3], "r": 0.01, "y": 0.08},
    "grids": dict(SHIPPED["grids"], yields=[-0.1, -0.03, 0.0, 0.02, 0.08, 0.2], n_times=9),
}
# sweep over many horizons and gammas (the libm-square ones among them) from a
# non-zero start state, on a regime-dependent future loading: the closed form's
# horizon axis, each horizon with its own carry-scaled loading
SWEEP_DENSE = {
    "chain": dict(SHIPPED["chain"], z0=2),
    "claim": {"type": "future", "delta": [0.6, 0.85, 1.15, 1.4], "r": 0.02, "y": 0.05},
    "grids": dict(
        SHIPPED["grids"],
        horizons_days=[0.5, 1.0, 3.0, 7.5, 12.0, 21.0, 33.3, 50.0, 63.0, 90.0, 126.0, 150.0,
                       189.0, 252.0, 300.0, 378.0, 504.0, 756.0],
        gammas=[0.139527, 0.25, 0.5, 1.0, 2.073721, 2.5, 5.0, 10.0, 16.510002, 40.0],
    ),
}
# calibrate on a spot-only price series written by ``synthetic_csv``: the one
# output of nested JSON objects
CALIBRATE = {"ou": {"csv": "prices.csv"}}
# a ten-year daily path with a stochastic yield: a ``yield`` column and
# hundreds of regime jumps on the shipped chain
GS_SWAP_SIMULATE = {"claim": GS_SWAP, "grids": dict(SHIPPED["grids"], horizons_days=[2520.0])}
# a dense chain started in state 1, in which every state has several jump
# targets: the shipped chain has one per state, so only this chain reads the
# jump table's normalized columns (column 1's cumsum ends 1 ulp below 1)
MIXED_CHAIN = {
    "kind": "generator",
    "matrix": [[-2.0, 0.5, 0.3, 0.1], [1.2, -1.5, 0.6, 0.4], [0.5, 0.7, -1.6, 0.5], [0.3, 0.3, 0.7, -1.0]],
    "z0": 1,
}
MIXED_RISK_MC = {"chain": MIXED_CHAIN, "claim": LINEAR}
MIXED_SIMULATE = {"chain": MIXED_CHAIN, "grids": dict(SHIPPED["grids"], horizons_days=[2520.0])}
# the shipped example with a state-varying loading, run from its own file
REGIMES_CONFIG = EXAMPLE_CONFIG.with_name("crude_oil_regimes.json")

# run id -> (command line without --config/--out, config sections replacing the
# shipped ones, or the path of another config file)
RUNS = {
    "risk": (["risk"], {}),
    "sweep": (["sweep"], {}),
    "yield_sweep": (["yield-sweep"], {}),
    "simulate": (["simulate"], {}),
    "risk_mc": (["risk", "--mc", "--paths", "2000"], {}),
    "sweep_mc": (["sweep", "--mc", "--paths", "2000"], {}),
    "gs_swap_risk_mc": (["risk", "--mc", "--paths", "2000"], {"claim": GS_SWAP}),
    "linear_risk": (["risk"], {"claim": LINEAR}),
    "linear_sweep": (["sweep"], {"claim": LINEAR}),
    "one_state_risk": (["risk"], ONE_STATE),
    "yield_sweep_dense": (["yield-sweep"], YIELD_SWEEP_DENSE),
    "sweep_dense": (["sweep"], SWEEP_DENSE),
    "calibrate": (["calibrate"], CALIBRATE),
    "gs_swap_simulate": (["simulate"], GS_SWAP_SIMULATE),
    "mixed_risk_mc": (["risk", "--mc", "--paths", "2000"], MIXED_RISK_MC),
    "mixed_simulate": (["simulate"], MIXED_SIMULATE),
    "regimes_risk": (["risk"], REGIMES_CONFIG),
    "regimes_sweep": (["sweep"], REGIMES_CONFIG),
    "regimes_yield_sweep": (["yield-sweep"], REGIMES_CONFIG),
    "regimes_risk_mc": (["risk", "--mc", "--paths", "2000"], REGIMES_CONFIG),
    "regimes_sweep_mc": (["sweep", "--mc", "--paths", "2000"], REGIMES_CONFIG),
}

GOLDEN = {
    "risk": {
        "risk.csv": "f34e853976e165f6e2c88c8bff48b4d8b81148b227f05a1644b6e3fd64e1511f",
        "risk.json": "335cc529c76c10e005c456ad9072988a92f201899837f1dca77220eca1a4c09b",
    },
    "sweep": {
        "sweep.csv": "d349ea36d830ed53bf591517787b86ffe961a90ab8d21ed976a2125f6d9916c9",
        "sweep.json": "b1dc671b58a9fc821d96b9a54c23e12acd4b787549c92c1e0b20014ba5f4b4fb",
    },
    "yield_sweep": {
        "yield_sweep.csv": "9fb393e640ea97171d9c8ddc2f32b525bced5541439db0dfc8a5abb69183dc14",
        "yield_sweep.json": "29e207b76d300f5fae1806990a853abfa8dbded4dad736e1cdf94a210a5f8ef8",
        "yield_sweep_summary.csv": "78c7f11898fd2a4316ea1b93a841884f6056652ba917b865901e0ea774e2ca93",
        "yield_sweep_summary.json": "5e706a6c39a5656a3d4c002a642528212ef7b1ae237b9b4b8c999adbe4c63007",
    },
    "simulate": {
        "paths.csv": "f245cb943a133fb68c87a16256fcf7d73fd442315333e182354f90b47aebae14",
        "paths.json": "07e5d784981bb74b03b223ebfc927e994277363634acfb041aca06259e69916a",
    },
    "risk_mc": {
        "risk.csv": "8d6936f3224eb36be09ad006cbe20b5e68fe87333f28d5b93bfb0b21042463f6",
        "risk.json": "2bf46cc52ec01ed72fe1f266a60533887a4e563e93ced374f8eae542a52eedcd",
    },
    "sweep_mc": {
        "sweep.csv": "adcb0543669b65c7e081e60b37d1dc6a580190cb150247b57b089add47f85883",
        "sweep.json": "0fe59b52aa9b944b73c04b6ec59d7bd1f19f3fbc7122da5aef2d268ab35e47c8",
        "sweep_mc.csv": "78e1d5f92cc1461afce9f5f76d2e192e92ca4366fdfd677b0591adae3cbed38a",
    },
    "gs_swap_risk_mc": {
        "risk.csv": "c1a007569f47f47621a9a6dfb626f345b29c9d2711cba6e0e9be94df0e57614f",
        "risk.json": "fe160341a6797f184a9108b124993af30494bd0ae16fb8258b187c68521e12a3",
    },
    "linear_risk": {
        "risk.csv": "c163b5a44c80a95b3c902c04993a9b32c70fa28eebf8583601dfdd24c5b8e2ae",
        "risk.json": "3fa980c8e8907a8d84006e533659218ed815c766b32e70a8cc7142d24e15ff81",
    },
    "linear_sweep": {
        "sweep.csv": "b7b26c21c2dd9759e1f2ae30b2927db6ade9abd2cb002a1bcb3863dd1baae784",
        "sweep.json": "5f3ec55b380443f660cbfd6b70ceff4792cd33e4c10f6a1a03c52de1670003ea",
    },
    "one_state_risk": {
        "risk.csv": "bf09faafcf7e63cb05d497f3773231c448372ab86734996665bbe8b5675cdcbe",
        "risk.json": "15d95d505429fca3bb087f114a7c7ff8c6a5feb32cc7c843884f82ac6d9ab9cd",
    },
    "yield_sweep_dense": {
        "yield_sweep.csv": "e65b73f70ae638811480cf9b13a41adf7fb010841779de7d0fbb083b3f8936c0",
        "yield_sweep.json": "65e6e889dd2f5ef93307835ea04db8f1370ae15fa9822dc9f231d00a40ea98b9",
        "yield_sweep_summary.csv": "fb1cd106a1417f1c1db5f238e4695f1b0254d4467f64627f23460c94b3a7995e",
        "yield_sweep_summary.json": "d17d5f616680690eeeaefdb44a643b59b6322473bb30d3fecbdcd95c730c4526",
    },
    "sweep_dense": {
        "sweep.csv": "83c16baec28e0959e9c2a0e071513144fdef35d385b7ad05d448704be253f579",
        "sweep.json": "ec3fd81cc0aecef505d76008cc3e70b53a9c8e7a3915b4cfab442ab68eb94eb1",
    },
    "calibrate": {
        "ou_params.json": "b31a01700486d70c5a3c9d5a2c437d01b72acbbfb3beacf269ac5bc10d09c4a3",
    },
    "gs_swap_simulate": {
        "paths.csv": "27693122983fa6c7b6c4aad6f316a22209d0cc7d3abf4bdcd2b980d42eefbe8b",
        "paths.json": "e0ed1ee6f69cec177eece0d321969bcdc2e27fa04c9e59397c3d032bf5a0c0ac",
    },
    "mixed_risk_mc": {
        "risk.csv": "3aa465ed15a7e0e5ddbb0ac6297f9788fb674a6bb06f4c2f7012a0238a9d810f",
        "risk.json": "7e8f3d8fc73aa32efbffe9e645b6aaf21031a1d014af1d0451bdad0790840426",
    },
    "mixed_simulate": {
        "paths.csv": "d64e6396bb81f2612afd0d9a4253e61ca0f64467d38099e2e25b574f7e45ebb7",
        "paths.json": "92ec1bea1cbb072b68ea58b445c5b6000700a794d65c2986a5a6fb86536ad83a",
    },
    "regimes_risk": {
        "risk.csv": "81192ded830e05f16f523966653fedfa830b447ea9e9384454b3674da49ffd34",
        "risk.json": "29e82c4dd8876dc5647b400bcedec7a1bfc66040637228739d08d4988c196d17",
    },
    "regimes_sweep": {
        "sweep.csv": "436c56389e364d2f66f7a39098a38529a7afdd1f70738510f8ba79675a53763f",
        "sweep.json": "fd6829dd5b930facab2bac16d7b2222e038f805ee38494ca8e829714e8df2d3b",
    },
    "regimes_yield_sweep": {
        "yield_sweep.csv": "6e3e0b84569b32332515f48f82a58f040c6379cc16926223737df95603705ce5",
        "yield_sweep.json": "2ddb7165fc49885159e845ebb316dbd2696b35e61f19fc7e5e631f9f4cda78f0",
        "yield_sweep_summary.csv": "525a5ae49bf57e56e27691758600d5cbe1cec847fdc8edf5a6e2958ebc4493db",
        "yield_sweep_summary.json": "82a13da6cc5845dd19474fe07c0478bcd6d26e71eaec07b74a48426e0e9010f8",
    },
    "regimes_risk_mc": {
        "risk.csv": "d49bc445aab25c52b28c628cccc24575d466c7ab2200c7bcce583ba3dc9ea796",
        "risk.json": "e8471f028ea7367e29eb7bb438b3caa3746f2d03dbc45d42a019061137c1cc8a",
    },
    "regimes_sweep_mc": {
        "sweep.csv": "8841dd1b2385b2ee1a5e38710b3e3a5524f1122518c498e124528fede60b1a3b",
        "sweep.json": "645ecada2379c4c300ff9a3a2a2efc47b2c8663a3ddb8634a155c487a21be421",
        "sweep_mc.csv": "1a97585c6c23276760109df68dbb53129a9f6943468ea33a2cc2f9a66ae4751d",
    },
}


def run_outputs(run_id: str, tmp: Path) -> dict[str, str]:
    """Run one command into ``tmp``/out and hash every file it writes."""
    args, sections = RUNS[run_id]
    config = EXAMPLE_CONFIG
    if isinstance(sections, Path):
        config = sections
    elif sections:
        cfg = json.loads(EXAMPLE_CONFIG.read_text())
        cfg.update(sections)
        config = tmp / "cfg.json"
        config.write_text(json.dumps(cfg))
        if "csv" in cfg.get("ou", {}):
            assert synthetic_csv(tmp).name == cfg["ou"]["csv"]
    out = tmp / "out"
    assert main(args + ["--config", str(config), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("run_id", list(RUNS))
def test_outputs_match_golden_hashes(tmp_path, run_id):
    assert run_outputs(run_id, tmp_path) == GOLDEN[run_id]

