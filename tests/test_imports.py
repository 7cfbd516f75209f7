"""Import hygiene, each check in a fresh interpreter: the package runs without
SciPy or a thread pool, and a command run after ``import regime_risk.cli``
loads no module, so that what a command needs is loaded, and timed, at
import."""

import json
import os
import subprocess
import sys

import pytest

from conftest import EXAMPLE_CONFIG, REPO_ROOT
from test_cli import synthetic_csv

NEW_MODULES = """
import json, sys
import regime_risk.cli
before = set(sys.modules)
assert regime_risk.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def python(code: str, *args) -> str:
    """stdout of ``python -c code args`` with the package's sources on the path."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("package", ["scipy", "concurrent"])
def test_package_import_loads_no_scipy(package):
    """Neither SciPy nor a thread pool (``concurrent.futures``) comes in at import."""
    code = f"import sys, regime_risk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    assert python(code) == "[]"


@pytest.mark.parametrize(
    "args",
    [["risk"], ["risk", "--mc", "--paths", "200"], ["sweep"], ["yield-sweep"], ["simulate"], ["calibrate"]],
    ids=lambda args: " ".join(args[:2]),
)
def test_command_loads_no_module_after_import(tmp_path, args):
    cfg = json.loads(EXAMPLE_CONFIG.read_text())
    cfg["ou"]["csv"] = synthetic_csv(tmp_path).name
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert python(NEW_MODULES, *args, "--config", config, "--out", tmp_path / "out") == "[]"
