"""The demos that call the risk API, and the README's library quick-start,
run as shipped: a change to the API that leaves them behind fails here.

Demos 01 and 02 call no risk route; 01 alone takes about 4 s.
"""

import os
import re
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


@pytest.mark.parametrize(
    "demo",
    ["03_closed_form_vs_monte_carlo", "04_risk_aversion_sweep", "05_convenience_yield", "06_swap_risk"],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs():
    readme = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no Python block under 'Library quickstart'"
    exec(compile(block.group(1), "README.md quickstart", "exec"), {})
