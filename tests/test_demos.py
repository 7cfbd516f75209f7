"""The demos, the README's library quick-start and its API table match the
package as shipped: a change to the API that leaves them behind fails here.

Each demo runs in a fresh interpreter with ``-W error::RuntimeWarning``, the
warning filter the suite applies in-process.  Demo 01 is left out here, as it
takes several seconds; CI runs it as a step of its own.
"""

import os
import re
import subprocess
import sys

import pytest

import regime_risk
from conftest import REPO_ROOT


@pytest.mark.parametrize(
    "demo",
    [
        "02_spot_model",
        "03_closed_form_vs_monte_carlo",
        "04_risk_aversion_sweep",
        "05_convenience_yield",
        "06_swap_risk",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(REPO_ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs():
    readme = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no Python block under 'Library quickstart'"
    exec(compile(block.group(1), "README.md quickstart", "exec"), {})


def test_readme_api_table_names_every_export():
    """Every name in ``regime_risk.__all__`` but ``__version__`` and the
    exception classes appears in the table of README's ``### Public API``
    section."""
    readme = (REPO_ROOT / "README.md").read_text()
    section = re.search(r"### Public API\n\n(.*?)\n\n", readme, re.S)
    assert section is not None, "README has no '### Public API' section"
    listed = set(re.findall(r"`(\w+)", section.group(1)))
    exported = {
        name for name in regime_risk.__all__
        if name != "__version__"
        and not (isinstance(getattr(regime_risk, name), type) and issubclass(getattr(regime_risk, name), Exception))
    }
    assert sorted(exported - listed) == []
