import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import sys
import gausscap as gc
import numpy as np
spec = gc.ChannelSpec.beam_splitter(0.85, gc.squeezed_thermal_state(1.0, 0.5))
gc.evaluate_bounds(spec, 2.0)
gc.monte_carlo_verify("wc-chain-bs", 5)
gc.monte_carlo_verify("cqepi-amp", 5)
state = gc.random_gaussian_state(16, 5.0, 1.5, seed=3)
s, d = gc.williamson(state)
gc.purify(state)
print("scipy" in sys.modules)
print(float(abs(s.data @ np.diag(d) @ s.data.T - state.data).max() / abs(state.data).max()))
"""


def _run(script: str) -> str:
    src = str(_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True).stdout


def test_bounds_and_campaigns_do_not_load_scipy():
    loaded, residual = _run(_SCRIPT).splitlines()
    # bounds, campaigns, williamson and purify all run on numpy alone
    assert loaded == "False"
    assert float(residual) < 1e-12


_CAMPAIGN_SCRIPT = """
import sys
import gausscap as gc
spec = gc.ChannelSpec.beam_splitter(0.85, gc.squeezed_thermal_state(1.0, 0.5))
gc.evaluate_bounds(spec, 2.0)
gc.monte_carlo_verify("wc-chain-bs", 5)
gc.monte_carlo_verify("cqepi-amp", 5, workers=4)
print("concurrent.futures" in sys.modules)
"""


def test_single_chunk_campaigns_do_not_load_concurrent_futures():
    assert _run(_CAMPAIGN_SCRIPT).strip() == "False"


def _imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module, deferred ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    imported = set().union(*map(_imported_packages, (_ROOT / "src" / "gausscap").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"gausscap"}
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in project["dependencies"]}
    assert third_party == declared == {"numpy"}
