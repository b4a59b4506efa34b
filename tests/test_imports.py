import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = """
import sys
import gausscap as gc
import numpy as np
spec = gc.ChannelSpec.beam_splitter(0.85, gc.squeezed_thermal_state(1.0, 0.5))
gc.evaluate_bounds(spec, 2.0)
gc.monte_carlo_verify("wc-chain-bs", 5)
gc.monte_carlo_verify("cqepi-amp", 5)
print("scipy" in sys.modules)
state = gc.random_gaussian_state(2, seed=3)
s, d = gc.williamson(state)
print(float(abs(s.data @ np.diag(d) @ s.data.T - state.data).max()))
"""


def test_bounds_and_campaigns_do_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env, check=True)
    loaded, residual = result.stdout.splitlines()
    assert loaded == "False"
    # williamson imports scipy on first use and still decomposes the state
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _CAMPAIGN_SCRIPT], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
