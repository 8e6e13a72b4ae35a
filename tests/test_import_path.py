"""scipy stays off the package's import path until an assignment needs it."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import sys
from dataclasses import replace

import numpy as np

import bdris, bdris.cli
from bdris import solver, switches
from bdris.scenario import ScenarioConfig, channels_for_trial, dbm_to_watt

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

cfg = ScenarioConfig(num_elements=4, num_subcarriers=8, num_taps=4)
channels = channels_for_trial(cfg, 0)
for variant in ("none", "diag"):
    solver_cfg = replace(solver.solver_config_for(cfg.solver, variant), max_iters=3)
    solver.run(channels, dbm_to_watt(30.0), cfg.noise_power, solver_cfg)
assert scipy_modules() == [], scipy_modules()[:5]

reward = np.ones((5, 5))
assert switches.certified_selection(reward) is None
got = switches.solve_selection(reward)
assert "scipy.optimize" in sys.modules
from scipy.optimize import linear_sum_assignment
_, cols = linear_sum_assignment(reward, maximize=True)
np.testing.assert_array_equal(got, np.argsort(cols))
print("ok")
"""


def test_scipy_loads_only_on_the_first_uncertified_assignment():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
