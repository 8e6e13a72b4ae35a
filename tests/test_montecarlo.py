"""The power sweep's result and summary rows."""

from dataclasses import replace

import numpy as np
import pytest

from bdris import montecarlo
from bdris.errors import NumericalFailureError
from bdris.scenario import ScenarioConfig, dbm_to_watt


@pytest.fixture
def tiny_config():
    cfg = ScenarioConfig(num_elements=4, num_subcarriers=8, num_taps=4, trials=3,
                         power_dbm=(20.0, 30.0), variants=("none", "none-pi0"))
    return replace(cfg, solver=replace(cfg.solver, max_iters=5))


def test_failed_cell_counts_in_n_failed_and_leaves_the_mean(tiny_config, monkeypatch):
    # the second none-pi0 solve at 30 dBm fails; every other cell solves
    inner, calls, target = montecarlo.run_solver, [], (float(dbm_to_watt(30.0)), False)

    def failing(channels, budget, noise, cfg):
        calls.append((budget, cfg.cooperative))
        if calls[-1] == target and calls.count(target) == 2:
            raise NumericalFailureError("forced")
        return inner(channels, budget, noise, cfg)
    monkeypatch.setattr(montecarlo, "run_solver", failing)
    rows, summary = montecarlo.run_sweep(tiny_config)

    assert len(rows) == 3 * 2 * 2 - 1
    assert not any(r["variant"] == "none-pi0" and r["P_dBm"] == 30.0 and r["trial"] == 1
                   for r in rows)
    assert [(s["variant"], s["P_dBm"]) for s in summary] == [
        ("none", 20.0), ("none", 30.0), ("none-pi0", 20.0), ("none-pi0", 30.0)]
    for s in summary:
        failed = s["variant"] == "none-pi0" and s["P_dBm"] == 30.0
        rates = [r["sum_rate_bps_hz"] for r in rows
                 if (r["variant"], r["P_dBm"]) == (s["variant"], s["P_dBm"])]
        assert (s["n_failed"], s["n_trials"]) == ((1, 2) if failed else (0, 3))
        assert s["mean_sum_rate_bps_hz"] == np.mean(rates)
        assert np.isfinite(s["stderr_bps_hz"])
