"""Monte-Carlo driver: transmit-power sweep over channel realizations.

Each trial draws one channel realization from its own substream of the root
seed and runs every enabled algorithm variant on it at every transmit power,
so variants and powers are compared on common randomness.  Results land in
two CSV files whose contents are byte-reproducible for a fixed config and
seed:

* ``results.csv``: variant, P_dBm, trial, sum_rate_bps_hz, iters
* ``summary.csv``: variant, P_dBm, mean_sum_rate_bps_hz, stderr_bps_hz,
  n_trials, n_failed
"""

from __future__ import annotations

import csv
import logging
import os
import time
from dataclasses import replace

import numpy as np

from .errors import ConfigError, NumericalFailureError
from .scenario import build_scenario, channels_for_trial, dbm_to_watt
from .solver import run as run_solver

log = logging.getLogger(__name__)

VARIANTS = {
    "bd": ("bd", True),
    "diag": ("diagonal", True),
    "none": ("none", True),
    "bd-pi0": ("bd", False),
    "diag-pi0": ("diagonal", False),
    "none-pi0": ("none", False),
}
RESULT_COLUMNS = ("variant", "P_dBm", "trial", "sum_rate_bps_hz", "iters")
SUMMARY_COLUMNS = ("variant", "P_dBm", "mean_sum_rate_bps_hz", "stderr_bps_hz",
                   "n_trials", "n_failed")
_FLOAT_COLUMNS = {"P_dBm", "sum_rate_bps_hz", "mean_sum_rate_bps_hz", "stderr_bps_hz"}


def solver_config_for(base, variant):
    """Solver configuration of a named variant; :class:`ConfigError` for an unknown name."""
    try:
        ris_mode, cooperative = VARIANTS[variant]
    except KeyError:
        raise ConfigError(f"unknown variant {variant!r}; known: {sorted(VARIANTS)}")
    return replace(base, ris_mode=ris_mode, cooperative=cooperative)


def run_sweep(config, out_dir=None, variants=None, powers_dbm=None, trials=None):
    """Run the full sweep; returns (result rows, summary rows).

    Every variant name and a ``trials`` override are checked before the first
    trial, so an unknown name or a count below 1 raises :class:`ConfigError`
    before any work or file.  A solver failure inside
    one (variant, power, trial) cell is logged and skipped; the summary keeps
    a count of skipped trials per cell.
    """
    variants = tuple(variants if variants is not None else config.variants)
    powers_dbm = tuple(powers_dbm if powers_dbm is not None else config.power_dbm)
    if trials is not None:
        config = replace(config, trials=int(trials))  # ScenarioConfig checks the count
    trials = config.trials
    solver_configs = [(v, solver_config_for(config.solver, v)) for v in variants]

    topology = build_scenario(config)
    noise = config.noise_power
    rows = []
    failures = {(v, p): 0 for v in variants for p in powers_dbm}
    for trial in range(trials):
        channels = channels_for_trial(config, trial, topology)
        for p_dbm in powers_dbm:
            p_watt = float(dbm_to_watt(p_dbm))
            for variant, cfg in solver_configs:
                start = time.perf_counter()
                try:
                    _, trace = run_solver(channels, p_watt, noise, cfg)
                except NumericalFailureError as exc:
                    failures[(variant, p_dbm)] += 1
                    log.warning("trial %d, P=%g dBm, %s failed: %s",
                                trial, p_dbm, variant, exc)
                    continue
                elapsed = time.perf_counter() - start
                rows.append({"variant": variant, "P_dBm": p_dbm, "trial": trial,
                             "sum_rate_bps_hz": max(trace.sum_rates),
                             "iters": trace.num_iterations})
                log.debug("trial %d, P=%g dBm, %s: %.4f bits/s/Hz in %d iters "
                          "(%.0f ms)", trial, p_dbm, variant,
                          rows[-1]["sum_rate_bps_hz"], rows[-1]["iters"],
                          1e3 * elapsed)

    summary = []
    for variant in variants:
        for p_dbm in powers_dbm:
            vals = np.array([r["sum_rate_bps_hz"] for r in rows
                             if r["variant"] == variant and r["P_dBm"] == p_dbm])
            mean = float(vals.mean()) if vals.size else float("nan")
            stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            summary.append({"variant": variant, "P_dBm": p_dbm,
                            "mean_sum_rate_bps_hz": mean,
                            "stderr_bps_hz": stderr,
                            "n_trials": int(vals.size),
                            "n_failed": failures[(variant, p_dbm)]})

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(rows, RESULT_COLUMNS, os.path.join(out_dir, "results.csv"))
        write_csv(summary, SUMMARY_COLUMNS, os.path.join(out_dir, "summary.csv"))
    return rows, summary


def write_csv(rows, columns, path):
    """One line per row dict; float columns as ``repr``, so files are byte-reproducible."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(columns)
        for r in rows:
            wr.writerow([repr(float(r[c])) if c in _FLOAT_COLUMNS else r[c] for c in columns])
