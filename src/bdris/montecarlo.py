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

import numpy as np

from .errors import NumericalFailureError
from .scenario import build_scenario, channels_for_trial, dbm_to_watt
from .solver import run as run_solver, solver_config_for

log = logging.getLogger(__name__)

RESULT_COLUMNS = ("variant", "P_dBm", "trial", "sum_rate_bps_hz", "iters")
SUMMARY_COLUMNS = ("variant", "P_dBm", "mean_sum_rate_bps_hz", "stderr_bps_hz",
                   "n_trials", "n_failed")
_FLOAT_COLUMNS = {"P_dBm", "sum_rate_bps_hz", "mean_sum_rate_bps_hz", "stderr_bps_hz"}


def run_sweep(config, out_dir=None):
    """Run ``config``'s sweep; returns (result rows, summary rows).

    Every trial runs every one of ``config.variants`` at every one of
    ``config.power_dbm``.  The variant names are resolved before the first
    trial, so an unknown one raises :class:`ConfigError` before any work or
    file.  A solver failure inside one (variant, power, trial) cell is logged
    and skipped: the cell gets no result row, and its summary row counts it
    in ``n_failed`` and leaves it out of the mean.
    """
    solver_configs = [(v, solver_config_for(config.solver, v)) for v in config.variants]
    topology = build_scenario(config)
    noise = config.noise_power
    rows = []
    cells = {(v, p): [] for v in config.variants for p in config.power_dbm}  # rate or None
    for trial in range(config.trials):
        channels = channels_for_trial(config, trial, topology)
        for p_dbm in config.power_dbm:
            p_watt = float(dbm_to_watt(p_dbm))
            for variant, cfg in solver_configs:
                start = time.perf_counter()
                try:
                    _, trace = run_solver(channels, p_watt, noise, cfg)
                except NumericalFailureError as exc:
                    cells[variant, p_dbm].append(None)
                    log.warning("trial %d, P=%g dBm, %s failed: %s",
                                trial, p_dbm, variant, exc)
                    continue
                elapsed = time.perf_counter() - start
                rate = max(trace.sum_rates)
                cells[variant, p_dbm].append(rate)
                rows.append({"variant": variant, "P_dBm": p_dbm, "trial": trial,
                             "sum_rate_bps_hz": rate, "iters": trace.num_iterations})
                log.debug("trial %d, P=%g dBm, %s: %.4f bits/s/Hz in %d iters "
                          "(%.0f ms)", trial, p_dbm, variant, rate,
                          trace.num_iterations, 1e3 * elapsed)

    summary = []
    for (variant, p_dbm), cell in cells.items():
        vals = np.array([r for r in cell if r is not None])
        mean = float(vals.mean()) if vals.size else float("nan")
        stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        summary.append({"variant": variant, "P_dBm": p_dbm, "mean_sum_rate_bps_hz": mean,
                        "stderr_bps_hz": stderr, "n_trials": int(vals.size),
                        "n_failed": cell.count(None)})

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
