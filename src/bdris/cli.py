"""Command-line entry points.

Subcommands:

* ``run``           full Monte-Carlo power sweep, CSV output
* ``single``        one realization with a full per-iteration trace dump
* ``validate``      run the analytic self-check suite
* ``dump-channels`` write one channel realization to a portable CSV
* ``load-channels`` read a channel dump back and report its dimensions
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .channels import load_channels, save_channels
from .errors import ConfigError, NumericalFailureError
from .montecarlo import run_sweep
from .scenario import (ScenarioConfig, channels_for_trial, dbm_to_watt,
                       load_config, parse_floats, parse_names)
from .selfcheck import run_all
from .solver import run as run_solver, solver_config_for


def _add_common(p):
    p.add_argument("--config", help="INI scenario file; defaults apply if omitted")
    p.add_argument("--seed", type=int, help="override the root seed")
    p.add_argument("--out", default="results", help="output directory or file")


def _build_parser():
    parser = argparse.ArgumentParser(prog="bdris",
                                     description="multi-cell wideband surface-assisted "
                                                 "downlink simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the configured power sweep")
    p.set_defaults(handler=cmd_run)
    _add_common(p)
    p.add_argument("--variants", help="comma list, e.g. bd,diag,none-pi0")
    p.add_argument("--power", help="comma list of transmit powers in dBm")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("single", help="one realization with a trace dump")
    p.set_defaults(handler=cmd_single)
    _add_common(p)
    p.add_argument("--variants", help="single variant name (default bd)")
    p.add_argument("--power", help="single transmit power in dBm")
    p.add_argument("--trial", type=int, default=0)

    p = sub.add_parser("validate", help="run the self-check suite")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("dump-channels", help="write one channel realization to CSV")
    p.set_defaults(handler=cmd_dump_channels)
    _add_common(p)
    p.add_argument("--trial", type=int, default=0)

    p = sub.add_parser("load-channels", help="read back a channel dump")
    p.set_defaults(handler=cmd_load_channels)
    p.add_argument("--file", required=True)
    return parser


def _load_scenario(args, **flags):
    """The ``--config`` scenario (or the defaults) with ``--seed`` and every
    other given flag applied; ``ScenarioConfig`` checks the result."""
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    flags["seed"] = args.seed
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _trial(args):
    if args.trial < 0:
        raise ConfigError("--trial must be >= 0")
    return args.trial


def _powers(args):
    """The ``--power`` flag's finite numbers, None without the flag."""
    try:
        return parse_floats(args.power or "")
    except ValueError as exc:
        raise ConfigError(f"--power: {exc}") from exc


def cmd_run(args):
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(message)s")
    cfg = _load_scenario(args, variants=parse_names(args.variants or ""),
                         power_dbm=_powers(args), trials=args.trials)
    run_sweep(cfg, out_dir=args.out)
    print(f"wrote {os.path.join(args.out, 'results.csv')} and summary.csv")
    return 0


def cmd_single(args):
    cfg = _load_scenario(args)
    variant = (args.variants or "bd").strip()
    solver_cfg = solver_config_for(cfg.solver, variant)
    powers = _powers(args) or cfg.power_dbm[:1]
    if len(powers) != 1:
        raise ConfigError("--power takes one transmit power")
    p_dbm = powers[0]
    channels = channels_for_trial(cfg, _trial(args))
    try:
        best, trace = run_solver(channels, float(dbm_to_watt(p_dbm)),
                                 cfg.noise_power, solver_cfg)
    except NumericalFailureError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    trace.to_csv(trace_path)
    print(f"variant={variant} P={p_dbm:g} dBm trial={args.trial} "
          f"sum_rate={max(trace.sum_rates):.6f} bits/s/Hz "
          f"iters={trace.num_iterations}")
    print(f"wrote {trace_path}")
    return 0


def cmd_validate(args):
    results = run_all()
    passed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        passed += bool(ok)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def cmd_dump_channels(args):
    cfg = _load_scenario(args)
    channels = channels_for_trial(cfg, _trial(args))
    out = args.out
    if os.path.isdir(out) or out.endswith(os.sep):
        os.makedirs(out, exist_ok=True)
        out = os.path.join(out, "channels.csv")
    save_channels(channels, out)
    print(f"wrote {out}")
    return 0


def cmd_load_channels(args):
    channels = load_channels(args.file)
    power = float(np.mean(np.abs(channels.direct) ** 2))
    print(f"Q={channels.num_bs} U={channels.num_users} K={channels.num_subcarriers} "
          f"N={channels.num_antennas} M={channels.num_elements} "
          f"mean direct-link power {power:.3e}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
