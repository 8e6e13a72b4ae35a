"""Benchmark workloads and the output checks applied to every solve.

A workload turns a root seed into a fixed set of inputs (one *pass*) and
runs it through the public ``bdris`` API only: ``scenario`` builds the
geometry and channels, ``solver.run`` solves one cell, and
``montecarlo.run_sweep`` runs a whole sweep.  A *cell* is one
``solver.run`` call: one channel realization at one power for one variant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from bdris import montecarlo, rates, scenario, solver
from bdris.errors import NumericalFailureError


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"solve"`` (the benchmark calls ``solver.run`` per cell) or
    ``"sweep"`` (``montecarlo.run_sweep`` runs the cells).
    """

    name: str
    kind: str
    trials: int
    variants: tuple
    powers_dbm: tuple
    scenario: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)

    def config(self, seed):
        """Scenario configuration of this workload for a root seed."""
        base = scenario.ScenarioConfig(seed=int(seed), trials=self.trials,
                                       power_dbm=self.powers_dbm,
                                       variants=self.variants, **self.scenario)
        return replace(base, solver=replace(base.solver, **self.solver))

    def draws(self, seed):
        """(config, trial) of every channel realization of one pass.

        A solve workload draws trials ``0..trials-1`` of one configuration.
        The sweep draws fresh channels for every power point, seeded through
        the library's per-trial seed derivation, so that a pass averages the
        sum rate over trials x powers realizations instead of ``trials``.
        """
        cfg = self.config(seed)
        if self.kind == "solve":
            return [(cfg, t) for t in range(self.trials)]
        powers = [p for _ in range(self.trials) for p in self.powers_dbm]
        return [(replace(cfg, seed=scenario.trial_seed(cfg.seed, i),
                         power_dbm=(p,), trials=1), 0)
                for i, p in enumerate(powers)]

    def cells(self):
        """(draw, power_dbm, variant) of every cell of one pass, in run order."""
        return [(d, p, v) for d, (cfg, _) in enumerate(self.draws(0))
                for p in cfg.power_dbm for v in cfg.variants]

    def units(self):
        """What a pass runs one at a time: cells, or the sweep's draws."""
        if self.kind == "sweep":
            return list(range(len(self.draws(0))))
        return self.cells()


# Why each workload exists, and which layer each one stresses, is recorded
# in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "bd-fixed",
        kind="solve", trials=8, variants=("bd",), powers_dbm=(30.0,),
        solver={"tol": 0.0, "max_iters": 20}),
    Workload(
        "sweep-direct",
        kind="sweep", trials=3, variants=("none", "none-pi0"),
        powers_dbm=scenario.DEFAULT_POWER_DBM),
)}


def tiny(workload):
    """The same workload shape, shrunk so that a pass takes well under a second."""
    return replace(workload, trials=1,
                   scenario={**workload.scenario, "num_elements": 4,
                             "num_subcarriers": 8, "num_taps": 4},
                   solver={**workload.solver, "max_iters": 3})


@dataclass
class Inputs:
    """Everything a pass needs, built by :func:`setup`."""

    workload: Workload
    config: scenario.ScenarioConfig
    draws: list             # (config, NetworkChannels) per channel draw


def setup(workload, seed):
    """Build the scenario and generate the channels of every draw."""
    config = workload.config(seed)
    topology = scenario.build_scenario(config)
    draws = [(cfg, scenario.channels_for_trial(cfg, trial, topology))
             for cfg, trial in workload.draws(seed)]
    return Inputs(workload, config, draws)


@dataclass
class Solve:
    """One observed ``solver.run`` call and what it returned."""

    args: tuple             # (channels, power_budget, noise_power, config)
    wall: float             # seconds, the benchmark's clock around the call
    iterate: object = None
    trace: object = None
    error: Exception | None = None

    @property
    def ris_enabled(self):
        return self.args[3].ris_enabled

    @property
    def sum_rate(self):
        return max(self.trace.sum_rates)


def timed_solve(run, *args):
    """Call ``run(*args)`` under the benchmark's clock; solver failures are kept."""
    start = time.perf_counter()
    try:
        iterate, trace = run(*args)
    except NumericalFailureError as exc:
        return Solve(args, time.perf_counter() - start, error=exc)
    return Solve(args, time.perf_counter() - start, iterate, trace)


def solve_cell(inputs, cell):
    """Solve one (draw, power_dbm, variant) cell through ``solver.run``."""
    draw, p_dbm, variant = cell
    cfg, channels = inputs.draws[draw]
    sc = montecarlo.solver_config_for(cfg.solver, variant)
    args = (channels, float(scenario.dbm_to_watt(p_dbm)), cfg.noise_power, sc)
    return timed_solve(solver.run, *args)


def sweep_draw(inputs, draw):
    """One ``run_sweep`` call on one draw; returns its solves and its rows.

    ``run_sweep`` calls the solver through ``montecarlo.run_solver``; that
    attribute is hooked for the duration of the call, with one clock read
    on each side of every solve, so each solve's result and time are seen.
    """
    solves = []
    inner = montecarlo.run_solver

    def probe(*args):
        s = timed_solve(inner, *args)
        solves.append(s)
        if s.error is not None:
            raise s.error
        return s.iterate, s.trace

    montecarlo.run_solver = probe
    try:
        rows, _ = montecarlo.run_sweep(inputs.draws[draw][0])
    finally:
        montecarlo.run_solver = inner
    return solves, rows


def run_unit(inputs, unit):
    """Run one unit of a pass; returns (solves, sweep rows or None)."""
    if inputs.workload.kind == "sweep":
        return sweep_draw(inputs, unit)
    return [solve_cell(inputs, unit)], None


def check_pass(solves, rows=None):
    """Problems with one pass's outputs, as a list of messages (empty if none).

    Every returned iterate must satisfy its constraints, every traced rate
    must be finite, the reported rate must equal the sum rate recomputed
    from the returned iterate, and the per-iteration wall times must fit
    inside the benchmark's own clock.  Sweep rows must report exactly the
    rates the solver returned.
    """
    problems = []
    for i, s in enumerate(solves):
        if s.error is not None:
            continue
        channels, budget, noise, _ = s.args
        try:
            s.iterate.validate(channels, budget)
        except ValueError as exc:
            problems.append(f"cell {i}: infeasible iterate: {exc}")
            continue
        if not np.all(np.isfinite(s.trace.sum_rates)):
            problems.append(f"cell {i}: non-finite rate in trace")
            continue
        recomputed = rates.sum_rate(s.iterate, channels, noise, s.ris_enabled)
        if recomputed != s.sum_rate:
            problems.append(f"cell {i}: reported rate {s.sum_rate!r} but the "
                            f"returned iterate gives {recomputed!r}")
        if sum(s.trace.wall_times) > s.wall:
            problems.append(f"cell {i}: iteration times exceed the solve wall")
    if rows is not None:
        ok = [s for s in solves if s.error is None]
        if len(rows) != len(ok):
            problems.append(f"sweep returned {len(rows)} rows for {len(ok)} solves")
        for i, (row, s) in enumerate(zip(rows, ok)):
            if row["sum_rate_bps_hz"] != s.sum_rate:
                problems.append(f"row {i}: sweep reports {row['sum_rate_bps_hz']!r}, "
                                f"solver returned {s.sum_rate!r}")
    return problems


def same_results(a, b):
    """True when two solves of one cell returned bit-identical traces."""
    if (a.error is None) != (b.error is None):
        return False
    if a.error is not None:
        return True
    return (a.trace.sum_rates == b.trace.sum_rates
            and np.array_equal(a.iterate.precoders, b.iterate.precoders)
            and np.array_equal(a.iterate.capacitances, b.iterate.capacitances)
            and np.array_equal(a.iterate.selections, b.iterate.selections))
