"""Untraced and traced measurement of one workload.

The untraced run gives the end-to-end metrics.  The traced run wraps the
public functions of every layer (``LAYERS``) and gives the per-layer
metrics; its wrappers are removed, and checked removed, before the untraced
re-run that prices the tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bdris import (capacitance, montecarlo, precoding, rates, scenario, solver,
                   switches)

import workloads
from tracer import Tracer

SETUP_SAMPLES = 3

# (owner, attribute the caller looks up, span name).  ``solver.run`` is
# looked up as ``bdris.solver.run`` by the benchmark and as
# ``montecarlo.run_solver`` inside ``run_sweep``; both feed one span name.
LAYERS = (
    (scenario, "generate_channels", "channels.generate_channels"),
    (solver, "snapshot", "rates.snapshot"),
    (rates.Iterate, "validate", "rates.Iterate.validate"),
    (precoding, "build_surrogates", "precoding.build_surrogates"),
    (precoding, "pricing_vector", "precoding.pricing_vector"),
    (precoding, "bisect_power_multiplier", "precoding.bisect_power_multiplier"),
    (capacitance, "rate_gradient", "capacitance.rate_gradient"),
    (capacitance, "pricing_gradient", "capacitance.pricing_gradient"),
    (switches, "selection_gradient", "switches.selection_gradient"),
    (switches, "selection_pricing", "switches.selection_pricing"),
    (switches, "solve_selection", "switches.solve_selection"),
    (solver, "local_subproblem", "solver.local_subproblem"),
    (solver, "blend_step", "solver.blend_step"),
    (solver, "run", "solver.run"),
    (montecarlo, "run_solver", "solver.run"),
    (montecarlo, "run_sweep", "montecarlo.run_sweep"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYERS))

_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
w = workloads.WORKLOADS[sys.argv[3]]
if sys.argv[5] == "1":
    w = workloads.tiny(w)
workloads.setup(w, int(sys.argv[4]))
print(repr(time.perf_counter() - start))
"""


@dataclass
class Pass:
    """The solves of one pass over a workload's cells (maybe cut short)."""

    solves: list
    rows: list | None
    wall: float
    complete: bool


def setup_seconds(name, seed, tiny, src_dir):
    """Median over fresh interpreters of import + scenario + channels time."""
    bench_dir = str(Path(__file__).resolve().parent)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, bench_dir, str(src_dir), name,
             str(seed), "1" if tiny else "0"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def run_for(inputs, seconds, check_inline=True):
    """Repeat the workload's units for about ``seconds``; at least one pass.

    A unit is started only while it is expected to end within ``seconds``,
    judged by the median unit of the first pass.  Returns (passes,
    problems).  With ``check_inline`` each unit is checked as it ends, and a
    repeated unit then keeps only its traces and clocks, so that peak memory
    does not grow with the number of repeats; otherwise the caller checks.
    """
    w = inputs.workload
    units = w.units()
    start = time.perf_counter()
    passes, problems, step = [], [], None
    while True:
        solves, rows, walls = [], [], []
        for u, unit in enumerate(units):
            if step is not None and time.perf_counter() - start + step > seconds:
                break
            t = time.perf_counter()
            unit_solves, unit_rows = workloads.run_unit(inputs, unit)
            walls.append(time.perf_counter() - t)
            if check_inline:
                first = passes[0].solves[len(solves):] if passes else None
                problems += check(unit_solves, unit_rows,
                                  f"pass {len(passes)}, unit {u}", first)
                for s in unit_solves if passes else ():
                    s.args = s.iterate = None
            solves += unit_solves
            rows += unit_rows or []
        if not solves:
            break
        passes.append(Pass(solves, rows if w.kind == "sweep" else None,
                           sum(walls), len(walls) == len(units)))
        if step is None:
            step = statistics.median(walls)
        if time.perf_counter() - start + step > seconds:
            break
    return passes, problems


def check(solves, rows, label, first=None):
    """Output checks of some solves; repeats must match ``first`` bit for bit."""
    problems = [f"{label}: {m}" for m in workloads.check_pass(solves, rows)]
    for j, (a, b) in enumerate(zip(first or (), solves)):
        if not workloads.same_results(a, b):
            problems.append(f"{label}: cell {j} differs from its first solve")
    return problems


def succeeded(passes):
    return [s for p in passes for s in p.solves if s.error is None]


def end_to_end(inputs, passes, setup_s):
    """End-to-end metrics of an untraced run.

    Times come from whole passes only, so every cell weighs the same however
    many repeats fitted in; failures are counted in every pass.
    """
    whole = [p for p in passes if p.complete]
    ok = succeeded(whole)
    if not ok:
        raise RuntimeError("no solve succeeded")
    iters = np.array([t for s in ok for t in s.trace.wall_times[1:]]) * 1e3
    solve_p50 = statistics.median(s.wall for s in ok)
    # One slow-converging cell must not dominate the pass time, so each
    # solve counts at the median solve time; the time a pass spends outside
    # the solver (channel generation, sweep bookkeeping) is added as measured.
    outside = statistics.median(p.wall - sum(s.wall for s in p.solves) for p in whole)
    first = [s.sum_rate for s in passes[0].solves if s.error is None]
    attempted = sum(len(p.solves) for p in passes)
    return {
        "setup_s": setup_s,
        "solve_s_p50": solve_p50,
        "iter_ms_p50": float(np.percentile(iters, 50)),
        "iter_ms_p90": float(np.percentile(iters, 90)),
        "wall_s": len(inputs.workload.cells()) * solve_p50 + outside,
        "sum_rate_bps_hz": statistics.fmean(first),
        "solved_frac": len(succeeded(passes)) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def install_layers(tracer):
    """Wrap every layer function; count solver-internal events as well."""
    def count_moves(args, kwargs, result):
        before = args[0].selections
        tracer.counts["switches.moves_accepted"] += sum(
            not np.array_equal(a, b) for a, b in zip(before, result.selections))

    for owner, attr, name in LAYERS:
        tracer.span(owner, attr, name,
                    after=count_moves if name == "solver.blend_step" else None)
    tracer.count(precoding, "solve_precoder", "precoding.solve_precoder")


def traced_run(workload, seed, seconds):
    """Set up and run the workload with every layer wrapped.

    Returns (tracer, inputs, passes, traced wall seconds, problems).  The
    wrappers are removed before this returns, whatever happened, and the
    outputs are checked once they are.
    """
    tracer = Tracer()
    install_layers(tracer)
    try:
        start = time.perf_counter()
        inputs = workloads.setup(workload, seed)
        passes = run_for(inputs, seconds, check_inline=False)[0]
        wall = time.perf_counter() - start
    finally:
        tracer.remove()
    problems = tracer.check()
    for i, p in enumerate(passes):
        problems += check(p.solves, p.rows, f"pass {i}",
                          passes[0].solves if i else None)
    return tracer, inputs, passes, wall, problems


def untraced_overhead(passes, seconds):
    """Re-run the first pass's cells untraced; (overhead fraction, problems).

    Cells are re-run in order until a quarter of ``seconds`` is spent.  The
    untraced results must be bit-identical to the traced ones.
    """
    traced = untraced = 0.0
    problems = []
    start = time.perf_counter()
    for j, s in enumerate(passes[0].solves):
        again = workloads.timed_solve(solver.run, *s.args)
        if not workloads.same_results(s, again):
            problems.append(f"cell {j}: traced and untraced results differ")
        traced += s.wall
        untraced += again.wall
        if time.perf_counter() - start >= seconds / 4:
            break
    return traced / untraced - 1.0, problems


def per_layer(tracer, passes, traced_wall, overhead):
    """Per-layer metrics of a traced run."""
    selfs = tracer.self_times()
    n = len(selfs["solver.run"])
    if not n:
        raise RuntimeError("no solve was traced")
    out = {}
    for name in SPAN_NAMES:
        t = selfs.get(name, [])
        out[f"{name}.calls"] = len(t) / n
        out[f"{name}.ms"] = 1e3 * statistics.median(t) if t else 0.0
        out[f"{name}.share"] = sum(t) / traced_wall
    bisects = len(selfs.get("precoding.bisect_power_multiplier", ()))
    assignments = len(selfs.get("switches.solve_selection", ()))
    moves = tracer.counts["switches.moves_accepted"]
    ok = succeeded(passes)
    out["precoding.solve_precoder.per_bisect"] = (
        tracer.counts["precoding.solve_precoder"] / bisects if bisects else 0.0)
    out["switches.moves_accepted"] = moves / n
    out["switches.move_ratio"] = moves / assignments if assignments else 0.0
    out["solver.iters_per_solve"] = statistics.fmean(
        s.trace.num_iterations for s in ok)
    out["solver.rate_drops_per_solve"] = statistics.fmean(
        int(np.sum(np.diff(s.trace.sum_rates) < 0)) for s in ok)
    out["trace.overhead_frac"] = overhead
    return out
