"""The benchmark's layer table must keep naming functions the library has."""

import importlib
from pathlib import Path

import pytest

from bdris import precoding, rates, solver, switches

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    measure = importlib.import_module("measure")
    assert measure.LAYERS
    for owner, attr, name in measure.LAYERS:
        assert callable(getattr(owner, attr, None)), \
            f"layer {name}: {owner.__name__}.{attr} no longer exists"


def test_counted_solve_precoder_runs_once_per_bisection(monkeypatch, multiuser_network):
    # the benchmark counts precoding.solve_precoder outside LAYERS and reports
    # it per bisection; a bisection solves all its users' precoders in one call
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    measure = importlib.import_module("measure")
    assert measure.precoding is precoding
    assert callable(getattr(precoding, "solve_precoder", None))
    channels, iterate, noise = multiuser_network
    calls = []
    solve = precoding.solve_precoder

    def counted(*args):
        calls.append(args)
        return solve(*args)
    monkeypatch.setattr(precoding, "solve_precoder", counted)
    for q in range(channels.num_bs):
        surrogates = precoding.build_surrogates(q, iterate, channels, noise)
        for budget in (1e-3, 1e9):
            calls.clear()
            precoding.bisect_power_multiplier(surrogates, 0.8, budget)
            assert len(calls) == 1


@pytest.mark.parametrize("ris_mode, per_bs", [("bd", 1), ("diagonal", 0)])
def test_sweep_solves_one_assignment_per_bs(monkeypatch, multiuser_network, ris_mode,
                                            per_bs):
    # the benchmark's switches.move_ratio divides accepted moves by the
    # number of switches.solve_selection calls; one call per BS in bd holds
    # only while the norm screen certifies no surface of this network at the
    # default weight, so that is asserted first
    channels, iterate, noise = multiuser_network
    snap = rates.snapshot(iterate, channels, noise)
    assert rates.surface_gradients(iterate, channels, snap, tau=0.8)[2].all()
    calls = []
    solve = switches.solve_selection

    def counted(reward):
        calls.append(reward)
        return solve(reward)
    monkeypatch.setattr(switches, "solve_selection", counted)
    solver.local_subproblems(iterate, channels, noise, 1.0,
                             solver.SolverConfig(ris_mode=ris_mode))
    assert len(calls) == per_bs * channels.num_bs


@pytest.mark.parametrize("name", ["bd-fixed", "sweep-direct"])
def test_traced_tiny_run_has_no_problems(monkeypatch, name):
    # every library name the workloads call must still resolve and give
    # checked, repeatable results with all layers wrapped
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    measure = importlib.import_module("measure")
    workloads = importlib.import_module("workloads")
    problems = measure.traced_run(workloads.tiny(workloads.WORKLOADS[name]), 3, 0.0)[-1]
    assert problems == []
