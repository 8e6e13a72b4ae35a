import copy
import csv
import dataclasses
import math
import sys
import tracemalloc
from array import array

import numpy as np
import pytest

import oracles
from bdris import capacitance, precoding, switches
from bdris import channels as channels_mod, circuit as circuit_mod, rates as rates_mod
from bdris import solver as solver_mod
from bdris.errors import NumericalFailureError
from bdris.rates import Iterate, bs_power, snapshot, sum_rate
from bdris.scenario import dbm_to_watt
from bdris.solver import (MAX_HALVINGS, Candidate, SolverConfig, blend_step,
                          capacitance_tau, initial_iterate, local_subproblem,
                          local_subproblems, run, solver_config_for,
                          step_size_schedule)

from conftest import assert_same_snapshot, make_network, recorded_bounds


def swap_first_elements(iterate, candidate):
    """``candidate`` with every BS proposing its current permutation with
    elements 0 and 1 swapped, at a positive switch gain."""
    swap = iterate.selections.copy()
    swap[:, [0, 1]] = swap[:, [1, 0]]
    return dataclasses.replace(candidate,
                               target=dataclasses.replace(candidate.target, selections=swap),
                               switch_gains=np.ones(len(swap)))


def column_bytes(column):
    """Bytes a trace column allocates for its entries, spare room included."""
    if isinstance(column, array):
        return sys.getsizeof(column) - sys.getsizeof(array(column.typecode))
    return column.nbytes


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.tau == 0.80
        assert cfg.ris_enabled

    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0}, {"alpha0": 0.0}, {"alpha0": 1.5}, {"epsilon": 1.0},
        {"ris_mode": "both"}, {"max_iters": 0},
        {"tau": np.nan}, {"tau": np.inf}, {"tol": -1e-9}, {"tol": np.nan},
        {"max_iters": 2.5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSchedule:
    def test_first_step_is_alpha0(self):
        cfg = SolverConfig(alpha0=0.3)
        assert step_size_schedule(0, 999.0, cfg) == 0.3

    def test_strictly_decreasing_and_positive(self):
        cfg = SolverConfig(alpha0=1.0, epsilon=1e-2)
        alpha = step_size_schedule(0, None, cfg)
        for t in range(1, 10**5):
            nxt = step_size_schedule(t, alpha, cfg)
            assert 0 < nxt < alpha
            alpha = nxt

    def test_zero_epsilon_is_constant(self):
        cfg = SolverConfig(alpha0=0.5, epsilon=0.0)
        alpha = step_size_schedule(0, None, cfg)
        for t in range(1, 100):
            alpha = step_size_schedule(t, alpha, cfg)
        assert alpha == 0.5


class TestInitialIterate:
    def test_feasible_and_fully_loaded(self, small_network):
        channels, _, _ = small_network
        budgets = np.array([2.0, 3.0])
        it0 = initial_iterate(channels, budgets)
        it0.validate(channels, budgets)
        np.testing.assert_allclose(
            bs_power(it0.precoders, channels.bs_of_user, channels.num_bs), budgets, rtol=1e-12)

    def test_matched_to_direct_channel(self, small_network):
        channels, _, _ = small_network
        it0 = initial_iterate(channels, 1.0)
        h = channels.direct[0, 0, 0]
        w = it0.precoders[0, 0]
        cos = abs(np.conj(h) @ w) / (np.linalg.norm(h) * np.linalg.norm(w))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_capacitances_identity_selections(self, small_network):
        channels, _, _ = small_network
        it0 = initial_iterate(channels, 1.0)
        np.testing.assert_allclose(it0.capacitances, channels.circuit.midpoint())
        for q in range(channels.num_bs):
            np.testing.assert_array_equal(it0.selections[q],
                                          np.arange(channels.num_elements))


class TestLocalSubproblem:
    def test_stationary_point_is_fixed(self, rng):
        # with zero precoders and no gradients the proximal solution stays put
        channels, iterate, noise = make_network(rng)
        iterate.precoders[:] = 0
        cfg = SolverConfig(ris_mode="bd")
        cand = local_subproblem(0, iterate, channels, noise, 1.0, cfg)
        np.testing.assert_allclose(cand.target.precoders, 0, atol=1e-14)
        np.testing.assert_allclose(cand.target.capacitances[0], iterate.capacitances[0])
        np.testing.assert_array_equal(cand.target.selections[0], iterate.selections[0])

    @pytest.mark.parametrize("variant", ["bd", "diag", "bd-pi0", "none", "none-pi0"])
    @pytest.mark.parametrize("network", ["small_network", "multiuser_network"])
    def test_forms_the_weighted_amplitudes_once(self, monkeypatch, request, network,
                                                variant):
        # all three blocks read one weighting, assembled once a sweep; only a
        # sweep that prices nothing, one-user cells without surfaces or
        # cooperation, assembles none
        channels, iterate, noise = request.getfixturevalue(network)
        cfg = solver_config_for(SolverConfig(), variant)
        calls, form = [], rates_mod.weighted_amplitudes

        def counted(*args, **kwargs):
            calls.append(args)
            return form(*args, **kwargs)
        for owner in (rates_mod, precoding):
            monkeypatch.setattr(owner, "weighted_amplitudes", counted)
        local_subproblems(iterate, channels, noise, 1.0, cfg)
        priced = cfg.ris_enabled or cfg.cooperative or channels.num_users > channels.num_bs
        assert len(calls) == priced

    def test_non_cooperative_ignores_other_cells(self, small_network):
        channels, iterate, noise = small_network
        cfg = SolverConfig(cooperative=False)
        cand = local_subproblem(0, iterate, channels, noise, 1.0, cfg)
        # killing the cross channels must not change the candidate
        channels.direct[0, 1] = 0
        channels.ris_ue[0, 1] = 0
        cand2 = local_subproblem(0, iterate, channels, noise, 1.0, cfg)
        np.testing.assert_allclose(cand.target.precoders, cand2.target.precoders)
        np.testing.assert_allclose(cand.target.capacitances[0],
                                   cand2.target.capacitances[0])

    def test_diagonal_mode_pins_selection(self, small_network):
        channels, iterate, noise = small_network
        cfg = SolverConfig(ris_mode="diagonal")
        cand = local_subproblem(0, iterate, channels, noise, 1.0, cfg)
        np.testing.assert_array_equal(cand.target.selections[0], iterate.selections[0])
        np.testing.assert_array_equal(cand.switch_gains, 0.0)

    def test_none_mode_freezes_surface(self, small_network):
        channels, iterate, noise = small_network
        cfg = SolverConfig(ris_mode="none")
        cand = local_subproblem(0, iterate, channels, noise, 1.0, cfg)
        np.testing.assert_array_equal(cand.target.capacitances[0], iterate.capacitances[0])
        np.testing.assert_array_equal(cand.target.selections[0], iterate.selections[0])

    @pytest.mark.parametrize("cooperative", [True, False])
    def test_matches_per_block_functions(self, multiuser_network, default_scale_network,
                                         cooperative):
        # slice q of the batched sweep must give the candidate that the
        # per-BS precoder functions and the four public per-block gradients
        # give; BS 0 of multiuser_network has two users, so the intracell
        # (t != v) weights are exercised
        for network in (multiuser_network, default_scale_network):
            for ris_mode in ("bd", "diagonal", "none"):
                cfg = SolverConfig(ris_mode=ris_mode, cooperative=cooperative)
                self.assert_sweep_matches_blocks(*network, cfg)

    def test_matches_per_block_functions_where_switches_move(self, multiuser_network,
                                                             monkeypatch):
        # below both BSs' switch bounds, where both switches move, and between
        # the two bounds, the screen falls through for the uncertified BSs
        channels, iterate, noise = multiuser_network
        bounds = recorded_bounds(monkeypatch)
        local_subproblems(iterate, channels, noise, 1.0, SolverConfig())
        low, high = sorted(bounds)
        for tau in (1e-3 * low, np.sqrt(low * high)):
            cfg = SolverConfig(tau=tau)
            cand = local_subproblems(iterate, channels, noise, 1.0, cfg)
            snap = snapshot(iterate, channels, noise)
            uncertified = rates_mod.surface_gradients(iterate, channels, snap, tau=tau)[2]
            assert uncertified.sum() == (2 if tau < low else 1)
            moved = np.any(cand.target.selections != iterate.selections, axis=1)
            assert not np.any(moved & ~uncertified) and (tau > low or moved.all())
            self.assert_sweep_matches_blocks(channels, iterate, noise, cfg)

    @staticmethod
    def assert_sweep_matches_blocks(channels, iterate, noise, cfg):
        ris, coop = cfg.ris_enabled, cfg.cooperative
        snap = snapshot(iterate, channels, noise, ris)
        tau_c = capacitance_tau(cfg.tau, channels.circuit)
        cand = local_subproblems(iterate, channels, noise, 1.0, cfg, snap)
        q_n = channels.num_bs
        for arr in (cand.switch_gains, cand.surrogate_values, cand.power_multipliers):
            assert arr.shape == (q_n,)
        for q in range(q_n):
            own = channels.users_of_bs(q)
            surrogates = precoding.build_surrogates(
                q, iterate, channels, noise, snap, cooperative=coop, ris_enabled=ris)
            lam, w_hat = precoding.bisect_power_multiplier(surrogates, cfg.tau, 1.0)
            value = sum(precoding.objective_values(s, w, cfg.tau)
                        for s, w in zip(surrogates, w_hat))
            c_hat, s_hat = iterate.capacitances[q], iterate.selections[q]
            if ris:
                grad_c = capacitance.rate_gradient(q, iterate, channels, noise, snap)
                if coop:
                    grad_c = grad_c + capacitance.pricing_gradient(
                        q, iterate, channels, noise, snap)
                c_prev = c_hat
                c_hat = capacitance.update_capacitances(c_prev, grad_c, tau_c,
                                                        channels.circuit)
                dc = c_hat - c_prev
                value += grad_c @ dc - 0.5 * tau_c * dc @ dc
            if cfg.ris_mode == "bd":
                grad_s = switches.selection_gradient(q, iterate, channels, noise, snap)
                if coop:
                    grad_s = grad_s + switches.selection_pricing(q, iterate, channels,
                                                                 noise, snap)
                reward = switches.selection_reward(grad_s, s_hat, cfg.tau)
                s_prev, s_hat = s_hat, switches.solve_selection(reward)
                gain = switches.reward_gain(reward, s_hat, s_prev)
                value += gain
                np.testing.assert_allclose(cand.switch_gains[q], gain, rtol=1e-12)
            else:
                assert cand.switch_gains[q] == 0.0
            assert cand.power_multipliers[q] == lam
            np.testing.assert_array_equal(cand.target.selections[q], s_hat)
            np.testing.assert_allclose(cand.target.precoders[own], w_hat,
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(cand.target.capacitances[q], c_hat,
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(cand.surrogate_values[q], value, rtol=1e-12)
            single = local_subproblem(q, iterate, channels, noise, 1.0, cfg, snap)
            np.testing.assert_array_equal(single.target.precoders, cand.target.precoders[own])
            np.testing.assert_array_equal(single.target.capacitances,
                                          cand.target.capacitances[[q]])
            np.testing.assert_array_equal(single.target.selections,
                                          cand.target.selections[[q]])
            for name in ("switch_gains", "surrogate_values", "power_multipliers"):
                np.testing.assert_array_equal(getattr(single, name),
                                              getattr(cand, name)[[q]])


def batched_candidate(precoders, capacitances, selections, gains=None):
    """A sweep result proposing the given point, with zero surrogate values."""
    q_n = len(capacitances)
    gains = np.zeros(q_n) if gains is None else np.asarray(gains, dtype=float)
    return Candidate(Iterate(precoders, capacitances, selections), gains,
                     np.zeros(q_n), np.zeros(q_n), np.zeros(q_n, int))


class TestBlendStep:
    def _candidate(self, iterate, w_scale=0.5):
        return batched_candidate(w_scale * iterate.precoders,
                                 np.full(iterate.capacitances.shape, 1.0e-12),
                                 iterate.selections)

    def test_full_step_reaches_candidate(self, small_network):
        channels, iterate, _ = small_network
        out = blend_step(iterate, self._candidate(iterate), 1.0)
        np.testing.assert_allclose(out.precoders, 0.5 * iterate.precoders)
        np.testing.assert_allclose(out.capacitances, 1.0e-12)

    def test_zero_step_keeps_iterate(self, small_network):
        channels, iterate, _ = small_network
        out = blend_step(iterate, self._candidate(iterate), 0.0)
        np.testing.assert_allclose(out.precoders, iterate.precoders)
        np.testing.assert_allclose(out.capacitances, iterate.capacitances)

    def test_blend_stays_feasible_for_any_step(self, rng):
        channels, iterate, noise = make_network(rng)
        budgets = bs_power(iterate.precoders, channels.bs_of_user, channels.num_bs)
        # a different feasible candidate: each BS's precoders rescaled and
        # reversed over its users, corner caps
        w = iterate.precoders.copy()
        for q in range(channels.num_bs):
            own = channels.users_of_bs(q)
            w[own] = 0.9 * iterate.precoders[own][::-1]
        cand = batched_candidate(w, np.full(iterate.capacitances.shape,
                                            channels.circuit.c_max),
                                 iterate.selections)
        for alpha in rng.uniform(0.0, 1.0, 25):
            out = blend_step(iterate, cand, float(alpha))
            out.validate(channels, budgets)

    def test_full_step_lands_inside_the_box(self, rng):
        # c + 1.0 (c_max - c) rounds above c_max for about 1% of c < c_max / 2;
        # each blended capacitance stays between its two endpoints
        circuit = circuit_mod.ElementCircuit()
        caps = rng.uniform(circuit.c_min, 0.5 * circuit.c_max, (2, 1000))
        sels = np.tile(np.arange(1000), (2, 1))
        iterate = Iterate(np.zeros((2, 1, 1), complex), caps, sels)
        for corner in (circuit.c_max, circuit.c_min):
            cand = batched_candidate(iterate.precoders, np.full(caps.shape, corner), sels)
            for alpha in [1.0, *rng.uniform(0.0, 1.0, 5)]:
                out = blend_step(iterate, cand, float(alpha)).capacitances
                assert np.all((out >= np.minimum(caps, corner))
                              & (out <= np.maximum(caps, corner)))

    def test_selection_guard_accepts_only_improvements(self, small_network):
        channels, iterate, _ = small_network
        m_n = channels.num_elements
        # anchor BS 0 at the identity; both BSs propose the same swap, with a
        # positive gain on BS 0 and a negative one on BS 1
        iterate.selections[0] = np.arange(m_n)
        swap = np.arange(m_n)
        swap[[0, 1]] = swap[[1, 0]]
        cand = batched_candidate(iterate.precoders, iterate.capacitances,
                                 np.tile(swap, (channels.num_bs, 1)), gains=[5.0, -5.0])
        out = blend_step(iterate, cand, 0.5)
        np.testing.assert_array_equal(out.selections[0], swap)
        np.testing.assert_array_equal(out.selections[1], iterate.selections[1])

    def test_unmoved_blocks_pass_through(self, small_network):
        # a surface-less candidate keeps the iterate's capacitances, and no
        # positive switch gain keeps its selections: both come back as the
        # same arrays, while the precoders blend
        channels, iterate, _ = small_network
        cand = batched_candidate(0.5 * iterate.precoders, iterate.capacitances,
                                 iterate.selections[:, ::-1], gains=[0.0, -1.0])
        out = blend_step(iterate, cand, 0.3)
        assert out.capacitances is iterate.capacitances
        assert out.selections is iterate.selections
        np.testing.assert_array_equal(
            out.precoders, iterate.precoders + 0.3 * (cand.target.precoders
                                                      - iterate.precoders), strict=True)

    def test_moved_blocks_blend(self, small_network):
        # moved blocks are new arrays, equal bit for bit to the clipped blend
        # and the gain-masked choice
        channels, iterate, _ = small_network
        caps, sels = iterate.capacitances, iterate.selections
        c_hat = np.full(caps.shape, channels.circuit.c_max)
        cand = batched_candidate(iterate.precoders, c_hat, sels[:, ::-1], gains=[2.0, 0.0])
        out = blend_step(iterate, cand, 0.3)
        assert out.capacitances is not caps and out.selections is not sels
        np.testing.assert_array_equal(
            out.capacitances, np.clip(caps + 0.3 * (c_hat - caps), np.minimum(caps, c_hat),
                                      np.maximum(caps, c_hat)), strict=True)
        np.testing.assert_array_equal(out.selections, [sels[0, ::-1], sels[1]], strict=True)


class TestRun:
    def test_trace_and_feasibility(self, rng):
        channels, _, noise = make_network(rng)
        cfg = SolverConfig(max_iters=30, tol=0.0)
        best, trace = run(channels, 1.0, noise, cfg)
        assert trace.num_iterations == 30
        assert len(trace.sum_rates) == 31
        best.validate(channels, np.array([1.0, 1.0]))
        assert np.all(np.asarray(trace.power_slacks) >= -1e-9)

    @pytest.mark.parametrize("budget", [np.nan, np.inf, 0.0, -1.0])
    def test_unusable_budget_rejected_before_any_work(self, rng, monkeypatch, budget):
        channels, _, noise = make_network(rng)

        def no_work(*args, **kwargs):
            raise AssertionError("run started before rejecting the budget")
        monkeypatch.setattr(solver_mod, "initial_iterate", no_work)
        for variant in ("none", "bd"):
            cfg = solver_config_for(SolverConfig(), variant)
            with pytest.raises(ValueError, match="budget"):
                run(channels, budget, noise, cfg)
        with pytest.raises(ValueError, match="budget"):
            run(channels, [1.0, budget], noise, SolverConfig())

    def test_deterministic(self, rng):
        channels, _, noise = make_network(rng)
        cfg = SolverConfig(max_iters=15, tol=0.0)
        b1, t1 = run(channels, 1.0, noise, cfg)
        b2, t2 = run(channels, 1.0, noise, cfg)
        np.testing.assert_array_equal(b1.precoders, b2.precoders)
        np.testing.assert_array_equal(b1.capacitances, b2.capacitances)
        assert t1.sum_rates == t2.sum_rates

    def test_best_never_below_initialization(self, rng):
        for _ in range(5):
            channels, _, noise = make_network(rng)
            cfg = SolverConfig(max_iters=25, tol=0.0)
            best, trace = run(channels, 1.0, noise, cfg)
            assert max(trace.sum_rates) >= trace.sum_rates[0] - 1e-12
            assert sum_rate(best, channels, noise) == pytest.approx(
                max(trace.sum_rates))

    def test_improves_over_initialization(self, rng):
        channels, _, noise = make_network(rng)
        cfg = SolverConfig(max_iters=60, tol=0.0)
        _, trace = run(channels, 1.0, noise, cfg)
        assert max(trace.sum_rates) > trace.sum_rates[0]

    def test_switch_moves_on_strong_coupling(self, rng):
        # O(1) synthetic channels make the selection gradients large enough
        # to beat the proximal attachment to the identity
        moved = 0
        for trial in range(6):
            channels, _, noise = make_network(rng, num_elements=3,
                                              noise_power=1e-3)
            cfg = SolverConfig(max_iters=40, tol=0.0)
            best, _ = run(channels, 4.0, noise, cfg)
            if any(np.any(best.selections[q] != np.arange(3))
                   for q in range(channels.num_bs)):
                moved += 1
        assert moved > 0

    def test_mostly_monotone_on_small_instances(self, rng):
        bad = 0
        for trial in range(15):
            channels, _, noise = make_network(rng)
            cfg = SolverConfig(max_iters=80, tol=0.0)
            _, trace = run(channels, 1.0, noise, cfg)
            if np.any(np.diff(trace.sum_rates) < -1e-6):
                bad += 1
        assert bad <= 1

    @pytest.mark.parametrize("ris_mode, cooperative", [
        ("diagonal", True), ("none", True), ("bd", False)])
    def test_monotone_in_other_variants(self, rng, ris_mode, cooperative):
        for trial in range(4):
            channels, _, noise = make_network(rng)
            cfg = SolverConfig(max_iters=80, tol=0.0, ris_mode=ris_mode,
                               cooperative=cooperative)
            _, trace = run(channels, 1.0, noise, cfg)
            assert np.all(np.diff(trace.sum_rates) >= -1e-6)

    @pytest.mark.parametrize("drops", [0, 1, 2, 5, MAX_HALVINGS + 1, MAX_HALVINGS + 2])
    def test_ascent_trial_order(self, rng, monkeypatch, drops):
        # the first `drops` trial points read a lower sum rate and the next
        # one a higher rate; the trials must run: the scheduled step with the
        # switch moves, the same step with them withheld, then MAX_HALVINGS
        # halvings, and then the iteration takes step 0
        channels, _, noise = make_network(rng)
        solve, snap_of, blend = (solver_mod.local_subproblems, solver_mod.snapshot,
                                 solver_mod.blend_step)
        trials, snaps = [], []

        def recorded_blend(iterate, candidate, alpha):
            out = blend(iterate, candidate, alpha)
            trials.append((alpha, bool(np.any(out.selections != iterate.selections))))
            return out

        def forced_snapshot(*args, **kwargs):
            snap = snap_of(*args, **kwargs)
            if snaps:  # the first call evaluates the initial point
                snap.user_rates = snap.user_rates + (-100.0 if len(snaps) <= drops else 100.0)
            snaps.append(snap)
            return snap

        monkeypatch.setattr(solver_mod, "local_subproblems",
                            lambda it, *a, **k: swap_first_elements(it, solve(it, *a, **k)))
        monkeypatch.setattr(solver_mod, "blend_step", recorded_blend)
        monkeypatch.setattr(solver_mod, "snapshot", forced_snapshot)
        cfg = SolverConfig(max_iters=1, tol=0.0)
        _, trace = run(channels, 1.0, noise, cfg)
        alpha = cfg.alpha0
        order = [(alpha, True), (alpha, False)]
        order += [(alpha * 0.5**i, False) for i in range(1, MAX_HALVINGS + 1)]
        assert trials == order[:drops + 1]
        accepted = drops < len(order)
        assert list(trace.alphas) == [0.0, trials[-1][0] if accepted else 0.0]
        assert trace.sum_rates[1] == (snaps[-1].sum_rate if accepted
                                      else trace.sum_rates[0])

    def test_switch_flip_flop_never_drops(self, rng, monkeypatch):
        # every BS proposes swapping elements 0 and 1 of its current
        # permutation, with a reward favoring the swap, at every iteration;
        # swapping back and forth must not lower the true sum rate
        channels, _, noise = make_network(rng)
        solve = solver_mod.local_subproblems
        sweeps = []

        def swapping_subproblems(iterate, *args, **kwargs):
            sweeps.append(len(sweeps))
            return swap_first_elements(iterate, solve(iterate, *args, **kwargs))

        monkeypatch.setattr(solver_mod, "local_subproblems", swapping_subproblems)
        _, trace = run(channels, 1.0, noise, SolverConfig(max_iters=40, tol=0.0))
        assert len(sweeps) == trace.num_iterations == 40
        assert np.all(np.diff(trace.sum_rates) >= -1e-6)

    def test_reused_routing_matches_fresh_snapshots(self, rng, monkeypatch):
        # switches move at every iteration whose swap is accepted; every
        # snapshot the run makes, with its routing reused or rebuilt, equals
        # a fresh snapshot of the same iterate, bit for bit
        channels, _, noise = make_network(rng)
        solve, snap_of = solver_mod.local_subproblems, solver_mod.snapshot
        made = []

        def recorded_snapshot(iterate, *args, **kwargs):
            snap = snap_of(iterate, *args, **kwargs)
            made.append((iterate, kwargs.get("previous"), snap))
            return snap

        monkeypatch.setattr(solver_mod, "local_subproblems",
                            lambda it, *a, **k: swap_first_elements(it, solve(it, *a, **k)))
        monkeypatch.setattr(solver_mod, "snapshot", recorded_snapshot)
        _, trace = run(channels, 1.0, noise, SolverConfig(max_iters=20, tol=0.0))
        reused = rebuilt = 0
        for iterate, previous, snap in made:
            assert_same_snapshot(snap, snapshot(iterate, channels, noise))
            if previous is not None:
                reused += snap.routed is previous.routed
                rebuilt += snap.routed is not previous.routed
        assert made[0][1] is None and len(made) > trace.num_iterations
        assert reused > 0 and rebuilt > 0
        assert np.sum(trace.switch_moves) > 0

    def test_screen_certifies_every_default_scale_sweep(self, default_scale_network,
                                                        monkeypatch):
        # bd at 30 dBm on trial 0 for 20 iterations: the norm bound certifies
        # every BS in every sweep, and the run equals one with the screen off
        channels, _, noise = default_scale_network
        budget, cfg = dbm_to_watt(30.0), SolverConfig(max_iters=20, tol=0.0)
        bounds = recorded_bounds(monkeypatch)
        screened, trace = run(channels, budget, noise, cfg)
        assert trace.num_iterations == 20
        assert len(bounds) == 20 * channels.num_bs and max(bounds) < cfg.tau
        monkeypatch.setattr(rates_mod, "selection_bounds",
                            lambda z, phased, starts: np.full(len(starts), np.inf))
        full, full_trace = run(channels, budget, noise, cfg)
        for f in dataclasses.fields(screened):
            np.testing.assert_array_equal(getattr(screened, f.name), getattr(full, f.name),
                                          strict=True)
        for f in dataclasses.fields(trace):
            if f.name != "wall_times":
                np.testing.assert_array_equal(getattr(trace, f.name),
                                              getattr(full_trace, f.name), strict=True)

    def test_runs_share_no_state(self, rng):
        # run(A), run(B), run(A) and a run after changing A in place must
        # each reproduce a run on a fresh copy of its channels, bit for bit
        cfg = SolverConfig(max_iters=6, tol=0.0)
        net_a, net_b = make_network(rng), make_network(rng)

        def solve(channels, noise):
            return run(channels, 1.0, noise, cfg)

        def fresh(channels, noise):
            return solve(copy.deepcopy(channels), noise)

        def assert_same(got, want):
            (it_g, tr_g), (it_w, tr_w) = got, want
            assert tr_g.sum_rates == tr_w.sum_rates
            np.testing.assert_array_equal(it_g.precoders, it_w.precoders)
            np.testing.assert_array_equal(it_g.capacitances, it_w.capacitances)
            np.testing.assert_array_equal(it_g.selections, it_w.selections)

        (ch_a, _, noise_a), (ch_b, _, noise_b) = net_a, net_b
        want_a, want_b = fresh(ch_a, noise_a), fresh(ch_b, noise_b)
        assert_same(solve(ch_a, noise_a), want_a)
        assert_same(solve(ch_b, noise_b), want_b)
        assert_same(solve(ch_a, noise_a), want_a)
        ch_a.ris_ue *= 1.5
        ch_a.bs_ris[:, :, 0] = 0.0
        changed = fresh(ch_a, noise_a)
        assert changed[1].sum_rates != want_a[1].sum_rates
        assert_same(solve(ch_a, noise_a), changed)

    def test_circuit_coefficients_computed_once_per_channel_set(self, rng, monkeypatch):
        # two runs on one channel set, every variant with surfaces: the
        # element's rational coefficients are evaluated at most once in total
        channels, _, noise = make_network(rng)
        original, calls = circuit_mod.rational_coefficients, []

        def counted(*args):
            calls.append(args)
            return original(*args)
        for module in (circuit_mod, channels_mod, rates_mod, solver_mod):
            monkeypatch.setattr(module, "rational_coefficients", counted, raising=False)
        for ris_mode in ("bd", "diagonal"):
            run(channels, 1.0, noise, SolverConfig(ris_mode=ris_mode, max_iters=3, tol=0.0))
        assert len(calls) <= 1

    def test_single_user_matches_waterfilling(self, rng):
        # one cell, one user, no surface: the optimum is the matched filter
        # per subcarrier with a water-filling power split
        channels, _, noise = make_network(
            rng, num_bs=1, num_antennas=2, num_subcarriers=4,
            users_per_bs=(1,), noise_power=1e-2)
        gains = np.sum(np.abs(channels.direct[0, 0]) ** 2, axis=1)
        budget = 2.0
        target = oracles.waterfilling_rate(gains, budget, noise)
        cfg = SolverConfig(ris_mode="none", alpha0=1.0, epsilon=0.0,
                           max_iters=4000, tol=0.0)
        best, trace = run(channels, budget, noise, cfg)
        achieved = max(trace.sum_rates)
        assert achieved <= target + 1e-9
        assert achieved >= target * (1.0 - 1e-4)

    def test_infeasible_update_raises(self, rng, monkeypatch):
        channels, _, noise = make_network(rng)

        def broken_blend(iterate, candidate, alpha):
            out = iterate.copy()
            out.precoders *= 10.0
            return out

        monkeypatch.setattr(solver_mod, "blend_step", broken_blend)
        with pytest.raises(NumericalFailureError):
            run(channels, 1.0, noise, SolverConfig(max_iters=3))

    @pytest.mark.parametrize("gain", [1.0, 0.0])
    def test_repeated_index_in_a_moved_row_raises(self, rng, monkeypatch, gain):
        # BS 1 proposes a permutation with a repeated index: validating only
        # the rows with a positive switch gain still finds it there, and a
        # row whose gain is 0 is never merged
        channels, _, noise = make_network(rng)
        solve = solver_mod.local_subproblems

        def repeating_subproblems(iterate, *args, **kwargs):
            candidate = swap_first_elements(iterate, solve(iterate, *args, **kwargs))
            candidate.target.selections[1, 0] = candidate.target.selections[1, 1]
            candidate.switch_gains[1] = gain
            return candidate

        monkeypatch.setattr(solver_mod, "local_subproblems", repeating_subproblems)
        cfg = SolverConfig(max_iters=3, tol=0.0)
        if gain > 0.0:
            with pytest.raises(NumericalFailureError, match="permutations"):
                run(channels, 1.0, noise, cfg)
        else:
            best, _ = run(channels, 1.0, noise, cfg)
            best.validate(channels, 1.0)

    def test_multipliers_warm_start_from_the_previous_sweep(self, monkeypatch,
                                                            default_scale_network):
        # started at 0, every sweep needs >= 6 power-curve evaluations; started
        # at the previous sweep's multipliers, the sweeps after the first
        # need <= 4 on average
        channels, _, noise = default_scale_network
        solve, curves = solver_mod.local_subproblems, precoding.power_curves
        cfg = SolverConfig(ris_mode="none", max_iters=40, tol=0.0)

        def sweeps(warm):
            starts, evaluations = [], []

            def counted_curves(*args):
                curve = curves(*args)

                def counted(lam):
                    evaluations[-1] += 1
                    return curve(lam)
                return counted

            def sweep(*args, start_multipliers=None, **kwargs):
                starts.append(start_multipliers)
                evaluations.append(0)
                return solve(*args, start_multipliers=start_multipliers if warm else None,
                             **kwargs)

            monkeypatch.setattr(precoding, "power_curves", counted_curves)
            monkeypatch.setattr(solver_mod, "local_subproblems", sweep)
            _, trace = run(channels, 1.0, noise, cfg)
            return starts, np.array(evaluations), trace

        starts, warm, trace = sweeps(warm=True)
        _, cold, cold_trace = sweeps(warm=False)
        assert starts[0] is None
        np.testing.assert_array_equal(starts[1:], trace.power_multipliers[1:-1])
        assert warm[0] == cold[0] and len(warm) == len(cold) == 40
        assert np.mean(warm[1:]) <= 4.0 and np.mean(cold[1:]) >= 6.0
        assert np.sum(trace.power_steps) < np.sum(cold_trace.power_steps)


class TestTraceCsv:
    def test_power_multipliers_recorded(self, rng):
        # the initial point records 0s; every sweep records each BS's
        # multiplier, which is positive when the full-power budget binds
        channels, _, noise = make_network(rng)
        _, trace = run(channels, 1.0, noise, SolverConfig(max_iters=5, tol=0.0))
        mults = np.asarray(trace.power_multipliers)
        assert mults.shape == (6, channels.num_bs)
        np.testing.assert_array_equal(mults[0], 0.0)
        assert np.all(mults >= 0.0) and np.any(mults[1:] > 0.0)

    def test_switch_moves_recorded(self, rng, monkeypatch):
        # 0 at the initial point, then the number of elements whose routing
        # the accepted step changed; each accepted swap moves two elements
        channels, _, noise = make_network(rng)
        solve = solver_mod.local_subproblems
        points = []

        def swapping_subproblems(iterate, *args, **kwargs):
            points.append(iterate.selections)
            return swap_first_elements(iterate, solve(iterate, *args, **kwargs))

        monkeypatch.setattr(solver_mod, "local_subproblems", swapping_subproblems)
        best, trace = run(channels, 1.0, noise, SolverConfig(max_iters=20, tol=0.0))
        points.append(best.selections)
        moves = np.asarray(trace.switch_moves)
        assert moves.shape == (21, channels.num_bs) and moves.dtype.kind == "i"
        np.testing.assert_array_equal(moves[0], 0)
        np.testing.assert_array_equal(
            moves[1:], [np.count_nonzero(b != a, axis=1) for a, b in zip(points, points[1:])])
        assert set(moves.ravel()) == {0, 2}

    def test_trials_count_each_iteration_snapshots(self, rng, monkeypatch):
        # every trial merge takes one snapshot, and run's first snapshot is
        # the initial point's; swapping proposals make some iterations retry
        channels, _, noise = make_network(rng)
        solve, snap_of = solver_mod.local_subproblems, solver_mod.snapshot
        snapshots, before_sweep = [], []

        def counted_snapshot(*args, **kwargs):
            snapshots.append(args[0])
            return snap_of(*args, **kwargs)

        def swapping_subproblems(iterate, *args, **kwargs):
            before_sweep.append(len(snapshots))
            return swap_first_elements(iterate, solve(iterate, *args, **kwargs))

        monkeypatch.setattr(solver_mod, "snapshot", counted_snapshot)
        monkeypatch.setattr(solver_mod, "local_subproblems", swapping_subproblems)
        _, trace = run(channels, 1.0, noise, SolverConfig(max_iters=30, tol=0.0))
        assert before_sweep[0] == 1
        assert trace.trials.shape == (31,) and trace.trials.dtype.kind == "i"
        np.testing.assert_array_equal(trace.trials,
                                      [0, *np.diff(before_sweep + [len(snapshots)])])
        assert trace.trials[1:].min() >= 1 and trace.trials.max() > 1

    def test_power_slacks_read_each_row_point(self, rng, monkeypatch):
        # a row's slack is the budget minus the power of the point the row
        # ends on; every trial of iteration 2 reads a lower rate, so that
        # iteration keeps its point (step 0) and ends the run
        channels, _, noise = make_network(rng)
        solve, snap_of = solver_mod.local_subproblems, solver_mod.snapshot
        points = []

        def recorded_subproblems(iterate, *args, **kwargs):
            points.append(iterate)
            return solve(iterate, *args, **kwargs)

        def dropping_snapshot(*args, **kwargs):
            snap = snap_of(*args, **kwargs)
            if len(points) == 2:
                snap.user_rates = snap.user_rates - 100.0
            return snap

        monkeypatch.setattr(solver_mod, "local_subproblems", recorded_subproblems)
        monkeypatch.setattr(solver_mod, "snapshot", dropping_snapshot)
        best, trace = run(channels, 1.0, noise, SolverConfig(max_iters=5, tol=0.0))
        points.append(best)
        assert trace.alphas[1] > 0.0 and trace.alphas[2] == 0.0 and points[2] is points[1]
        np.testing.assert_array_equal(
            trace.power_slacks,
            [1.0 - bs_power(p.precoders, channels.bs_of_user, channels.num_bs) for p in points])

    def test_columns_and_determinism(self, rng, tmp_path):
        channels, _, noise = make_network(rng)
        cfg = SolverConfig(max_iters=5, tol=0.0)
        _, trace = run(channels, 1.0, noise, cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(p1)
        trace.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ("iteration,sum_rate,alpha,wall_time_s,trials,"
                          "surrogate_value_bs0,surrogate_value_bs1,"
                          "power_slack_bs0,power_slack_bs1,"
                          "power_multiplier_bs0,power_multiplier_bs1,"
                          "power_steps_bs0,power_steps_bs1,"
                          "switch_moves_bs0,switch_moves_bs1")

    def test_per_bs_columns_are_arrays(self, rng):
        # one (T+1, Q) array per per-BS quantity, float64 or int32; the scalar
        # columns are array('d')
        channels, _, noise = make_network(rng)
        _, trace = run(channels, 1.0, noise, SolverConfig(max_iters=7, tol=0.0))
        shape = (8, channels.num_bs)
        for name, dtype in (("surrogate_values", np.float64), ("power_slacks", np.float64),
                            ("power_multipliers", np.float64), ("power_steps", np.int32),
                            ("switch_moves", np.int32)):
            column = getattr(trace, name)
            assert isinstance(column, np.ndarray), name
            assert column.shape == shape and column.dtype == dtype, name
        for name in ("sum_rates", "alphas", "wall_times"):
            column = getattr(trace, name)
            assert type(column) is array and column.typecode == "d", name
            assert len(column) == 8, name
            assert all(type(x) is float for x in column), name
        np.testing.assert_array_equal(trace.surrogate_values[0], 0.0)

    def test_csv_rows_equal_trace_columns(self, rng, tmp_path, monkeypatch):
        # every accepted swap moves two elements, so the moves columns are not all 0
        channels, _, noise = make_network(rng)
        solve = solver_mod.local_subproblems
        monkeypatch.setattr(solver_mod, "local_subproblems", lambda iterate, *a, **k:
                            swap_first_elements(iterate, solve(iterate, *a, **k)))
        _, trace = run(channels, 1.0, noise, SolverConfig(max_iters=6, tol=0.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        q_n = channels.num_bs

        def column(prefix, parse):
            return [[parse(r[f"{prefix}_bs{q}"]) for q in range(q_n)] for r in rows]

        assert [int(r["iteration"]) for r in rows] == list(range(len(trace.sum_rates)))
        assert [float(r["sum_rate"]) for r in rows] == list(trace.sum_rates)
        assert [float(r["alpha"]) for r in rows] == list(trace.alphas)
        assert [float(r["wall_time_s"]) for r in rows] == list(trace.wall_times)
        np.testing.assert_array_equal(column("surrogate_value", float),
                                      trace.surrogate_values)
        np.testing.assert_array_equal(column("power_slack", float), trace.power_slacks)
        np.testing.assert_array_equal(column("power_multiplier", float),
                                      trace.power_multipliers)
        np.testing.assert_array_equal(column("power_steps", int), trace.power_steps)
        np.testing.assert_array_equal(column("switch_moves", int), trace.switch_moves)
        np.testing.assert_array_equal([int(r["trials"]) for r in rows], trace.trials)
        assert np.any(trace.switch_moves) and np.any(trace.power_steps)
        assert np.any(trace.surrogate_values) and all(trace.wall_times[1:])

    @pytest.mark.parametrize("ris_mode", ["bd", "none"])
    def test_trace_memory_per_row(self, rng, ris_mode):
        # a run keeps a few numbers per BS and iteration, not one array per entry
        channels, _, noise = make_network(rng)
        tracemalloc.start()
        try:
            _, trace = run(channels, 1.0, noise,
                           SolverConfig(ris_mode=ris_mode, max_iters=200, tol=0.0))
            rows = len(trace.sum_rates)
            held = tracemalloc.get_traced_memory()[0]
            del trace
            kept = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rows == 201
        # at least the five per-BS columns' data, so a measurement that sees nothing fails
        assert 5 * 8 * channels.num_bs <= kept / rows <= 300


class TestTraceColumns:
    @pytest.mark.parametrize("ris_mode", ["bd", "none"])
    def test_row_holds_28_plus_32_q_bytes(self, rng, ris_mode):
        # every column owns exactly its rows' entries: 8 B a float, 4 B a count
        channels, _, noise = make_network(rng)
        _, trace = run(channels, 1.0, noise,
                       SolverConfig(ris_mode=ris_mode, max_iters=200, tol=0.0))
        columns = [getattr(trace, f.name) for f in dataclasses.fields(trace)]
        rows = len(trace.sum_rates)
        assert rows == 201
        assert not any(isinstance(c, list) for c in columns)
        assert all(c.flags.owndata for c in columns if isinstance(c, np.ndarray))
        assert sum(map(column_bytes, columns)) <= rows * (28 + 32 * channels.num_bs)

    def test_columns_are_not_sized_by_max_iters(self, rng):
        # a run that tol stops within tens of iterations allocates as little
        # as it would with a small max_iters
        channels, _, noise = make_network(rng)
        tracemalloc.start()
        try:
            _, trace = run(channels, 1.0, noise,
                           SolverConfig(ris_mode="none", max_iters=10**6, tol=3e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1 < trace.num_iterations < 100
        assert peak < 2e6

    def test_rows_past_the_first_doublings_stay_in_order(self, rng, monkeypatch):
        # each row holds what its iteration's ascent step returned, across two
        # doublings of the record buffer
        channels, _, noise = make_network(rng)
        ascent, steps = solver_mod._ascent_step, []

        def recorded_ascent(*args, **kwargs):
            out = ascent(*args, **kwargs)
            steps.append(out)
            return out

        monkeypatch.setattr(solver_mod, "_ascent_step", recorded_ascent)
        iters = 2 * solver_mod.TRACE_ROWS + 5
        _, trace = run(channels, 1.0, noise, SolverConfig(max_iters=iters, tol=0.0))
        assert trace.num_iterations == len(steps) == iters
        assert trace.sum_rates[0] == snapshot(initial_iterate(channels, 1.0), channels,
                                              noise).sum_rate
        assert list(trace.sum_rates[1:]) == [snap.sum_rate for _, _, _, snap, _ in steps]
        assert list(trace.alphas[1:]) == [step for step, *_ in steps]
        np.testing.assert_array_equal(trace.trials[1:], [trials for _, trials, *_ in steps])
        np.testing.assert_array_equal(trace.power_slacks[1:],
                                      [1.0 - power for *_, power in steps])

    def test_scalar_columns_keep_the_list_operations(self, rng):
        # two traces' rates compare to one bool, and a column takes append,
        # item assignment, slicing, max and np.isfinite
        channels, _, noise = make_network(rng)
        cfg = SolverConfig(max_iters=10, tol=0.0)
        (_, a), (_, b) = run(channels, 1.0, noise, cfg), run(channels, 1.0, noise, cfg)
        same = a.sum_rates == b.sum_rates
        assert type(same) is bool and same
        b.sum_rates[3] = math.nextafter(b.sum_rates[3], 0.0)
        differ = a.sum_rates == b.sum_rates
        assert type(differ) is bool and not differ
        for name in ("sum_rates", "alphas", "wall_times"):
            column = getattr(a, name)
            n = len(column)
            column.append(1.0)
            column[-1] += 1.0
            assert len(column) == n + 1 and column[-1] == 2.0
            assert type(column[1:3]) is type(column) and list(column[1:3]) == [column[1],
                                                                               column[2]]
            assert type(max(column)) is float and max(column) == max(list(column))
            column.append(float("nan"))
            assert np.isfinite(column).tolist() == [True] * (n + 1) + [False]
