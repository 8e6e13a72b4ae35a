import numpy as np
import pytest

import oracles
from bdris.errors import NumericalFailureError
from bdris.rates import Iterate, snapshot, sum_rate
from bdris.solver import (Candidate, SolverConfig, blend_step, capacitance_tau,
                          initial_iterate, local_subproblem, run,
                          step_size_schedule)

from conftest import make_network


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.tau == 0.80
        assert cfg.ris_enabled

    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0}, {"alpha0": 0.0}, {"alpha0": 1.5}, {"epsilon": 1.0},
        {"ris_mode": "both"}, {"max_iters": 0},
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
        np.testing.assert_allclose(it0.bs_power(channels.bs_of_user), budgets,
                                   rtol=1e-12)

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
        np.testing.assert_allclose(cand.precoders, 0, atol=1e-14)
        np.testing.assert_allclose(cand.capacitances, iterate.capacitances[0])
        np.testing.assert_array_equal(cand.selection, iterate.selections[0])

    def test_non_cooperative_ignores_other_cells(self, small_network):
        channels, iterate, noise = small_network
        cfg = SolverConfig(cooperative=False)
        cand = local_subproblem(0, iterate, channels, noise, 1.0, cfg)
        # killing the cross channels must not change the candidate
        channels.direct[0, 1] = 0
        channels.ris_ue[0, 1] = 0
        cand2 = local_subproblem(0, iterate, channels, noise, 1.0, cfg)
        np.testing.assert_allclose(cand.precoders, cand2.precoders)
        np.testing.assert_allclose(cand.capacitances, cand2.capacitances)

    def test_diagonal_mode_pins_selection(self, small_network):
        channels, iterate, noise = small_network
        cfg = SolverConfig(ris_mode="diagonal")
        cand = local_subproblem(0, iterate, channels, noise, 1.0, cfg)
        np.testing.assert_array_equal(cand.selection, iterate.selections[0])
        assert cand.reward is None

    def test_none_mode_freezes_surface(self, small_network):
        channels, iterate, noise = small_network
        cfg = SolverConfig(ris_mode="none")
        cand = local_subproblem(0, iterate, channels, noise, 1.0, cfg)
        np.testing.assert_array_equal(cand.capacitances, iterate.capacitances[0])
        np.testing.assert_array_equal(cand.selection, iterate.selections[0])

    def test_switch_hold_delays_selection_update(self, small_network):
        channels, iterate, noise = small_network
        cfg = SolverConfig(ris_mode="bd", switch_hold_iters=5)
        early = local_subproblem(0, iterate, channels, noise, 1.0, cfg, iteration=3)
        assert early.reward is None
        late = local_subproblem(0, iterate, channels, noise, 1.0, cfg, iteration=5)
        assert late.reward is not None


class TestBlendStep:
    def _candidates(self, channels, iterate, w_scale=0.5):
        cands = []
        for q in range(channels.num_bs):
            own = channels.users_of_bs(q)
            cands.append(Candidate(w_scale * iterate.precoders[own],
                                   np.full(channels.num_elements, 1.0e-12),
                                   iterate.selections[q], None, 0.0))
        return cands

    def test_full_step_reaches_candidate(self, small_network):
        channels, iterate, _ = small_network
        cands = self._candidates(channels, iterate)
        out = blend_step(iterate, cands, 1.0, channels)
        np.testing.assert_allclose(out.precoders, 0.5 * iterate.precoders)
        np.testing.assert_allclose(out.capacitances, 1.0e-12)

    def test_zero_step_keeps_iterate(self, small_network):
        channels, iterate, _ = small_network
        cands = self._candidates(channels, iterate)
        out = blend_step(iterate, cands, 0.0, channels)
        np.testing.assert_allclose(out.precoders, iterate.precoders)
        np.testing.assert_allclose(out.capacitances, iterate.capacitances)

    def test_blend_stays_feasible_for_any_step(self, rng):
        channels, iterate, noise = make_network(rng)
        budgets = iterate.bs_power(channels.bs_of_user)
        cands = []
        for q in range(channels.num_bs):
            own = channels.users_of_bs(q)
            # a different feasible candidate: rescaled precoders, corner caps
            cands.append(Candidate(0.9 * iterate.precoders[own][::-1],
                                   np.full(channels.num_elements,
                                           channels.circuit.c_max),
                                   iterate.selections[q], None, 0.0))
        for alpha in rng.uniform(0.0, 1.0, 25):
            out = blend_step(iterate, cands, float(alpha), channels)
            out.validate(channels, budgets)

    def test_selection_guard_accepts_only_improvements(self, small_network):
        channels, iterate, _ = small_network
        m_n = channels.num_elements
        # anchor BS 0 at the identity so the swap is a strict improvement
        iterate.selections[0] = np.arange(m_n)
        swap = np.arange(m_n)
        swap[[0, 1]] = swap[[1, 0]]
        good = np.zeros((m_n, m_n))
        good[0, 1] = good[1, 0] = 5.0  # reward favors the swap
        np.fill_diagonal(good, 0.0)
        bad = -good
        cands = [Candidate(iterate.precoders[channels.users_of_bs(q)],
                           iterate.capacitances[q], swap,
                           good if q == 0 else bad, 0.0)
                 for q in range(channels.num_bs)]
        out = blend_step(iterate, cands, 0.5, channels)
        np.testing.assert_array_equal(out.selections[0], swap)
        np.testing.assert_array_equal(out.selections[1], iterate.selections[1])


class TestRun:
    def test_trace_and_feasibility(self, rng):
        channels, _, noise = make_network(rng)
        cfg = SolverConfig(max_iters=30, tol=0.0)
        best, trace = run(channels, 1.0, noise, cfg)
        assert trace.num_iterations == 30
        assert len(trace.sum_rates) == 31
        best.validate(channels, np.array([1.0, 1.0]))
        assert np.all(np.asarray(trace.power_slacks) >= -1e-9)

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
        import bdris.solver as solver_mod

        def broken_blend(iterate, candidates, alpha, ch):
            out = iterate.copy()
            out.precoders *= 10.0
            return out

        monkeypatch.setattr(solver_mod, "blend_step", broken_blend)
        with pytest.raises(NumericalFailureError):
            run(channels, 1.0, noise, SolverConfig(max_iters=3))


class TestTraceCsv:
    def test_columns_and_determinism(self, rng, tmp_path):
        channels, _, noise = make_network(rng)
        cfg = SolverConfig(max_iters=5, tol=0.0)
        _, trace = run(channels, 1.0, noise, cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(p1)
        trace.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "iteration,sum_rate,alpha,power_slack_bs0,power_slack_bs1"
