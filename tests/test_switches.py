from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import oracles
from oracles import selection_coupling, selection_gain
from bdris import rates, selfcheck, solver, switches
from bdris.rates import Iterate, snapshot
from bdris.switches import (certified_selection, reward_gain, selection_gradient,
                            selection_pricing, selection_reward,
                            solve_selection)

from conftest import complex_normal, make_network, recorded_bounds

TAU = 0.8


def scipy_selection(reward):
    """The assignment solver's permutation, as :func:`solve_selection` returns it."""
    _, cols = linear_sum_assignment(reward, maximize=True)
    return np.argsort(cols)


def spy_on_assignment(monkeypatch):
    """List that records every reward passed to ``switches.linear_sum_assignment``."""
    calls = []

    def spied(reward, maximize=False):
        calls.append(reward)
        return linear_sum_assignment(reward, maximize=maximize)
    monkeypatch.setattr(switches, "linear_sum_assignment", spied)
    return calls


def cooperative_reward(q, iterate, channels, noise):
    """Assignment reward of BS q from its own-cell plus pricing gradients."""
    snap = snapshot(iterate, channels, noise)
    grad = selection_gradient(q, iterate, channels, snap) \
        + selection_pricing(q, iterate, channels, snap)
    return selection_reward(grad, iterate.selections[q], TAU)


class TestSelectionCoupling:
    def test_literal_matrix_matches_assembled_gradient(self, multiuser_network):
        # rebuild the own-cell gradient from the literal per-link matrices
        channels, iterate, noise = multiuser_network
        snap = snapshot(iterate, channels, noise)
        ln2 = np.log(2.0)
        for q in range(channels.num_bs):
            own = channels.users_of_bs(q)
            m_n = channels.num_elements
            expected = np.zeros((m_n, m_n), dtype=complex)
            for v in own:
                for k in range(channels.num_subcarriers):
                    c1 = (2 / ln2) / ((1 + snap.snr[v, k]) * snap.mui[v, k] ** 2)
                    term = snap.mui[v, k] * selection_coupling(
                        q, v, v, k, iterate, channels)
                    for t in own:
                        if t != v:
                            term = term - snap.signal[v, k] * selection_coupling(
                                q, t, v, k, iterate, channels)
                    expected += c1 * term.T
            got = selection_gradient(q, iterate, channels, snap)
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestSelectionGradient:
    def test_zero_precoders_give_zero(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[:] = 0
        np.testing.assert_allclose(
            selection_gradient(0, iterate, channels, snapshot(iterate, channels, noise)), 0)

    def test_matches_directional_finite_differences(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        snap = snapshot(iterate, channels, noise)
        for q in range(channels.num_bs):
            got = np.real(selection_gradient(q, iterate, channels, snap))
            fd = oracles.fd_selection_gradient(
                lambda ch: oracles.cell_rates(iterate, ch, noise, q)[0],
                channels, iterate.selections[q], q)
            assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)


class TestSelectionPricing:
    def test_single_cell_is_zero(self, rng):
        channels, iterate, noise = make_network(rng, num_bs=1, users_per_bs=(1,))
        np.testing.assert_array_equal(
            selection_pricing(0, iterate, channels, snapshot(iterate, channels, noise)), 0)

    def test_matches_directional_finite_differences(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        snap = snapshot(iterate, channels, noise)
        for q in range(channels.num_bs):
            got = np.real(selection_pricing(q, iterate, channels, snap))
            fd = oracles.fd_selection_gradient(
                lambda ch: oracles.cell_rates(iterate, ch, noise, q)[1],
                channels, iterate.selections[q], q)
            assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_scales_with_cross_channel_strength(self, small_network):
        # doubling the surface-to-victim channels must change the pricing;
        # recomputed numerically rather than assumed linear
        channels, iterate, noise = small_network
        base = np.linalg.norm(
            selection_pricing(0, iterate, channels, snapshot(iterate, channels, noise)))
        channels.ris_ue[0, 1] *= 2.0
        channels.direct[0, 1] *= 2.0
        boosted = np.linalg.norm(
            selection_pricing(0, iterate, channels, snapshot(iterate, channels, noise)))
        assert boosted != pytest.approx(base)


class TestDefaultScale:
    def test_matches_einsum_forms(self, default_scale_network):
        # the three-operand einsum forms the single matrix product replaced,
        # at the physical scale of the scenario defaults
        channels, iterate, noise = default_scale_network
        snap = snapshot(iterate, channels, noise)
        ln2 = np.log(2.0)
        for q in range(channels.num_bs):
            own = channels.users_of_bs(q)
            others = np.flatnonzero(channels.bs_of_user != q)
            phi = oracles.reflection_profile(iterate.capacitances[q], channels.grid,
                                     channels.circuit)
            hw = np.einsum("kmn,tkn->tkm", channels.bs_ris[q],
                           iterate.precoders[own])
            phased = phi[None] * hw
            g_conj = np.conj(channels.ris_ue[q])
            scal = np.conj(snap.amplitudes[own])
            idx = np.arange(len(own))
            c1 = (2.0 / ln2) / ((1.0 + snap.snr[own]) * snap.mui[own] ** 2)
            w_own = c1 * snap.mui[own] * scal[idx, own]
            term1 = np.einsum("vk,vki,vkj->ij", w_own, phased, g_conj[own])
            mask = 1.0 - np.eye(len(own))
            w2 = mask[:, :, None] * scal[:, own] * (c1 * snap.signal[own])[None]
            term2 = np.einsum("tvk,tki,vkj->ij", w2, phased, g_conj[own])
            c2 = -(2.0 / ln2) * snap.snr[others] / (
                (1.0 + snap.snr[others]) * snap.mui[others])
            w3 = c2[None] * scal[:, others]
            price = np.einsum("tvk,tki,vkj->ij", w3, phased, g_conj[others])
            np.testing.assert_allclose(
                selection_gradient(q, iterate, channels, snap),
                (term1 - term2).T, rtol=1e-10)
            np.testing.assert_allclose(
                selection_pricing(q, iterate, channels, snap),
                price.T, rtol=1e-10)


class TestSolveSelection:
    def test_diagonally_dominant_reward_keeps_identity(self):
        reward = np.eye(4) * 10.0 + 0.1
        np.testing.assert_array_equal(solve_selection(reward), np.arange(4))

    def test_matches_brute_force_m3(self, rng):
        for _ in range(50):
            reward = rng.standard_normal((3, 3))
            got = solve_selection(reward)
            best_score = oracles.best_assignment(reward)
            assert reward[got, np.arange(3)].sum() == pytest.approx(best_score)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 4))
    def test_is_permutation_and_optimal(self, seed, m):
        reward = np.random.default_rng(seed).standard_normal((m, m))
        got = solve_selection(reward)
        assert np.issubdtype(got.dtype, np.integer)
        np.testing.assert_array_equal(np.sort(got), np.arange(m))
        best_score = oracles.best_assignment(reward)
        assert reward[got, np.arange(m)].sum() == pytest.approx(best_score)

    def test_constant_shift_does_not_change_argmax(self, rng):
        reward = rng.standard_normal((5, 5))
        a = solve_selection(reward)
        b = solve_selection(reward + 7.3)
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonfinite_reward(self):
        with pytest.raises(ValueError):
            solve_selection(np.array([[np.inf, 0], [0, 1]]))

    @pytest.mark.parametrize("m_n", [2, 5, 100])
    def test_dominant_reward_is_certified_without_scipy(self, rng, monkeypatch, m_n):
        # a small gradient plus tau at a random permutation: the column maxima
        # sit on distinct rows, so the certificate returns scipy's optimum
        calls = spy_on_assignment(monkeypatch)
        for _ in range(20):
            perm = rng.permutation(m_n)
            reward = selection_reward(0.05 * rng.standard_normal((m_n, m_n)), perm, TAU)
            got = solve_selection(reward)
            np.testing.assert_array_equal(got, perm)
            np.testing.assert_array_equal(got, scipy_selection(reward))
            assert got.dtype == scipy_selection(reward).dtype
        assert calls == []

    @pytest.mark.parametrize("case", ["shared_row", "tied_column"])
    def test_uncertified_reward_falls_back_to_scipy(self, rng, monkeypatch, case):
        m_n = 6
        reward = selection_reward(0.05 * rng.standard_normal((m_n, m_n)),
                                  rng.permutation(m_n), TAU)
        best = reward.argmax(axis=0)
        if case == "shared_row":
            # column 1's maximum moves onto column 0's best row
            reward[best[0], 1] = reward[best[1], 1] + 1.0
        else:
            # column 0's maximum is equalled by another row of the column
            reward[(best[0] + 1) % m_n, 0] = reward[best[0], 0]
        calls = spy_on_assignment(monkeypatch)
        got = solve_selection(reward)
        assert len(calls) == 1
        np.testing.assert_array_equal(got, scipy_selection(reward))

    def test_sweep_matches_scipy_per_bs(self, monkeypatch, default_scale_network):
        # one bd sweep at default scale: the norm bound certifies every BS, so
        # the sweep forms no reward, and every BS keeps the permutation the
        # assignment solver returns on that BS's full, unscreened reward
        channels, iterate, noise = default_scale_network
        snap = snapshot(iterate, channels, noise)
        weighted = rates.weighted_amplitudes(channels, snap)
        full = selection_reward(rates.surface_gradients(iterate, channels, snap, weighted,
                                                        tau=0.0)[1],
                                iterate.selections, TAU)
        formed = []
        for name in ("selection_reward", "solve_selection", "reward_gain"):
            monkeypatch.setattr(switches, name, lambda *args, name=name: formed.append(name))
        calls = spy_on_assignment(monkeypatch)
        candidate = solver.local_subproblems(iterate, channels, snap,
                                             np.ones(channels.num_bs), solver.SolverConfig())
        assert formed == [] and calls == []
        np.testing.assert_array_equal(candidate.switch_gains, 0.0)
        np.testing.assert_array_equal(candidate.target.selections,
                                      [scipy_selection(r) for r in full])


class TestSelectionScreen:
    @staticmethod
    def taus_across(bound):
        """Switch weights on both sides of ``bound``, down to one ulp from it."""
        return [0.5 * bound, bound * (1 - 1e-12), bound, np.nextafter(bound, np.inf),
                bound * (1 + 1e-12), 2.0 * bound, 10.0 * bound]

    @pytest.mark.parametrize("users_per_bs", [(1, 1), (2, 1), (1, 2, 1)])
    def test_certifies_only_what_the_full_reward_certifies(self, monkeypatch, users_per_bs):
        # on random networks, wherever the screen skips a BS's switch product,
        # the full reward's column maxima certify the current permutation at a
        # gain of exactly 0.0; every other BS's slice is the full one
        bounds = recorded_bounds(monkeypatch)
        for seed in range(6):
            channels, iterate, noise = make_network(np.random.default_rng(seed),
                                                    num_bs=len(users_per_bs),
                                                    users_per_bs=users_per_bs)
            snap = snapshot(iterate, channels, noise)
            weighted = rates.weighted_amplitudes(channels, snap)
            full = rates.surface_gradients(iterate, channels, snap, weighted, tau=0.0)[1]
            bounds.clear()
            rates.surface_gradients(iterate, channels, snap, weighted, tau=1.0)
            assert len(bounds) == channels.num_bs
            per_bs = list(bounds)
            for tau in [t for b in per_bs for t in self.taus_across(b)]:
                _, grad_s, uncertified = rates.surface_gradients(iterate, channels, snap,
                                                                 weighted, tau=tau)
                np.testing.assert_array_equal(uncertified, [not tau > b for b in per_bs])
                np.testing.assert_array_equal(grad_s, full[uncertified], strict=True)
                for q in np.flatnonzero(~uncertified):
                    perm = iterate.selections[q]
                    reward = selection_reward(full[q], perm, tau)
                    np.testing.assert_array_equal(certified_selection(reward), perm)
                    assert reward_gain(reward, certified_selection(reward), perm) == 0.0

    def test_tight_bounds_certify_above_and_only_above(self):
        # the gradient of a tight draw reaches the bound: one ulp above it the
        # column maxima certify the current permutation, and just below the
        # bound less its margin they do not
        rng = np.random.default_rng(21)
        for _ in range(100):
            z, phased, perm = selfcheck.tight_selection_draw(rng, users=2, subcarriers=3,
                                                             elements=5)
            grad = np.real(np.einsum("tki,tkj->ij", z[..., np.argsort(perm)], phased))
            bound = rates.selection_bounds(z, phased, [0])[0]
            exact = bound / (1.0 + rates.SCREEN_MARGIN)
            for tau in (np.nextafter(bound, np.inf), bound * (1 + 1e-12), 2.0 * bound):
                np.testing.assert_array_equal(
                    certified_selection(selection_reward(grad, perm, tau)), perm)
            for tau in (exact * (1 - 1e-6), 0.75 * exact, 0.5 * exact):
                assert certified_selection(selection_reward(grad, perm, tau)) is None

    def test_non_finite_gradients_are_never_certified(self):
        rng = np.random.default_rng(3)
        z, phased, _ = selfcheck.tight_selection_draw(rng)
        for bad in (np.nan, np.inf):
            z_bad = z.copy()
            z_bad[0, 0, 0] = bad
            assert not 1e300 > rates.selection_bounds(z_bad, phased, [0])[0]
            assert not 1e300 > rates.selection_bounds(z, bad * phased, [0])[0]
            # stacked beside a finite surface, only the non-finite one is open
            both = rates.selection_bounds(np.concatenate([z_bad, z]),
                                          np.concatenate([phased, phased]), [0, len(z)])
            assert not 1e300 > both[0]
            assert both[1] == rates.selection_bounds(z, phased, [0])[0]


class TestSelectionGain:
    def test_same_matrix_gives_zero(self, small_network):
        channels, iterate, noise = small_network
        s = iterate.selections[0]
        assert selection_gain(0, s, s, iterate, channels, noise, TAU) == 0.0

    def test_assignment_optimum_never_loses(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for q in range(channels.num_bs):
            s_new = solve_selection(cooperative_reward(q, iterate, channels, noise))
            gain = selection_gain(q, s_new, iterate.selections[q], iterate,
                                  channels, noise, TAU)
            assert gain >= -1e-12

    def test_random_permutation_never_beats_optimum(self, rng, small_network):
        channels, iterate, noise = small_network
        q = 0
        m_n = channels.num_elements
        s_best = solve_selection(cooperative_reward(q, iterate, channels, noise))
        best_gain = selection_gain(q, s_best, iterate.selections[q], iterate,
                                   channels, noise, TAU)
        for _ in range(20):
            s_rand = rng.permutation(m_n)
            gain = selection_gain(q, s_rand, iterate.selections[q], iterate,
                                  channels, noise, TAU)
            assert gain <= best_gain + 1e-12

    def test_gain_equals_reward_difference_for_permutations(self, small_network):
        # for permutation arguments anchored at the current permutation, the
        # proximal term reduces to the inner product with the anchor, so the
        # gain equals the assignment-reward difference
        channels, iterate, noise = small_network
        q = 0
        m_n = channels.num_elements
        reward = cooperative_reward(q, iterate, channels, noise)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s_new = rng.permutation(m_n)
            gain = selection_gain(q, s_new, iterate.selections[q], iterate,
                                  channels, noise, TAU)
            shortcut = reward_gain(reward, s_new, iterate.selections[q])
            assert gain == pytest.approx(shortcut, abs=1e-10)

    def test_stacked_rewards_match_per_bs_calls(self, rng):
        q_n, m_n = 4, 6
        grads = complex_normal(rng, q_n, m_n, m_n)
        perm_prev = np.stack([rng.permutation(m_n) for _ in range(q_n)])
        perm_new = np.stack([rng.permutation(m_n) for _ in range(q_n)])
        rewards = selection_reward(grads, perm_prev, TAU)
        gains = reward_gain(rewards, perm_new, perm_prev)
        assert rewards.shape == (q_n, m_n, m_n) and gains.shape == (q_n,)
        cols = np.arange(m_n)
        for q in range(q_n):
            reward = selection_reward(grads[q], perm_prev[q], TAU)
            np.testing.assert_array_equal(rewards[q], reward)
            assert gains[q] == reward_gain(reward, perm_new[q], perm_prev[q])
            # the literal forms: tau on the entries [perm_prev[m], m]
            literal = np.real(grads[q]).copy()
            literal[perm_prev[q], cols] += TAU
            np.testing.assert_array_equal(reward, literal)
            assert gains[q] == pytest.approx(
                np.sum(literal[perm_new[q], cols] - literal[perm_prev[q], cols]),
                rel=1e-14, abs=1e-14)


class TestFixedPermutationOracle:
    def test_bd_against_best_fixed_permutation_run(self):
        # M = 3 on two BSs: 36 permutation tuples, each one ``diagonal`` run
        # capped at 100 iterations (about 2.3 s in all).  Measured: oracle
        # 9.913, identity-tuple ``diag`` 7.091, ``bd`` 8.282 (0.835 of the oracle).
        channels, iterate, noise = make_network(np.random.default_rng(100), num_elements=3)
        # the oracle's routing: permuted ris_ue columns at the identity are the permutation
        routed = replace(channels, ris_ue=np.stack(
            [g[..., perm] for g, perm in zip(channels.ris_ue, iterate.selections)]))
        identity = Iterate(iterate.precoders, iterate.capacitances,
                           np.tile(np.arange(3), (channels.num_bs, 1)))
        np.testing.assert_array_equal(snapshot(identity, routed, noise).user_rates,
                                      snapshot(iterate, channels, noise).user_rates)

        config = solver.SolverConfig(max_iters=100)
        best = oracles.best_fixed_permutation_rate(channels, 1.0, noise, config)
        _, diag = solver.run(channels, 1.0, noise, replace(config, ris_mode="diagonal"))
        _, bd = solver.run(channels, 1.0, noise, config)
        assert best >= diag.sum_rates[-1]
        assert bd.sum_rates[-1] >= 0.83 * best
