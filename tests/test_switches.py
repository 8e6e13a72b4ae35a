import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bdris.rates import snapshot
from bdris.switches import (reward_gain, selection_coupling, selection_gain,
                            selection_gradient, selection_pricing,
                            selection_reward, solve_selection)

from conftest import make_network

TAU = 0.8


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
            got = selection_gradient(q, iterate, channels, noise, snap)
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestSelectionGradient:
    def test_zero_precoders_give_zero(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[:] = 0
        np.testing.assert_allclose(
            selection_gradient(0, iterate, channels, noise), 0)

    def test_matches_directional_finite_differences(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for q in range(channels.num_bs):
            got = np.real(selection_gradient(q, iterate, channels, noise))
            fd = oracles.fd_selection_gradient(
                lambda ch: oracles.cell_rates(iterate, ch, noise, q)[0],
                channels, iterate.selections[q], q)
            assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)


class TestSelectionPricing:
    def test_single_cell_is_zero(self, rng):
        channels, iterate, noise = make_network(rng, num_bs=1, users_per_bs=(1,))
        np.testing.assert_array_equal(
            selection_pricing(0, iterate, channels, noise), 0)

    def test_matches_directional_finite_differences(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for q in range(channels.num_bs):
            got = np.real(selection_pricing(q, iterate, channels, noise))
            fd = oracles.fd_selection_gradient(
                lambda ch: oracles.cell_rates(iterate, ch, noise, q)[1],
                channels, iterate.selections[q], q)
            assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_scales_with_cross_channel_strength(self, small_network):
        # doubling the surface-to-victim channels must change the pricing;
        # recomputed numerically rather than assumed linear
        channels, iterate, noise = small_network
        base = np.linalg.norm(selection_pricing(0, iterate, channels, noise))
        channels.ris_ue[0, 1] *= 2.0
        channels.direct[0, 1] *= 2.0
        boosted = np.linalg.norm(selection_pricing(0, iterate, channels, noise))
        assert boosted != pytest.approx(base)


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


class TestSelectionGain:
    def test_same_matrix_gives_zero(self, small_network):
        channels, iterate, noise = small_network
        s = iterate.selections[0]
        assert selection_gain(0, s, s, iterate, channels, noise, TAU) == 0.0

    def test_assignment_optimum_never_loses(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for q in range(channels.num_bs):
            snap = snapshot(iterate, channels, noise)
            grad = selection_gradient(q, iterate, channels, noise, snap) \
                + selection_pricing(q, iterate, channels, noise, snap)
            reward = selection_reward(grad, iterate.selections[q], TAU)
            s_new = solve_selection(reward)
            gain = selection_gain(q, s_new, iterate.selections[q], iterate,
                                  channels, noise, TAU)
            assert gain >= -1e-12

    def test_random_permutation_never_beats_optimum(self, rng, small_network):
        channels, iterate, noise = small_network
        q = 0
        m_n = channels.num_elements
        snap = snapshot(iterate, channels, noise)
        grad = selection_gradient(q, iterate, channels, noise, snap) \
            + selection_pricing(q, iterate, channels, noise, snap)
        reward = selection_reward(grad, iterate.selections[q], TAU)
        s_best = solve_selection(reward)
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
        snap = snapshot(iterate, channels, noise)
        grad = selection_gradient(q, iterate, channels, noise, snap) \
            + selection_pricing(q, iterate, channels, noise, snap)
        reward = selection_reward(grad, iterate.selections[q], TAU)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s_new = rng.permutation(m_n)
            gain = selection_gain(q, s_new, iterate.selections[q], iterate,
                                  channels, noise, TAU)
            shortcut = reward_gain(reward, s_new, iterate.selections[q])
            assert gain == pytest.approx(shortcut, abs=1e-10)
