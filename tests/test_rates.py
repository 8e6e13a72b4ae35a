import numpy as np
import pytest

import oracles
from bdris.rates import (Iterate, effective_rows, link_amplitudes, mui,
                         snapshot, sum_rate, user_rate)
from bdris.scenario import ScenarioConfig, channels_for_trial

from conftest import make_network


class TestIterate:
    def test_validate_accepts_feasible_point(self, small_network):
        channels, iterate, _ = small_network
        budgets = 2.0 * iterate.bs_power(channels.bs_of_user)
        iterate.validate(channels, budgets)

    def test_validate_rejects_power_violation(self, small_network):
        channels, iterate, _ = small_network
        power = iterate.bs_power(channels.bs_of_user)
        with pytest.raises(ValueError):
            iterate.validate(channels, 0.5 * power)

    def test_validate_rejects_bad_capacitance(self, small_network):
        channels, iterate, _ = small_network
        iterate.capacitances[0, 0] = 99e-12
        with pytest.raises(ValueError):
            iterate.validate(channels, 1e9)

    def test_validate_rejects_non_permutation(self, small_network):
        channels, iterate, _ = small_network
        m_n = channels.num_elements
        repeated = iterate.selections.copy()
        repeated[0, 0] = repeated[0, 1]
        out_of_range = iterate.selections.copy()
        out_of_range[0, np.argmax(out_of_range[0])] = m_n
        bad = [repeated, out_of_range, iterate.selections.astype(float),
               iterate.selections[:, :-1], np.eye(m_n, dtype=int)[None]]
        for sels in bad:
            with pytest.raises(ValueError):
                Iterate(iterate.precoders, iterate.capacitances,
                        sels).validate(channels, 1e9)


class TestEffectiveRows:
    def test_matches_reference_row(self, small_network):
        channels, iterate, _ = small_network
        rows = effective_rows(iterate, channels)
        for j in range(channels.num_bs):
            for u in range(channels.num_users):
                for k in range(channels.num_subcarriers):
                    ref = oracles.composite_row(j, u, k, iterate, channels)
                    np.testing.assert_allclose(rows[j, u, k], ref, atol=1e-12)

    def test_matches_literal_at_default_scale(self):
        # scenario defaults (M=100, K=64, one trial) with a random
        # non-identity permutation and spread capacitances per surface
        config = ScenarioConfig()
        channels = channels_for_trial(config, 0)
        q_n, m_n = channels.num_bs, channels.num_elements
        rng = np.random.default_rng(7)
        sels = np.stack([rng.permutation(m_n) for _ in range(q_n)])
        assert not np.any(np.all(sels == np.arange(m_n), axis=1))
        caps = rng.uniform(config.circuit.c_min, config.circuit.c_max, (q_n, m_n))
        precoders = np.zeros((channels.num_users, channels.num_subcarriers,
                              channels.num_antennas), dtype=complex)
        rows = effective_rows(Iterate(precoders, caps, sels), channels)
        for _ in range(12):
            j = rng.integers(q_n)
            u = rng.integers(channels.num_users)
            k = rng.integers(channels.num_subcarriers)
            phi = oracles.reflection_matrix(caps[j], channels.grid,
                                            channels.circuit, k)
            literal = (np.conj(channels.direct[j, u, k])
                       + np.conj(channels.ris_ue[j, u, k])
                       @ oracles.selection_matrix(sels[j]) @ phi
                       @ channels.bs_ris[j, k])
            np.testing.assert_allclose(rows[j, u, k], literal, rtol=1e-12,
                                       atol=1e-12 * np.abs(literal).max())

    def test_disabled_surface_leaves_direct(self, small_network):
        channels, iterate, _ = small_network
        rows = effective_rows(iterate, channels, ris_enabled=False)
        np.testing.assert_array_equal(rows, np.conj(channels.direct))


class TestMui:
    def test_single_user_network_sees_only_noise(self, rng):
        channels, iterate, noise = make_network(rng, num_bs=1, users_per_bs=(1,))
        assert mui(0, 0, iterate, channels, noise) == pytest.approx(noise)

    def test_zero_precoders_see_only_noise(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[:] = 0
        for u in range(channels.num_users):
            assert mui(u, 1, iterate, channels, noise) == pytest.approx(noise)

    def test_scalar_two_cell_hand_expansion(self, rng):
        channels, iterate, noise = make_network(
            rng, num_bs=2, num_antennas=1, num_elements=1, num_subcarriers=1)
        rows = effective_rows(iterate, channels)
        # interference at user 0 comes only from user 1's stream through BS 1
        expected = noise + abs(rows[1, 0, 0, 0] * iterate.precoders[1, 0, 0]) ** 2
        assert mui(0, 0, iterate, channels, noise) == pytest.approx(expected)

    def test_matches_reference(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for u in range(channels.num_users):
            for k in range(channels.num_subcarriers):
                assert mui(u, k, iterate, channels, noise) == pytest.approx(
                    oracles.mui(u, k, iterate, channels, noise), rel=1e-12)


class TestUserRate:
    def test_zero_own_precoder_gives_zero(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[0] = 0
        assert user_rate(0, iterate, channels, noise) == 0.0

    def test_unit_snr_gives_one_bit(self, rng):
        channels, iterate, noise = make_network(
            rng, num_bs=1, num_antennas=1, num_elements=1, num_subcarriers=1,
            users_per_bs=(1,))
        rows = effective_rows(iterate, channels)
        # scale the precoder so |f^H w|^2 equals the noise power
        gain = abs(rows[0, 0, 0, 0])
        iterate.precoders[0, 0, 0] = np.sqrt(noise) / gain
        assert user_rate(0, iterate, channels, noise) == pytest.approx(1.0)

    def test_matches_independent_reference(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for u in range(channels.num_users):
            assert user_rate(u, iterate, channels, noise) == pytest.approx(
                oracles.user_rate(u, iterate, channels, noise), abs=1e-12)


class TestSumRate:
    def test_zero_precoders(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[:] = 0
        assert sum_rate(iterate, channels, noise) == 0.0

    def test_single_user_equals_user_rate(self, rng):
        channels, iterate, noise = make_network(rng, num_bs=1, users_per_bs=(1,))
        assert sum_rate(iterate, channels, noise) == pytest.approx(
            user_rate(0, iterate, channels, noise))

    def test_decomposes_into_own_plus_other_cells(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        total = sum_rate(iterate, channels, noise)
        k_n = channels.num_subcarriers
        for q in range(channels.num_bs):
            own, other = oracles.cell_rates(iterate, channels, noise, q)
            assert total == pytest.approx((own + other) / k_n, rel=1e-12)

    def test_invariant_under_user_relabeling(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        total = sum_rate(iterate, channels, noise)
        # swap the two users of BS 0 everywhere they appear
        perm = np.array([1, 0, 2])
        swapped_channels = type(channels)(
            channels.direct[:, perm], channels.bs_ris, channels.ris_ue[:, perm],
            channels.bs_of_user[perm], channels.grid, channels.circuit)
        swapped_iterate = Iterate(iterate.precoders[perm], iterate.capacitances,
                                  iterate.selections)
        assert sum_rate(swapped_iterate, swapped_channels, noise) == \
            pytest.approx(total, rel=1e-12)

    def test_monotone_in_own_power_without_interference(self, rng):
        channels, iterate, noise = make_network(rng, num_bs=1, users_per_bs=(1,))
        base = sum_rate(iterate, channels, noise)
        boosted = Iterate(1.5 * iterate.precoders, iterate.capacitances,
                          iterate.selections)
        assert sum_rate(boosted, channels, noise) >= base


class TestSnapshot:
    def test_consistent_with_scalar_ops(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        snap = snapshot(iterate, channels, noise)
        for u in range(channels.num_users):
            np.testing.assert_allclose(snap.user_rates[u],
                                       user_rate(u, iterate, channels, noise))
            for k in range(channels.num_subcarriers):
                np.testing.assert_allclose(snap.mui[u, k],
                                           mui(u, k, iterate, channels, noise))

    def test_amplitudes_match_row_products(self, small_network):
        channels, iterate, noise = small_network
        rows = effective_rows(iterate, channels)
        amp = link_amplitudes(iterate, channels)
        for n in range(channels.num_users):
            j = channels.bs_of_user[n]
            for u in range(channels.num_users):
                for k in range(channels.num_subcarriers):
                    np.testing.assert_allclose(
                        amp[n, u, k], rows[j, u, k] @ iterate.precoders[n, k])
