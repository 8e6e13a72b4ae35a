import numpy as np
import pytest

import oracles
from bdris.rates import (Iterate, bs_power, snapshot, sum_rate, surface_gradients,
                         weighted_amplitudes)
from bdris.scenario import ScenarioConfig, channels_for_trial

from conftest import assert_same_snapshot, make_network, recorded_bounds


class TestIterate:
    def test_validate_accepts_feasible_point(self, small_network):
        channels, iterate, _ = small_network
        budgets = 2.0 * bs_power(iterate.precoders, channels.bs_of_user, channels.num_bs)
        iterate.validate(channels, budgets)

    def test_validate_rejects_power_violation(self, small_network):
        channels, iterate, _ = small_network
        power = bs_power(iterate.precoders, channels.bs_of_user, channels.num_bs)
        with pytest.raises(ValueError):
            iterate.validate(channels, 0.5 * power)

    def test_validate_rejects_bad_capacitance(self, small_network):
        channels, iterate, _ = small_network
        iterate.capacitances[0, 0] = 99e-12
        with pytest.raises(ValueError):
            iterate.validate(channels, 1e9)

    def test_validate_rejects_nan_precoder(self, small_network):
        channels, iterate, _ = small_network
        iterate.precoders[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="power"):
            iterate.validate(channels, 1e9)

    def test_validate_rejects_nan_capacitance(self, small_network):
        channels, iterate, _ = small_network
        iterate.capacitances[0, 0] = np.nan
        with pytest.raises(ValueError, match="capacitance"):
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


class TestValidateMoved:
    @staticmethod
    def repeated(iterate, row):
        sels = iterate.selections.copy()
        sels[row, 0] = sels[row, 1]
        return Iterate(iterate.precoders, iterate.capacitances, sels)

    @pytest.mark.parametrize("moved", [[1], np.array([0, 1]), np.array([False, True])])
    def test_listed_row_with_repeated_index_rejected(self, small_network, moved):
        channels, iterate, _ = small_network
        with pytest.raises(ValueError, match="permutations"):
            self.repeated(iterate, 1).validate(channels, 1e9, moved)

    @pytest.mark.parametrize("moved", [[0], np.array([], int), np.array([True, False])])
    def test_unlisted_rows_are_not_sorted(self, small_network, moved):
        channels, iterate, _ = small_network
        self.repeated(iterate, 1).validate(channels, 1e9, moved)

    @pytest.mark.parametrize("row", [0, 1])
    def test_every_row_checked_without_moved(self, small_network, row):
        # bench/workloads.check_pass validates returned iterates this way
        channels, iterate, _ = small_network
        with pytest.raises(ValueError, match="permutations"):
            self.repeated(iterate, row).validate(channels, 1e9)

    def test_shape_and_power_checks_ignore_moved(self, small_network):
        channels, iterate, _ = small_network
        power = bs_power(iterate.precoders, channels.bs_of_user, channels.num_bs)
        with pytest.raises(ValueError, match="power"):
            iterate.validate(channels, 0.5 * power, [])
        with pytest.raises(ValueError, match="permutations"):
            Iterate(iterate.precoders, iterate.capacitances,
                    iterate.selections[:, :-1]).validate(channels, 1e9, [])

    def test_returns_the_measured_power(self, small_network):
        channels, iterate, _ = small_network
        power = bs_power(iterate.precoders, channels.bs_of_user, channels.num_bs)
        np.testing.assert_array_equal(iterate.validate(channels, 2.0 * power), power,
                                      strict=True)


class TestEffectiveRows:
    def test_matches_reference_row(self, small_network, multiuser_network):
        for channels, iterate, noise in (small_network, multiuser_network):
            rows = snapshot(iterate, channels, noise).rows
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
        iterate = Iterate(precoders, caps, sels)
        rows = snapshot(iterate, channels, config.noise_power).rows
        for _ in range(12):
            j, u, k = (rng.integers(n) for n in (q_n, channels.num_users,
                                                 channels.num_subcarriers))
            # conj(h) + conj(g) S diag(phi) H, from the entrywise S and diag(phi)
            literal = oracles.composite_row(j, u, k, iterate, channels)
            np.testing.assert_allclose(rows[j, u, k], literal, rtol=1e-12,
                                       atol=1e-12 * np.abs(literal).max())

    def test_disabled_surface_leaves_direct(self, small_network):
        channels, iterate, noise = small_network
        rows = snapshot(iterate, channels, noise, ris_enabled=False).rows
        np.testing.assert_array_equal(rows, np.conj(channels.direct))


class TestMui:
    def test_single_user_network_sees_only_noise(self, rng):
        channels, iterate, noise = make_network(rng, num_bs=1, users_per_bs=(1,))
        assert snapshot(iterate, channels, noise).mui[0, 0] == pytest.approx(noise)

    def test_zero_precoders_see_only_noise(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[:] = 0
        for u in range(channels.num_users):
            assert snapshot(iterate, channels, noise).mui[u, 1] == pytest.approx(noise)

    def test_scalar_two_cell_hand_expansion(self, rng):
        channels, iterate, noise = make_network(
            rng, num_bs=2, num_antennas=1, num_elements=1, num_subcarriers=1)
        rows = snapshot(iterate, channels, noise).rows
        # interference at user 0 comes only from user 1's stream through BS 1
        expected = noise + abs(rows[1, 0, 0, 0] * iterate.precoders[1, 0, 0]) ** 2
        assert snapshot(iterate, channels, noise).mui[0, 0] == pytest.approx(expected)

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_matches_reference(self, request, network):
        # every (u, k) on the synthetic network; 16 sampled pairs at default
        # scale, where each pair's literal rows take about 20 ms
        channels, iterate, noise = request.getfixturevalue(network)
        pairs = [(u, k) for u in range(channels.num_users)
                 for k in range(channels.num_subcarriers)]
        if network == "default_scale_network":
            rng = np.random.default_rng(5)
            pairs = [pairs[i] for i in rng.choice(len(pairs), 16, replace=False)]
        mui = snapshot(iterate, channels, noise).mui
        for u, k in pairs:
            assert mui[u, k] == pytest.approx(oracles.mui(u, k, iterate, channels, noise),
                                              rel=1e-12)


class TestUserRate:
    def test_zero_own_precoder_gives_zero(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[0] = 0
        assert snapshot(iterate, channels, noise).user_rates[0] == 0.0

    def test_unit_snr_gives_one_bit(self, rng):
        channels, iterate, noise = make_network(
            rng, num_bs=1, num_antennas=1, num_elements=1, num_subcarriers=1,
            users_per_bs=(1,))
        rows = snapshot(iterate, channels, noise).rows
        # scale the precoder so |f^H w|^2 equals the noise power
        gain = abs(rows[0, 0, 0, 0])
        iterate.precoders[0, 0, 0] = np.sqrt(noise) / gain
        assert snapshot(iterate, channels, noise).user_rates[0] == pytest.approx(1.0)

    def test_matches_independent_reference(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for u in range(channels.num_users):
            assert snapshot(iterate, channels, noise).user_rates[u] == pytest.approx(
                oracles.user_rate(u, iterate, channels, noise), abs=1e-12)


class TestSumRate:
    def test_zero_precoders(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[:] = 0
        assert sum_rate(iterate, channels, noise) == 0.0

    def test_single_user_equals_user_rate(self, rng):
        channels, iterate, noise = make_network(rng, num_bs=1, users_per_bs=(1,))
        assert sum_rate(iterate, channels, noise) == pytest.approx(
            snapshot(iterate, channels, noise).user_rates[0])

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
        # per-entry sums over the link amplitudes, one user and subcarrier at a time
        channels, iterate, noise = multiuser_network
        snap = snapshot(iterate, channels, noise)
        powers = np.abs(snap.amplitudes) ** 2
        for u in range(channels.num_users):
            muis = [float(noise + powers[:, u, k].sum() - powers[u, u, k])
                    for k in range(channels.num_subcarriers)]
            np.testing.assert_allclose(snap.mui[u], muis)
            np.testing.assert_allclose(snap.user_rates[u],
                                       np.mean(np.log2(1.0 + powers[u, u] / muis)))

    def test_amplitudes_match_row_products(self, small_network):
        channels, iterate, noise = small_network
        snap = snapshot(iterate, channels, noise)
        rows, amp = snap.rows, snap.amplitudes
        for n in range(channels.num_users):
            j = channels.bs_of_user[n]
            for u in range(channels.num_users):
                for k in range(channels.num_subcarriers):
                    np.testing.assert_allclose(
                        amp[n, u, k], rows[j, u, k] @ iterate.precoders[n, k])


class TestRoutingReuse:
    CHANNEL_QUANTITIES = ("rows", "stream_rows", "own_channel", "own_norm2")

    @staticmethod
    def other_point(iterate, selections):
        # another point of the design space, with the given permutations
        return Iterate(0.5 * iterate.precoders, iterate.capacitances[:, ::-1].copy(),
                       selections)

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_equal_selections_reuse_routing(self, network, request):
        channels, iterate, noise = request.getfixturevalue(network)
        previous = snapshot(self.other_point(iterate, iterate.selections.copy()),
                            channels, noise)
        got = snapshot(iterate, channels, noise, previous=previous)
        assert got.routed is previous.routed
        assert_same_snapshot(got, snapshot(iterate, channels, noise))

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_changed_permutation_is_routed_afresh(self, network, request):
        channels, iterate, noise = request.getfixturevalue(network)
        sels = iterate.selections.copy()
        sels[-1, [0, 1]] = sels[-1, [1, 0]]
        previous = snapshot(self.other_point(iterate, sels), channels, noise)
        got = snapshot(iterate, channels, noise, previous=previous)
        assert got.routed is not previous.routed
        assert_same_snapshot(got, snapshot(iterate, channels, noise))

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_surface_less_snapshot_shares_channel_quantities(self, network, request):
        # without surfaces the rows, their per-stream gather and the own
        # channels depend on the channels alone, so a later point shares them
        channels, iterate, noise = request.getfixturevalue(network)
        previous = snapshot(self.other_point(iterate, iterate.selections.copy()),
                            channels, noise, ris_enabled=False)
        got = snapshot(iterate, channels, noise, ris_enabled=False, previous=previous)
        for name in self.CHANNEL_QUANTITIES:
            assert getattr(got, name) is getattr(previous, name), name
        assert_same_snapshot(got, snapshot(iterate, channels, noise, ris_enabled=False))

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_capacitance_change_rebuilds_rows(self, network, request):
        # the same permutations share the routing, but other capacitances
        # give other rows, so every row quantity is formed afresh
        channels, iterate, noise = request.getfixturevalue(network)
        previous = snapshot(self.other_point(iterate, iterate.selections.copy()),
                            channels, noise)
        got = snapshot(iterate, channels, noise, previous=previous)
        assert got.routed is previous.routed
        for name in self.CHANNEL_QUANTITIES:
            assert getattr(got, name) is not getattr(previous, name), name
        assert not np.array_equal(got.rows, previous.rows)
        assert_same_snapshot(got, snapshot(iterate, channels, noise))

    def test_surface_rows_not_reused_without_surfaces(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        previous = snapshot(iterate, channels, noise)
        got = snapshot(iterate, channels, noise, ris_enabled=False, previous=previous)
        assert got.rows is not previous.rows
        assert_same_snapshot(got, snapshot(iterate, channels, noise, ris_enabled=False))

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    @pytest.mark.parametrize("ris_enabled", [True, False])
    def test_own_channel_quantities_match_rows(self, network, request, ris_enabled):
        channels, iterate, noise = request.getfixturevalue(network)
        snap = snapshot(iterate, channels, noise, ris_enabled)
        bs, users = channels.bs_of_user, np.arange(channels.num_users)
        own = np.conj(snap.rows[bs, users])
        np.testing.assert_array_equal(snap.stream_rows, snap.rows[bs], strict=True)
        np.testing.assert_array_equal(snap.own_channel, own, strict=True)
        np.testing.assert_array_equal(snap.own_norm2, (np.abs(own) ** 2).sum(axis=-1),
                                      strict=True)

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_sum_rate_is_the_rate_sum(self, network, request):
        channels, iterate, noise = request.getfixturevalue(network)
        snap = snapshot(iterate, channels, noise)
        assert snap.sum_rate == float(snap.user_rates.sum())
        assert sum_rate(iterate, channels, noise) == snap.sum_rate
        # summed on the first read: rates edited before it are seen
        edited = snapshot(iterate, channels, noise)
        edited.user_rates = edited.user_rates + 1.0
        assert edited.sum_rate == float((snap.user_rates + 1.0).sum())

    def test_routing_is_read_only(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        snap = snapshot(iterate, channels, noise)
        with pytest.raises(ValueError):
            snap.routed[0, 0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            snap.selections[0, 0] = 1
        # the snapshot keeps its own permutations, not the iterate's array
        iterate.selections[0, [0, 1]] = iterate.selections[0, [1, 0]]
        assert not np.array_equal(snap.selections, iterate.selections)


def literal_surface_parts(q, iterate, channels, snap):
    """Own-cell and pricing parts, stacked, of BS q's capacitance gradient
    (2, M) and real selection gradient (2, M, M), summed link by link over the
    literal coupling diagonals and selection coupling matrices."""
    ln2 = np.log(2.0)
    own = channels.users_of_bs(q)
    slopes = oracles.element_slopes(iterate.capacitances[q], channels.grid,
                                    channels.circuit)
    phi = oracles.reflection_profile(iterate.capacitances[q], channels.grid,
                                     channels.circuit)
    diag = oracles.coupling_diagonals(q, iterate, channels, snap)
    m_n = channels.num_elements
    cap, sel = np.zeros((2, m_n)), np.zeros((2, m_n, m_n), complex)
    for v in range(channels.num_users):
        part = int(channels.bs_of_user[v] != q)
        for k in range(channels.num_subcarriers):
            d = (2 / ln2) / ((1 + snap.snr[v, k]) * snap.mui[v, k])
            for t_pos, t in enumerate(own):
                c = d if t == v else -snap.snr[v, k] * d
                cap[part] += c * np.real(slopes[k] * diag[t_pos, v, k])
                sel[part] += c * oracles.selection_coupling(q, t, v, k, iterate,
                                                            channels, phi).T
    return cap, np.real(sel)


class TestSurfaceGradients:
    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_matches_literal_forms(self, network, request):
        channels, iterate, noise = request.getfixturevalue(network)
        snap = snapshot(iterate, channels, noise)
        parts = [literal_surface_parts(q, iterate, channels, snap)
                 for q in range(channels.num_bs)]
        for pricing in (0.0, 1.0):
            weighted = weighted_amplitudes(channels, snap, pricing=pricing)
            grad_c, grad_s, _ = surface_gradients(iterate, channels, snap, weighted, tau=0.0)
            assert grad_c.shape == iterate.capacitances.shape
            assert grad_s.shape == grad_c.shape + grad_c.shape[-1:]
            for q, (cap, sel) in enumerate(parts):
                np.testing.assert_allclose(grad_c[q], cap[0] + pricing * cap[1], rtol=1e-10)
                np.testing.assert_allclose(grad_s[q], sel[0] + pricing * sel[1],
                                           rtol=1e-10, atol=1e-12)

    def test_without_selection(self, multiuser_network, default_scale_network):
        for channels, iterate, noise in (multiuser_network, default_scale_network):
            snap = snapshot(iterate, channels, noise)
            weighted = weighted_amplitudes(channels, snap)
            grad_c, grad_s, _ = surface_gradients(iterate, channels, snap, weighted, tau=0.0)
            only_c, none, no_mask = surface_gradients(iterate, channels, snap, weighted)
            assert none is None and no_mask is None
            np.testing.assert_array_equal(only_c, grad_c)


def interleaved(network):
    """The network with its users relabeled so that no BS's users are adjacent."""
    channels, iterate, noise = network
    perm = np.argsort(np.arange(channels.num_users) % 2, kind="stable")[::-1]
    return (type(channels)(channels.direct[:, perm], channels.bs_ris,
                           channels.ris_ue[:, perm], channels.bs_of_user[perm],
                           channels.grid, channels.circuit),
            Iterate(iterate.precoders[perm], iterate.capacitances, iterate.selections), noise)


class TestBatchedSurfaceGradients:
    """The batched gradients, read off the routed channels, against the per-BS
    reference (``oracles.per_bs_surface_gradients``), bit for bit."""

    @pytest.fixture(params=["default_scale", (2, 1), (1, 2, 2), (3, 1), "interleaved"])
    def network(self, request, default_scale_network):
        if request.param == "default_scale":
            return default_scale_network
        if request.param == "interleaved":
            return interleaved(make_network(np.random.default_rng(8), num_bs=2,
                                            users_per_bs=(2, 3)))
        upb = request.param
        return make_network(np.random.default_rng(7), num_bs=len(upb), users_per_bs=upb)

    @pytest.mark.parametrize("tau", [None, 0.0, 1e-9, 0.8, 1e9])
    @pytest.mark.parametrize("cell, pricing", [(1, 1), (1, 0), (0, 1), (1j, 1j)])
    def test_equal_the_per_bs_reference(self, network, tau, cell, pricing, monkeypatch):
        channels, iterate, noise = network
        snap = snapshot(iterate, channels, noise)
        bounds = recorded_bounds(monkeypatch)
        got = surface_gradients(iterate, channels, snap,
                                weighted_amplitudes(channels, snap, cell, pricing), tau)
        grad_c, grad_s, uncertified, want_bounds = oracles.per_bs_surface_gradients(
            iterate, channels, snap, cell, pricing, tau)
        np.testing.assert_array_equal(got[0], grad_c, strict=True)
        if tau is None:  # no switch weight: no switch product and no screen
            assert got[1] is None and got[2] is None and bounds == []
            return
        np.testing.assert_array_equal(got[1], grad_s, strict=True)
        np.testing.assert_array_equal(got[2], uncertified, strict=True)
        # a BS's bound sums its squared column entries user by user, then over its
        # users, where the reference sums all of its rows at once: one-user bounds
        # are the reference's, bit for bit, and multi-user ones may round apart
        one_user = np.bincount(channels.bs_of_user) == 1
        np.testing.assert_array_equal(np.array(bounds)[one_user], want_bounds[one_user])
        np.testing.assert_allclose(bounds, want_bounds, rtol=1e-13)

    def test_shared_weighted_amplitudes_give_the_same_gradients(self, network):
        channels, iterate, noise = network
        snap = snapshot(iterate, channels, noise)
        weighted = weighted_amplitudes(channels, snap, pricing=0.0)
        kept = weighted.copy()
        given = surface_gradients(iterate, channels, snap, weighted, tau=0.8)
        formed = surface_gradients(iterate, channels, snap,
                                   weighted_amplitudes(channels, snap, pricing=0.0), tau=0.8)
        for a, b in zip(given, formed):
            np.testing.assert_array_equal(a, b, strict=True)
        np.testing.assert_array_equal(weighted, kept)
