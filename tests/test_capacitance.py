import numpy as np
import pytest

import oracles
from oracles import coupling_diagonals, coupling_matrix, element_slopes
from bdris.capacitance import (pricing_gradient, rate_gradient,
                               update_capacitances)
from bdris.circuit import reflection_direct
from bdris.rates import snapshot

from conftest import make_network

TAU = 0.8


class TestElementSlopes:
    def test_match_direct_form_finite_differences(self, circuit, grid):
        # the slopes the gradient oracles use are d(phi)/dC, not its conjugate
        h = 1e-17
        caps = np.linspace(circuit.c_min + 2 * h, circuit.c_max - 2 * h, 4)
        f = grid.frequencies[:, None]
        fd = (reflection_direct(f, caps + h, circuit)
              - reflection_direct(f, caps - h, circuit)) / (2 * h)
        slopes = element_slopes(caps, grid, circuit)
        assert np.max(np.abs(slopes - fd) / np.abs(slopes)) <= 1e-5


class TestCouplingDiagonals:
    def test_identity_against_written_products(self, multiuser_network):
        # the fast diagonal path must equal the diagonal of the literal
        # matrix built in the stated multiplication order
        channels, iterate, noise = multiuser_network
        snap = snapshot(iterate, channels, noise)
        for q in range(channels.num_bs):
            own = channels.users_of_bs(q)
            diag = coupling_diagonals(q, iterate, channels, snap)
            for t_pos, t in enumerate(own):
                for v in range(channels.num_users):
                    for k in range(channels.num_subcarriers):
                        lit = coupling_matrix(q, t, v, k, iterate, channels)
                        np.testing.assert_allclose(diag[t_pos, v, k],
                                                   np.diagonal(lit), atol=1e-12)


class TestRateGradient:
    def test_matches_finite_differences(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for q in range(channels.num_bs):
            got = rate_gradient(q, iterate, channels, snapshot(iterate, channels, noise))
            fd = oracles.fd_capacitance_gradient(
                lambda it: oracles.cell_rates(it, channels, noise, q)[0],
                iterate, q)
            assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_zero_precoders_give_zero_gradient(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[:] = 0
        np.testing.assert_allclose(
            rate_gradient(0, iterate, channels, snapshot(iterate, channels, noise)), 0)

    def test_single_user_cell_has_no_intracell_term(self, small_network):
        # with one user per BS the intracell correction sum is empty, so the
        # gradient is the pure own-signal sensitivity term
        channels, iterate, noise = small_network
        snap = snapshot(iterate, channels, noise)
        q = 0
        own = channels.users_of_bs(q)
        slopes = element_slopes(iterate.capacitances[q], channels.grid,
                                channels.circuit)
        diag = coupling_diagonals(q, iterate, channels, snap)
        sens = np.real(slopes * diag[0, own[0]])
        c1 = (2.0 / np.log(2.0)) / ((1.0 + snap.snr[own[0]]) * snap.mui[own[0]] ** 2)
        expected = np.einsum("k,km->m", c1 * snap.mui[own[0]], sens)
        np.testing.assert_allclose(rate_gradient(q, iterate, channels, snap),
                                   expected, rtol=1e-12)


class TestPricingGradient:
    def test_single_cell_is_zero(self, rng):
        channels, iterate, noise = make_network(rng, num_bs=1, users_per_bs=(1,))
        np.testing.assert_array_equal(
            pricing_gradient(0, iterate, channels, snapshot(iterate, channels, noise)), 0)

    def test_zero_cross_channels_give_zero(self, small_network):
        channels, iterate, noise = small_network
        channels.ris_ue[0, 1] = 0  # surface 0 invisible to the other cell's user
        np.testing.assert_allclose(
            pricing_gradient(0, iterate, channels, snapshot(iterate, channels, noise)), 0,
            atol=1e-25)

    def test_matches_finite_differences(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for q in range(channels.num_bs):
            got = pricing_gradient(q, iterate, channels, snapshot(iterate, channels, noise))
            fd = oracles.fd_capacitance_gradient(
                lambda it: oracles.cell_rates(it, channels, noise, q)[1],
                iterate, q)
            assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)


class TestFullGradient:
    def test_own_plus_pricing_equals_network_gradient(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        k_n = channels.num_subcarriers
        for q in range(channels.num_bs):
            total = rate_gradient(q, iterate, channels, snapshot(iterate, channels, noise)) \
                + pricing_gradient(q, iterate, channels, snapshot(iterate, channels, noise))
            fd = oracles.fd_capacitance_gradient(
                lambda it: k_n * oracles.sum_rate(it, channels, noise),
                iterate, q)
            assert np.linalg.norm(total - fd) <= 1e-4 * np.linalg.norm(fd)


class TestDefaultScale:
    def test_matches_einsum_forms(self, default_scale_network):
        # the per-(transmitter, victim) einsum forms the shared weighted
        # assembly replaced, at the physical scale of the scenario defaults
        channels, iterate, noise = default_scale_network
        snap = snapshot(iterate, channels, noise)
        ln2 = np.log(2.0)
        for q in range(channels.num_bs):
            own = channels.users_of_bs(q)
            others = np.flatnonzero(channels.bs_of_user != q)
            slopes = element_slopes(iterate.capacitances[q], channels.grid,
                                    channels.circuit)
            diag = coupling_diagonals(q, iterate, channels, snap)
            sensitivity = np.real(slopes[None, None] * diag[:, own])
            idx = np.arange(len(own))
            own_part = sensitivity[idx, idx]
            intracell = sensitivity.sum(axis=0) - own_part
            c1 = (2.0 / ln2) / ((1.0 + snap.snr[own]) * snap.mui[own] ** 2)
            own_grad = np.einsum("vk,vkm->m", c1 * snap.mui[own], own_part) \
                - np.einsum("vk,vkm->m", c1 * snap.signal[own], intracell)
            c2 = -(2.0 / ln2) * snap.snr[others] / (
                (1.0 + snap.snr[others]) * snap.mui[others])
            price = np.einsum("vk,vkm->m", c2,
                              np.real(slopes[None, None] * diag[:, others]).sum(axis=0))
            np.testing.assert_allclose(
                rate_gradient(q, iterate, channels, snap), own_grad, rtol=1e-10)
            np.testing.assert_allclose(
                pricing_gradient(q, iterate, channels, snap), price, rtol=1e-10)


class TestUpdate:
    def test_zero_gradient_is_fixed_point(self, circuit):
        c = np.array([0.9e-12, 1.7e-12])
        out = update_capacitances(c, np.zeros(2), TAU, circuit)
        np.testing.assert_allclose(out, c)

    def test_huge_gradient_clamps_to_bounds(self, circuit):
        c = np.full(3, 1e-12)
        up = update_capacitances(c, np.full(3, 1e6), TAU, circuit)
        np.testing.assert_allclose(up, circuit.c_max)
        down = update_capacitances(c, np.full(3, -1e6), TAU, circuit)
        np.testing.assert_allclose(down, circuit.c_min)

    def test_matches_per_coordinate_optimum(self, rng, circuit):
        # closed form vs the analytic optimum of each scalar concave model
        tau = 3.0e24  # farad-scale proximal weight
        for _ in range(100):
            c = rng.uniform(circuit.c_min, circuit.c_max, 5)
            grad = rng.standard_normal(5) * tau * (circuit.c_max - circuit.c_min)
            price = rng.standard_normal(5) * tau * (circuit.c_max - circuit.c_min)
            out = update_capacitances(c, grad + price, tau, circuit)
            unconstrained = c + (grad + price) / tau
            expected = np.minimum(np.maximum(unconstrained, circuit.c_min),
                                  circuit.c_max)
            np.testing.assert_allclose(out, expected, rtol=1e-8)
            assert np.all(out >= circuit.c_min) and np.all(out <= circuit.c_max)

    def test_model_objective_never_decreases(self, rng, circuit):
        tau = 2.0e24
        for _ in range(50):
            c = rng.uniform(circuit.c_min, circuit.c_max, 4)
            grad = rng.standard_normal(4) * 1e12
            out = update_capacitances(c, grad, tau, circuit)
            model = lambda x: grad @ (x - c) - tau / 2 * np.sum((x - c) ** 2)
            assert model(out) >= model(c) - 1e-12

    def test_requires_positive_weight(self, circuit):
        with pytest.raises(ValueError):
            update_capacitances(np.array([1e-12]), np.zeros(1), 0.0, circuit)
