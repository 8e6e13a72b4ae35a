import numpy as np
import pytest

import oracles
from bdris import precoding
from bdris.errors import NumericalFailureError
from bdris.precoding import (bisect_power_multiplier, build_surrogates,
                             objective_values, pricing_vector, solve_precoder)
from bdris.rates import LN2, snapshot

from conftest import complex_normal, make_network

TAU = 0.8
MULTIPLIERS = (0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6)


def measured_power(surrogates, lam):
    ws = np.stack([solve_precoder(s, TAU, lam) for s in surrogates])
    return float(np.sum(np.abs(ws) ** 2))


def default_scale_surrogates(network, case):
    """Every BS's surrogates at the default scale for one solver variant.

    ``mf``: non-cooperative, no surfaces, at the matched-filter initial
    precoders, so each right-hand side lies along the own channel.
    ``none``: cooperative, no surfaces.  ``bd``: cooperative, with surfaces.
    """
    channels, iterate, noise = network
    ris = case == "bd"
    snap = snapshot(iterate, channels, noise, ris)
    return [build_surrogates(q, iterate, channels, noise, snap,
                             cooperative=case != "mf", ris_enabled=ris)
            for q in range(channels.num_bs)]


class TestPricingVector:
    def test_single_cell_has_no_pricing(self, rng):
        channels, iterate, noise = make_network(rng, num_bs=1, users_per_bs=(1,))
        np.testing.assert_array_equal(
            pricing_vector(0, iterate, channels, noise), 0)

    def test_zero_cross_channels_give_zero(self, small_network):
        channels, iterate, noise = small_network
        # kill every channel from BS 0 toward the other cell's user
        channels.direct[0, 1] = 0
        channels.ris_ue[0, 1] = 0
        np.testing.assert_allclose(pricing_vector(0, iterate, channels, noise),
                                   0, atol=1e-30)

    def test_two_cell_scalar_hand_expansion(self, rng):
        channels, iterate, noise = make_network(
            rng, num_bs=2, num_antennas=1, num_elements=1, num_subcarriers=1)
        snap = snapshot(iterate, channels, noise)
        # victim is user 1; its composite channel from BS 0 is the scalar f
        f = np.conj(snap.rows[0, 1, 0, 0])
        sig = abs(snap.rows[1, 1, 0, 0] * iterate.precoders[1, 0, 0]) ** 2
        interf = noise + abs(f.conjugate() * iterate.precoders[0, 0, 0]) ** 2
        snr = sig / interf
        expected = (-snr / LN2) / ((1 + snr) * interf) \
            * f * np.conj(f) * iterate.precoders[0, 0, 0]
        got = pricing_vector(0, iterate, channels, noise)
        np.testing.assert_allclose(got[0, 0], expected, rtol=1e-12)

    def test_matches_finite_differences(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for user in range(channels.num_users):
            q = channels.bs_of_user[user]
            fd = oracles.fd_precoder_gradient(
                lambda it: oracles.cell_rates(it, channels, noise, q)[1],
                iterate, user)
            got = pricing_vector(user, iterate, channels, noise)
            assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)


class TestSurrogate:
    def test_zero_anchor_gives_zero_coefficients(self, small_network):
        channels, iterate, noise = small_network
        iterate.precoders[0] = 0
        s = build_surrogates(0, iterate, channels, noise)[0]
        assert s.quad_weight[0] == 0
        np.testing.assert_array_equal(s.linear[0], 0)

    def test_positive_weight_when_signal_present(self, small_network):
        channels, iterate, noise = small_network
        assert build_surrogates(0, iterate, channels, noise)[0].quad_weight[0] > 0

    def test_lower_bound_tight_with_first_order_match(self, rng):
        channels, iterate, noise = make_network(rng)
        snap = snapshot(iterate, channels, noise)
        for q in range(channels.num_bs):
            for u, s in zip(channels.users_of_bs(q),
                            build_surrogates(q, iterate, channels, noise, snap)):
                exact_anchor = np.log1p(snap.snr[u]) / LN2
                np.testing.assert_allclose(s.log_term_value(s.anchor),
                                           exact_anchor, atol=1e-9)
                for _ in range(100):
                    w = complex_normal(rng, *s.anchor.shape) * 0.7
                    sig = np.abs(np.einsum("ki,ki->k", np.conj(s.own_channel), w)) ** 2
                    exact = np.log1p(sig / s.mui_anchor) / LN2
                    assert np.all(s.log_term_value(w) <= exact + 1e-9)
                # first-order match at the anchor via central differences
                h = 1e-6
                for k in (0, s.anchor.shape[0] - 1):
                    for n in range(s.anchor.shape[1]):
                        for part in (1.0, 1j):
                            up, down = s.anchor.copy(), s.anchor.copy()
                            up[k, n] += h * part
                            down[k, n] -= h * part
                            sig_u = np.abs(np.conj(s.own_channel[k]) @ up[k]) ** 2
                            sig_d = np.abs(np.conj(s.own_channel[k]) @ down[k]) ** 2
                            d_exact = (np.log1p(sig_u / s.mui_anchor[k])
                                       - np.log1p(sig_d / s.mui_anchor[k])) / (LN2 * 2 * h)
                            d_sur = (s.log_term_value(up)[k]
                                     - s.log_term_value(down)[k]) / (2 * h)
                            assert d_sur == pytest.approx(d_exact, rel=1e-4, abs=1e-9)


class TestSolvePrecoder:
    def test_zero_quadratic_reduces_to_identity_solve(self, small_network):
        channels, iterate, noise = small_network
        s = build_surrogates(0, iterate, channels, noise)[0]
        s.quad_weight[:] = 0
        lam = 0.7
        got = solve_precoder(s, TAU, lam)
        np.testing.assert_allclose(got, s.rhs(TAU) / (TAU / 2 + lam), rtol=1e-12)

    def test_matches_dense_solve(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for q in range(channels.num_bs):
            for s in build_surrogates(q, iterate, channels, noise):
                for lam in (0.0, 0.5, 3.0):
                    fast = solve_precoder(s, TAU, lam)
                    dense = oracles.dense_precoder(s, TAU, lam)
                    for k in range(fast.shape[0]):
                        assert np.linalg.norm(fast[k] - dense[k]) <= \
                            1e-10 * max(np.linalg.norm(dense[k]), 1e-30)

    def test_norm_decreases_with_multiplier(self, small_network):
        channels, iterate, noise = small_network
        s = build_surrogates(0, iterate, channels, noise)[0]
        lams = np.linspace(0.0, 5.0, 30)
        norms = [np.linalg.norm(solve_precoder(s, TAU, lam)) for lam in lams]
        assert np.all(np.diff(norms) <= 1e-12)

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_stack_matches_per_user_calls(self, request, network):
        # one broadcast call with a distinct multiplier per user equals the
        # per-user calls bit for bit
        channels, iterate, noise = request.getfixturevalue(network)
        stacked = precoding.stacked_surrogates(iterate, channels,
                                               snapshot(iterate, channels, noise))
        lams = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, channels.num_users - 1)])
        ws = solve_precoder(stacked, TAU, lams)
        assert ws.shape == iterate.precoders.shape
        for u in range(channels.num_users):
            np.testing.assert_array_equal(ws[u], solve_precoder(stacked.select(u), TAU,
                                                                lams[u]))


class TestPowerCurve:
    @pytest.mark.parametrize("case", ["mf", "none", "bd"])
    def test_matches_measured_power(self, default_scale_network, case):
        for surr in default_scale_surrogates(default_scale_network, case):
            if case == "mf":  # the parallel case the expanded form loses digits on
                for s in surr:
                    r, f = s.rhs(TAU), s.own_channel
                    np.testing.assert_allclose(
                        np.abs(np.einsum("ki,ki->k", np.conj(f), r)) ** 2,
                        np.sum(np.abs(f) ** 2, 1) * np.sum(np.abs(r) ** 2, 1),
                        rtol=1e-12)
            power = oracles.power_curve(surr, TAU)
            for lam in MULTIPLIERS:
                assert power(lam) == pytest.approx(measured_power(surr, lam),
                                                   rel=1e-13, abs=0)

    def test_zero_own_channel(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        channels.direct[0, 0] = 0
        channels.ris_ue[0, 0] = 0
        surr = build_surrogates(0, iterate, channels, noise)
        assert len(surr) == 2
        np.testing.assert_array_equal(surr[0].own_channel, 0)
        with np.errstate(all="raise"):
            power = oracles.power_curve(surr, TAU)
            for lam in MULTIPLIERS:
                assert power(lam) == pytest.approx(measured_power(surr, lam),
                                                   rel=1e-13, abs=0)
                assert oracles.power_curve(surr[:1], TAU)(lam) == pytest.approx(
                    measured_power(surr[:1], lam), rel=1e-13, abs=0)


class TestBisection:
    def test_loose_budget_gives_zero_multiplier(self, small_network):
        channels, iterate, noise = small_network
        surr = build_surrogates(0, iterate, channels, noise)
        lam, ws = bisect_power_multiplier(surr, TAU, 1e9)
        assert lam == 0.0

    def test_tight_budget_met_exactly(self, multiuser_network):
        channels, iterate, noise = multiuser_network
        for q in range(channels.num_bs):
            surr = build_surrogates(q, iterate, channels, noise)
            budget = 1e-3
            lam, ws = bisect_power_multiplier(surr, TAU, budget)
            power = float(np.sum(np.abs(ws) ** 2))
            assert power <= budget
            assert budget - power <= 1e-8 * budget
            assert lam > 0

    def test_stationarity_residual(self, small_network):
        channels, iterate, noise = small_network
        surr = build_surrogates(0, iterate, channels, noise)
        lam, ws = bisect_power_multiplier(surr, TAU, 1e-3)
        for s, w in zip(surr, ws):
            rhs = s.rhs(TAU)
            for k in range(w.shape[0]):
                f = s.own_channel[k]
                mat = s.quad_weight[k] * np.outer(f, np.conj(f)) \
                    + (TAU / 2 + lam) * np.eye(len(f))
                residual = np.linalg.norm(mat @ w[k] - rhs[k])
                assert residual <= 1e-8 * max(np.linalg.norm(rhs[k]), 1e-30)

    def test_bad_budget_rejected(self, small_network):
        channels, iterate, noise = small_network
        surr = build_surrogates(0, iterate, channels, noise)
        with pytest.raises(ValueError):
            bisect_power_multiplier(surr, TAU, 0.0)

    def test_unbracketable_budget_raises(self, small_network):
        channels, iterate, noise = small_network
        surr = build_surrogates(0, iterate, channels, noise)
        with pytest.raises(NumericalFailureError):
            bisect_power_multiplier(surr, TAU, 1e-300)

    @pytest.mark.parametrize("network", ["small_network", "multiuser_network",
                                         "default_scale_network"])
    @pytest.mark.parametrize("budget_scale", [10.0, 0.5, 1e-4])
    def test_same_result_as_measured_loop(self, request, network, budget_scale):
        # loose (multiplier 0), mid and tight budgets, relative to the
        # power of the unconstrained solve
        channels, iterate, noise = request.getfixturevalue(network)
        for q in range(channels.num_bs):
            surr = build_surrogates(q, iterate, channels, noise)
            budget = budget_scale * measured_power(surr, 0.0)
            lam, ws = bisect_power_multiplier(surr, TAU, budget)
            lam_ref, ws_ref = oracles.bisect_measured_power(surr, TAU, budget)
            assert (lam == 0.0) == (budget_scale > 1.0)
            if lam_ref == 0.0:
                assert lam == 0.0
                np.testing.assert_array_equal(ws, ws_ref)
                continue
            # the search may stop at another point of the oracle's stopping band
            power = float(np.sum(np.abs(ws) ** 2))
            assert budget - 1e-8 * budget <= power <= budget
            assert lam == pytest.approx(lam_ref, rel=1e-6, abs=0)
            np.testing.assert_allclose(ws, ws_ref, rtol=1e-6, atol=0)

    def test_rounding_above_budget_falls_back_to_measured_powers(self, monkeypatch):
        # a budget equal to the closed-form power at lam = 0, where the
        # measured power of the solved precoders rounds above it
        rng = np.random.default_rng(7)
        for _ in range(40):
            channels, iterate, noise = make_network(rng)
            surr = build_surrogates(0, iterate, channels, noise)
            budget = oracles.power_curve(surr, TAU)(0.0)
            if measured_power(surr, 0.0) > budget:
                break
        else:
            pytest.fail("no draw rounds above its closed-form power")
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_precoder(*args)
        monkeypatch.setattr(precoding, "solve_precoder", counted)
        lam, ws = bisect_power_multiplier(surr, TAU, budget)
        assert len(calls) > len(surr)  # precoders were solved past the first try
        assert lam > 0.0
        power = float(np.sum(np.abs(ws) ** 2))
        assert budget - 1e-8 * budget <= power <= budget


class TestLockStepBisection:
    def solve_all(self, channels, iterate, noise, budgets, start=None):
        snap = snapshot(iterate, channels, noise)
        stacked = precoding.stacked_surrogates(iterate, channels, snap)
        return precoding.solve_precoders(stacked, channels.bs_of_user, TAU,
                                         np.asarray(budgets, float), start)

    def assert_matches_scalar(self, channels, iterate, noise, budgets):
        lams, ws, _ = self.solve_all(channels, iterate, noise, budgets)
        for q in range(channels.num_bs):
            surr = build_surrogates(q, iterate, channels, noise)
            lam, ws_q = bisect_power_multiplier(surr, TAU, budgets[q])
            assert lams[q] == lam
            np.testing.assert_array_equal(ws[channels.users_of_bs(q)], ws_q)
        return lams

    def test_zero_multiplier_beside_a_bracketed_one(self, multiuser_network):
        # BS 0 fits a loose budget at lam = 0; BS 1 needs bracketing
        channels, iterate, noise = multiuser_network
        lams = self.assert_matches_scalar(channels, iterate, noise, [1e9, 1e-3])
        assert lams[0] == 0.0 and lams[1] > 1.0

    @pytest.mark.parametrize("budget_scale", [10.0, 0.5, 1e-4])
    def test_matches_scalar_at_default_scale(self, default_scale_network,
                                             budget_scale):
        channels, iterate, noise = default_scale_network
        budgets = [budget_scale * measured_power(
            build_surrogates(q, iterate, channels, noise), 0.0)
            for q in range(channels.num_bs)]
        self.assert_matches_scalar(channels, iterate, noise, budgets)

    @pytest.mark.parametrize("budget_scale", [0.5, 1e-4, 1e-8])
    def test_few_curve_evaluations_at_default_scale(self, monkeypatch, default_scale_network,
                                                    budget_scale):
        channels, iterate, noise = default_scale_network
        budgets = np.array([budget_scale * measured_power(
            build_surrogates(q, iterate, channels, noise), 0.0)
            for q in range(channels.num_bs)])
        evaluations = []
        curves = precoding.power_curves

        def counted_curves(*args):
            curve = curves(*args)

            def counted(lam):
                evaluations.append(lam.copy())
                return curve(lam)
            return counted
        monkeypatch.setattr(precoding, "power_curves", counted_curves)
        lams, ws, _ = self.solve_all(channels, iterate, noise, budgets)
        for q in range(channels.num_bs):
            power = float(np.sum(np.abs(ws[channels.users_of_bs(q)]) ** 2))
            assert lams[q] > 0.0
            assert budgets[q] - 1e-8 * budgets[q] <= power <= budgets[q]
        assert 0 < len(evaluations) <= 12

    def test_measured_power_fallback_per_bs(self, monkeypatch):
        # the rounding case of TestBisection: BS 0's budget is its closed-form
        # power at lam = 0, which its measured power rounds above; BS 1 is loose
        rng = np.random.default_rng(7)
        for _ in range(40):
            channels, iterate, noise = make_network(rng)
            surr = build_surrogates(0, iterate, channels, noise)
            budget = oracles.power_curve(surr, TAU)(0.0)
            if measured_power(surr, 0.0) > budget:
                break
        else:
            pytest.fail("no draw rounds above its closed-form power")
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_precoder(*args)
        monkeypatch.setattr(precoding, "solve_precoder", counted)
        lams, ws, _ = self.solve_all(channels, iterate, noise, [budget, 1e9])
        assert len(calls) > 1  # precoders were solved past the first try
        assert lams[0] > 0.0 and lams[1] == 0.0
        monkeypatch.undo()
        self.assert_matches_scalar(channels, iterate, noise, [budget, 1e9])

    def default_scale_budgets(self, network, budget_scale):
        channels, iterate, noise = network
        return np.array([budget_scale * measured_power(
            build_surrogates(q, iterate, channels, noise), 0.0)
            for q in range(channels.num_bs)])

    @pytest.mark.parametrize("factor", [0.5, 2.0, 100.0])
    @pytest.mark.parametrize("budget_scale", [0.5, 1e-4])
    def test_warm_start_from_either_side(self, default_scale_network, budget_scale,
                                         factor):
        budgets = self.default_scale_budgets(default_scale_network, budget_scale)
        cold, ws_cold, _ = self.solve_all(*default_scale_network, budgets)
        lams, ws, steps = self.solve_all(*default_scale_network, budgets, factor * cold)
        channels = default_scale_network[0]
        for q in range(channels.num_bs):
            power = float(np.sum(np.abs(ws[channels.users_of_bs(q)]) ** 2))
            assert budgets[q] - 1e-8 * budgets[q] <= power <= budgets[q]
        assert np.all(steps > 0)
        np.testing.assert_allclose(lams, cold, rtol=1e-6, atol=0)
        np.testing.assert_allclose(ws, ws_cold, rtol=1e-6, atol=0)

    def test_start_inside_the_band_is_kept(self, default_scale_network):
        # the convexity bound already shows that the power at 0 is over budget
        budgets = self.default_scale_budgets(default_scale_network, 0.5)
        cold, ws_cold, cold_steps = self.solve_all(*default_scale_network, budgets)
        lams, ws, steps = self.solve_all(*default_scale_network, budgets, cold)
        assert np.all(cold_steps > 0) and np.all(steps == 0)
        np.testing.assert_array_equal(lams, cold)
        np.testing.assert_array_equal(ws, ws_cold)

    @pytest.mark.parametrize("start", [1e-9, 1.0])
    def test_positive_start_where_zero_fits(self, default_scale_network, start):
        # a budget just above the free power: only lam = 0 fits, although the
        # power at 1e-9 lies inside the band, and at 1.0 below it
        budgets = self.default_scale_budgets(default_scale_network, 1.0 + 1e-12)
        cold, ws_cold, _ = self.solve_all(*default_scale_network, budgets)
        lams, ws, steps = self.solve_all(*default_scale_network, budgets,
                                         np.full(len(budgets), start))
        np.testing.assert_array_equal(cold, 0.0)
        np.testing.assert_array_equal(lams, 0.0)
        np.testing.assert_array_equal(ws, ws_cold)
        assert np.all(steps >= 1)

    def test_nan_budget_rejected(self, small_network):
        channels, iterate, noise = small_network
        with pytest.raises(ValueError, match="budget"):
            self.solve_all(channels, iterate, noise, [1.0, np.nan])

    @pytest.mark.parametrize("start", [-1.0, np.nan, np.inf])
    def test_bad_start_rejected(self, small_network, start):
        channels, iterate, noise = small_network
        with pytest.raises(ValueError):
            self.solve_all(channels, iterate, noise, [1.0, 1.0], [0.0, start])

    def test_unbracketable_budget_raises(self, small_network):
        channels, iterate, noise = small_network
        snap = snapshot(iterate, channels, noise)
        stacked = precoding.stacked_surrogates(iterate, channels, snap)
        with pytest.raises(NumericalFailureError):
            precoding.solve_precoders(stacked, channels.bs_of_user, TAU,
                                      np.array([1.0, 1e-300]))
        with pytest.raises(ValueError):
            precoding.solve_precoders(stacked, channels.bs_of_user, TAU,
                                      np.array([1.0, 0.0]))


class TestSubproblemImprovement:
    def test_candidate_improves_surrogate_objective(self, rng):
        for trial in range(20):
            channels, iterate, noise = make_network(
                rng, users_per_bs=(2, 1), precoder_scale=0.3)
            for q in range(channels.num_bs):
                surr = build_surrogates(q, iterate, channels, noise)
                own = channels.users_of_bs(q)
                budget = float(np.sum(np.abs(iterate.precoders[own]) ** 2))
                _, ws = bisect_power_multiplier(surr, TAU, budget)
                before = sum(objective_values(s, s.anchor, TAU) for s in surr)
                after = sum(objective_values(s, w, TAU) for s, w in zip(surr, ws))
                assert after >= before - 1e-10
