import numpy as np
import pytest

import oracles
from bdris import precoding
from bdris.errors import NumericalFailureError
from bdris.precoding import (bisect_power_multiplier, build_surrogates,
                             objective_values, pricing_vector, solve_precoder,
                             split_rhs)
from bdris.rates import LN2, snapshot

from conftest import complex_normal, make_network

TAU = 0.8
MULTIPLIERS = (0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6)


def measured_power(surrogates, lam):
    ws = np.stack([solve_precoder(split_rhs(s, TAU), lam) for s in surrogates])
    return float(np.sum(np.abs(ws) ** 2))


def rounding_draw():
    """A synthetic network whose BS 0's measured power at ``lam = 0`` rounds
    above its closed-form power, that power the budget; with BS 0's surrogates."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        channels, iterate, noise = make_network(rng)
        surr = build_surrogates(0, iterate, channels, noise)
        budget = oracles.power_curve(surr, TAU)(0.0)
        if measured_power(surr, 0.0) > budget:
            return channels, iterate, noise, surr, budget
    pytest.fail("no draw rounds above its closed-form power")


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

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_matches_finite_differences(self, request, network):
        # At default scale one literal ``oracles.cell_rates`` call takes about
        # 1.5 s, four per differenced entry, so every rate but the user's own
        # comes from snapshots, differenced on subcarriers 0 and K - 1 only
        # (all of K take about 8 s).  Each subcarrier's error must stay within
        # 1e-5 of its largest entry; trial 0 measured 2.6e-6, the rounding of
        # the central differences.
        channels, iterate, noise = request.getfixturevalue(network)
        k_n = channels.num_subcarriers
        for user in range(channels.num_users):
            got = pricing_vector(user, iterate, channels, noise)
            if network == "multiuser_network":
                # every rate but u's own, whose log term the quadratic models
                fd = oracles.fd_precoder_gradient(
                    lambda it: k_n * (oracles.sum_rate(it, channels, noise)
                                      - oracles.user_rate(user, it, channels, noise)),
                    iterate, user)
                assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)
                continue

            def priced_rates(it):
                user_rates = snapshot(it, channels, noise).user_rates
                return k_n * (user_rates.sum() - user_rates[user])

            fd = oracles.fd_precoder_gradient(priced_rates, iterate, user,
                                              subcarriers=[0, k_n - 1])
            err = np.max(np.abs(got[[0, -1]] - fd), axis=1)
            assert np.all(err <= 1e-5 * np.max(np.abs(fd), axis=1))


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
                    exact = np.log1p(sig / snap.mui[u]) / LN2
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
                            d_exact = (np.log1p(sig_u / snap.mui[u, k])
                                       - np.log1p(sig_d / snap.mui[u, k])) / (LN2 * 2 * h)
                            d_sur = (s.log_term_value(up)[k]
                                     - s.log_term_value(down)[k]) / (2 * h)
                            assert d_sur == pytest.approx(d_exact, rel=1e-4, abs=1e-9)

    @pytest.mark.parametrize("cooperative", [True, False])
    @pytest.mark.parametrize("users_per_bs", [(2, 1), (3, 2)], ids=["2+1", "3+2"])
    def test_gradient_matches_weighted_rates(self, rng, users_per_bs, cooperative):
        # At its anchor, every user's surrogate has the gradient of its own
        # cell's rates plus ``cooperative`` times the other cells' rates, the
        # intra-cell interference terms of multi-user cells included
        channels, iterate, noise = make_network(rng, users_per_bs=users_per_bs)
        s = precoding.stacked_surrogates(iterate, channels, snapshot(iterate, channels, noise),
                                         cooperative)
        f = s.own_channel
        along = np.einsum("uki,uki->uk", np.conj(f), s.anchor)
        grad = s.linear - (s.quad_weight * along)[..., None] * f + s.pricing
        for user in range(channels.num_users):
            q = channels.bs_of_user[user]
            fd = oracles.fd_precoder_gradient(
                lambda it: np.dot(oracles.cell_rates(it, channels, noise, q),
                                  [1.0, float(cooperative)]),
                iterate, user)
            assert np.linalg.norm(grad[user] - fd) <= 1e-6 * np.linalg.norm(fd)


class TestSolvePrecoder:
    def test_zero_quadratic_reduces_to_identity_solve(self, small_network):
        channels, iterate, noise = small_network
        s = build_surrogates(0, iterate, channels, noise)[0]
        s.quad_weight[:] = 0
        lam = 0.7
        got = solve_precoder(split_rhs(s, TAU), lam)
        np.testing.assert_allclose(got, s.rhs(TAU) / (TAU / 2 + lam), rtol=1e-12)

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_matches_dense_solve(self, request, network):
        # default scale, trial 0: within 9.9e-14 of the dense solve
        channels, iterate, noise = request.getfixturevalue(network)
        for q in range(channels.num_bs):
            for s in build_surrogates(q, iterate, channels, noise):
                for lam in (0.0, 0.5, 3.0):
                    fast = solve_precoder(split_rhs(s, TAU), lam)
                    dense = oracles.dense_precoder(s, TAU, lam)
                    for k in range(fast.shape[0]):
                        assert np.linalg.norm(fast[k] - dense[k]) <= \
                            1e-10 * max(np.linalg.norm(dense[k]), 1e-30)

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_reciprocal_scaling_keeps_the_division_bits(self, request, network):
        # numpy divides complex by real as a product with the reciprocal; if that
        # changes, the solver's results change with it
        channels, iterate, noise = request.getfixturevalue(network)
        for q in range(channels.num_bs):
            for s in build_surrogates(q, iterate, channels, noise):
                split = split_rhs(s, TAU)
                for lam in MULTIPLIERS:
                    beta = split.half_tau + lam
                    divided = (split.across / beta
                               + (split.along / (beta + split.shift))[..., None] * split.channel)
                    np.testing.assert_array_equal(solve_precoder(split, lam), divided)

    def test_norm_decreases_with_multiplier(self, small_network):
        channels, iterate, noise = small_network
        s = build_surrogates(0, iterate, channels, noise)[0]
        lams = np.linspace(0.0, 5.0, 30)
        split = split_rhs(s, TAU)
        norms = [np.linalg.norm(solve_precoder(split, lam)) for lam in lams]
        assert np.all(np.diff(norms) <= 1e-12)

    @pytest.mark.parametrize("network", ["multiuser_network", "default_scale_network"])
    def test_stack_matches_per_user_calls(self, request, network):
        # one broadcast call with a distinct multiplier per user equals the
        # per-user calls bit for bit
        channels, iterate, noise = request.getfixturevalue(network)
        stacked = precoding.stacked_surrogates(iterate, channels,
                                               snapshot(iterate, channels, noise))
        lams = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, channels.num_users - 1)])
        ws = solve_precoder(split_rhs(stacked, TAU), lams)
        assert ws.shape == iterate.precoders.shape
        for u in range(channels.num_users):
            np.testing.assert_array_equal(
                ws[u], solve_precoder(split_rhs(stacked.select(u), TAU), lams[u]))


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
        channels, iterate, noise, surr, budget = rounding_draw()
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
        channels, iterate, noise, surr, budget = rounding_draw()
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

    def test_one_split_per_search(self, monkeypatch, multiuser_network):
        # the power curve, the Newton steps, the final solve and the
        # measured-power fallback all read one split of the stacked surrogate
        channels, iterate, noise, _, budget = rounding_draw()
        splits, solves = [], []
        split, solve = precoding.split_rhs, precoding.solve_precoder

        def counted_split(*args):
            splits.append(args)
            return split(*args)

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)
        monkeypatch.setattr(precoding, "split_rhs", counted_split)
        monkeypatch.setattr(precoding, "solve_precoder", counted_solve)
        for network, budgets, fallback in ((multiuser_network, [1e9, 1e-3], False),
                                           ((channels, iterate, noise), [budget, 1e9], True)):
            splits.clear()
            solves.clear()
            self.solve_all(*network, budgets)
            assert len(splits) == 1
            assert (len(solves) > 1) == fallback

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


class TestNewtonSearch:
    """``_newton_search`` against the whole-array reference, bit for bit."""

    @pytest.fixture(params=["multiuser_network", "default_scale_network"])
    def curve(self, request):
        channels, iterate, noise = request.getfixturevalue(request.param)
        stacked = precoding.stacked_surrogates(iterate, channels,
                                               snapshot(iterate, channels, noise))
        curve = precoding.power_curves(split_rhs(stacked, TAU), channels.bs_of_user)
        free = curve(np.zeros(channels.num_bs))[0]  # each BS's power at lam = 0
        return curve, free

    @staticmethod
    def assert_same_search(power_at, budgets, start, binding=None):
        want = oracles.newton_search(power_at, budgets, start.copy(), binding)
        got = precoding._newton_search(power_at, budgets, start.copy(), binding)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w, strict=True)
        return got

    @pytest.mark.parametrize("budget_scale", [10.0, 0.5, 1e-4, 1e-8])
    def test_cold_start(self, curve, budget_scale):
        power_at, free = curve
        lam, steps = self.assert_same_search(power_at, budget_scale * free,
                                             np.zeros(len(free)))
        assert np.all((lam > 0.0) == (budget_scale < 1.0))

    @pytest.mark.parametrize("factor", [0.5, 2.0, 100.0])
    @pytest.mark.parametrize("budget_scale", [0.5, 1e-4])
    def test_warm_start_around_the_root(self, curve, budget_scale, factor):
        power_at, free = curve
        budgets = budget_scale * free
        root, _ = self.assert_same_search(power_at, budgets, np.zeros(len(free)))
        _, steps = self.assert_same_search(power_at, budgets, factor * root)
        assert np.all(steps > 0)

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_given_binding_mask(self, curve, factor):
        # a mask marks the budgets known to bind, so no positive start restarts
        power_at, free = curve
        budgets = 0.5 * free
        root, _ = self.assert_same_search(power_at, budgets, np.zeros(len(free)))
        mask = np.arange(len(free)) % 2 == 0
        self.assert_same_search(power_at, budgets, factor * root, mask)

    def test_binding_shown_once_is_kept(self):
        # on the power curves the convexity bound shows a binding budget
        # wherever the band is, so a stand-in curve hides it: twice the
        # budget at 0 and, past 0, a power inside the band with a slope of
        # almost 0; the pass at 0, or a mask given on entry, keeps lam > 0
        budgets = np.array([2.0, 3.0])

        def power_at(lam):
            inside = budgets * (1.0 - 0.5 * precoding.POWER_REL_TOL)
            return (np.where(lam > 0.0, inside, 2.0 * budgets),
                    np.where(lam > 0.0, -1e-30, -budgets))
        root, steps = self.assert_same_search(power_at, budgets, np.zeros(2))
        assert np.all(root > 0.0) and np.all(steps == 1)
        _, steps = self.assert_same_search(power_at, budgets, root, np.ones(2, bool))
        np.testing.assert_array_equal(steps, 0)
        _, steps = self.assert_same_search(power_at, budgets, root)
        np.testing.assert_array_equal(steps, 2)

    @pytest.mark.parametrize("start", [1e-9, 1.0])
    def test_positive_start_where_zero_fits(self, curve, start):
        power_at, free = curve
        lam, steps = self.assert_same_search(power_at, (1.0 + 1e-12) * free,
                                             np.full(len(free), start))
        np.testing.assert_array_equal(lam, 0.0)
        assert np.all(steps >= 1)

    def test_multiplier_bound_raises(self, curve):
        power_at, free = curve
        budgets = np.where(np.arange(len(free)) == 0, 1e-300, free)
        self.assert_same_raise(power_at, budgets, "exceeds its bound")

    def test_no_convergence_raises(self, curve):
        # slopes a million times too steep make every step far too short
        power_at, free = curve

        def steep(lam):
            power, slope = power_at(lam)
            return power, 1e6 * slope
        self.assert_same_raise(steep, 0.5 * free, "did not converge")

    @staticmethod
    def assert_same_raise(power_at, budgets, match):
        for search in (oracles.newton_search, precoding._newton_search):
            with pytest.raises(NumericalFailureError, match=match):
                search(power_at, budgets, np.zeros(len(budgets)))


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
