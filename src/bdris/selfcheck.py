"""Runtime self-checks of the analytic machinery against independent oracles.

Each check re-derives a quantity with a slow, obviously-correct method
(finite differences, dense solves, exhaustive enumeration) and compares it
to the analytic fast path.  The ``validate`` CLI subcommand runs them all
and reports one line per check.

This module is also the one home of the finite-difference oracles (one
``fd_*`` helper per block) and of the synthetic network they run on, since
``validate`` ships with the library; the test suite imports them from here.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from . import capacitance, precoding, rates, switches
from .channels import NetworkChannels
from .circuit import (ElementCircuit, SubcarrierGrid, rational_coefficients, reflection,
                      reflection_direct)
from .rates import Iterate, snapshot

CAP_STEP = 1e-17  # finite-difference step for capacitances, farads


def complex_normal(rng, *shape):
    """Circularly-symmetric complex Gaussian draws of unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_network(rng, num_bs=2, num_antennas=2, num_elements=4,
                   num_subcarriers=4, users_per_bs=(1, 1), noise_power=1e-2,
                   precoder_scale=0.4, circuit=None):
    """(channels, feasible iterate, noise power) of a random O(1)-scale network."""
    circuit = circuit or ElementCircuit()
    grid = SubcarrierGrid(3.5e9, 0.1e9, num_subcarriers)
    u_n = sum(users_per_bs)
    channels = NetworkChannels(
        complex_normal(rng, num_bs, u_n, num_subcarriers, num_antennas),
        complex_normal(rng, num_bs, num_subcarriers, num_elements, num_antennas),
        complex_normal(rng, num_bs, u_n, num_subcarriers, num_elements),
        np.repeat(np.arange(num_bs), users_per_bs), grid, circuit)
    w = complex_normal(rng, u_n, num_subcarriers, num_antennas) * precoder_scale
    caps = rng.uniform(circuit.c_min, circuit.c_max, (num_bs, num_elements))
    sels = np.stack([rng.permutation(num_elements) for _ in range(num_bs)])
    return channels, Iterate(w, caps, sels), noise_power


def fd_reflection_derivative(f, cap, circuit, step=CAP_STEP):
    """Central differences of ``phi`` in the capacitance, d(phi)/dC."""
    coefficients = rational_coefficients(f, circuit)
    return (reflection(cap + step, coefficients, circuit)[0]
            - reflection(cap - step, coefficients, circuit)[0]) / (2 * step)


def fd_capacitance_gradient(fun, iterate, q, step=CAP_STEP):
    """Central differences of ``fun(iterate)`` w.r.t. surface q's caps, (M, ...).

    ``fun`` may return a scalar or an array; its shape trails the result's.
    """
    def shifted(m, h):
        it = iterate.copy()
        it.capacitances[q, m] += h
        return np.asarray(fun(it))
    return np.stack([(shifted(m, step) - shifted(m, -step)) / (2 * step)
                     for m in range(iterate.capacitances.shape[1])])


def fd_selection_gradient(fun, channels, perm, q, step=1e-6):
    """Central differences of ``fun(channels)`` w.r.t. the relaxed selection
    matrix S of surface q, whose permutation is ``perm``, (M, M, ...).

    The surface channel g enters the rates only through ``conj(g) @ S``, so
    adding ``step`` to ``S[i, j]`` is the same as adding ``step * g[i]`` to
    ``g[perm[j]]``, the one entry routed to column j.
    """
    def shifted(i, j, h):
        ris_ue = channels.ris_ue.copy()
        ris_ue[q, ..., perm[j]] += h * channels.ris_ue[q, ..., i]
        return np.asarray(fun(replace(channels, ris_ue=ris_ue)))
    m_n = len(perm)
    return np.stack([np.stack([(shifted(i, j, step) - shifted(i, j, -step)) / (2 * step)
                               for j in range(m_n)]) for i in range(m_n)])


def fd_precoder_gradient(fun, iterate, user, step=1e-7, subcarriers=None):
    """Conjugate-coordinate gradient d fun / d w* of one user's precoder, (K, N, ...).

    Central differences along the real and imaginary parts, at ``subcarriers`` (default all).
    """
    def partial(k, n, part):
        up, down = iterate.copy(), iterate.copy()
        up.precoders[user, k, n] += step * part
        down.precoders[user, k, n] -= step * part
        return 0.5 * part * (np.asarray(fun(up)) - np.asarray(fun(down))) / (2 * step)
    k_n, n_n = iterate.precoders.shape[1:]
    ks = range(k_n) if subcarriers is None else subcarriers
    return np.stack([np.stack([partial(k, n, 1.0) + partial(k, n, 1j)
                               for n in range(n_n)]) for k in ks])


def dense_precoder(surrogate, tau, lam):
    """Precoder of one surrogate by a dense solve per subcarrier, (K, N)."""
    mats = [a * np.outer(f, np.conj(f)) + (tau / 2 + lam) * np.eye(len(f))
            for a, f in zip(surrogate.quad_weight, surrogate.own_channel)]
    return np.stack([np.linalg.solve(m, r) for m, r in zip(mats, surrogate.rhs(tau))])


def best_assignment(reward):
    """Best ``sum_m reward[perm[m], m]`` over all permutations, by exhaustive search."""
    m = reward.shape[0]
    return max(sum(reward[perm[col], col] for col in range(m))
               for perm in itertools.permutations(range(m)))


def _own_and_other_rate(iterate, channels, noise_power, q):
    """(own-cell, other-cell) rate sums of BS q, times the subcarrier count."""
    rates = snapshot(iterate, channels, noise_power).user_rates
    own, k_n = channels.bs_of_user == q, channels.num_subcarriers
    return np.array([k_n * rates[own].sum(), k_n * rates[~own].sum()])


def _element_draws(seed, samples, margin=0.0):
    """Default element, in-band frequencies and in-range capacitances."""
    rng = np.random.default_rng(seed)
    circ = ElementCircuit()
    return (circ, rng.uniform(3.45e9, 3.55e9, samples),
            rng.uniform(circ.c_min + margin, circ.c_max - margin, samples))


def check_circuit_equivalence(samples=2000, seed=0):
    circ, f, c = _element_draws(seed, samples)
    direct = reflection_direct(f, c, circ)
    reform = reflection(c, rational_coefficients(f, circ), circ)[0]
    err = np.max(np.abs(direct - reform) / np.maximum(np.abs(direct), 1.0))
    return "reflection reformulation vs direct", err <= 1e-10, f"max err {err:.2e}"


def check_passivity(samples=2000, seed=1):
    circ, f, c = _element_draws(seed, samples)
    lossless = ElementCircuit(resistance=0.0)
    lossy = np.max(np.abs(reflection(c, rational_coefficients(f, circ), circ)[0]))
    mag = np.abs(reflection(c, rational_coefficients(f, lossless), lossless)[0])
    unit = np.max(np.abs(mag - 1.0))
    ok = lossy < 1.0 and unit <= 1e-12
    return "element passivity", ok, f"lossy max |phi| {lossy:.6f}, lossless dev {unit:.1e}"


def check_reflection_derivative(samples=200, seed=2):
    circ, f, c = _element_draws(seed, samples, margin=2 * CAP_STEP)
    analytic = reflection(c, rational_coefficients(f, circ), circ)[1]
    fd = fd_reflection_derivative(f, c, circ)
    err = np.max(np.abs(analytic - fd) / np.abs(analytic))
    return "element response derivative", err <= 1e-5, f"max rel err {err:.2e}"


def _own_and_pricing_gradients(iterate, channels, snap):
    """Own-cell and pricing parts of every surface gradient, as the sweep
    assembles them: ``[(grad_c, grad_s) own-cell, (grad_c, grad_s) pricing]``."""
    return [rates.surface_gradients(iterate, channels, snap, cell=cell, pricing=1.0 - cell)
            for cell in (1.0, 0.0)]


def _worst_rel_err(analytic, fd):
    """Largest relative error of the (own-cell, pricing) parts against the
    finite differences ``fd[..., 0]`` and ``fd[..., 1]``."""
    return max(np.linalg.norm(a - fd[..., n]) / np.linalg.norm(fd[..., n])
               for n, a in enumerate(analytic))


def check_capacitance_gradients(seed=3):
    channels, iterate, noise = random_network(np.random.default_rng(seed), users_per_bs=(2, 1))
    parts = _own_and_pricing_gradients(iterate, channels, snapshot(iterate, channels, noise))
    worst = 0.0
    for q in range(channels.num_bs):
        fd = fd_capacitance_gradient(
            lambda it: _own_and_other_rate(it, channels, noise, q), iterate, q)
        worst = max(worst, _worst_rel_err([grad_c[q] for grad_c, _ in parts], fd))
    return "capacitance gradient vs finite differences", worst <= 1e-4, f"max rel err {worst:.2e}"


def check_selection_gradients(seed=4):
    channels, iterate, noise = random_network(np.random.default_rng(seed), users_per_bs=(2, 1))
    parts = _own_and_pricing_gradients(iterate, channels, snapshot(iterate, channels, noise))
    worst = 0.0
    for q in range(channels.num_bs):
        fd = fd_selection_gradient(
            lambda ch: _own_and_other_rate(iterate, ch, noise, q), channels,
            iterate.selections[q], q)
        worst = max(worst, _worst_rel_err([grad_s[q] for _, grad_s in parts], fd))
    return "selection gradient vs finite differences", worst <= 1e-4, f"max rel err {worst:.2e}"


def check_precoder_pricing(seed=5):
    channels, iterate, noise = random_network(np.random.default_rng(seed))
    worst = 0.0
    for user in range(channels.num_users):
        q = channels.bs_of_user[user]
        fd = fd_precoder_gradient(
            lambda it: _own_and_other_rate(it, channels, noise, q)[1], iterate, user)
        got = precoding.pricing_vector(user, iterate, channels, noise)
        worst = max(worst, np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-30))
    return "precoder pricing vs finite differences", worst <= 1e-4, f"max rel err {worst:.2e}"


def check_surrogate_bound(seed=6, draws=100):
    rng = np.random.default_rng(seed)
    channels, iterate, noise = random_network(rng)
    snap = snapshot(iterate, channels, noise)
    s = precoding.stacked_surrogates(iterate, channels, snap)
    anchor_rate = np.log1p(snap.snr) / np.log(2.0)
    worst_gap = np.max(np.abs(s.log_term_value(s.anchor) - anchor_rate))
    violations = 0
    for _ in range(draws):
        w = (rng.standard_normal(s.anchor.shape)
             + 1j * rng.standard_normal(s.anchor.shape)) * 0.5
        sig = np.abs(np.einsum("uki,uki->uk", np.conj(s.own_channel), w)) ** 2
        exact = np.log1p(sig / snap.mui) / np.log(2.0)
        violations += int(np.sum(np.any(s.log_term_value(w) > exact + 1e-9, axis=-1)))
    ok = worst_gap <= 1e-9 and violations == 0
    return "precoder surrogate lower bound", ok, \
        f"anchor gap {worst_gap:.1e}, violations {violations}"


def check_precoder_solve(seed=7):
    channels, iterate, noise = random_network(np.random.default_rng(seed))
    tau, worst = 0.8, 0.0
    stacked = precoding.stacked_surrogates(iterate, channels, snapshot(iterate, channels, noise))
    users = [stacked.select(u) for u in range(channels.num_users)]
    # each user alone at three multipliers, then all users in one call at one each
    lams = np.linspace(0.3, 2.0, len(users))
    trials = [(precoding.solve_precoder(precoding.split_rhs(s, tau), lam), s, lam)
              for s in users for lam in (0.0, 0.3, 2.0)]
    trials += zip(precoding.solve_precoder(precoding.split_rhs(stacked, tau), lams),
                  users, lams)
    for w, s, lam in trials:
        dense = dense_precoder(s, tau, lam)
        err = np.linalg.norm(w - dense, axis=1) / np.maximum(np.linalg.norm(dense, axis=1), 1e-30)
        worst = max(worst, err.max())
    return "precoder closed form vs dense solve", worst <= 1e-10, f"max rel err {worst:.2e}"


def check_power_multiplier(seed=10):
    """Every BS's multiplier in one lock-step call, each BS in another budget
    regime (loose, binding, tight) per call, until each has met all three.
    Each call is repeated from warm starts at half, twice and 100 times its
    multipliers and at the multipliers themselves, which lie inside the band;
    a last call starts every BS at 1e-9 where only 0 fits, its budget the
    free power times 1 + 1e-12."""
    channels, iterate, noise = random_network(np.random.default_rng(seed), users_per_bs=(2, 1))
    tau = 0.8
    stacked = precoding.stacked_surrogates(iterate, channels, snapshot(iterate, channels, noise))
    owner = channels.bs_of_user
    users = [stacked.select(u) for u in range(channels.num_users)]
    free = rates.bs_power(np.stack([dense_precoder(s, tau, 0.0) for s in users]), owner,
                          channels.num_bs)

    def kkt(budgets, start=None):
        """(multipliers, KKT violations, worst relative error vs dense solve)."""
        lams, ws, _ = precoding.solve_precoders(stacked, owner, tau, budgets, start)
        power = rates.bs_power(ws, owner, channels.num_bs)
        floor = budgets * (1.0 - precoding.POWER_REL_TOL)
        violations = (np.sum((lams == 0.0) != (free <= budgets))
                      + np.sum((lams > 0.0) & ~((floor <= power) & (power <= budgets))))
        worst = 0.0
        for s, w, lam in zip(users, ws, lams[owner]):
            dense = dense_precoder(s, tau, lam)
            err = np.linalg.norm(w - dense, axis=1) \
                / np.maximum(np.linalg.norm(dense, axis=1), 1e-30)
            worst = max(worst, err.max())
        return lams, violations, worst

    results = []
    scales = np.array([10.0, 0.5, 1e-4])
    for shift in range(len(scales)):
        budgets = free * scales[(np.arange(channels.num_bs) + shift) % len(scales)]
        results.append(kkt(budgets))
        results += [kkt(budgets, factor * results[-1][0]) for factor in (0.5, 2.0, 100.0, 1.0)]
    results.append(kkt(free * (1.0 + 1e-12), np.full(channels.num_bs, 1e-9)))
    violations = sum(r[1] for r in results)
    worst = max(r[2] for r in results)
    ok = violations == 0 and worst <= 1e-10
    return "power multiplier KKT conditions", ok, \
        f"{violations} violations over {len(results)} calls, max rel err {worst:.2e}"


def check_capacitance_clamp(seed=8, draws=200):
    rng = np.random.default_rng(seed)
    circ = ElementCircuit()
    tau, worst = 0.8, 0.0
    grid_pts = np.linspace(circ.c_min, circ.c_max, 20001)[:, None]
    for _ in range(draws):
        c_prev = rng.uniform(circ.c_min, circ.c_max, 6)
        grad = rng.standard_normal(6) * tau * (circ.c_max - circ.c_min)
        out = capacitance.update_capacitances(c_prev, grad, tau, circ)
        # per-coordinate concave model maximized on a fine grid as oracle
        model = grad * (grid_pts - c_prev) - tau / 2 * (grid_pts - c_prev) ** 2
        best = grid_pts[np.argmax(model, axis=0), 0]
        worst = max(worst, np.max(np.abs(out - best)) / (circ.c_max - circ.c_min))
    return "capacitance clamp vs grid oracle", worst <= 1e-4, f"max dev {worst:.1e}"


def check_assignment(seed=9, draws=50, size=4, tau=0.8):
    """Random rewards, rewards the certificate of ``solve_selection`` accepts
    (a small gradient plus ``tau`` at a random permutation, the solver's
    usual case) and rewards it must reject (one column's maximum tied)."""
    rng = np.random.default_rng(seed)
    cols = np.arange(size)
    bad = wrong_certificate = 0
    for _ in range(draws):
        dominant = switches.selection_reward(0.05 * rng.standard_normal((size, size)),
                                             rng.permutation(size), tau)
        tied = rng.standard_normal((size, size))
        best = tied.argmax(axis=0)
        tied[(best[0] + 1) % size, 0] = tied[best[0], 0]
        for reward in (rng.standard_normal((size, size)), dominant, tied):
            perm = switches.solve_selection(reward)
            if abs(reward[perm, cols].sum() - best_assignment(reward)) > 1e-12:
                bad += 1
        wrong_certificate += (switches.certified_selection(dominant) is None
                              or switches.certified_selection(tied) is not None)
    ok = bad == 0 and wrong_certificate == 0
    return "assignment vs exhaustive enumeration", ok, \
        f"{bad} mismatches over {3 * draws} rewards, {wrong_certificate} wrong certificates"


ALL_CHECKS = (
    check_circuit_equivalence,
    check_passivity,
    check_reflection_derivative,
    check_capacitance_gradients,
    check_selection_gradients,
    check_precoder_pricing,
    check_surrogate_bound,
    check_precoder_solve,
    check_power_multiplier,
    check_capacitance_clamp,
    check_assignment,
)


def run_all():
    """Run every check; returns a list of (name, passed, detail)."""
    return [check() for check in ALL_CHECKS]
