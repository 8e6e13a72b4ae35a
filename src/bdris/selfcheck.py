"""Runtime self-checks of the analytic machinery against independent oracles.

Each check re-derives a quantity with a slow, obviously-correct method
(finite differences, dense solves, exhaustive enumeration) and compares it
to the analytic fast path.  The ``validate`` CLI subcommand runs them all
and reports one line per check.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from . import capacitance, precoding, switches
from .channels import NetworkChannels
from .circuit import (ElementCircuit, SubcarrierGrid, reflection_derivative,
                      reflection_direct, reflection_reformulated)
from .rates import Iterate, snapshot, sum_rate

CAP_STEP = 1e-17  # finite-difference step for capacitances, farads


def random_network(rng, num_bs=2, num_antennas=2, num_elements=4,
                   num_subcarriers=4, users_per_bs=(1, 1), noise_power=1e-2,
                   circuit=None):
    """Synthetic random channels plus a feasible iterate, for checks."""
    circuit = circuit or ElementCircuit()
    grid = SubcarrierGrid(3.5e9, 0.1e9, num_subcarriers)
    u_n = sum(users_per_bs)
    shape = lambda *s: (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / np.sqrt(2)
    channels = NetworkChannels(
        shape(num_bs, u_n, num_subcarriers, num_antennas),
        shape(num_bs, num_subcarriers, num_elements, num_antennas),
        shape(num_bs, u_n, num_subcarriers, num_elements),
        np.repeat(np.arange(num_bs), users_per_bs), grid, circuit)
    w = shape(u_n, num_subcarriers, num_antennas) * 0.4
    caps = rng.uniform(circuit.c_min, circuit.c_max, (num_bs, num_elements))
    sels = np.stack([rng.permutation(num_elements) for _ in range(num_bs)])
    return channels, Iterate(w, caps, sels), noise_power


def _own_and_other_rate(iterate, channels, noise_power, q):
    rates = snapshot(iterate, channels, noise_power).user_rates
    own = channels.users_of_bs(q)
    mask = np.zeros(len(rates), dtype=bool)
    mask[own] = True
    k_n = channels.num_subcarriers
    return k_n * rates[mask].sum(), k_n * rates[~mask].sum()


def check_circuit_equivalence(samples=2000, seed=0):
    rng = np.random.default_rng(seed)
    circ = ElementCircuit()
    f = rng.uniform(3.45e9, 3.55e9, samples)
    c = rng.uniform(circ.c_min, circ.c_max, samples)
    direct = reflection_direct(f, c, circ)
    reform = reflection_reformulated(f, c, circ)
    err = np.max(np.abs(direct - reform) / np.maximum(np.abs(direct), 1.0))
    return "reflection reformulation vs direct", err <= 1e-10, f"max err {err:.2e}"


def check_passivity(samples=2000, seed=1):
    rng = np.random.default_rng(seed)
    circ = ElementCircuit()
    f = rng.uniform(3.45e9, 3.55e9, samples)
    c = rng.uniform(circ.c_min, circ.c_max, samples)
    lossy = np.max(np.abs(reflection_reformulated(f, c, circ)))
    lossless = ElementCircuit(resistance=0.0)
    mag = np.abs(reflection_reformulated(f, c, lossless))
    unit = np.max(np.abs(mag - 1.0))
    ok = lossy < 1.0 and unit <= 1e-12
    return "element passivity", ok, f"lossy max |phi| {lossy:.6f}, lossless dev {unit:.1e}"


def check_reflection_derivative(samples=200, seed=2):
    rng = np.random.default_rng(seed)
    circ = ElementCircuit()
    f = rng.uniform(3.45e9, 3.55e9, samples)
    c = rng.uniform(circ.c_min + 2 * CAP_STEP, circ.c_max - 2 * CAP_STEP, samples)
    analytic = reflection_derivative(f, c, circ)
    fd = (np.conj(reflection_reformulated(f, c + CAP_STEP, circ))
          - np.conj(reflection_reformulated(f, c - CAP_STEP, circ))) / (2 * CAP_STEP)
    err = np.max(np.abs(analytic - fd) / np.abs(analytic))
    return "element response derivative", err <= 1e-5, f"max rel err {err:.2e}"


def _fd_error(analytic, rates_at, step):
    """Worst relative error of an (own-cell, other-cell) gradient pair against
    central differences; ``rates_at(index, shift)`` returns both cell rates
    with the variable at ``index`` shifted."""
    fd = np.zeros(analytic[0].shape + (2,))
    for idx in np.ndindex(analytic[0].shape):
        fd[idx] = np.subtract(rates_at(idx, step), rates_at(idx, -step)) / (2 * step)
    return max(np.linalg.norm(a - fd[..., n]) / np.linalg.norm(fd[..., n])
               for n, a in enumerate(analytic))


def check_capacitance_gradients(seed=3):
    rng = np.random.default_rng(seed)
    channels, iterate, noise = random_network(rng, users_per_bs=(2, 1))
    worst = 0.0
    for q in range(channels.num_bs):
        snap = snapshot(iterate, channels, noise)
        analytic = (capacitance.rate_gradient(q, iterate, channels, noise, snap),
                    capacitance.pricing_gradient(q, iterate, channels, noise, snap))

        def rates_at(idx, shift):
            shifted = iterate.copy()
            shifted.capacitances[q][idx] += shift
            return _own_and_other_rate(shifted, channels, noise, q)

        worst = max(worst, _fd_error(analytic, rates_at, CAP_STEP))
    return "capacitance gradient vs finite differences", worst <= 1e-4, f"max rel err {worst:.2e}"


def check_selection_gradients(seed=4):
    rng = np.random.default_rng(seed)
    channels, iterate, noise = random_network(rng, users_per_bs=(2, 1))
    worst = 0.0
    for q in range(channels.num_bs):
        snap = snapshot(iterate, channels, noise)
        analytic = (
            np.real(switches.selection_gradient(q, iterate, channels, noise, snap)),
            np.real(switches.selection_pricing(q, iterate, channels, noise, snap)))
        perm = iterate.selections[q]

        def rates_at(idx, shift):
            # g enters the rates only through conj(g) @ S, so adding
            # shift * g[i] to g[perm[j]] adds shift to the relaxed S[i, j]
            i, j = idx
            ris_ue = channels.ris_ue.copy()
            ris_ue[q, ..., perm[j]] += shift * channels.ris_ue[q, ..., i]
            return _own_and_other_rate(iterate, replace(channels, ris_ue=ris_ue),
                                       noise, q)

        worst = max(worst, _fd_error(analytic, rates_at, 1e-6))
    return "selection gradient vs finite differences", worst <= 1e-4, f"max rel err {worst:.2e}"


def check_precoder_pricing(seed=5):
    rng = np.random.default_rng(seed)
    channels, iterate, noise = random_network(rng)
    h = 1e-7
    worst = 0.0
    for user in range(channels.num_users):
        q = channels.bs_of_user[user]
        analytic = precoding.pricing_vector(user, iterate, channels, noise)
        k_n, n_n = iterate.precoders.shape[1:]
        fd = np.zeros((k_n, n_n), dtype=complex)
        for k in range(k_n):
            for n in range(n_n):
                for part, direction in ((1.0, 1.0), (1j, 1j)):
                    up, down = iterate.copy(), iterate.copy()
                    up.precoders[user, k, n] += h * part
                    down.precoders[user, k, n] -= h * part
                    diff = (_own_and_other_rate(up, channels, noise, q)[1]
                            - _own_and_other_rate(down, channels, noise, q)[1]) / (2 * h)
                    fd[k, n] += 0.5 * direction * diff
        worst = max(worst, np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30))
    return "precoder pricing vs finite differences", worst <= 1e-4, f"max rel err {worst:.2e}"


def check_surrogate_bound(seed=6, draws=100):
    rng = np.random.default_rng(seed)
    channels, iterate, noise = random_network(rng)
    snap = snapshot(iterate, channels, noise)
    worst_gap, violations = 0.0, 0
    for q in range(channels.num_bs):
        for s in precoding.build_surrogates(q, iterate, channels, noise, snap):
            anchor_rate = np.log1p(snap.snr[s.user]) / np.log(2.0)
            gap = np.max(np.abs(s.log_term_value(s.anchor) - anchor_rate))
            worst_gap = max(worst_gap, gap)
            for _ in range(draws):
                w = (rng.standard_normal(s.anchor.shape)
                     + 1j * rng.standard_normal(s.anchor.shape)) * 0.5
                sig = np.abs(np.einsum("ki,ki->k", np.conj(s.own_channel), w)) ** 2
                exact = np.log1p(sig / s.mui_anchor) / np.log(2.0)
                if np.any(s.log_term_value(w) > exact + 1e-9):
                    violations += 1
    ok = worst_gap <= 1e-9 and violations == 0
    return "precoder surrogate lower bound", ok, \
        f"anchor gap {worst_gap:.1e}, violations {violations}"


def check_precoder_solve(seed=7):
    rng = np.random.default_rng(seed)
    channels, iterate, noise = random_network(rng)
    tau, worst = 0.8, 0.0
    for q in range(channels.num_bs):
        for s in precoding.build_surrogates(q, iterate, channels, noise):
            for lam in (0.0, 0.3, 2.0):
                fast = precoding.solve_precoder(s, tau, lam)
                rhs = s.rhs(tau)
                for k in range(fast.shape[0]):
                    f = s.own_channel[k]
                    mat = s.quad_weight[k] * np.outer(f, np.conj(f)) \
                        + (tau / 2 + lam) * np.eye(len(f))
                    dense = np.linalg.solve(mat, rhs[k])
                    worst = max(worst, np.linalg.norm(fast[k] - dense)
                                / max(np.linalg.norm(dense), 1e-30))
    return "precoder closed form vs dense solve", worst <= 1e-10, f"max rel err {worst:.2e}"


def check_capacitance_clamp(seed=8, draws=200):
    rng = np.random.default_rng(seed)
    circ = ElementCircuit()
    tau = 0.8
    worst = 0.0
    for _ in range(draws):
        c_prev = rng.uniform(circ.c_min, circ.c_max, 6)
        grad = rng.standard_normal(6) * tau * (circ.c_max - circ.c_min)
        out = capacitance.update_capacitances(c_prev, grad, tau, circ)
        # per-coordinate concave model maximized on a fine grid as oracle
        for m in range(6):
            grid_pts = np.linspace(circ.c_min, circ.c_max, 20001)
            model = grad[m] * (grid_pts - c_prev[m]) - tau / 2 * (grid_pts - c_prev[m]) ** 2
            best = grid_pts[np.argmax(model)]
            worst = max(worst, abs(out[m] - best) / (circ.c_max - circ.c_min))
    return "capacitance clamp vs grid oracle", worst <= 1e-4, f"max dev {worst:.1e}"


def check_assignment(seed=9, draws=50, size=4):
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(draws):
        reward = rng.standard_normal((size, size))
        perm = switches.solve_selection(reward)
        best = max(sum(reward[p[m], m] for m in range(size))
                   for p in itertools.permutations(range(size)))
        if abs(reward[perm, np.arange(size)].sum() - best) > 1e-12:
            bad += 1
    return "assignment vs exhaustive enumeration", bad == 0, f"{bad} mismatches"


ALL_CHECKS = (
    check_circuit_equivalence,
    check_passivity,
    check_reflection_derivative,
    check_capacitance_gradients,
    check_selection_gradients,
    check_precoder_pricing,
    check_surrogate_bound,
    check_precoder_solve,
    check_capacitance_clamp,
    check_assignment,
)


def run_all():
    """Run every check; returns a list of (name, passed, detail)."""
    return [check() for check in ALL_CHECKS]
