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
from .solver import SolverConfig

CAP_STEP = 1e-17  # finite-difference step for capacitances, farads
TAU = SolverConfig().tau  # proximal weight of the checks that solve a subproblem


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
    """Precoders of a surrogate stack by one dense solve per user and subcarrier,
    (..., K, N); ``lam`` is one multiplier per stacked user, or a scalar."""
    f = surrogate.own_channel
    outer = f[..., :, None] * np.conj(f)[..., None, :]
    beta = (tau / 2 + np.asarray(lam))[..., None, None, None]
    mats = surrogate.quad_weight[..., None, None] * outer + beta * np.eye(f.shape[-1])
    return np.linalg.solve(mats, surrogate.rhs(tau)[..., None])[..., 0]


def _dense_rel_err(w, dense):
    """Largest per-subcarrier relative error of precoders ``w`` against ``dense``."""
    return np.max(np.linalg.norm(w - dense, axis=-1)
                  / np.maximum(np.linalg.norm(dense, axis=-1), 1e-30))


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


def check_circuit_equivalence():
    circ, f, c = _element_draws(0, 2000)
    direct = reflection_direct(f, c, circ)
    reform = reflection(c, rational_coefficients(f, circ), circ)[0]
    err = np.max(np.abs(direct - reform) / np.maximum(np.abs(direct), 1.0))
    return "reflection reformulation vs direct", err <= 1e-10, f"max err {err:.2e}"


def check_passivity():
    circ, f, c = _element_draws(1, 2000)
    lossless = ElementCircuit(resistance=0.0)
    lossy = np.max(np.abs(reflection(c, rational_coefficients(f, circ), circ)[0]))
    mag = np.abs(reflection(c, rational_coefficients(f, lossless), lossless)[0])
    unit = np.max(np.abs(mag - 1.0))
    ok = lossy < 1.0 and unit <= 1e-12
    return "element passivity", ok, f"lossy max |phi| {lossy:.6f}, lossless dev {unit:.1e}"


def check_reflection_derivative():
    circ, f, c = _element_draws(2, 200, margin=2 * CAP_STEP)
    analytic = reflection(c, rational_coefficients(f, circ), circ)[1]
    fd = fd_reflection_derivative(f, c, circ)
    err = np.max(np.abs(analytic - fd) / np.abs(analytic))
    return "element response derivative", err <= 1e-5, f"max rel err {err:.2e}"


def _surface_gradient_error(seed, block):
    """Largest relative error of one block of every surface gradient, 0 for the
    capacitances and 1 for the selections, on a network whose BS 0 serves two
    users: BS q's own-cell and pricing parts, as the sweep assembles them,
    against central differences of its own-cell and other-cell rate sums."""
    channels, iterate, noise = random_network(np.random.default_rng(seed), users_per_bs=(2, 1))
    snap = snapshot(iterate, channels, noise)
    parts = [rates.surface_gradients(iterate, channels, snap, cell=c, pricing=1.0 - c)[block]
             for c in (1.0, 0.0)]
    worst = 0.0
    for q in range(channels.num_bs):
        if block == 0:
            fd = fd_capacitance_gradient(
                lambda it: _own_and_other_rate(it, channels, noise, q), iterate, q)
        else:
            fd = fd_selection_gradient(lambda ch: _own_and_other_rate(iterate, ch, noise, q),
                                       channels, iterate.selections[q], q)
        worst = max(worst, *(np.linalg.norm(part[q] - fd[..., n]) / np.linalg.norm(fd[..., n])
                             for n, part in enumerate(parts)))
    return worst


def check_capacitance_gradients():
    worst = _surface_gradient_error(3, 0)
    return "capacitance gradient vs finite differences", worst <= 1e-4, f"max rel err {worst:.2e}"


def check_selection_gradients():
    worst = _surface_gradient_error(4, 1)
    return "selection gradient vs finite differences", worst <= 1e-4, f"max rel err {worst:.2e}"


def check_precoder_pricing():
    """Pricing vs the gradient of every rate but the user's own; BS 0 serves two users."""
    channels, iterate, noise = random_network(np.random.default_rng(5), users_per_bs=(2, 1))
    pricing = precoding.stacked_surrogates(iterate, channels,
                                           snapshot(iterate, channels, noise)).pricing
    k_n, worst = channels.num_subcarriers, 0.0
    for user, got in enumerate(pricing):
        fd = fd_precoder_gradient(
            lambda it: k_n * np.delete(snapshot(it, channels, noise).user_rates, user).sum(),
            iterate, user)
        worst = max(worst, np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-30))
    return "precoder pricing vs finite differences", worst <= 1e-4, f"max rel err {worst:.2e}"


def check_surrogate_bound():
    rng = np.random.default_rng(6)
    channels, iterate, noise = random_network(rng)
    snap = snapshot(iterate, channels, noise)
    s = precoding.stacked_surrogates(iterate, channels, snap)
    anchor_rate = np.log1p(snap.snr) / np.log(2.0)
    worst_gap = np.max(np.abs(s.log_term_value(s.anchor) - anchor_rate))
    violations = 0
    for _ in range(100):
        w = (rng.standard_normal(s.anchor.shape)
             + 1j * rng.standard_normal(s.anchor.shape)) * 0.5
        sig = np.abs(np.einsum("uki,uki->uk", np.conj(s.own_channel), w)) ** 2
        exact = np.log1p(sig / snap.mui) / np.log(2.0)
        violations += int(np.sum(np.any(s.log_term_value(w) > exact + 1e-9, axis=-1)))
    ok = worst_gap <= 1e-9 and violations == 0
    return "precoder surrogate lower bound", ok, \
        f"anchor gap {worst_gap:.1e}, violations {violations}"


def check_precoder_solve():
    channels, iterate, noise = random_network(np.random.default_rng(7))
    stacked = precoding.stacked_surrogates(iterate, channels, snapshot(iterate, channels, noise))
    split = precoding.split_rhs(stacked, TAU)
    worst = 0.0  # each user's split alone at three multipliers, then the stack at one each
    for lam in (0.0, 0.3, 2.0):
        for u, dense in enumerate(dense_precoder(stacked, TAU, lam)):
            alone = precoding.RhsSplit(*(a[u] for a in split[:-1]), split.half_tau)
            worst = max(worst, _dense_rel_err(precoding.solve_precoder(alone, lam), dense))
    lams = np.linspace(0.3, 2.0, channels.num_users)
    worst = max(worst, _dense_rel_err(precoding.solve_precoder(split, lams),
                                      dense_precoder(stacked, TAU, lams)))
    return "precoder closed form vs dense solve", worst <= 1e-10, f"max rel err {worst:.2e}"


def check_power_multiplier():
    """Every BS's multiplier in one lock-step call, each BS in another budget
    regime (loose, binding, tight) per call, until each has met all three.
    Each call is repeated from warm starts at half, twice and 100 times its
    multipliers and at the multipliers themselves, which lie inside the band;
    a last call starts every BS at 1e-9 where only 0 fits, its budget the
    free power times 1 + 1e-12."""
    channels, iterate, noise = random_network(np.random.default_rng(10), users_per_bs=(2, 1))
    stacked = precoding.stacked_surrogates(iterate, channels, snapshot(iterate, channels, noise))
    owner, q_n = channels.bs_of_user, channels.num_bs
    free = rates.bs_power(dense_precoder(stacked, TAU, 0.0), owner, q_n)

    def kkt(budgets, start=None):
        """(multipliers, KKT violations, worst relative error vs dense solve)."""
        lams, ws, _ = precoding.solve_precoders(stacked, owner, TAU, budgets, start)
        power = rates.bs_power(ws, owner, q_n)
        floor = budgets * (1.0 - precoding.POWER_REL_TOL)
        violations = (np.sum((lams == 0.0) != (free <= budgets))
                      + np.sum((lams > 0.0) & ~((floor <= power) & (power <= budgets))))
        return lams, violations, _dense_rel_err(ws, dense_precoder(stacked, TAU, lams[owner]))

    results = []
    scales = np.array([10.0, 0.5, 1e-4])
    for shift in range(len(scales)):
        budgets = free * scales[(np.arange(q_n) + shift) % len(scales)]
        results.append(kkt(budgets))
        results += [kkt(budgets, factor * results[-1][0]) for factor in (0.5, 2.0, 100.0, 1.0)]
    results.append(kkt(free * (1.0 + 1e-12), np.full(q_n, 1e-9)))
    violations = sum(r[1] for r in results)
    worst = max(r[2] for r in results)
    ok = violations == 0 and worst <= 1e-10
    return "power multiplier KKT conditions", ok, \
        f"{violations} violations over {len(results)} calls, max rel err {worst:.2e}"


def check_capacitance_clamp():
    rng = np.random.default_rng(8)
    circ = ElementCircuit()
    worst = 0.0
    grid_pts = np.linspace(circ.c_min, circ.c_max, 20001)[:, None]
    for _ in range(200):
        c_prev = rng.uniform(circ.c_min, circ.c_max, 6)
        grad = rng.standard_normal(6) * TAU * (circ.c_max - circ.c_min)
        out = capacitance.update_capacitances(c_prev, grad, TAU, circ)
        # per-coordinate concave model maximized on a fine grid as oracle
        model = grad * (grid_pts - c_prev) - TAU / 2 * (grid_pts - c_prev) ** 2
        best = grid_pts[np.argmax(model, axis=0), 0]
        worst = max(worst, np.max(np.abs(out - best)) / (circ.c_max - circ.c_min))
    return "capacitance clamp vs grid oracle", worst <= 1e-4, f"max dev {worst:.1e}"


def tight_selection_draw(rng, users=2, subcarriers=3, elements=4):
    """``(z, phased, perm)`` of one surface on which the switch bound is tight.

    ``z`` is in routed coordinates, as :func:`bdris.rates.surface_gradients`
    forms it: its column m is row ``perm[m]`` of the switch gradient
    ``Re sum_{t, k} z[t, k, m] phased[t, k, j]``.  Column j of ``phased``
    has twice the norm of any other, and the columns i and j of z are plus
    and minus its conjugate, so column j of the gradient spans exactly the
    :func:`bdris.rates.selection_bounds` bound (less its margin),
    ``2 |p_j|^2``, between the rows ``perm[i]`` and ``perm[j]``; z's other
    columns are a hundredth the size.
    """
    shape = (users, subcarriers, elements)
    phased, z = complex_normal(rng, *shape), 0.01 * complex_normal(rng, *shape)
    perm, j = rng.permutation(elements), rng.integers(elements)
    norms = np.linalg.norm(phased, axis=(0, 1))
    phased[..., j] *= 2.0 * np.delete(norms, j).max() / norms[j]
    i = rng.choice(np.delete(np.arange(elements), j))
    z[..., i], z[..., j] = np.conj(phased[..., j]), -np.conj(phased[..., j])
    return z, phased, perm


def check_assignment():
    """Random rewards, rewards the certificate of ``solve_selection`` accepts
    (a small gradient plus ``TAU`` at a random permutation, the solver's
    usual case), rewards it must reject (one column's maximum tied), and the
    rewards of tight switch-bound draws (:func:`tight_selection_draw`) at a
    weight just above the bound, which the screen certifies, and just below
    the bound less its margin.  Above, the column maxima must certify the
    current permutation; below, where the draw's gradient reaches the bound,
    they must not."""
    rng = np.random.default_rng(9)
    size, draws = 4, 50
    cols = np.arange(size)
    bad = wrong_certificate = wrong_screen = 0
    for _ in range(draws):
        dominant = switches.selection_reward(0.05 * rng.standard_normal((size, size)),
                                             rng.permutation(size), TAU)
        tied = rng.standard_normal((size, size))
        best = tied.argmax(axis=0)
        tied[(best[0] + 1) % size, 0] = tied[best[0], 0]
        z, phased, perm = tight_selection_draw(rng, elements=size)
        grad = np.real(np.einsum("tki,tkj->ij", z[..., np.argsort(perm)], phased))
        bound = rates.selection_bounds(z, phased, [0])[0]
        above = switches.selection_reward(grad, perm, np.nextafter(bound, np.inf))
        below = switches.selection_reward(
            grad, perm, bound / (1.0 + rates.SCREEN_MARGIN) * (1.0 - 1e-6))
        for reward in (rng.standard_normal((size, size)), dominant, tied, above, below):
            perm_best = switches.solve_selection(reward)
            if abs(reward[perm_best, cols].sum() - best_assignment(reward)) > 1e-12:
                bad += 1
        wrong_certificate += (switches.certified_selection(dominant) is None
                              or switches.certified_selection(tied) is not None)
        certified = switches.certified_selection(above)
        wrong_screen += (certified is None or not np.array_equal(certified, perm)
                         or switches.certified_selection(below) is not None)
    ok = bad == wrong_certificate == wrong_screen == 0
    return "assignment vs exhaustive enumeration", ok, \
        (f"{bad} mismatches over {5 * draws} rewards, {wrong_certificate} wrong "
         f"certificates, {wrong_screen} wrong screens over {draws} tight bounds")


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
