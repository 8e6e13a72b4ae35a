"""Slow, independent reference implementations used as test oracles.

Everything here recomputes quantities from first principles with explicit
Python loops and plain formulas, deliberately avoiding the vectorized
library paths it is used to check.  The literal per-link forms that only
tests use live here, and so does the one oracle that runs the solver: the
best fixed-permutation run, which enumerates the switch choices around it.
The finite-difference oracles (``fd_*``), the dense precoder solve, the
exhaustive assignment search and the synthetic network
(``conftest.make_network``) live in :mod:`bdris.selfcheck`, because
``bdris validate`` ships with the library and runs them; they are
re-exported here.
"""

import functools
import itertools
from dataclasses import replace

import numpy as np

from bdris.channels import (SPEED_OF_LIGHT, _KIND_BS_RIS, _KIND_DIRECT, _KIND_RIS_UE,
                            _link_rng, generate_link_taps, pathloss, taps_to_frequency)
from bdris.circuit import rational_coefficients, reflection
from bdris.errors import NumericalFailureError
from bdris.precoding import (MAX_MULTIPLIER, POWER_REL_TOL, _stack, power_curves,
                             solve_precoder, split_rhs)
from bdris.rates import SCREEN_MARGIN, snapshot, weighted_amplitudes
from bdris.selfcheck import (best_assignment, dense_precoder,  # noqa: F401
                             fd_capacitance_gradient, fd_precoder_gradient,
                             fd_reflection_derivative, fd_selection_gradient)
from bdris.solver import run
from bdris.switches import selection_gradient, selection_pricing


def per_link_channels(topology, grid, exponents, root_seed, num_taps):
    """``(direct, bs_ris, ris_ue)`` drawn link by link, one DFT per link, at once."""
    wavelength = SPEED_OF_LIGHT / grid.carrier_frequency
    k_n, n_n, m_n = grid.num_subcarriers, topology.num_antennas, topology.num_elements

    def link(kind, a, b, distance, exponent, rows, cols):
        taps = generate_link_taps(_link_rng(root_seed, kind, a, b), rows, cols, num_taps,
                                  pathloss(distance, exponent, wavelength))
        return taps_to_frequency(taps, k_n)

    q_n, u_n = topology.num_bs, topology.num_users
    direct = np.zeros((q_n, u_n, k_n, n_n), dtype=complex)
    bs_ris = np.zeros((q_n, k_n, m_n, n_n), dtype=complex)
    ris_ue = np.zeros((q_n, u_n, k_n, m_n), dtype=complex)
    for j in range(q_n):
        bs, ris = topology.bs_positions[j], topology.ris_positions[j]
        bs_ris[j] = link(_KIND_BS_RIS, j, j, np.linalg.norm(bs - ris), exponents[1], m_n, n_n)
        for u, ue in enumerate(topology.ue_positions):
            direct[j, u] = link(_KIND_DIRECT, j, u, np.linalg.norm(bs - ue), exponents[0],
                                1, n_n)[:, 0]
            ris_ue[j, u] = link(_KIND_RIS_UE, j, u, np.linalg.norm(ris - ue), exponents[2],
                                1, m_n)[:, 0]
    return direct, bs_ris, ris_ue


def reflection_profile(cap_vector, grid, circuit):
    """(K, M) reflection coefficients ``phi(f_k, cap_vector[m])`` of one surface."""
    cap_vector = np.asarray(cap_vector, dtype=float)
    return reflection(cap_vector[None, :], rational_coefficients(grid.frequencies[:, None],
                                                                 circuit), circuit)[0]


def element_slopes(cap_vector, grid, circuit):
    """(K, M) slopes d(phi)/dC of one surface."""
    cap_vector = np.asarray(cap_vector, dtype=float)
    return reflection(cap_vector[None, :], rational_coefficients(grid.frequencies[:, None],
                                                                 circuit), circuit)[1]


def reflection_matrix(cap_vector, grid, circuit, k):
    """Diagonal reflection matrix of one subcarrier, built entrywise."""
    m = len(cap_vector)
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        out[i, i] = reflection(cap_vector[i], rational_coefficients(grid.frequencies[k],
                                                                    circuit), circuit)[0]
    return out


def selection_matrix(perm):
    """0/1 matrix S of a permutation index vector, S[perm[m], m] = 1."""
    m = len(perm)
    out = np.zeros((m, m))
    for col in range(m):
        out[perm[col], col] = 1.0
    return out


def reflection_matrices(iterate, channels):
    """``(j, k) -> reflection_matrix`` of surface j at subcarrier k for one
    iterate, each matrix built entrywise on first use and then reused."""
    return functools.cache(lambda j, k: reflection_matrix(
        iterate.capacitances[j], channels.grid, channels.circuit, k))


def composite_row(j, u, k, iterate, channels, ris_enabled=True, phis=None):
    """Row vector f^H of the BS j -> user u composite channel.

    ``phis`` is a :func:`reflection_matrices` of ``iterate``; the rate
    oracles below make one per call and share it between all their rows.
    """
    h = channels.direct[j, u, k]
    row = np.conj(h)
    if ris_enabled:
        phi = (reflection_matrices(iterate, channels) if phis is None else phis)(j, k)
        g = channels.ris_ue[j, u, k]
        sel = selection_matrix(iterate.selections[j])
        row = row + np.conj(g) @ sel @ phi @ channels.bs_ris[j, k]
    return row


def mui(u, k, iterate, channels, noise_power, ris_enabled=True, phis=None):
    phis = reflection_matrices(iterate, channels) if phis is None else phis
    total = noise_power
    u_n = channels.num_users
    for n in range(u_n):
        if n == u:
            continue
        j = channels.bs_of_user[n]
        amp = composite_row(j, u, k, iterate, channels, ris_enabled, phis) \
            @ iterate.precoders[n, k]
        total += abs(amp) ** 2
    return total


def user_rate(u, iterate, channels, noise_power, ris_enabled=True, phis=None):
    phis = reflection_matrices(iterate, channels) if phis is None else phis
    q = channels.bs_of_user[u]
    k_n = channels.num_subcarriers
    total = 0.0
    for k in range(k_n):
        amp = composite_row(q, u, k, iterate, channels, ris_enabled, phis) \
            @ iterate.precoders[u, k]
        total += np.log2(1.0 + abs(amp) ** 2
                         / mui(u, k, iterate, channels, noise_power, ris_enabled, phis))
    return total / k_n


def sum_rate(iterate, channels, noise_power, ris_enabled=True):
    phis = reflection_matrices(iterate, channels)
    return sum(user_rate(u, iterate, channels, noise_power, ris_enabled, phis)
               for u in range(channels.num_users))


def cell_rates(iterate, channels, noise_power, q, ris_enabled=True):
    """(own-cell rate sum, other-cell rate sum) scaled by the subcarrier count."""
    phis = reflection_matrices(iterate, channels)
    k_n = channels.num_subcarriers
    own = other = 0.0
    for u in range(channels.num_users):
        r = user_rate(u, iterate, channels, noise_power, ris_enabled, phis)
        if channels.bs_of_user[u] == q:
            own += r
        else:
            other += r
    return k_n * own, k_n * other


def coupling_matrix(q, tx_user, victim, k, iterate, channels, phi=None):
    """Literal coupling matrix of one (transmitter, victim, subcarrier) triple.

    Builds ``H w w^H h g^H S + H w w^H H^H Phi^H S^T g g^H S`` in the stated
    order, where w is the transmitter's precoder and (h, g) are the victim's
    direct and surface-side channels toward BS/surface q.
    """
    if phi is None:
        phi = reflection_profile(iterate.capacitances[q], channels.grid,
                                 channels.circuit)
    w = iterate.precoders[tx_user, k]
    h = channels.direct[q, victim, k]
    g = channels.ris_ue[q, victim, k]
    big_h = channels.bs_ris[q, k]
    sel = np.eye(channels.num_elements)[:, iterate.selections[q]]
    hw = big_h @ w
    cross = np.outer(np.outer(hw, np.conj(w)) @ h, np.conj(g) @ sel)
    beam_outer = np.outer(hw, np.conj(w)) @ np.conj(big_h).T
    routed_outer = sel.T @ np.outer(g, np.conj(g)) @ sel
    return cross + beam_outer @ np.diag(np.conj(phi[k])) @ routed_outer


def coupling_diagonals(q, iterate, channels, snap):
    """diag of the coupling matrices for all (own transmitter, victim, k).

    Returns (L_q, U, K, M): transmitter runs over BS q's own users, victim
    over every user in the network.
    """
    own = channels.users_of_bs(q)
    hw = np.einsum("kmn,tkn->tkm", channels.bs_ris[q], iterate.precoders[own])
    routed = np.conj(channels.ris_ue[q][..., iterate.selections[q]])
    return np.einsum("tkm,vkm,tvk->tvkm", hw, routed,
                     np.conj(snap.amplitudes[own]))


def per_bs_surface_gradients(iterate, channels, snap, cell=1.0, pricing=1.0, tau=None):
    """``(grad_c, grad_s, uncertified, bounds)`` of every surface, one BS at a time.

    The per-BS form of :func:`bdris.rates.surface_gradients`: each BS forms
    its unrouted ``y = conj(ca @ g)``, gathers it through its permutation for
    the capacitance product and bounds its switch gradient on its own
    (:func:`selection_bound`).  ``grad_s`` holds the slices of the surfaces
    whose bound ``tau`` does not exceed (all of them if ``tau`` is None), in
    BS order, and ``bounds`` is (Q,).
    """
    weighted = weighted_amplitudes(channels, snap, cell, pricing)
    conj_y = weighted.swapaxes(1, 2)[:, :, None]
    q_n, m_n = iterate.capacitances.shape
    per_bs = np.empty(snap.slope.shape, complex)
    grad_s, bounds = [], np.empty(q_n)
    for q, (g, h) in enumerate(zip(channels.ris_ue, channels.bs_ris)):
        own, perm = channels.users_of_bs(q), iterate.selections[q]
        y = np.conjugate(conj_y[own] @ g.swapaxes(0, 1))[:, :, 0]
        beams = (h @ iterate.precoders[own, ..., None])[..., 0]
        per_bs[q] = np.sum(np.take(y, perm, axis=-1) * beams, axis=0)
        phased = snap.phi[q] * beams
        bounds[q] = selection_bound(y, phased, perm)
        if tau is None or not tau > bounds[q]:
            lhs = np.concatenate([y.real, y.imag]).reshape(-1, m_n)
            rhs = np.concatenate([phased.real, -phased.imag]).reshape(-1, m_n)
            grad_s.append(lhs.T @ rhs)
    grad_c = np.real(snap.slope * per_bs).sum(axis=1)
    uncertified = np.ones(q_n, bool) if tau is None else ~(tau > bounds)
    return grad_c, np.array(grad_s).reshape(-1, m_n, m_n), uncertified, bounds


def selection_bound(y, phased, perm):
    """One surface's switch bound from its unrouted ``y``, a float: the largest
    ``|p_j| (|y_{perm[j]}| + max_i |y_i|)`` over j, times ``1 + SCREEN_MARGIN``,
    the column norms taken over all own users and subcarriers at once."""
    def column_norms(a):
        parts = np.ascontiguousarray(a).view(float).reshape(-1, 2 * a.shape[-1])
        squares = np.einsum("rc,rc->c", parts, parts)
        return np.sqrt(squares[::2] + squares[1::2])
    y_norm, p_norm = column_norms(y), column_norms(phased)
    return (1.0 + SCREEN_MARGIN) * float(np.max(p_norm * (y_norm[perm] + y_norm.max())))


def selection_coupling(q, tx_user, victim, k, iterate, channels, phi=None):
    """Literal per-(transmitter, victim, subcarrier) selection coupling matrix.

    Builds ``Phi H w w^H h g^H + Phi H w w^H H^H Phi^H S^T g g^H`` in the
    stated order; its transpose, weighted and summed, forms the gradients.
    """
    if phi is None:
        phi = reflection_profile(iterate.capacitances[q], channels.grid,
                                 channels.circuit)
    w = iterate.precoders[tx_user, k]
    h = channels.direct[q, victim, k]
    g = channels.ris_ue[q, victim, k]
    big_h = channels.bs_ris[q, k]
    sel = np.eye(channels.num_elements)[:, iterate.selections[q]]
    phw = np.diag(phi[k]) @ big_h @ w
    cross = np.outer(np.outer(phw, np.conj(w)) @ h, np.conj(g))
    beam = np.outer(phw, np.conj(w)) @ np.conj(big_h).T @ np.conj(np.diag(phi[k])).T
    return cross + beam @ sel.T @ np.outer(g, np.conj(g))


def selection_gain(q, sel_new, sel_old, iterate, channels, noise_power, tau,
                   snap=None, cooperative=True):
    """Surrogate-objective difference between two permutations.

    Evaluates the local model (linear gradients plus proximal term anchored
    at the iterate's current permutation) on the 0/1 matrices of both
    candidates and returns ``value(sel_new) - value(sel_old)``.  This is the
    literal reference form of the guard: the sweep computes each BS's switch
    gain with ``switches.reward_gain``, ``blend_step`` commits a new
    permutation only where that gain is positive, and then only if the
    merged point's true sum rate does not drop.
    """
    if snap is None:
        snap = snapshot(iterate, channels, noise_power)
    grad = selection_gradient(q, iterate, channels, snap)
    if cooperative:
        grad = grad + selection_pricing(q, iterate, channels, snap)
    dense = np.eye(channels.num_elements)

    def value(sel):
        diff = dense[:, sel] - dense[:, iterate.selections[q]]
        return (float(np.sum(np.real(grad) * diff))
                - 0.5 * tau * float(np.sum(diff ** 2)))

    return value(sel_new) - value(sel_old)


def power_curve(surrogates, tau):
    """Transmit power of one BS's users as a function of a scalar ``lam``.

    The one-BS, scalar view of ``precoding.power_curves`` (its power only).
    """
    power = power_curves(split_rhs(_stack(surrogates), tau), np.zeros(len(surrogates), int))
    return lambda lam: float(power(np.array([lam]))[0][0])


def newton_search(power_at, budgets, lam, binding=None):
    """Lock-step Newton search of every power multiplier, as whole-array steps.

    Reference for ``precoding._newton_search``, which runs the same tests and
    steps on the Python floats of each pass; both must return bit-equal
    ``(lam, steps)`` and raise the same errors.
    """
    target = budgets * (1.0 - 0.5 * POWER_REL_TOL)
    floor = budgets * (1.0 - POWER_REL_TOL)
    binding = np.zeros(len(budgets), bool) if binding is None else binding.copy()
    steps = np.zeros(len(budgets), int)
    for _ in range(100):
        power, slope = power_at(lam)
        binding |= power - lam * slope > budgets  # power(0) >= this >= power, as lam >= 0
        positive = lam > 0.0
        newton = (power > budgets) | (positive & (power < floor) & (slope < 0.0))
        restart = positive & ~(newton | binding)
        move = newton | restart
        if not move.any():
            return lam, steps
        step = np.divide(2.0 * power * (np.sqrt(power / target) - 1.0), -slope,
                         out=np.zeros_like(lam), where=newton)
        lam = np.where(restart, 0.0, np.maximum(lam + step, 0.0))
        steps += move
        if lam.max() > MAX_MULTIPLIER:
            raise NumericalFailureError("power multiplier exceeds its bound")
    raise NumericalFailureError("power multiplier search did not converge")


def bisect_measured_power(surrogates, tau, power_budget):
    """Power multiplier bisection that solves every precoder at every trial.

    Reference for ``precoding.bisect_power_multiplier``: the measured-power
    bisection whose stopping band, measured power in
    ``[B (1 - POWER_REL_TOL), B]``, the Newton search must land in; the
    power is measured on the stacked precoders of each trial multiplier.
    Bracketing doubles the multiplier from 1 and fails past
    ``MAX_MULTIPLIER``, as the Newton search does.  Returns (lam, precoders).
    """
    splits = [split_rhs(s, tau) for s in surrogates]

    def solve_all(lam):
        return np.stack([solve_precoder(s, lam) for s in splits])

    def power_of(ws):
        return float(np.sum(np.abs(ws) ** 2))

    ws = solve_all(0.0)
    if power_of(ws) <= power_budget:
        return 0.0, ws
    lo, hi = 0.0, 1.0
    ws = solve_all(hi)
    while power_of(ws) > power_budget:
        lo, hi = hi, 2.0 * hi
        if hi > MAX_MULTIPLIER:
            raise NumericalFailureError("power bisection failed to bracket the multiplier")
        ws = solve_all(hi)
    p_hi = power_of(ws)
    for _ in range(500):
        if power_budget - p_hi <= POWER_REL_TOL * power_budget:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        ws_mid = solve_all(mid)
        if power_of(ws_mid) > power_budget:
            lo = mid
        else:
            hi, ws, p_hi = mid, ws_mid, power_of(ws_mid)
    else:
        raise NumericalFailureError("power bisection did not converge")
    return hi, ws


def best_fixed_permutation_rate(channels, power_budgets, noise_power, config):
    """Best final sum rate of ``diagonal`` runs over every tuple of per-BS permutations.

    Exhaustive over (M!)^Q tuples, so meant for M <= 4.  Each tuple's run
    permutes the columns of every ``ris_ue[q]`` by BS q's permutation and
    keeps the identity; as a ``diagonal`` run starts at the identity and
    never moves a switch, that is the run started and kept at the tuple.
    This bounds what switch choice can give with the same continuous solver
    and settings ``config``.
    """
    diagonal = replace(config, ris_mode="diagonal")
    best = -np.inf
    for perms in itertools.product(itertools.permutations(range(channels.num_elements)),
                                   repeat=channels.num_bs):
        ris_ue = np.stack([g[..., list(p)] for g, p in zip(channels.ris_ue, perms)])
        _, trace = run(replace(channels, ris_ue=ris_ue), power_budgets, noise_power, diagonal)
        best = max(best, trace.sum_rates[-1])
    return best


def waterfilling_rate(gains, total_power, noise_power):
    """Single-user rate bound: per-subcarrier power allocation over ``gains``.

    gains[k] is the squared channel norm of subcarrier k; the optimal
    allocation fills water over noise/gain levels.
    """
    gains = np.asarray(gains, dtype=float)
    levels = noise_power / gains
    order = np.argsort(levels)
    levels_sorted = levels[order]
    k_n = len(gains)
    for active in range(k_n, 0, -1):
        mu = (total_power + levels_sorted[:active].sum()) / active
        if mu > levels_sorted[active - 1]:
            powers = np.maximum(mu - levels, 0.0)
            return float(np.sum(np.log2(1.0 + powers * gains / noise_power)) / k_n)
    raise AssertionError("waterfilling failed to find an active set")
