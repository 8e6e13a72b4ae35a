"""Slow, independent reference implementations used as test oracles.

Everything here recomputes quantities from first principles with explicit
Python loops and plain formulas, deliberately avoiding the vectorized
library paths it is used to check.
"""

import dataclasses
import itertools

import numpy as np

from bdris.circuit import reflection_reformulated
from bdris.errors import NumericalFailureError
from bdris.precoding import solve_precoder


def reflection_matrix(cap_vector, grid, circuit, k):
    """Diagonal reflection matrix of one subcarrier, built entrywise."""
    m = len(cap_vector)
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        out[i, i] = reflection_reformulated(grid.frequencies[k], cap_vector[i], circuit)
    return out


def selection_matrix(perm):
    """0/1 matrix S of a permutation index vector, S[perm[m], m] = 1."""
    m = len(perm)
    out = np.zeros((m, m))
    for col in range(m):
        out[perm[col], col] = 1.0
    return out


def composite_row(j, u, k, iterate, channels, ris_enabled=True):
    """Row vector f^H of the BS j -> user u composite channel."""
    h = channels.direct[j, u, k]
    row = np.conj(h)
    if ris_enabled:
        phi = reflection_matrix(iterate.capacitances[j], channels.grid,
                                channels.circuit, k)
        g = channels.ris_ue[j, u, k]
        sel = selection_matrix(iterate.selections[j])
        row = row + np.conj(g) @ sel @ phi @ channels.bs_ris[j, k]
    return row


def mui(u, k, iterate, channels, noise_power, ris_enabled=True):
    total = noise_power
    u_n = channels.num_users
    for n in range(u_n):
        if n == u:
            continue
        j = channels.bs_of_user[n]
        amp = composite_row(j, u, k, iterate, channels, ris_enabled) \
            @ iterate.precoders[n, k]
        total += abs(amp) ** 2
    return total


def user_rate(u, iterate, channels, noise_power, ris_enabled=True):
    q = channels.bs_of_user[u]
    k_n = channels.num_subcarriers
    total = 0.0
    for k in range(k_n):
        amp = composite_row(q, u, k, iterate, channels, ris_enabled) \
            @ iterate.precoders[u, k]
        total += np.log2(1.0 + abs(amp) ** 2
                         / mui(u, k, iterate, channels, noise_power, ris_enabled))
    return total / k_n


def sum_rate(iterate, channels, noise_power, ris_enabled=True):
    return sum(user_rate(u, iterate, channels, noise_power, ris_enabled)
               for u in range(channels.num_users))


def cell_rates(iterate, channels, noise_power, q, ris_enabled=True):
    """(own-cell rate sum, other-cell rate sum) scaled by the subcarrier count."""
    k_n = channels.num_subcarriers
    own = other = 0.0
    for u in range(channels.num_users):
        r = user_rate(u, iterate, channels, noise_power, ris_enabled)
        if channels.bs_of_user[u] == q:
            own += r
        else:
            other += r
    return k_n * own, k_n * other


def fd_capacitance_gradient(fun, iterate, q, step=1e-17):
    """Central finite differences of ``fun(iterate)`` w.r.t. surface q's caps."""
    m_n = iterate.capacitances.shape[1]
    grad = np.zeros(m_n)
    for m in range(m_n):
        up, down = iterate.copy(), iterate.copy()
        up.capacitances[q, m] += step
        down.capacitances[q, m] -= step
        grad[m] = (fun(up) - fun(down)) / (2 * step)
    return grad


def fd_selection_gradient(fun, channels, perm, q, step=1e-6):
    """Central finite differences of ``fun(channels)`` w.r.t. the relaxed
    selection matrix S of surface q, whose permutation is ``perm``.

    The surface channel g enters the rates only through ``conj(g) @ S``, so
    adding ``step`` to ``S[i, j]`` is the same as adding ``step * g[i]`` to
    ``g[perm[j]]``, the one entry routed to column j.
    """
    m_n = len(perm)
    grad = np.zeros((m_n, m_n))
    for i in range(m_n):
        for j in range(m_n):
            shifted = []
            for h in (step, -step):
                ris_ue = channels.ris_ue.copy()
                ris_ue[q, ..., perm[j]] += h * channels.ris_ue[q, ..., i]
                shifted.append(dataclasses.replace(channels, ris_ue=ris_ue))
            grad[i, j] = (fun(shifted[0]) - fun(shifted[1])) / (2 * step)
    return grad


def fd_precoder_gradient(fun, iterate, user, step=1e-7):
    """Conjugate-coordinate gradient d fun / d w* via real/imag differences."""
    k_n, n_n = iterate.precoders.shape[1:]
    grad = np.zeros((k_n, n_n), dtype=complex)
    for k in range(k_n):
        for n in range(n_n):
            for part in (1.0, 1j):
                up, down = iterate.copy(), iterate.copy()
                up.precoders[user, k, n] += step * part
                down.precoders[user, k, n] -= step * part
                grad[k, n] += 0.5 * part * (fun(up) - fun(down)) / (2 * step)
    return grad


def bisect_measured_power(surrogates, tau, power_budget, rel_tol=1e-8,
                          max_doublings=200):
    """Power multiplier bisection that solves every precoder at every trial.

    Reference for ``precoding.bisect_power_multiplier``: the same bracket,
    bisection and stopping test, with the power measured on the stacked
    precoders of each trial multiplier.  Returns (lam, precoders).
    """
    def solve_all(lam):
        return np.stack([solve_precoder(s, tau, lam) for s in surrogates])

    def power_of(ws):
        return float(np.sum(np.abs(ws) ** 2))

    ws = solve_all(0.0)
    if power_of(ws) <= power_budget:
        return 0.0, ws
    lo, hi = 0.0, 1.0
    ws = solve_all(hi)
    doublings = 0
    while power_of(ws) > power_budget:
        lo, hi = hi, 2.0 * hi
        doublings += 1
        if doublings > max_doublings:
            raise NumericalFailureError("power bisection failed to bracket the multiplier")
        ws = solve_all(hi)
    p_hi = power_of(ws)
    for _ in range(500):
        if power_budget - p_hi <= rel_tol * power_budget:
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


def best_assignment(reward):
    """Best ``sum_m reward[perm[m], m]`` over all permutations, by exhaustive search."""
    m = reward.shape[0]
    return max(sum(reward[perm[col], col] for col in range(m))
               for perm in itertools.permutations(range(m)))


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
