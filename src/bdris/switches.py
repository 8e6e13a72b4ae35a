"""Per-surface switch-selection subproblem.

The switches route the signal impinging on one element to be reflected by
another; the routing is a permutation index vector (see :class:`Iterate`).
Relaxed to a real matrix S, the surrogate restricted to this block is linear
in S (the proximal term is constant on permutations up to an inner product
with the current matrix), so the update is a linear assignment problem over
a real (M, M) reward built from two complex gradients: the own-cell term and
the pricing term from other cells.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .circuit import reflection_profile
from .rates import LN2, snapshot


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


def _assembly_terms(q, iterate, channels, snap):
    own = channels.users_of_bs(q)
    phi = reflection_profile(iterate.capacitances[q], channels.grid,
                             channels.circuit)
    hw = np.einsum("kmn,tkn->tkm", channels.bs_ris[q], iterate.precoders[own])
    phased = phi[None] * hw                       # (L, K, M)
    g_conj = np.conj(channels.ris_ue[q])          # (U, K, M)
    scal = np.conj(snap.amplitudes[own])          # (L, U, K)
    return own, phased, g_conj, scal


def selection_gradient(q, iterate, channels, noise_power, snap=None):
    """Own-cell rate gradient w.r.t. BS q's selection matrix, (M, M) complex.

    The real part is the gradient of the own-cell rate sum (times K) when
    the selection matrix is relaxed to a real matrix variable.
    """
    if snap is None:
        snap = snapshot(iterate, channels, noise_power)
    own, phased, g_conj, scal = _assembly_terms(q, iterate, channels, snap)
    l_n = len(own)
    c1 = (2.0 / LN2) / ((1.0 + snap.snr[own]) * snap.mui[own] ** 2)
    idx = np.arange(l_n)
    w_own = c1 * snap.mui[own] * scal[idx, own]   # (L, K) complex
    term1 = np.einsum("vk,vki,vkj->ij", w_own, phased, g_conj[own])
    w_intr = c1 * snap.signal[own]                # (L, K) weights per victim
    scal_own = scal[:, own]                       # (L, L, K) transmitter x victim
    mask = 1.0 - np.eye(l_n)
    w2 = mask[:, :, None] * scal_own * w_intr[None]
    term2 = np.einsum("tvk,tki,vkj->ij", w2, phased, g_conj[own])
    return (term1 - term2).T


def selection_pricing(q, iterate, channels, noise_power, snap=None):
    """Other-cell pricing gradient w.r.t. BS q's relaxed selection matrix, (M, M)."""
    if snap is None:
        snap = snapshot(iterate, channels, noise_power)
    m_n = channels.num_elements
    others = np.flatnonzero(channels.bs_of_user != q)
    if others.size == 0:
        return np.zeros((m_n, m_n), dtype=complex)
    own, phased, g_conj, scal = _assembly_terms(q, iterate, channels, snap)
    c2 = -(2.0 / LN2) * snap.snr[others] / ((1.0 + snap.snr[others]) * snap.mui[others])
    w3 = c2[None] * scal[:, others]               # (L, Uo, K)
    inner = np.einsum("tvk,tki,vkj->ij", w3, phased, g_conj[others])
    return inner.T


def selection_reward(gradient, perm_prev, tau):
    """Real (M, M) assignment reward: the gradient plus ``tau`` on ``perm_prev``."""
    reward = np.real(gradient).copy()
    reward[perm_prev, np.arange(len(perm_prev))] += tau
    return reward


def reward_gain(reward, perm_new, perm_old):
    """Assignment-reward difference between two permutations."""
    cols = np.arange(len(perm_new))
    return float(np.sum(reward[perm_new, cols] - reward[perm_old, cols]))


def solve_selection(reward):
    """Index vector ``perm`` maximizing ``sum_m reward[perm[m], m]``.

    The relaxation of the permutation set to doubly stochastic matrices is
    tight for linear objectives, so the linear assignment solution is the
    exact maximizer over all permutations.
    """
    reward = np.asarray(reward, dtype=float)
    if not np.all(np.isfinite(reward)):
        raise ValueError("reward matrix must be finite")
    _, cols = linear_sum_assignment(reward, maximize=True)
    return np.argsort(cols)


def selection_gain(q, sel_new, sel_old, iterate, channels, noise_power, tau,
                   snap=None, cooperative=True):
    """Surrogate-objective difference between two permutations.

    Evaluates the local model (linear gradients plus proximal term anchored
    at the iterate's current permutation) on the 0/1 matrices of both
    candidates and returns ``value(sel_new) - value(sel_old)``.  The solver
    only commits a new permutation when this is positive, which keeps the
    discrete block from undoing surrogate progress.
    """
    grad = selection_gradient(q, iterate, channels, noise_power, snap)
    if cooperative:
        grad = grad + selection_pricing(q, iterate, channels, noise_power, snap)
    dense = np.eye(channels.num_elements)

    def value(sel):
        diff = dense[:, sel] - dense[:, iterate.selections[q]]
        return (float(np.sum(np.real(grad) * diff))
                - 0.5 * tau * float(np.sum(diff ** 2)))

    return value(sel_new) - value(sel_old)
