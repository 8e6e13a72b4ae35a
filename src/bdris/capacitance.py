"""Per-surface capacitance subproblem.

The own-cell rate gradient and the cross-cell pricing gradient with respect
to one surface's capacitance vector are assembled analytically from the
element response slopes and per-link coupling matrices; the subproblem
itself (linear model plus proximal term over a box) then has a closed-form
clamped solution.

Only the main diagonals of the coupling matrices enter the gradients.  The
hot path evaluates those diagonals directly through the algebraic identity
``diag(M)[m] = (H w)_m (g^H S)_m (w^H f)`` which is exact; the full written
matrix products remain available via :func:`coupling_matrix` for inspection
and are pinned to the fast path by tests.
"""

from __future__ import annotations

import numpy as np

from .circuit import reflection_derivative, reflection_profile
from .rates import LN2, snapshot


def element_slopes(cap_vector, grid, circuit):
    """d(phi)/dC for every subcarrier and element, shape (K, M).

    This is the conjugate of :func:`bdris.circuit.reflection_derivative`;
    the unconjugated slope is what reproduces finite differences of the
    rates (see the module tests).
    """
    cap_vector = np.asarray(cap_vector, dtype=float)
    return np.conj(reflection_derivative(grid.frequencies[:, None],
                                         cap_vector[None, :], circuit))


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


def _coupling_diagonals(q, iterate, channels, snap):
    """diag of the coupling matrices for all (own transmitter, victim, k).

    Returns (L_q, U, K, M): transmitter runs over BS q's own users, victim
    over every user in the network.
    """
    own = channels.users_of_bs(q)
    hw = np.einsum("kmn,tkn->tkm", channels.bs_ris[q], iterate.precoders[own])
    routed = np.conj(channels.ris_ue[q][..., iterate.selections[q]])
    return np.einsum("tkm,vkm,tvk->tvkm", hw, routed,
                     np.conj(snap.amplitudes[own]))


def rate_gradient(q, iterate, channels, noise_power, snap=None):
    """Gradient of BS q's own-cell rate sum w.r.t. its capacitances, (M,).

    Scaled by the subcarrier count like the precoder pricing (the common
    1/K average is dropped from all subproblems).
    """
    if snap is None:
        snap = snapshot(iterate, channels, noise_power)
    own = channels.users_of_bs(q)
    slopes = element_slopes(iterate.capacitances[q], channels.grid,
                            channels.circuit)
    diag = _coupling_diagonals(q, iterate, channels, snap)
    sensitivity = np.real(slopes[None, None] * diag[:, own])  # (L, L, K, M)
    idx = np.arange(len(own))
    own_part = sensitivity[idx, idx]                       # (L, K, M)
    intracell = sensitivity.sum(axis=0) - own_part          # (L, K, M)
    c1 = (2.0 / LN2) / ((1.0 + snap.snr[own]) * snap.mui[own] ** 2)
    grad = np.einsum("vk,vkm->m", c1 * snap.mui[own], own_part)
    grad -= np.einsum("vk,vkm->m", c1 * snap.signal[own], intracell)
    return grad


def pricing_gradient(q, iterate, channels, noise_power, snap=None):
    """Gradient of all other cells' rate sums w.r.t. BS q's capacitances, (M,)."""
    if snap is None:
        snap = snapshot(iterate, channels, noise_power)
    m_n = channels.num_elements
    others = np.flatnonzero(channels.bs_of_user != q)
    if others.size == 0:
        return np.zeros(m_n)
    slopes = element_slopes(iterate.capacitances[q], channels.grid,
                            channels.circuit)
    diag = _coupling_diagonals(q, iterate, channels, snap)
    sensitivity = np.real(slopes[None, None] * diag[:, others])  # (L, Uo, K, M)
    c2 = -(2.0 / LN2) * snap.snr[others] / ((1.0 + snap.snr[others]) * snap.mui[others])
    return np.einsum("vk,vkm->m", c2, sensitivity.sum(axis=0))


def update_capacitances(cap_prev, gradient, pricing, tau, circuit):
    """Closed-form solution of the proximal box-constrained linear model.

    Maximizing ``Re{(gradient + pricing)^T (c - c_prev)} - tau/2 |c - c_prev|^2``
    over the box decouples per element; the unconstrained optimum
    ``(tau c_prev + gradient + pricing) / tau`` is clamped to the range.
    """
    if tau <= 0:
        raise ValueError("proximal weight must be > 0")
    beta = tau * np.asarray(cap_prev, float) + gradient + pricing
    return np.clip(beta / tau, circuit.c_min, circuit.c_max)
