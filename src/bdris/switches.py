"""Per-surface switch-selection subproblem.

The switches route the signal impinging on one element to be reflected by
another; the routing is a permutation index vector (see :class:`Iterate`).
Relaxed to a real matrix S, the surrogate restricted to this block is linear
in S (the proximal term is constant on permutations up to an inner product
with the current matrix), so the update is a linear assignment problem over
a real (M, M) reward built from the rate gradient, own-cell plus pricing.
The Jacobi sweep reads the real part of that gradient off the
victim-combined channels of :func:`bdris.rates.surface_assembly`, one real
matrix product per BS (:func:`assemble_gradient`); :func:`selection_gradient`
and :func:`selection_pricing` are its complex own-cell and pricing parts for
one BS.  The literal per-link form is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .rates import snapshot, surface_assembly


def assemble_gradient(q, channels, snap, y, beams):
    """Real selection gradient of BS q from :func:`~bdris.rates.surface_assembly`, (M, M).

    Entry ``[i, j]`` is ``Re sum_{t, k} y[t, k, i] phi_q[k, j] beams[t, k, j]``
    over BS q's own users t: one real (M x 2TK) by (2TK x M) product of the
    stacked real and imaginary parts.
    """
    own = channels.users_of_bs(q)
    m_n = y.shape[-1]
    phased = snap.phi[q] * beams[own]
    lhs = np.concatenate([y[own].real, y[own].imag]).reshape(-1, m_n)
    rhs = np.concatenate([phased.real, -phased.imag]).reshape(-1, m_n)
    return lhs.T @ rhs


def selection_gradient(q, iterate, channels, noise_power, snap=None):
    """Own-cell rate gradient w.r.t. BS q's selection matrix, (M, M) complex.

    The real part is the gradient of the own-cell rate sum (times K) when
    the selection matrix is relaxed to a real matrix variable.
    """
    return _complex_gradient(q, iterate, channels, noise_power, snap, pricing=0.0)


def selection_pricing(q, iterate, channels, noise_power, snap=None):
    """Other-cell pricing gradient w.r.t. BS q's relaxed selection matrix, (M, M)."""
    return _complex_gradient(q, iterate, channels, noise_power, snap, cell=0.0)


def _complex_gradient(q, iterate, channels, noise_power, snap, **weights):
    if snap is None:
        snap = snapshot(iterate, channels, noise_power)
    y, beams = surface_assembly(iterate, channels, snap, **weights)
    # Im(sum y phi b) = Re(sum y phi (-1j b))
    return (assemble_gradient(q, channels, snap, y, beams)
            + 1j * assemble_gradient(q, channels, snap, y, -1j * beams))


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
