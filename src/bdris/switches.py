"""Per-surface switch-selection subproblem.

The switches route the signal impinging on one element to be reflected by
another; the routing is a permutation index vector (see :class:`Iterate`).
Relaxed to a real matrix S, the surrogate restricted to this block is linear
in S (the proximal term is constant on permutations up to an inner product
with the current matrix), so the update is a linear assignment problem over
a real (M, M) reward built from the rate gradient, own-cell plus pricing.
The Jacobi sweep reads the real part of that gradient off the
victim-combined channels of :func:`bdris.rates.surface_gradients`, one real
matrix product per BS that the norm bound below leaves open, its channel
put back from routed into element order, and builds their rewards as one
stack; only :func:`solve_selection` runs per BS.
:func:`selection_gradient` and :func:`selection_pricing`, ``(q, iterate,
channels, snap)``, are its complex own-cell and pricing parts for one BS,
always formed in full.  The literal per-link form is a test oracle
(``tests/oracles.py``).

The proximal weight puts ``tau`` on the current permutation's entries of the
reward, so while the gradient is small beside ``tau`` every column's maximum
sits on a distinct row and the current permutation is the optimum.  The sweep
certifies that case in two stages.  First, a norm bound: every gradient entry
is at most the product of two column norms in size, and
:func:`bdris.rates.selection_bounds` bounds every surface at once from the
norms of the routed channels, which are the element-order norms permuted, so
each surface whose bound ``tau`` exceeds keeps its permutation at gain 0.0
and forms neither its (M, M) gradient nor its reward.  Second, for the
surfaces the bound leaves open, :func:`solve_selection` certifies the current
or any other permutation exactly from the column maxima of the reward
(:func:`certified_selection`) and calls the assignment solver only when that
certificate fails.  That solver is scipy's, imported by the first uncertified
assignment in a process (about 0.6 s, once per process), so a run whose
rewards are all certified never loads scipy.
"""

from __future__ import annotations

import numpy as np

from .rates import surface_gradients, weighted_amplitudes


def linear_sum_assignment(reward, maximize=False):
    """:func:`scipy.optimize.linear_sum_assignment`, imported on first call."""
    from scipy.optimize import linear_sum_assignment as solve
    return solve(reward, maximize=maximize)


def selection_gradient(q, iterate, channels, snap):
    """Own-cell rate gradient w.r.t. BS q's selection matrix, (M, M) complex.

    The real part is the gradient of the own-cell rate sum (times K) when
    the selection matrix is relaxed to a real matrix variable.
    """
    weighted = weighted_amplitudes(channels, snap, 1.0, 0.0)
    return _complex_gradient(q, iterate, channels, snap, weighted)


def selection_pricing(q, iterate, channels, snap):
    """Other-cell pricing gradient w.r.t. BS q's relaxed selection matrix, (M, M)."""
    weighted = weighted_amplitudes(channels, snap, 0.0, 1.0)
    return _complex_gradient(q, iterate, channels, snap, weighted)


def _complex_gradient(q, iterate, channels, snap, weighted):
    # weights times 1j scale z by -1j: the real gradient becomes the imaginary part;
    # at tau = 0.0 the screen certifies no surface, so every slice is formed
    def real_part(w):
        return surface_gradients(iterate, channels, snap, w, tau=0.0)[1][q]
    return real_part(weighted) + 1j * real_part(1j * weighted)


def selection_reward(gradient, perm_prev, tau):
    """Real (..., M, M) rewards: the gradients plus ``tau`` at ``[..., perm_prev[..., m], m]``."""
    reward = np.real(gradient).copy()
    rows = perm_prev[..., None, :]
    np.put_along_axis(reward, rows, np.take_along_axis(reward, rows, axis=-2) + tau,
                      axis=-2)
    return reward


def reward_gain(reward, perm_new, perm_old):
    """Assignment-reward differences between two (..., M) permutation stacks, shape (...)."""
    def picked(perm):
        return np.take_along_axis(reward, perm[..., None, :], axis=-2)[..., 0, :]
    return np.sum(picked(perm_new) - picked(perm_old), axis=-1)


def certified_selection(reward):
    """The unique maximizer of ``sum_m reward[perm[m], m]``, or None if uncertified.

    If every column m of the finite (M, M) ``reward`` has a strict maximum,
    at row ``best[m]``, and the rows ``best`` are distinct, then ``best`` is a
    permutation that takes the largest entry of every column, and any other
    permutation takes a strictly smaller entry in some column and no larger
    one elsewhere, so ``best`` is the unique optimum.
    """
    best = reward.argmax(axis=0)
    m_n = len(best)
    if (np.bincount(best, minlength=m_n).max() == 1
            and np.count_nonzero(reward == reward[best, np.arange(m_n)]) == m_n):
        return best
    return None


def solve_selection(reward):
    """Index vector ``perm`` maximizing ``sum_m reward[perm[m], m]``.

    The :func:`certified_selection` is returned when it exists.  Otherwise
    the linear assignment solver runs: the relaxation of the permutation set
    to doubly stochastic matrices is tight for linear objectives, so its
    solution is the exact maximizer over all permutations.  Both give the
    same permutation where the certificate holds, since the optimum is then
    unique.
    """
    reward = np.asarray(reward, dtype=float)
    if not np.all(np.isfinite(reward)):
        raise ValueError("reward matrix must be finite")
    perm = certified_selection(reward)
    if perm is None:
        _, cols = linear_sum_assignment(reward, maximize=True)
        perm = np.argsort(cols)
    return perm
