"""Per-surface capacitance subproblem.

The own-cell rate gradient and the cross-cell pricing gradient with respect
to one surface's capacitance vector are assembled analytically from the
element response slopes and the diagonals of the per-link coupling matrices,
``diag(M)[m] = (H w)_m (g^H S)_m (w^H f)``; the subproblem itself (linear
model plus proximal term over a box) then has a closed-form clamped solution.

Weighted and summed over all links, the diagonals are never formed:
:func:`assemble_gradient` contracts the shared assembly
:func:`bdris.rates.weighted_beams` with the routed victim channels and the
slopes.  The literal per-link coupling matrices and their diagonals are
test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from .circuit import reflection_derivative
from .rates import snapshot, weighted_beams


def element_slopes(cap_vector, grid, circuit):
    """d(phi)/dC for every subcarrier and element, shape (K, M).

    This is the conjugate of :func:`bdris.circuit.reflection_derivative`;
    the unconjugated slope is what reproduces finite differences of the
    rates (see the module tests).
    """
    cap_vector = np.asarray(cap_vector, dtype=float)
    return np.conj(reflection_derivative(grid.frequencies[:, None],
                                         cap_vector[None, :], circuit))


def assemble_gradient(q, iterate, channels, beams):
    """Capacitance gradient of BS q from its :func:`~bdris.rates.weighted_beams`, (M,).

    Routed victim channels times beams, summed over victims, is the weighted
    sum of all coupling diagonals; the slopes turn it into the derivative.
    """
    slopes = element_slopes(iterate.capacitances[q], channels.grid,
                            channels.circuit)
    routed = np.conj(channels.ris_ue[q][..., iterate.selections[q]])
    return np.real(slopes * np.einsum("vkm,vkm->km", routed, beams)).sum(axis=0)


def rate_gradient(q, iterate, channels, noise_power, snap=None):
    """Gradient of BS q's own-cell rate sum w.r.t. its capacitances, (M,).

    Scaled by the subcarrier count like the precoder pricing (the common
    1/K average is dropped from all subproblems).
    """
    if snap is None:
        snap = snapshot(iterate, channels, noise_power)
    return assemble_gradient(q, iterate, channels,
                             weighted_beams(q, iterate, channels, snap, pricing=0.0))


def pricing_gradient(q, iterate, channels, noise_power, snap=None):
    """Gradient of all other cells' rate sums w.r.t. BS q's capacitances, (M,)."""
    if snap is None:
        snap = snapshot(iterate, channels, noise_power)
    return assemble_gradient(q, iterate, channels,
                             weighted_beams(q, iterate, channels, snap, cell=0.0))


def update_capacitances(cap_prev, gradient, tau, circuit):
    """Closed-form solution of the proximal box-constrained linear model.

    Maximizing ``gradient^T (c - c_prev) - tau/2 |c - c_prev|^2``, with the own-cell
    rate and pricing terms summed in ``gradient``, over the box decouples per
    element; the unconstrained optimum ``c_prev + gradient / tau`` is clamped.
    """
    if tau <= 0:
        raise ValueError("proximal weight must be > 0")
    beta = tau * np.asarray(cap_prev, float) + gradient
    return np.clip(beta / tau, circuit.c_min, circuit.c_max)
