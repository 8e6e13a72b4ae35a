"""Per-surface capacitance subproblem.

The own-cell rate gradient and the cross-cell pricing gradient with respect
to one surface's capacitance vector are assembled analytically from the
element response slopes and the diagonals of the per-link coupling matrices,
``diag(M)[m] = (H w)_m (g^H S)_m (w^H f)``; the subproblem itself (linear
model plus proximal term over a box) then has a closed-form clamped solution.

Weighted and summed over all links, the diagonals are never formed: the
Jacobi sweep reads the gradients of all surfaces off the victim-combined
channels of :func:`bdris.rates.surface_gradients`, formed in the snapshot's
routed coordinates with every user in one buffer, so one product and one
sum over subcarriers give every surface's gradient; :func:`rate_gradient`
and :func:`pricing_gradient`, ``(q, iterate, channels, snap)``, are its
own-cell and pricing parts for one BS.  The literal per-link coupling
matrices and their diagonals are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from .rates import surface_gradients, weighted_amplitudes


def rate_gradient(q, iterate, channels, snap):
    """Gradient of BS q's own-cell rate sum w.r.t. its capacitances, (M,).

    Scaled by the subcarrier count like the precoder pricing (the common
    1/K average is dropped from all subproblems).
    """
    weighted = weighted_amplitudes(channels, snap, 1.0, 0.0)
    return surface_gradients(iterate, channels, snap, weighted)[0][q]


def pricing_gradient(q, iterate, channels, snap):
    """Gradient of all other cells' rate sums w.r.t. BS q's capacitances, (M,)."""
    weighted = weighted_amplitudes(channels, snap, 0.0, 1.0)
    return surface_gradients(iterate, channels, snap, weighted)[0][q]


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
