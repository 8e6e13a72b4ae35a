"""Per-BS precoder subproblem.

Each base station refreshes the precoders of all of its users jointly by
maximizing a concave surrogate of the network objective: the own-cell log
terms are lower-bounded by a tight quadratic (see
:class:`PrecoderSurrogate`), other cells' rates enter through a linear
pricing term, and a proximal penalty keeps the update near the current
point.  The maximizer for a fixed power multiplier is a per-subcarrier
rank-one-plus-identity solve.  The power budget ``||w(lam)||^2 = P`` is the
secular equation of a trust-region step; the multiplier solves it by Newton's
method on ``||w(lam)||^(-1)`` with the closed-form power and slope of
:func:`power_curves` (Moré & Sorensen, "Computing a trust region step", SIAM
J. Sci. Stat. Comput. 1983), with a measured-power fallback for feasibility.
As there, the search may be warm-started: the solver starts each sweep's
multipliers at the previous sweep's, and Newton steps reach the root from
either side.  A positive multiplier is kept only once the power at
``lam = 0`` is known to exceed the budget, so a start above the root never
hides a free solution that fits; the stopping band
``[P (1 - POWER_REL_TOL), P]`` is the same from any start.

The Jacobi sweep builds all users' surrogates in one contraction
(:func:`stacked_surrogates`) and runs all BSs' multiplier searches in lock
step, every user's precoder in one broadcast solve (:func:`solve_precoders`);
:func:`build_surrogates`, :func:`pricing_vector` and
:func:`bisect_power_multiplier` are their per-BS and per-user slices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalFailureError
from .rates import LN2, snapshot

POWER_REL_TOL = 1e-8     # a binding multiplier leaves the power in [B (1 - tol), B]
MAX_MULTIPLIER = 2.0**200  # a larger power multiplier raises NumericalFailureError


@dataclass
class PrecoderSurrogate:
    """Quadratic model of one user's objective around the current iterate.

    The per-subcarrier quadratic is
    ``-quad_weight[k] |f_k^H w_k|^2 + 2 Re{linear[k]^H w_k}`` and the overall
    subproblem objective adds ``Re{pricing^H (w - anchor)}`` and the proximal
    term.  ``own_channel`` holds the composite channel vectors f_k.  A
    surrogate may also stack several users along a leading axis; every
    method then works per user.
    """

    quad_weight: np.ndarray   # (K,) |f^H w|^2 / (ln2 (mui + |f^H w|^2) mui) >= 0
    own_channel: np.ndarray   # (K, N) complex
    linear: np.ndarray        # (K, N) f (f^H w) / (ln2 mui)
    pricing: np.ndarray       # (K, N) complex
    anchor: np.ndarray        # (K, N) complex, current precoder
    mui_anchor: np.ndarray    # (K,) interference-plus-noise at the anchor

    def rhs(self, tau):
        """Right-hand side whose regularized solve maximizes the subproblem.

        The pricing enters the objective through the real inner product
        ``2 Re{pricing^H (w - anchor)}``, the linearization that matches the
        true gradient of other cells' rates.  Stationarity of the concave
        objective then gives
        ``(F + (tau/2 + lam) I) w = linear + pricing + tau/2 * anchor``.
        """
        return self.linear + self.pricing + 0.5 * tau * self.anchor

    def log_term_value(self, w):
        """Tight quadratic lower bound of the rate log term, per subcarrier.

        Includes the additive constant that makes the bound coincide with
        ``log2(1 + |f^H w|^2 / mui)`` at the anchor point.
        """
        f_conj, lin_conj = np.conj(self.own_channel), np.conj(self.linear)
        sig = np.abs(np.einsum("...ki,...ki->...k", f_conj, w)) ** 2
        sig_t = np.abs(np.einsum("...ki,...ki->...k", f_conj, self.anchor)) ** 2
        lin = 2.0 * np.real(np.einsum("...ki,...ki->...k", lin_conj, w))
        lin_t = 2.0 * np.real(np.einsum("...ki,...ki->...k", lin_conj, self.anchor))
        const = np.log1p(sig_t / self.mui_anchor) / LN2 + self.quad_weight * sig_t - lin_t
        return -self.quad_weight * sig + lin + const

    def select(self, i):
        """The surrogate of the i-th user of a stack."""
        return PrecoderSurrogate(*(getattr(self, f.name)[i] for f in fields(self)))


def _stack(surrogates):
    return PrecoderSurrogate(*(np.stack([getattr(s, f.name) for s in surrogates])
                               for f in fields(PrecoderSurrogate)))


def pricing_vectors(channels, snap):
    """Gradient of other cells' rates with respect to every user's precoder, (U, K, N).

    Entry ``[u]`` is the (K, N) array of per-subcarrier conjugate-coordinate
    gradients (d/dw*) of the sum of all user rates outside u's cell, scaled
    by the number of subcarriers (the subcarrier average is left out of the
    subproblems, as it rescales every term equally).
    """
    bs = channels.bs_of_user
    coef = -(snap.snr / LN2) / ((1.0 + snap.snr) * snap.mui)  # (U, K) per victim
    weights = np.where((bs[:, None] != bs)[..., None], coef * snap.amplitudes, 0.0)
    return np.einsum("unk,unki->uki", weights, np.conj(snap.rows[bs]))


def pricing_vector(user, iterate, channels, noise_power, snap=None, ris_enabled=True):
    """Gradient of other cells' rates w.r.t. one user's precoder, (K, N).

    One row of :func:`pricing_vectors`.
    """
    if snap is None:
        snap = snapshot(iterate, channels, noise_power, ris_enabled)
    return pricing_vectors(channels, snap)[user]


def stacked_surrogates(iterate, channels, snap, cooperative=True):
    """Surrogates of every user, stacked along a leading user axis."""
    users = np.arange(channels.num_users)
    sig, mui = snap.signal, snap.mui
    own = np.conj(snap.rows[channels.bs_of_user, users])          # (U, K, N)
    linear = own * (snap.amplitudes[users, users] / (LN2 * mui))[..., None]
    pricing = pricing_vectors(channels, snap) if cooperative else np.zeros_like(linear)
    return PrecoderSurrogate(sig / (LN2 * (mui + sig) * mui), own, linear,
                             pricing, iterate.precoders.copy(), mui.copy())


def build_surrogates(q, iterate, channels, noise_power, snap=None,
                     cooperative=True, ris_enabled=True):
    """Assemble the surrogate of every user served by BS q."""
    if snap is None:
        snap = snapshot(iterate, channels, noise_power, ris_enabled)
    stacked = stacked_surrogates(iterate, channels, snap, cooperative)
    return [stacked.select(u) for u in channels.users_of_bs(q)]


def solve_precoder(surrogate, tau, lam):
    """Closed-form maximizer for fixed power multipliers, shape (..., K, N).

    ``surrogate`` is one user's or a stack of users'; ``lam`` is a scalar or
    one multiplier per stacked user.  Each subcarrier block is
    (a f f^H + (tau/2 + lam) I) w = rhs, inverted with the rank-one update
    identity instead of a dense solve.
    """
    beta = (tau / 2.0 + np.asarray(lam))[..., None]
    r = surrogate.rhs(tau)
    f = surrogate.own_channel
    a = surrogate.quad_weight
    f_dot_r = np.einsum("...ki,...ki->...k", np.conj(f), r)
    f_norm2 = np.sum(np.abs(f) ** 2, axis=-1)
    coeff = a * f_dot_r / (beta * (beta + a * f_norm2))
    return r / beta[..., None] - coeff[..., None] * f


def power_curves(surrogate, owner, tau):
    """Transmit power of every BS's :func:`solve_precoder`, and its slope, in its ``lam``.

    ``surrogate`` stacks users and ``owner[u]`` is the BS of user u; the
    returned function maps one multiplier per BS to ``(power, slope)``, one
    power and one derivative dP/dlam per BS.  The solve divides each
    right-hand side r's part along the own channel f by ``beta + a |f|^2``
    and its part across f by ``beta = tau/2 + lam``, so the power is a sum of
    nonnegative terms ``c / (beta + s)^2``; unlike ``|r|^2 - ...`` none
    cancels, and the slope is ``-2 sum c / (beta + s)^3``.
    """
    r = surrogate.rhs(tau)
    f = surrogate.own_channel
    f_norm2 = np.sum(np.abs(f) ** 2, axis=-1)
    along = np.divide(np.einsum("...ki,...ki->...k", np.conj(f), r), f_norm2,
                      out=np.zeros(f_norm2.shape, complex), where=f_norm2 > 0)
    perp2 = np.sum(np.abs(r - along[..., None] * f) ** 2, axis=(-2, -1))
    par2 = np.abs(along) ** 2 * f_norm2
    shift = surrogate.quad_weight * f_norm2

    def power(lam):
        beta = tau / 2.0 + lam[owner]
        par_terms = par2 / (beta[:, None] + shift) ** 2
        per_user = perp2 / beta**2 + np.sum(par_terms, axis=1)
        slope = -2.0 * (perp2 / beta**3
                        + np.sum(par_terms / (beta[:, None] + shift), axis=1))
        return (np.bincount(owner, weights=per_user, minlength=len(lam)),
                np.bincount(owner, weights=slope, minlength=len(lam)))
    return power


def _newton_search(power_at, budgets, lam, binding=None):
    """Every multiplier at which its power fits its budget, and the steps each took.

    ``power_at`` maps one multiplier per budget to ``(power, slope)`` arrays;
    the searches run in lock step from the start ``lam``, which may lie on
    either side of the root.  A multiplier whose power exceeds its budget, or
    is positive with its power below the band
    ``[budget (1 - POWER_REL_TOL), budget]``, takes a Newton step on
    ``phi = power^(-1/2)`` toward ``budget (1 - POWER_REL_TOL/2)``.  ``phi``
    is a power mean with exponent -2 of terms affine in ``lam``, so it is
    concave and increasing: a step from above the budget stays on the
    infeasible side and none overshoots, and a step from below the band
    lands at or left of the target, clamped at 0.  A positive multiplier is
    returned only inside the band and only once ``power(0) > budget`` is
    known: ``binding`` marks the budgets known on entry, an evaluated power
    above the budget shows it, and so does the convexity bound
    ``power(0) >= power - lam * slope``.  Otherwise the multiplier restarts
    at 0.  Returns ``(lam, steps)``; ``steps`` counts each budget's Newton
    steps and restarts.
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


def solve_precoders(surrogate, owner, tau, budgets, start_multipliers=None):
    """Power multipliers and precoders of every BS, found by Newton in lock step.

    ``surrogate`` stacks the users, ``owner[u]`` is the BS of user u and
    ``budgets`` holds one budget per BS.  Returns ``(lams, precoders, steps)``
    of shapes (Q,), (U, K, N) and (Q,), ``steps`` counting each BS's search
    steps.  Each multiplier is 0 if the unconstrained solution fits the
    budget, else its power fits within ``POWER_REL_TOL * budget`` below the
    budget.  Newton's method on :func:`power_curves` starts from
    ``start_multipliers`` (each in ``[0, MAX_MULTIPLIER]``; 0 if omitted),
    as the solver warm-starts each sweep from the previous one's; a
    positive multiplier is kept only once the power at 0 is known to exceed
    the budget, else the search evaluates it at 0 (see
    :func:`_newton_search`).  Precoders are solved at the result only, in
    one :func:`solve_precoder` call with each user's BS multiplier.  If a
    BS's measured power (summed as in :meth:`~bdris.rates.Iterate.bs_power`)
    rounds above its budget, its search goes on from there on measured
    powers with the closed-form slope, so the result is always feasible.  A
    multiplier that would pass ``MAX_MULTIPLIER`` raises
    :class:`NumericalFailureError`.
    """
    budgets = np.asarray(budgets, dtype=float)
    if not np.all(budgets > 0):  # a NaN budget fails too
        raise ValueError("power budget must be > 0")
    lam = np.zeros(len(budgets))
    if start_multipliers is not None:
        lam[:] = start_multipliers
        if not np.all((lam >= 0.0) & (lam <= MAX_MULTIPLIER)):
            raise ValueError("start multipliers must lie in [0, MAX_MULTIPLIER]")
    curve = power_curves(surrogate, owner, tau)

    def solve(lam):
        ws = solve_precoder(surrogate, tau, lam[owner])
        power = np.bincount(owner, weights=np.sum(np.abs(ws) ** 2, axis=(1, 2)),
                            minlength=len(budgets))
        return ws, power

    lam, steps = _newton_search(curve, budgets, lam)
    ws, power = solve(lam)
    if np.any(power > budgets):
        lam, more = _newton_search(lambda x: (solve(x)[1], curve(x)[1]), budgets, lam,
                                   binding=lam > 0.0)
        steps += more
        ws = solve(lam)[0]
    return lam, ws, steps


def bisect_power_multiplier(surrogates, tau, power_budget):
    """Power multiplier and precoders (L, K, N) of one BS.

    The one-BS call of :func:`solve_precoders`: the same lock-step Newton
    search of the multiplier, started at 0 and run on one budget with the
    module's ``POWER_REL_TOL`` and ``MAX_MULTIPLIER``.
    """
    lam, ws, _ = solve_precoders(_stack(surrogates), np.zeros(len(surrogates), int), tau,
                                 [power_budget])
    return float(lam[0]), ws


def objective_values(surrogate, ws, tau):
    """Per-user value of the surrogate objective at precoders ``ws``.

    Used by the solver trace and by the improvement checks; constants are
    included so the value is comparable across candidates of one iteration.
    """
    diff = ws - surrogate.anchor
    return (np.sum(surrogate.log_term_value(ws), axis=-1)
            - 0.5 * tau * np.sum(np.abs(diff) ** 2, axis=(-2, -1))
            + 2.0 * np.real(np.sum(np.conj(surrogate.pricing) * diff, axis=(-2, -1))))
