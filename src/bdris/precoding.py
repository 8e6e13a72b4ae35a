"""Per-BS precoder subproblem.

Each base station refreshes the precoders of all of its users jointly by
maximizing a concave surrogate of the network objective: each user's own
log term is lower-bounded by a tight quadratic (:class:`PrecoderSurrogate`),
every other rate it weighs enters through a linear pricing term, half of
the :func:`bdris.rates.weighted_amplitudes` the surface gradients read, and
a proximal penalty keeps the update near the current point.  A power search
splits each right-hand side along the own channel once (:func:`split_rhs`,
the only place ``tau`` enters), and every solve reads that split.  The power
budget ``||w(lam)||^2 = P`` is the secular equation of a trust-region step;
the multiplier solves it by Newton's method on ``||w(lam)||^(-1)`` with the
closed-form power and slope of :func:`power_curves` (Moré & Sorensen,
"Computing a trust region step", SIAM J. Sci. Stat. Comput. 1983), with a
measured-power fallback for feasibility.  As there, the search may be
warm-started: the solver starts each sweep's multipliers at the previous
sweep's, and Newton steps reach the root from either side.  A positive
multiplier is kept only once the power at ``lam = 0`` is known to exceed the
budget, so a start above the root never hides a free solution that fits; the
stopping band ``[P (1 - POWER_REL_TOL), P]`` is the same from any start.

The Jacobi sweep builds all users' surrogates in one contraction
(:func:`stacked_surrogates`) and runs all BSs' multiplier searches in lock
step, one batched power curve call per Newton pass and every precoder in
one broadcast solve (:func:`solve_precoders`); :func:`build_surrogates`,
:func:`pricing_vector` and :func:`bisect_power_multiplier` are its slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailureError
from .rates import LN2, bs_power, snapshot, weighted_amplitudes

POWER_REL_TOL = 1e-8     # a binding multiplier leaves the power in [B (1 - tol), B]
MAX_MULTIPLIER = 2.0**200  # a larger power multiplier raises NumericalFailureError


@dataclass
class PrecoderSurrogate:
    """Quadratic model of one user's objective around the current iterate.

    The per-subcarrier quadratic is
    ``-quad_weight[k] |f_k^H w_k|^2 + 2 Re{linear[k]^H w_k} + offset[k]`` and
    the overall subproblem objective adds ``Re{pricing^H (w - anchor)}`` and
    the proximal term.  ``own_channel`` holds the composite channel vectors
    f_k and ``own_norm2`` their squared norms, both the snapshot's.  A
    surrogate may also stack several users along a leading axis; every
    method then works per user.
    """

    quad_weight: np.ndarray   # (K,) |f^H w|^2 / (ln2 (mui + |f^H w|^2) mui) >= 0
    own_channel: np.ndarray   # (K, N) complex
    own_norm2: np.ndarray     # (K,) |f|^2
    linear: np.ndarray        # (K, N) f (f^H w) / (ln2 mui)
    pricing: np.ndarray       # (K, N) complex
    anchor: np.ndarray        # (K, N) complex, current precoder
    offset: np.ndarray        # (K,) log2(1 + snr) + quad_weight |f^H w|^2 - 2 Re{linear^H w}

    def rhs(self, tau):
        """Right-hand side whose regularized solve maximizes the subproblem.

        The pricing enters the objective through the real inner product
        ``2 Re{pricing^H (w - anchor)}``, the linearization that matches the
        true gradient of every priced rate.  Stationarity of the concave
        objective then gives
        ``(F + (tau/2 + lam) I) w = linear + pricing + tau/2 * anchor``.
        """
        return self.linear + self.pricing + 0.5 * tau * self.anchor

    def log_term_value(self, w):
        """Tight quadratic lower bound of the rate log term, per subcarrier.

        Includes the additive ``offset`` that makes the bound coincide with
        ``log2(1 + |f^H w|^2 / mui)`` at the anchor point.
        """
        sig = np.abs(np.einsum("...ki,...ki->...k", np.conj(self.own_channel), w)) ** 2
        lin = 2.0 * np.real(np.einsum("...ki,...ki->...k", np.conj(self.linear), w))
        return -self.quad_weight * sig + lin + self.offset

    def select(self, i):
        """The surrogate of the i-th user of a stack."""
        return PrecoderSurrogate(*(getattr(self, f.name)[i] for f in fields(self)))


def _stack(surrogates):
    return PrecoderSurrogate(*(np.stack([getattr(s, f.name) for s in surrogates])
                               for f in fields(PrecoderSurrogate)))


def pricing_vector(user, iterate, channels, noise_power, snap=None, ris_enabled=True):
    """One user's ``pricing`` of :func:`stacked_surrogates`, (K, N)."""
    if snap is None:
        snap = snapshot(iterate, channels, noise_power, ris_enabled)
    return stacked_surrogates(iterate, channels, snap).pricing[user]


def stacked_surrogates(iterate, channels, snap, cooperative=True, weighted=None):
    """Surrogates of every user, stacked along a leading user axis.

    User u's ``pricing`` is the conjugate-coordinate gradient (d/dw*), times
    K (the subcarrier average rescales every term equally), of u's cell's
    rates plus ``cooperative`` times the other cells', as the surface
    gradients weigh them, less u's own log term, which the quadratic models.
    ``weighted`` is the :func:`~bdris.rates.weighted_amplitudes` at
    ``pricing=cooperative`` if the caller has formed it; it is read, not
    changed.  The own channels and the rows come from the snapshot as they are.
    """
    users = np.arange(channels.num_users)
    sig, mui, own = snap.signal, snap.mui, snap.own_channel
    ln2_mui = LN2 * mui
    linear = own * (snap.amplitudes[users, users] / ln2_mui)[..., None]
    if cooperative or channels.num_users > channels.num_bs:  # some BS serves two users
        weighted = (weighted_amplitudes(channels, snap, pricing=float(cooperative))
                    if weighted is None else weighted.copy())
        weighted[users, users] = 0.0  # the quadratic models the own stream
        pricing = 0.5 * np.einsum("unk,unki->uki", weighted, np.conj(snap.stream_rows))
    else:
        pricing = np.zeros_like(linear)
    quad = sig / (LN2 * (mui + sig) * mui)
    offset = np.log1p(snap.snr) / LN2 + quad * sig - 2.0 * sig / ln2_mui
    return PrecoderSurrogate(quad, own, snap.own_norm2, linear, pricing,
                             iterate.precoders.copy(), offset)


def build_surrogates(q, iterate, channels, noise_power, snap=None,
                     cooperative=True, ris_enabled=True):
    """Assemble the surrogate of every user served by BS q."""
    if snap is None:
        snap = snapshot(iterate, channels, noise_power, ris_enabled)
    stacked = stacked_surrogates(iterate, channels, snap, cooperative)
    return [stacked.select(u) for u in channels.users_of_bs(q)]


class RhsSplit(NamedTuple):
    """One surrogate's closed form at one ``tau``, from :func:`split_rhs`."""

    across: np.ndarray   # (..., K, N) part of rhs with f^H across = 0
    along: np.ndarray    # (..., K) rhs = across + along f; 0 where f is
    channel: np.ndarray  # (..., K, N) own channel f
    f_norm2: np.ndarray  # (..., K) |f|^2
    shift: np.ndarray    # (..., K) a |f|^2
    half_tau: float


def split_rhs(surrogate, tau):
    """The :class:`RhsSplit` of ``rhs(tau)``, the only place ``tau`` enters the solve."""
    r = surrogate.rhs(tau)
    f, f_norm2 = surrogate.own_channel, surrogate.own_norm2
    along = np.divide(np.einsum("...ki,...ki->...k", np.conj(f), r), f_norm2,
                      out=np.zeros(f_norm2.shape, complex), where=f_norm2 > 0)
    return RhsSplit(r - along[..., None] * f, along, f, f_norm2,
                    surrogate.quad_weight * f_norm2, tau / 2.0)


def solve_precoder(split, lam):
    """Closed-form maximizer for fixed power multipliers, shape (..., K, N).

    ``split`` is one user's or a stack of users' :func:`split_rhs`; ``lam``
    is a scalar or one multiplier per stacked user.  Each subcarrier block
    (a f f^H + beta I) w = rhs, ``beta = tau/2 + lam``, solves part by part:
    ``w = across / beta + along f / (beta + a |f|^2)``.  Both divisions
    multiply by the real reciprocal, which is what numpy's complex-by-real
    division computes, without promoting the divisor to complex.
    """
    beta = (split.half_tau + np.asarray(lam))[..., None]
    along = split.along * (1.0 / (beta + split.shift))
    return split.across * (1.0 / beta)[..., None] + along[..., None] * split.channel


def power_curves(split, owner):
    """Transmit power of every BS's :func:`solve_precoder`, and its slope, in its ``lam``.

    ``split`` splits a user stack and ``owner[u]`` is the BS of user u; the
    returned function maps one multiplier per BS to ``(power, slope)``, one
    power and one derivative dP/dlam per BS.  On the split, the power is a
    sum of nonnegative terms ``c / (beta + s)^2``; unlike ``|r|^2 - ...``
    none cancels, and the slope is ``-2 sum c / (beta + s)^3``, both read
    off one ``beta + s`` per call.
    """
    perp2 = (np.abs(split.across) ** 2).sum(axis=(-2, -1))
    par2 = np.abs(split.along) ** 2 * split.f_norm2

    def power(lam):
        beta = split.half_tau + lam[owner]
        shifted = beta[:, None] + split.shift
        par_terms = par2 / shifted**2
        per_user = perp2 / beta**2 + par_terms.sum(axis=1)
        slope = -2.0 * (perp2 / beta**3 + (par_terms / shifted).sum(axis=1))
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
    at 0.  Each pass calls ``power_at`` once; the tests and steps then run
    on its Python floats, as a numpy call on Q numbers costs more than its
    arithmetic.  Returns ``(lam, steps)`` arrays; ``steps`` counts each
    budget's Newton steps and restarts.
    """
    budgets, lam = budgets.tolist(), lam.tolist()
    binding = [False] * len(lam) if binding is None else binding.tolist()
    steps = [0] * len(lam)
    for _ in range(100):
        power, slope = power_at(np.array(lam))
        done = True
        for q, (b, p, s, x) in enumerate(zip(budgets, power.tolist(), slope.tolist(), lam)):
            binding[q] = binding[q] or p - x * s > b  # power(0) >= this >= p, as x >= 0
            if p > b or (x > 0.0 and p < b * (1.0 - POWER_REL_TOL) and s < 0.0):
                target = b * (1.0 - 0.5 * POWER_REL_TOL)
                x = max(x + 2.0 * p * (math.sqrt(p / target) - 1.0) / -s, 0.0)
            elif x > 0.0 and not binding[q]:
                x = 0.0
            else:
                continue
            if x > MAX_MULTIPLIER:
                raise NumericalFailureError("power multiplier exceeds its bound")
            lam[q], done = x, False
            steps[q] += 1
        if done:
            return np.array(lam), np.array(steps)
    raise NumericalFailureError("power multiplier search did not converge")


def solve_precoders(surrogate, owner, tau, budgets, start_multipliers=None):
    """Power multipliers and precoders of every BS, found by Newton in lock step.

    ``surrogate`` stacks the users, ``owner[u]`` is the BS of user u and
    ``budgets`` holds one budget per BS.  Returns ``(lams, precoders, steps)``
    of shapes (Q,), (U, K, N) and (Q,), ``steps`` counting each BS's search
    steps.  Each multiplier is 0 if the unconstrained solution fits the
    budget, else its power fits within ``POWER_REL_TOL * budget`` below the
    budget.  Newton's method, one :func:`power_curves` call a pass, starts from
    ``start_multipliers`` (each in ``[0, MAX_MULTIPLIER]``; 0 if omitted),
    as the solver warm-starts each sweep from the previous one's; a
    positive multiplier is kept only once the power at 0 is known to exceed
    the budget, else it restarts at 0 (see :func:`_newton_search`).  All of
    it reads one :func:`split_rhs` of ``surrogate``: the power curve, the
    Newton steps and the precoders, solved at the result only in one
    :func:`solve_precoder` call with each user's BS multiplier.  If a BS's
    measured power (:func:`~bdris.rates.bs_power`) rounds above its budget,
    its search goes on from there on measured powers and the split's slope,
    so the result is always feasible.  A multiplier that would pass
    ``MAX_MULTIPLIER`` raises :class:`NumericalFailureError`.
    """
    budgets = np.asarray(budgets, dtype=float)
    if not (budgets > 0).all():  # a NaN budget fails too
        raise ValueError("power budget must be > 0")
    lam = np.zeros(len(budgets))
    if start_multipliers is not None:
        lam[:] = start_multipliers
        if not ((lam >= 0.0) & (lam <= MAX_MULTIPLIER)).all():
            raise ValueError("start multipliers must lie in [0, MAX_MULTIPLIER]")
    split = split_rhs(surrogate, tau)
    curve = power_curves(split, owner)

    def solve(lam):
        ws = solve_precoder(split, lam[owner])
        return ws, bs_power(ws, owner, len(budgets))

    lam, steps = _newton_search(curve, budgets, lam)
    ws, power = solve(lam)
    if (power > budgets).any():
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
    return (surrogate.log_term_value(ws).sum(axis=-1)
            - 0.5 * tau * (np.abs(diff) ** 2).sum(axis=(-2, -1))
            + 2.0 * np.real((np.conj(surrogate.pricing) * diff).sum(axis=(-2, -1))))
