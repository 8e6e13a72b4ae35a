"""Per-BS precoder subproblem.

Each base station refreshes the precoders of all of its users jointly by
maximizing a concave surrogate of the network objective: the own-cell log
terms are lower-bounded by a tight quadratic (see
:class:`PrecoderSurrogate`), other cells' rates enter through a linear
pricing term, and a proximal penalty keeps the update near the current
point.  The maximizer for a fixed power multiplier is a per-subcarrier
rank-one-plus-identity solve; the multiplier is bisected on the closed-form
power (:func:`power_curve`), with a measured-power fallback for feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .rates import LN2, snapshot


@dataclass
class PrecoderSurrogate:
    """Quadratic model of one user's objective around the current iterate.

    The per-subcarrier quadratic is
    ``-quad_weight[k] |f_k^H w_k|^2 + 2 Re{linear[k]^H w_k}`` and the overall
    subproblem objective adds ``Re{pricing^H (w - anchor)}`` and the proximal
    term.  ``own_channel`` holds the composite channel vectors f_k.
    """

    user: int
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
        sig = np.abs(np.einsum("ki,ki->k", np.conj(self.own_channel), w)) ** 2
        sig_t = np.abs(np.einsum("ki,ki->k", np.conj(self.own_channel), self.anchor)) ** 2
        lin = 2.0 * np.real(np.einsum("ki,ki->k", np.conj(self.linear), w))
        lin_t = 2.0 * np.real(np.einsum("ki,ki->k", np.conj(self.linear), self.anchor))
        const = np.log1p(sig_t / self.mui_anchor) / LN2 + self.quad_weight * sig_t - lin_t
        return -self.quad_weight * sig + lin + const


def pricing_vector(user, iterate, channels, noise_power, snap=None, ris_enabled=True):
    """Gradient of other cells' rates with respect to this user's precoder.

    Returns the (K, N) array of per-subcarrier conjugate-coordinate
    gradients (d/dw*) of the sum of all other-cell user rates, scaled by the
    number of subcarriers (the subcarrier average is left out of the
    subproblems, as it rescales every term equally).
    """
    if snap is None:
        snap = snapshot(iterate, channels, noise_power, ris_enabled)
    q = channels.bs_of_user[user]
    others = np.flatnonzero(channels.bs_of_user != q)
    k_n, n_n = iterate.precoders.shape[1:]
    if others.size == 0:
        return np.zeros((k_n, n_n), dtype=complex)
    coef = -(snap.snr[others] / LN2) / ((1.0 + snap.snr[others]) * snap.mui[others])
    rows_to_others = snap.rows[q, others]          # (Uo, K, N)
    amp_to_others = snap.amplitudes[user, others]  # (Uo, K)
    return np.einsum("nk,nki,nk->ki", coef, np.conj(rows_to_others), amp_to_others)


def build_surrogates(q, iterate, channels, noise_power, snap=None,
                     cooperative=True, ris_enabled=True):
    """Assemble the surrogate of every user served by BS q."""
    if snap is None:
        snap = snapshot(iterate, channels, noise_power, ris_enabled)
    out = []
    for user in channels.users_of_bs(q):
        sig = snap.signal[user]
        mui = snap.mui[user]
        a = sig / (LN2 * (mui + sig) * mui)
        own = np.conj(snap.rows[q, user])           # (K, N)
        b = own * (snap.amplitudes[user, user] / (LN2 * mui))[:, None]
        if cooperative:
            pricing = pricing_vector(user, iterate, channels, noise_power,
                                     snap, ris_enabled)
        else:
            pricing = np.zeros_like(b)
        out.append(PrecoderSurrogate(int(user), a, own, b, pricing,
                                     iterate.precoders[user].copy(), mui.copy()))
    return out


def solve_precoder(surrogate, tau, lam):
    """Closed-form maximizer for a fixed power multiplier, shape (K, N).

    Each subcarrier block is (a f f^H + (tau/2 + lam) I) w = rhs, inverted
    with the rank-one update identity instead of a dense solve.
    """
    beta = tau / 2.0 + lam
    r = surrogate.rhs(tau)
    f = surrogate.own_channel
    a = surrogate.quad_weight
    f_dot_r = np.einsum("ki,ki->k", np.conj(f), r)
    f_norm2 = np.sum(np.abs(f) ** 2, axis=1)
    coeff = a * f_dot_r / (beta * (beta + a * f_norm2))
    return r / beta - coeff[:, None] * f


def power_curve(surrogates, tau):
    """Transmit power of :func:`solve_precoder` as a function of ``lam``.

    The solve divides each right-hand side r's part along the own channel f by
    ``beta + a |f|^2`` and its part across f by ``beta = tau/2 + lam``, so the
    power is a sum of two nonnegative terms; unlike ``|r|^2 - ...`` none cancels.
    """
    r = np.stack([s.rhs(tau) for s in surrogates])            # (L, K, N)
    f = np.stack([s.own_channel for s in surrogates])
    f_norm2 = np.sum(np.abs(f) ** 2, axis=2)
    along = np.divide(np.einsum("lki,lki->lk", np.conj(f), r), f_norm2,
                      out=np.zeros(f_norm2.shape, complex), where=f_norm2 > 0)
    perp2 = np.sum(np.abs(r - along[..., None] * f) ** 2)
    par2 = np.abs(along) ** 2 * f_norm2
    shift = np.stack([s.quad_weight for s in surrogates]) * f_norm2
    return lambda lam: float(perp2 / (tau / 2.0 + lam) ** 2
                             + np.sum(par2 / (tau / 2.0 + lam + shift) ** 2))


def bisect_power_multiplier(surrogates, tau, power_budget, rel_tol=1e-8,
                            max_doublings=200):
    """Find the power multiplier and the resulting precoders of one BS.

    Returns ``(lam, precoders)`` with ``precoders`` of shape (L, K, N).  The
    multiplier is 0 if the unconstrained solution fits the budget, else it is
    bisected on :func:`power_curve` until the power lands within ``rel_tol *
    power_budget`` below the budget, and precoders are solved at it only.  If
    their measured power rounds above the budget, bisection goes on from there
    on measured powers, so the result is always feasible.
    """
    if power_budget <= 0:
        raise ValueError("power budget must be > 0")

    def solve_all(lam):
        return np.stack([solve_precoder(s, tau, lam) for s in surrogates])

    def bisect(power_at, lo):
        if power_at(lo) <= power_budget:
            return lo
        hi = 2.0 * lo if lo > 0 else 1.0
        doublings = 0
        while (p_hi := power_at(hi)) > power_budget:
            lo, hi = hi, 2.0 * hi
            doublings += 1
            if doublings > max_doublings:
                raise NumericalFailureError("power bisection failed to bracket the multiplier")
        for _ in range(500):
            if power_budget - p_hi <= rel_tol * power_budget:
                return hi
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:  # interval exhausted in float precision
                return hi
            if (p_mid := power_at(mid)) > power_budget:
                lo = mid
            else:
                hi, p_hi = mid, p_mid
        raise NumericalFailureError("power bisection did not converge")

    lam = bisect(power_curve(surrogates, tau), 0.0)
    ws = solve_all(lam)
    if np.sum(np.abs(ws) ** 2) > power_budget:
        lam = bisect(lambda x: float(np.sum(np.abs(solve_all(x)) ** 2)), lam)
        ws = solve_all(lam)
    return lam, ws


def subproblem_objective(surrogates, ws, tau):
    """Value of the per-BS surrogate objective at candidate precoders.

    Used by the solver trace and by the improvement checks; constants are
    included so the value is comparable across candidates of the same
    iteration.
    """
    total = 0.0
    for s, w in zip(surrogates, ws):
        total += float(np.sum(s.log_term_value(w)))
        diff = w - s.anchor
        total -= 0.5 * tau * float(np.sum(np.abs(diff) ** 2))
        total += 2.0 * float(np.real(np.sum(np.conj(s.pricing) * diff)))
    return total
