"""Per-user rates, interference powers and the network sum rate.

The variable triplet (precoders, capacitances, switch permutations) is held
in :class:`Iterate`.  Rates follow the treat-interference-as-noise model:
user u's rate at subcarrier k is log2(1 + |own amplitude|^2 / MUI) averaged
over subcarriers, where MUI collects the receiver noise plus the power of
every other stream at that user.

:func:`snapshot` evaluates what one Jacobi sweep reads for all surfaces at
once, the reflection profiles and their capacitance slopes included.  Every
block's gradient is read off :func:`weighted_amplitudes`: both surface
gradients (:func:`surface_gradients`) and the precoder pricing.  The one
thing a snapshot carries over from an earlier one is the routed
surface-to-user channels, ``conj(g)[..., perm]``: they depend on the switch
permutations alone, which rarely change between Jacobi sweeps, so
:func:`snapshot` reuses the routing of a ``previous`` snapshot whose
permutations equal the iterate's and rebuilds it otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import reflection

LN2 = np.log(2.0)
POWER_SLACK = 1e-9  # absolute slack on the per-BS power constraint


@dataclass
class Iterate:
    """One point of the joint design space.

    Attributes
    ----------
    precoders : (U, K, N) complex
        Per-user per-subcarrier transmit vectors at the serving BS.
    capacitances : (Q, M) float
        Tunable element capacitances of each surface, in farads.
    selections : (Q, M) int
        Switch permutation of each surface: ``perm = selections[q]`` says element
        m reflects the signal incoming at element ``perm[m]``, i.e. the 0/1 matrix
        has S[perm[m], m] = 1, and routing ``conj(g) @ S`` is ``conj(g)[..., perm]``.
    """

    precoders: np.ndarray
    capacitances: np.ndarray
    selections: np.ndarray

    def copy(self):
        return Iterate(self.precoders.copy(), self.capacitances.copy(),
                       self.selections.copy())

    def validate(self, channels, power_budgets, moved=None):
        """Raise if any constraint (power, box, permutation) is violated; return the
        per-BS power (:func:`bs_power`).  Only the ``selections`` rows that ``moved``
        picks (indices or a (Q,) mask; all if None) are checked as permutations."""
        power = bs_power(self.precoders, channels.bs_of_user, channels.num_bs)
        if not (power <= np.asarray(power_budgets, float) + POWER_SLACK).all():
            raise ValueError("per-BS transmit power exceeds the budget")
        c, caps, s = channels.circuit, self.capacitances, self.selections
        if not ((caps >= c.c_min) & (caps <= c.c_max)).all():
            raise ValueError("capacitance outside the tunable range")
        if not np.issubdtype(s.dtype, np.integer) or s.shape != caps.shape:
            raise ValueError("selections must be (Q, M) integer permutations")
        rows = s if moved is None else s[moved]
        if len(rows) and (np.sort(rows, axis=1) != np.arange(s.shape[1])).any():
            raise ValueError("selections must be (Q, M) integer permutations")
        return power


def bs_power(precoders, bs_of_user, num_bs):
    """Transmit power of each BS, (Q,): the one sum every budget test reads."""
    per_user = (np.abs(precoders) ** 2).sum(axis=(1, 2))
    return np.bincount(bs_of_user, weights=per_user, minlength=num_bs)


@dataclass
class RateSnapshot:
    """Cached per-iterate quantities shared by the subproblem solvers.

    ``routed`` and ``selections`` are read-only: later snapshots of iterates
    with the same permutations share them.
    """

    rows: np.ndarray          # (Q, U, K, N) conjugated composite channels
    amplitudes: np.ndarray    # (U, U, K): [n, u, k] is stream n's amplitude at user u
    signal: np.ndarray        # (U, K) own-stream power
    mui: np.ndarray           # (U, K) noise plus interference power
    snr: np.ndarray           # (U, K)
    user_rates: np.ndarray    # (U,) bits/s/Hz
    phi: np.ndarray | None    # (Q, K, M) reflection profiles, None without surfaces
    slope: np.ndarray | None  # (Q, K, M) d(phi)/dC, None without surfaces
    routed: np.ndarray | None      # (Q, U, K, M) conj(g)[..., perm], None without surfaces
    selections: np.ndarray | None  # (Q, M) permutations ``routed`` was built from, or None

    @property
    def sum_rate(self):
        return float(self.user_rates.sum())


def snapshot(iterate, channels, noise_power, ris_enabled=True, previous=None):
    """Evaluate rates and interference terms once for the current iterate.

    The rows ``f^H = h^H + g^H S diag(phi) H``, (Q, U, K, N), are the
    library's one form of the composite channel: ``rows[j, u, k] @ w`` is
    the receive amplitude at user u of a vector w sent by BS j, direct path
    plus surface j's routed reflection (direct path only without surfaces).
    The reflected rows of each surface are one product batched over K of its
    routed, phased surface-to-user channels and BS-to-surface matrices; the
    reflection profiles come from the channels' cached
    :attr:`~bdris.channels.NetworkChannels.coefficients`.  ``previous`` is an
    earlier snapshot of the same channels: its ``routed`` array is reused,
    not copied, when its ``selections`` equal the iterate's, and every
    surface is routed afresh otherwise.  Both ways give the same array, so
    the result does not depend on ``previous``.
    """
    rows, phi, slope = np.conj(channels.direct), None, None
    routed = selections = None
    if ris_enabled:
        phi, slope = reflection(iterate.capacitances[:, None, :], channels.coefficients,
                                channels.circuit)
        if previous is not None and np.array_equal(previous.selections, iterate.selections):
            routed, selections = previous.routed, previous.selections
        else:  # a copy of the permutations, since the iterate's may be edited in place
            routed, selections = np.empty_like(channels.ris_ue), iterate.selections.copy()
            for g, perm, out in zip(channels.ris_ue, selections, routed):
                np.take(g, perm, axis=-1, out=out)
            np.conjugate(routed, out=routed)
            routed.flags.writeable = selections.flags.writeable = False
        # one surface at a time, (K, U, M) @ BS -> surface matrices (K, M, N), so
        # that each phased temporary is a quarter of ``routed``: a full-size one
        # beside a freshly routed array lets the allocator return both to the
        # system, and the next rebuild pages them in again (3x slower)
        rows = rows + np.stack([((r * p).swapaxes(0, 1) @ h).swapaxes(0, 1)
                                for r, p, h in zip(routed, phi[:, None], channels.bs_ris)])
    tx_rows = rows[channels.bs_of_user]  # (U, U, K, N): serving-BS row of each stream
    amp = np.einsum("nuki,nki->nuk", tx_rows, iterate.precoders)
    powers = np.abs(amp) ** 2
    u_n = powers.shape[0]
    own = powers[np.arange(u_n), np.arange(u_n)]  # (U, K)
    mui = noise_power + powers.sum(axis=0) - own
    snr = own / mui
    k_n = snr.shape[1]
    rates = np.log1p(snr).sum(axis=1) / (LN2 * k_n)
    return RateSnapshot(rows, amp, own, mui, snr, rates, phi, slope, routed, selections)


def weighted_amplitudes(channels, snap, cell=1.0, pricing=1.0):
    """Amplitudes weighted by their share of the rate-sum derivative, (U, U, K).

    Entry ``[t, v, k]`` is ``c a``: a is t's stream's amplitude at victim v
    and c weighs ``Re(conj(a) da)`` in the rate sum's derivative (times K),
    ``d = (2 / ln 2) / ((1 + snr) mui)`` of v for its own stream and
    ``-snr d`` for another, times ``cell`` in t's cell and ``pricing`` outside.
    """
    bs = channels.bs_of_user
    users = np.arange(len(bs))
    d = (2.0 / LN2) / ((1.0 + snap.snr) * snap.mui)
    weights = np.where(bs[:, None] == bs, cell, pricing)[..., None] * (-snap.snr * d)
    weights[users, users] = cell * d
    return weights * snap.amplitudes


def surface_gradients(iterate, channels, snap, cell=1.0, pricing=1.0, selection=True):
    """Capacitance and real switch-selection gradients of every surface.

    Returns ``grad_c`` (Q, M) and ``grad_s`` (Q, M, M), or None for
    ``grad_s`` when ``selection`` is false.  Both are read off one
    victim-combined channel per BS, ``y[t, k] = sum_v conj(ca[t, v, k]
    g_{q(t), v}[k])`` for each own user t, ``ca`` being the
    :func:`weighted_amplitudes` at ``cell`` and ``pricing``.  With the beams
    ``b[t, k] = H_q[k] w_t[k]``,
    ``grad_c[q, m] = sum_k Re(slope[q, k, m] sum_t y[t, k, perm_q[m]] b[t, k, m])``
    and ``grad_s[q, i, j] = Re sum_{t, k} y[t, k, i] phi_q[k, j] b[t, k, j]``,
    one real (M x 2TK) by (2TK x M) product of the stacked real and
    imaginary parts.  Scaling both weights by a complex s scales y by
    conj(s), so weights times 1j give the imaginary part of the complex sums.
    """
    # conj(y) = (weights a) @ g: (T, K, 1, U) @ (K, U, M) per BS
    conj_y = weighted_amplitudes(channels, snap, cell, pricing).swapaxes(1, 2)[:, :, None]
    q_n, m_n = iterate.capacitances.shape
    per_bs = np.empty(snap.slope.shape, complex)
    grad_s = np.empty((q_n, m_n, m_n)) if selection else None
    for q, (g, h) in enumerate(zip(channels.ris_ue, channels.bs_ris)):
        own = channels.users_of_bs(q)
        y = np.conjugate(conj_y[own] @ g.swapaxes(0, 1))[:, :, 0]
        beams = (h @ iterate.precoders[own, ..., None])[..., 0]  # (K, M, N) @ (T, K, N, 1)
        per_bs[q] = np.sum(np.take(y, iterate.selections[q], axis=-1) * beams, axis=0)
        if selection:
            phased = snap.phi[q] * beams
            lhs = np.concatenate([y.real, y.imag]).reshape(-1, m_n)
            rhs = np.concatenate([phased.real, -phased.imag]).reshape(-1, m_n)
            grad_s[q] = lhs.T @ rhs
    return np.real(snap.slope * per_bs).sum(axis=1), grad_s


def sum_rate(iterate, channels, noise_power, ris_enabled=True):
    """Network sum rate in bits/s/Hz."""
    return snapshot(iterate, channels, noise_power, ris_enabled).sum_rate
