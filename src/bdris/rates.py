"""Per-user rates, interference powers and the network sum rate.

The variable triplet (precoders, capacitances, switch permutations) is held
in :class:`Iterate`.  Rates follow the treat-interference-as-noise model:
user u's rate at subcarrier k is log2(1 + |own amplitude|^2 / MUI) averaged
over subcarriers, where MUI collects the receiver noise plus the power of
every other stream at that user.

:func:`snapshot` evaluates what one Jacobi sweep reads for all surfaces at
once: the composite rows, their per-stream gather, each user's own channel
and its squared norm, the reflection profiles and their capacitance slopes,
and the sum rate, summed once per snapshot.  Every block reads these from
the snapshot instead of forming them again, and every block's gradient is
read off :func:`weighted_amplitudes`: both surface gradients
(:func:`surface_gradients`) and the precoder pricing.  A snapshot given a
``previous`` one of the same channels carries over what did not change
between them.  The routed surface-to-user channels, ``conj(g)[..., perm]``,
depend on the switch permutations alone, which rarely change between Jacobi
sweeps, so they are reused when ``previous`` has the iterate's permutations
and rebuilt otherwise.  Without surfaces the rows, their per-stream gather
and the own channels depend on the channels alone, so they are reused
whenever ``previous`` was also formed without surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import reflection

LN2 = np.log(2.0)
POWER_SLACK = 1e-9  # absolute slack on the per-BS power constraint
SCREEN_MARGIN = 1e-9  # relative rounding margin of :func:`selection_bound`


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
        if s.dtype.kind not in "iu" or s.shape != caps.shape:
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
    with the same permutations share them.  Surface-less snapshots of one
    run share ``rows``, ``stream_rows``, ``own_channel`` and ``own_norm2``,
    which depend on the channels alone.  ``sum_rate`` is summed on its first
    read and kept.
    """

    rows: np.ndarray          # (Q, U, K, N) conjugated composite channels
    stream_rows: np.ndarray   # (U, U, K, N) rows[bs_of_user]: serving-BS row of each stream
    own_channel: np.ndarray   # (U, K, N) f = conj(rows[bs_of_user[u], u]), u's own channel
    own_norm2: np.ndarray     # (U, K) |f|^2
    amplitudes: np.ndarray    # (U, U, K): [n, u, k] is stream n's amplitude at user u
    signal: np.ndarray        # (U, K) own-stream power
    mui: np.ndarray           # (U, K) noise plus interference power
    snr: np.ndarray           # (U, K)
    user_rates: np.ndarray    # (U,) bits/s/Hz
    phi: np.ndarray | None    # (Q, K, M) reflection profiles, None without surfaces
    slope: np.ndarray | None  # (Q, K, M) d(phi)/dC, None without surfaces
    routed: np.ndarray | None      # (Q, U, K, M) conj(g)[..., perm], None without surfaces
    selections: np.ndarray | None  # (Q, M) permutations ``routed`` was built from, or None

    @cached_property
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
    surface is routed afresh otherwise.  Without surfaces, the rows, their
    per-stream gather ``rows[bs_of_user]`` and the own channels of a
    ``previous`` snapshot also formed without surfaces are reused.  Both
    ways give the same arrays, so the result does not depend on ``previous``.
    """
    phi = slope = routed = selections = None
    users = np.arange(channels.num_users)
    if not ris_enabled and previous is not None and previous.phi is None:
        rows, stream_rows = previous.rows, previous.stream_rows
        own_channel, own_norm2 = previous.own_channel, previous.own_norm2
    else:
        rows = np.conj(channels.direct)
        if ris_enabled:
            phi, slope = reflection(iterate.capacitances[:, None, :], channels.coefficients,
                                    channels.circuit)
            routed, selections = _routing(iterate, channels, previous)
            # one surface at a time, (K, U, M) @ BS -> surface matrices (K, M, N), so
            # that each phased temporary is a quarter of ``routed``: a full-size one
            # beside a freshly routed array lets the allocator return both to the
            # system, and the next rebuild pages them in again (3x slower)
            rows = rows + np.stack([((r * p).swapaxes(0, 1) @ h).swapaxes(0, 1)
                                    for r, p, h in zip(routed, phi[:, None],
                                                       channels.bs_ris)])
        stream_rows = rows[channels.bs_of_user]
        own_channel = np.conj(stream_rows[users, users])
        own_norm2 = (np.abs(own_channel) ** 2).sum(axis=-1)
    amp = np.einsum("nuki,nki->nuk", stream_rows, iterate.precoders)
    powers = np.abs(amp) ** 2
    own = powers[users, users]  # (U, K)
    mui = noise_power + powers.sum(axis=0) - own
    snr = own / mui
    k_n = snr.shape[1]
    rates = np.log1p(snr).sum(axis=1) / (LN2 * k_n)
    return RateSnapshot(rows, stream_rows, own_channel, own_norm2, amp, own, mui, snr,
                        rates, phi, slope, routed, selections)


def _routing(iterate, channels, previous):
    """``(routed, selections)`` of the iterate's permutations, ``previous``'s if equal."""
    if previous is not None and np.array_equal(previous.selections, iterate.selections):
        return previous.routed, previous.selections
    # a copy of the permutations, since the iterate's may be edited in place
    routed, selections = np.empty_like(channels.ris_ue), iterate.selections.copy()
    for g, perm, out in zip(channels.ris_ue, selections, routed):
        np.take(g, perm, axis=-1, out=out)
    np.conjugate(routed, out=routed)
    routed.flags.writeable = selections.flags.writeable = False
    return routed, selections


def weighted_amplitudes(channels, snap, cell=1.0, pricing=1.0):
    """Amplitudes weighted by their share of the rate-sum derivative, (U, U, K).

    Entry ``[t, v, k]`` is ``c a``: a is t's stream's amplitude at victim v
    and c weighs ``Re(conj(a) da)`` in the rate sum's derivative (times K),
    ``d = (2 / ln 2) / ((1 + snr) mui)`` of v for its own stream and
    ``-snr d`` for another, times ``cell`` in t's cell and ``pricing`` outside.
    """
    users = np.arange(channels.num_users)
    d = (2.0 / LN2) / ((1.0 + snap.snr) * snap.mui)
    weights = np.where(channels.same_cell, cell, pricing)[..., None] * (-snap.snr * d)
    weights[users, users] = cell * d
    return weights * snap.amplitudes


def surface_gradients(iterate, channels, snap, cell=1.0, pricing=1.0, selection=True,
                      tau=None):
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

    Given the switch weight ``tau``, each surface is screened first: one
    whose :func:`selection_bound` ``tau`` exceeds skips its switch product,
    since its reward, ``grad_s[q]`` plus ``tau`` on the current permutation,
    is then known to certify that permutation (the bound's relative margin
    ``SCREEN_MARGIN`` covers the rounding).  The call then returns a third
    value, the (Q,) mask ``uncertified`` of the surfaces whose product was
    formed, and ``grad_s`` holds only their slices, in BS order.  A
    certified surface has no slice: its assignment keeps the current
    permutation at a reward gain of 0.0, as its full reward would.
    """
    # conj(y) = (weights a) @ g: (T, K, 1, U) @ (K, U, M) per BS
    conj_y = weighted_amplitudes(channels, snap, cell, pricing).swapaxes(1, 2)[:, :, None]
    q_n, m_n = iterate.capacitances.shape
    per_bs = np.empty(snap.slope.shape, complex)
    grad_s = np.empty((q_n, m_n, m_n)) if selection else None
    uncertified = np.zeros(q_n, bool)
    for q, (g, h) in enumerate(zip(channels.ris_ue, channels.bs_ris)):
        own, perm = channels.users_of_bs(q), iterate.selections[q]
        y = np.conjugate(conj_y[own] @ g.swapaxes(0, 1))[:, :, 0]
        beams = (h @ iterate.precoders[own, ..., None])[..., 0]  # (K, M, N) @ (T, K, N, 1)
        per_bs[q] = np.sum(np.take(y, perm, axis=-1) * beams, axis=0)
        if selection:
            phased = snap.phi[q] * beams
            if tau is None or not tau > selection_bound(y, phased, perm):
                lhs = np.concatenate([y.real, y.imag]).reshape(-1, m_n)
                rhs = np.concatenate([phased.real, -phased.imag]).reshape(-1, m_n)
                grad_s[np.count_nonzero(uncertified)] = lhs.T @ rhs
                uncertified[q] = True
    grad_c = np.real(snap.slope * per_bs).sum(axis=1)
    if tau is None:
        return grad_c, grad_s
    if selection:
        grad_s = grad_s[:np.count_nonzero(uncertified)]
    return grad_c, grad_s, uncertified


def selection_bound(y, phased, perm):
    """Switch weight above which one surface's assignment cannot move, a float.

    Entry ``[i, j]`` of the switch gradient of :func:`surface_gradients` is
    ``Re sum_{t, k} y[t, k, i] phased[t, k, j]``, so by Cauchy-Schwarz over
    own users and subcarriers it is at most ``|y_i| |p_j|`` in size, |.|
    being the Euclidean norm of column i of ``y`` or j of ``phased``.
    Column j of the reward, the gradient plus ``tau`` at row ``perm[j]``,
    then keeps its strict maximum at that row when ``tau`` exceeds
    ``|p_j| (|y_{perm[j]}| + max_i |y_i|)``; if every column does, the
    column maxima certify ``perm`` (see
    :func:`bdris.switches.certified_selection`).  The bound is the largest
    of these over j, times ``1 + SCREEN_MARGIN`` so that the rounding of the
    norms and of the product cannot reverse a comparison.  A NaN in either
    array gives a NaN bound, which no ``tau`` exceeds.  The bound assumes
    that no squared entry underflows, i.e. magnitudes above about 1e-154.
    """
    y_norm, p_norm = _column_norms(y), _column_norms(phased)
    return (1.0 + SCREEN_MARGIN) * float(np.max(p_norm * (y_norm[perm] + y_norm.max())))


def _column_norms(a):
    """Euclidean norm of each last-axis column of a complex array, over all other axes."""
    parts = np.ascontiguousarray(a).view(float).reshape(-1, 2 * a.shape[-1])
    squares = np.einsum("rc,rc->c", parts, parts)
    return np.sqrt(squares[::2] + squares[1::2])


def sum_rate(iterate, channels, noise_power, ris_enabled=True):
    """Network sum rate in bits/s/Hz."""
    return snapshot(iterate, channels, noise_power, ris_enabled).sum_rate
