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
read off :func:`weighted_amplitudes`, which a Jacobi sweep assembles once:
both surface gradients (:func:`surface_gradients`) and the precoder
pricing.  The surface gradients read the snapshot's routed channels as they
are, batched over all users, and screen every surface's switch block with
one norm bound (:func:`selection_bounds`).  A snapshot given a
``previous`` one of the same channels carries over what did not change
between them.  The routed surface-to-user channels, ``conj(g)[..., perm]``,
depend on the switch permutations alone, which rarely change between Jacobi
sweeps, so they are reused when ``previous`` has the iterate's permutations
and rebuilt otherwise.  Without surfaces the rows, their per-stream gather
and the own channels depend on the channels alone, so they are reused
whenever ``previous`` was also formed without surfaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import reflection

LN2 = np.log(2.0)
POWER_SLACK = 1e-9  # absolute slack on the per-BS power constraint
SCREEN_MARGIN = 1e-9  # relative rounding margin of :func:`selection_bounds`


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
                      tau=None, weighted=None):
    """Capacitance and real switch-selection gradients of every surface.

    Returns ``grad_c`` (Q, M) and ``grad_s`` (Q, M, M), or None for
    ``grad_s`` when ``selection`` is false.  Both are read off one
    victim-combined channel per own user t of BS q, formed in routed
    coordinates, ``z[t, k] = sum_v conj(ca[t, v, k]) routed[q, v, k]``,
    ``ca`` being the :func:`weighted_amplitudes` at ``cell`` and ``pricing``
    (``weighted``, if the caller has formed it) and ``routed`` the
    snapshot's ``conj(g)[..., perm_q]``, so column m of z is column
    ``perm_q[m]`` of the unrouted ``y[t, k] = sum_v conj(ca[t, v, k]
    g_{q, v}[k])``.  With the beams ``b[t, k] = H_q[k] w_t[k]``,
    ``grad_c[q, m] = sum_k Re(slope[q, k, m] sum_t z[t, k, m] b[t, k, m])``
    and ``grad_s[q, perm_q[m], j] = Re sum_{t, k} z[t, k, m] phi_q[k, j]
    b[t, k, j]``, one real (M x 2TK) by (2TK x M) product of the stacked
    real and imaginary parts of z, its columns put back in element order,
    and of the phased beams.  z and b are formed into two (U, K, M) buffers
    with the users ordered by BS, so everything after them runs once over
    all surfaces.  Scaling both weights by a complex s scales z by conj(s),
    so weights times 1j give the imaginary part of the complex sums.

    Given the switch weight ``tau``, every surface is screened first: one
    whose bound in :func:`selection_bounds` ``tau`` exceeds skips its switch
    product, since its reward, ``grad_s[q]`` plus ``tau`` on the current
    permutation, is then known to certify that permutation (the bound's
    relative margin ``SCREEN_MARGIN`` covers the rounding).  The call then
    returns a third value, the (Q,) mask ``uncertified`` of the surfaces
    whose product was formed, and ``grad_s`` holds only their slices, in BS
    order.  A certified surface has no slice: its assignment keeps the
    current permutation at a reward gain of 0.0, as its full reward would.
    """
    q_n, m_n = iterate.capacitances.shape
    bs = channels.bs_of_user
    order = np.argsort(bs, kind="stable")  # users by BS: BS q's own rows are spans[q]
    ends = list(itertools.accumulate(np.bincount(bs, minlength=q_n).tolist()))
    starts = [0] + ends[:-1]
    spans = list(zip(starts, ends))
    if weighted is None:
        weighted = weighted_amplitudes(channels, snap, cell, pricing)
    # (1, U) rows conj(ca[t, :, k]) and (N, 1) columns w_t[k], each own user's by BS;
    # every operand and output keeps the strides of a per-BS product of its own
    rows = np.conjugate(weighted).swapaxes(1, 2)[:, :, None][order]
    precoders = iterate.precoders[order, ..., None]
    u_n, k_n = len(order), snap.slope.shape[1]
    z, beams = np.empty((u_n, k_n, 1, m_n), complex), np.empty((u_n, k_n, m_n, 1), complex)
    for q, (lo, hi) in enumerate(spans):
        np.matmul(rows[lo:hi], snap.routed[q].swapaxes(0, 1), out=z[lo:hi])
        np.matmul(channels.bs_ris[q], precoders[lo:hi], out=beams[lo:hi])
    z, beams = z[:, :, 0], beams[..., 0]
    per_bs = z * beams
    if u_n > q_n:  # some BS serves two users: sum each BS's rows, in row order
        per_bs = np.stack([np.sum(per_bs[lo:hi], axis=0) for lo, hi in spans])
    grad_c = np.multiply(snap.slope, per_bs, out=per_bs).real.sum(axis=1)
    if not selection:
        return (grad_c, None) if tau is None else (grad_c, None, np.zeros(q_n, bool))

    phased = beams  # phi_q b, formed in place
    for q, (lo, hi) in enumerate(spans):
        np.multiply(snap.phi[q], phased[lo:hi], out=phased[lo:hi])
    uncertified = (np.ones(q_n, bool) if tau is None
                   else ~(tau > selection_bounds(z, phased, starts)))
    grad_s = np.empty((np.count_nonzero(uncertified), m_n, m_n))
    for out, q in zip(grad_s, np.flatnonzero(uncertified)):
        lo, hi = spans[q]
        y = np.take(z[lo:hi], np.argsort(iterate.selections[q]), axis=-1)
        lhs = np.concatenate([y.real, y.imag]).reshape(-1, m_n)
        rhs = np.concatenate([phased[lo:hi].real, -phased[lo:hi].imag]).reshape(-1, m_n)
        out[...] = lhs.T @ rhs
    if tau is None:
        return grad_c, grad_s
    return grad_c, grad_s, uncertified


def selection_bounds(z, phased, starts):
    """Switch weight above which each surface's assignment cannot move, (Q,).

    ``z`` and ``phased`` are the (U, K, M) victim-combined channels and
    phased beams of :func:`surface_gradients`, in routed coordinates with
    the users ordered by BS, and BS q's rows start at ``starts[q]``.  Entry
    ``[i, j]`` of surface q's switch gradient is ``Re sum_{t, k} y[t, k, i]
    phased[t, k, j]`` over its own users, so by Cauchy-Schwarz over own users
    and subcarriers it is at most ``|y_i| |p_j|`` in size, |.| being the
    Euclidean norm of column i of ``y`` or j of ``phased``.  Column j of the
    reward, the gradient plus ``tau`` at row ``perm[j]``, then keeps its
    strict maximum at that row when ``tau`` exceeds
    ``|p_j| (|y_{perm[j]}| + max_i |y_i|)``; if every column does, the
    column maxima certify ``perm`` (see
    :func:`bdris.switches.certified_selection`).  Column j of z is column
    ``perm[j]`` of y, so that is ``|p_j| (|z_j| + max_m |z_m|)`` and needs no
    permutation.  Each bound is the largest of these over j, times
    ``1 + SCREEN_MARGIN`` so that the rounding of the norms and of the
    product cannot reverse a comparison.  A NaN in either array gives a NaN
    bound, which no ``tau`` exceeds.  The bound assumes that no squared entry
    underflows, i.e. magnitudes above about 1e-154.
    """
    z_norm, p_norm = _column_norms(z, starts), _column_norms(phased, starts)
    return (1.0 + SCREEN_MARGIN) * np.max(
        p_norm * (z_norm + z_norm.max(axis=1, keepdims=True)), axis=1)


def _column_norms(a, starts):
    """Norm of each last-axis column of a complex (U, K, M) array over the rows of
    each BS, whose first row is ``starts[q]``, and all subcarriers, (Q, M)."""
    parts = np.ascontiguousarray(a).view(float)
    squares = np.add.reduceat(np.einsum("ukc,ukc->uc", parts, parts), starts)
    return np.sqrt(squares[:, ::2] + squares[:, 1::2])


def sum_rate(iterate, channels, noise_power, ris_enabled=True):
    """Network sum rate in bits/s/Hz."""
    return snapshot(iterate, channels, noise_power, ris_enabled).sum_rate
