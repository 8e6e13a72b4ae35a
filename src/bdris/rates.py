"""Per-user rates, interference powers and the network sum rate.

The variable triplet (precoders, capacitances, switch permutations) is held
in :class:`Iterate`.  Rates follow the treat-interference-as-noise model:
user u's rate at subcarrier k is log2(1 + |own amplitude|^2 / MUI) averaged
over subcarriers, where MUI collects the receiver noise plus the power of
every other stream at that user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import reflection_profile

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

    def bs_power(self, bs_of_user):
        """Transmit power spent by each BS, shape (Q,)."""
        per_user = np.sum(np.abs(self.precoders) ** 2, axis=(1, 2))
        q_n = self.capacitances.shape[0]
        return np.array([per_user[bs_of_user == q].sum() for q in range(q_n)])

    def validate(self, channels, power_budgets):
        """Raise if any constraint (power, box, permutation) is violated."""
        power = self.bs_power(channels.bs_of_user)
        budgets = np.broadcast_to(np.asarray(power_budgets, float), power.shape)
        if np.any(power > budgets + POWER_SLACK):
            raise ValueError("per-BS transmit power exceeds the budget")
        c = channels.circuit
        if np.any(self.capacitances < c.c_min) or np.any(self.capacitances > c.c_max):
            raise ValueError("capacitance outside the tunable range")
        s = self.selections
        if (not np.issubdtype(s.dtype, np.integer) or s.shape != self.capacitances.shape
                or np.any(np.sort(s, axis=1) != np.arange(s.shape[1]))):
            raise ValueError("selections must be (Q, M) integer permutations")


def effective_rows(iterate, channels, ris_enabled=True):
    """Conjugate-transposed composite channels, shape (Q, U, K, N).

    ``rows[j, u, k] @ w`` is the complex receive amplitude at user u of a
    vector w sent by BS j.  The surface path adds the routed, phase-shifted
    reflection of the BS -> surface channel; with ``ris_enabled=False`` only
    the direct path remains.
    """
    rows = np.conj(channels.direct)
    if not ris_enabled:
        return rows.copy()
    phi = reflection_profile_all(iterate.capacitances, channels)
    routed = np.conj(np.take_along_axis(channels.ris_ue,
                                        iterate.selections[:, None, None], axis=-1))
    return rows + np.einsum("jukm,jkm,jkmn->jukn", routed, phi, channels.bs_ris)


def reflection_profile_all(capacitances, channels):
    """Reflection coefficients of every surface, shape (Q, K, M)."""
    return np.stack([reflection_profile(c_q, channels.grid, channels.circuit)
                     for c_q in capacitances])


def link_amplitudes(iterate, channels, ris_enabled=True, rows=None):
    """Receive amplitude of every stream at every user, shape (U, U, K).

    Entry ``[n, u, k]`` is the amplitude of user n's stream observed by
    user u at subcarrier k.
    """
    if rows is None:
        rows = effective_rows(iterate, channels, ris_enabled)
    tx_rows = rows[channels.bs_of_user]  # (U, U, K, N): serving-BS row of each stream
    return np.einsum("nuki,nki->nuk", tx_rows, iterate.precoders)


@dataclass
class RateSnapshot:
    """Cached per-iterate quantities shared by the subproblem solvers."""

    rows: np.ndarray          # (Q, U, K, N)
    amplitudes: np.ndarray    # (U, U, K)
    signal: np.ndarray        # (U, K) own-stream power
    mui: np.ndarray           # (U, K) noise plus interference power
    snr: np.ndarray           # (U, K)
    user_rates: np.ndarray    # (U,) bits/s/Hz

    @property
    def sum_rate(self):
        return float(self.user_rates.sum())


def snapshot(iterate, channels, noise_power, ris_enabled=True):
    """Evaluate rates and interference terms once for the current iterate."""
    rows = effective_rows(iterate, channels, ris_enabled)
    amp = link_amplitudes(iterate, channels, ris_enabled, rows=rows)
    powers = np.abs(amp) ** 2
    u_n = powers.shape[0]
    own = powers[np.arange(u_n), np.arange(u_n)]  # (U, K)
    mui = noise_power + powers.sum(axis=0) - own
    snr = own / mui
    k_n = snr.shape[1]
    rates = np.log1p(snr).sum(axis=1) / (LN2 * k_n)
    return RateSnapshot(rows, amp, own, mui, snr, rates)


def mui(user, k, iterate, channels, noise_power, ris_enabled=True):
    """Noise-plus-interference power of one user at one subcarrier."""
    amp = link_amplitudes(iterate, channels, ris_enabled)
    powers = np.abs(amp[:, user, k]) ** 2
    return float(noise_power + powers.sum() - powers[user])


def user_rate(user, iterate, channels, noise_power, ris_enabled=True):
    """Achievable rate of one user in bits/s/Hz, averaged over subcarriers."""
    return float(snapshot(iterate, channels, noise_power, ris_enabled).user_rates[user])


def sum_rate(iterate, channels, noise_power, ris_enabled=True):
    """Network sum rate in bits/s/Hz."""
    return snapshot(iterate, channels, noise_power, ris_enabled).sum_rate
