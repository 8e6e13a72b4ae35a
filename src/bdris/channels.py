"""Wideband channel generation and composite-channel assembly.

Channels are drawn as independent circularly-symmetric complex Gaussian
delay taps with an exponentially decaying power-delay profile, scaled by a
distance-dependent pathloss, then transformed to per-subcarrier frequency
responses with a K-point DFT along delay.  Three link families exist:

* direct: base station -> user, an N-vector per subcarrier,
* bs_ris: base station -> its own surface, an MxN matrix per subcarrier,
* ris_ue: surface -> user, an M-vector per subcarrier.

Every link draws from its own random substream derived from the root seed
and a (kind, endpoint, endpoint) key, so adding users or surfaces never
perturbs previously generated links.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.constants import speed_of_light

from .circuit import ElementCircuit, SubcarrierGrid

# substream kinds for per-link seeding
_KIND_DIRECT = 0
_KIND_BS_RIS = 1
_KIND_RIS_UE = 2

DEFAULT_TAP_DECAY = 4.0


@dataclass(frozen=True)
class NetworkTopology:
    """Node positions and array sizes of the whole network.

    ``users_per_bs[q]`` users are served by base station ``q``; users are
    indexed globally in base-station order.
    """

    bs_positions: np.ndarray  # (Q, 3) meters
    ue_positions: np.ndarray  # (U, 3) meters
    ris_positions: np.ndarray  # (Q, 3) meters
    num_antennas: int
    num_elements: int
    users_per_bs: tuple

    def __post_init__(self):
        object.__setattr__(self, "bs_positions", np.atleast_2d(np.asarray(self.bs_positions, float)))
        object.__setattr__(self, "ue_positions", np.atleast_2d(np.asarray(self.ue_positions, float)))
        object.__setattr__(self, "ris_positions", np.atleast_2d(np.asarray(self.ris_positions, float)))
        q = self.bs_positions.shape[0]
        if q < 1 or self.num_antennas < 1 or self.num_elements < 1:
            raise ValueError("need at least one BS, one antenna and one element")
        if self.ris_positions.shape[0] != q:
            raise ValueError("one RIS per BS is required")
        if len(self.users_per_bs) != q or any(l < 1 for l in self.users_per_bs):
            raise ValueError("users_per_bs must list >= 1 users for each BS")
        if self.ue_positions.shape[0] != sum(self.users_per_bs):
            raise ValueError("ue_positions must match the total user count")
        nodes = np.vstack([self.bs_positions, self.ue_positions, self.ris_positions])
        diff = nodes[:, None, :] - nodes[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        if np.any(dist <= 0):
            raise ValueError("two nodes share the same position")

    @property
    def num_bs(self):
        return self.bs_positions.shape[0]

    @property
    def num_users(self):
        return self.ue_positions.shape[0]

    @property
    def bs_of_user(self):
        return np.repeat(np.arange(self.num_bs), self.users_per_bs)

    def users_of_bs(self, q):
        offsets = np.concatenate([[0], np.cumsum(self.users_per_bs)])
        return np.arange(offsets[q], offsets[q + 1])


def pathloss(distance, exponent, wavelength):
    """Distance-dependent power gain (lambda / 4 pi)^2 * (d / 1 m)^(-exponent)."""
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("distance must be > 0")
    return (wavelength / (4.0 * np.pi)) ** 2 * distance ** (-exponent)


def generate_link_taps(rng, rows, cols, num_taps, total_gain, decay=DEFAULT_TAP_DECAY):
    """Draw one link's delay taps, shape (rows, cols, num_taps).

    Taps are i.i.d. circularly-symmetric complex Gaussian across the spatial
    dimensions with an exponential power-delay profile exp(-tau/decay),
    normalized so the expected total tap power per spatial entry equals
    ``total_gain``.
    """
    if num_taps < 1:
        raise ValueError("need at least one tap")
    profile = np.exp(-np.arange(num_taps) / decay)
    profile *= total_gain / profile.sum()
    scale = np.sqrt(profile / 2.0)
    shape = (rows, cols, num_taps)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def taps_to_frequency(taps, num_subcarriers):
    """K-point DFT along the trailing delay axis; subcarrier axis moved first.

    Input shape (..., T) with T <= K gives output shape (K, ...).
    """
    taps = np.asarray(taps)
    if taps.shape[-1] > num_subcarriers:
        raise ValueError("more taps than subcarriers")
    freq = np.fft.fft(taps, n=num_subcarriers, axis=-1)
    return np.moveaxis(freq, -1, 0)


def composite_channel(h, g, perm, phase_matrix, bs_ris):
    """Effective downlink channel f with f^H = h^H + g^H S Phi H.

    ``perm`` is the switch permutation index vector, so g^H S is ``conj(g)[perm]``.
    Reference single-link implementation used by tests and inspection; the
    solver evaluates all links at once via :func:`bdris.rates.effective_rows`.
    """
    reflected = np.conj(g)[np.asarray(perm)] @ phase_matrix @ bs_ris
    return h + np.conj(reflected)


@dataclass
class NetworkChannels:
    """Frequency-domain channels of all links plus the grid they live on.

    Attributes
    ----------
    direct : (Q, U, K, N) complex
        ``direct[j, u, k]`` is the BS j -> user u channel at subcarrier k.
    bs_ris : (Q, K, M, N) complex
        ``bs_ris[q, k]`` is the BS q -> surface q matrix at subcarrier k.
    ris_ue : (Q, U, K, M) complex
        ``ris_ue[j, u, k]`` is the surface j -> user u channel at subcarrier k.
    bs_of_user : (U,) int
        Serving base station of each user.
    grid : SubcarrierGrid
    circuit : ElementCircuit
        Element circuit of the surfaces these channels were generated for.
    """

    direct: np.ndarray
    bs_ris: np.ndarray
    ris_ue: np.ndarray
    bs_of_user: np.ndarray
    grid: SubcarrierGrid
    circuit: ElementCircuit = field(default_factory=ElementCircuit)

    def __post_init__(self):
        q, u, k, n = self.direct.shape
        if self.bs_ris.shape[0] != q or self.bs_ris.shape[1] != k or self.bs_ris.shape[3] != n:
            raise ValueError("bs_ris shape inconsistent with direct channels")
        m = self.bs_ris.shape[2]
        if self.ris_ue.shape != (q, u, k, m):
            raise ValueError("ris_ue shape inconsistent with the other links")
        if len(self.bs_of_user) != u:
            raise ValueError("bs_of_user must cover every user")
        if k != self.grid.num_subcarriers:
            raise ValueError("subcarrier count does not match the grid")

    @property
    def num_bs(self):
        return self.direct.shape[0]

    @property
    def num_users(self):
        return self.direct.shape[1]

    @property
    def num_subcarriers(self):
        return self.direct.shape[2]

    @property
    def num_antennas(self):
        return self.direct.shape[3]

    @property
    def num_elements(self):
        return self.bs_ris.shape[2]

    def users_of_bs(self, q):
        return np.flatnonzero(self.bs_of_user == q)


def _link_rng(root_seed, kind, a, b):
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=(kind, a, b)))


def generate_channels(topology, grid, exponents, root_seed, num_taps=16,
                      circuit=None, tap_decay=DEFAULT_TAP_DECAY):
    """Draw one network realization.

    Parameters
    ----------
    topology : NetworkTopology
    grid : SubcarrierGrid
    exponents : (alpha_bs_ue, alpha_bs_ris, alpha_ris_ue)
        Pathloss exponents of the three link families.
    root_seed : int
        Root of the per-link substream tree; fully determines the output.
    num_taps : int
        Delay taps per link.
    circuit : ElementCircuit, optional
    """
    circuit = circuit or ElementCircuit()
    wavelength = speed_of_light / grid.carrier_frequency
    a_bu, a_br, a_ru = exponents
    q_n, u_n = topology.num_bs, topology.num_users
    k_n, n_n, m_n = grid.num_subcarriers, topology.num_antennas, topology.num_elements

    direct = np.zeros((q_n, u_n, k_n, n_n), dtype=complex)
    bs_ris = np.zeros((q_n, k_n, m_n, n_n), dtype=complex)
    ris_ue = np.zeros((q_n, u_n, k_n, m_n), dtype=complex)

    for j in range(q_n):
        for u in range(u_n):
            d = np.linalg.norm(topology.bs_positions[j] - topology.ue_positions[u])
            gain = pathloss(d, a_bu, wavelength)
            taps = generate_link_taps(_link_rng(root_seed, _KIND_DIRECT, j, u),
                                      1, n_n, num_taps, gain, tap_decay)
            direct[j, u] = taps_to_frequency(taps, k_n)[:, 0, :]

        d = np.linalg.norm(topology.bs_positions[j] - topology.ris_positions[j])
        gain = pathloss(d, a_br, wavelength)
        taps = generate_link_taps(_link_rng(root_seed, _KIND_BS_RIS, j, j),
                                  m_n, n_n, num_taps, gain, tap_decay)
        bs_ris[j] = taps_to_frequency(taps, k_n)

        for u in range(u_n):
            d = np.linalg.norm(topology.ris_positions[j] - topology.ue_positions[u])
            gain = pathloss(d, a_ru, wavelength)
            taps = generate_link_taps(_link_rng(root_seed, _KIND_RIS_UE, j, u),
                                      1, m_n, num_taps, gain, tap_decay)
            ris_ue[j, u] = taps_to_frequency(taps, k_n)[:, 0, :]

    return NetworkChannels(direct, bs_ris, ris_ue, topology.bs_of_user, grid, circuit)


# ---------------------------------------------------------------------------
# channel dump / load
#
# CSV layout, one row per (link, endpoints, subcarrier):
#   link, j, u, k, re0, im0, re1, im1, ...
# where "link" is one of direct / bs_ris / ris_ue, j indexes the BS or
# surface, u the user (repeated j for bs_ris rows), and the value columns
# hold the row-major real/imag pairs of the N-, MxN- or M-sized entry.
# A leading header row stores the dimensions and grid parameters.
# ---------------------------------------------------------------------------

def save_channels(channels, path):
    """Write a realization to CSV so it can be replayed elsewhere."""
    c = channels.circuit
    g = channels.grid
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["dims", channels.num_bs, channels.num_users,
                     channels.num_subcarriers, channels.num_antennas,
                     channels.num_elements])
        wr.writerow(["grid", repr(g.carrier_frequency), repr(g.bandwidth), g.num_subcarriers])
        wr.writerow(["circuit", repr(c.resistance), repr(c.inductance_l1),
                     repr(c.inductance_l2), repr(c.z0), repr(c.c_min), repr(c.c_max)])
        wr.writerow(["users"] + [int(b) for b in channels.bs_of_user])
        for j in range(channels.num_bs):
            for u in range(channels.num_users):
                for k in range(channels.num_subcarriers):
                    wr.writerow(["direct", j, u, k] + _flat(channels.direct[j, u, k]))
        for j in range(channels.num_bs):
            for k in range(channels.num_subcarriers):
                wr.writerow(["bs_ris", j, j, k] + _flat(channels.bs_ris[j, k]))
        for j in range(channels.num_bs):
            for u in range(channels.num_users):
                for k in range(channels.num_subcarriers):
                    wr.writerow(["ris_ue", j, u, k] + _flat(channels.ris_ue[j, u, k]))


def _flat(arr):
    flat = np.asarray(arr).ravel()
    out = []
    for v in flat:
        out.append(repr(float(v.real)))
        out.append(repr(float(v.imag)))
    return out


def _unflat(cells, shape):
    vals = np.array([float(x) for x in cells])
    return (vals[0::2] + 1j * vals[1::2]).reshape(shape)


def load_channels(path):
    """Read a realization written by :func:`save_channels`."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        tag, *dims = next(rd)
        if tag != "dims":
            raise ValueError("not a channel dump file")
        q, u, k, n, m = (int(x) for x in dims)
        tag, fc, bw, ksc = next(rd)
        grid = SubcarrierGrid(float(fc), float(bw), int(ksc))
        tag, r, l1, l2, z0, cmin, cmax = next(rd)
        circuit = ElementCircuit(float(r), float(l1), float(l2),
                                 float(z0), float(cmin), float(cmax))
        tag, *bs_of = next(rd)
        bs_of_user = np.array([int(x) for x in bs_of])
        direct = np.zeros((q, u, k, n), dtype=complex)
        bs_ris = np.zeros((q, k, m, n), dtype=complex)
        ris_ue = np.zeros((q, u, k, m), dtype=complex)
        for row in rd:
            link, j, uu, kk = row[0], int(row[1]), int(row[2]), int(row[3])
            cells = row[4:]
            if link == "direct":
                direct[j, uu, kk] = _unflat(cells, (n,))
            elif link == "bs_ris":
                bs_ris[j, kk] = _unflat(cells, (m, n))
            elif link == "ris_ue":
                ris_ue[j, uu, kk] = _unflat(cells, (m,))
            else:
                raise ValueError(f"unknown link kind {link!r}")
    return NetworkChannels(direct, bs_ris, ris_ue, bs_of_user, grid, circuit)
