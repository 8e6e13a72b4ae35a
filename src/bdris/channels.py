"""Wideband channel generation, the channel container and its CSV dump.

Channels are drawn as independent circularly-symmetric complex Gaussian
delay taps with an exponentially decaying power-delay profile, scaled by a
distance-dependent pathloss, then transformed to per-subcarrier frequency
responses with a K-point DFT along delay.  Three link families exist:

* direct: base station -> user, an N-vector per subcarrier,
* bs_ris: base station -> its own surface, an MxN matrix per subcarrier,
* ris_ue: surface -> user, an M-vector per subcarrier.

Every link draws from its own random substream derived from the root seed
and a (kind, endpoint, endpoint) key, so adding users or surfaces never
perturbs previously generated links, and the links do not depend on the
order they are drawn in.  :func:`generate_channels` draws the direct links
at once and leaves the two surface families to its :class:`LinkDraw`,
which draws both on the first read of either (see :class:`NetworkChannels`):
a run without surfaces never builds them, and at the default scale they
hold 98% of a realization's bytes.  Each family takes one batched DFT.
The composite channel of every link, direct plus routed reflected path, is
assembled by :func:`bdris.rates.snapshot` (its ``rows``).  Wavelengths use
the exact SI :data:`SPEED_OF_LIGHT`, so this module needs numpy only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .circuit import ElementCircuit, SubcarrierGrid, rational_coefficients

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by SI definition
_LINKS = ("direct", "bs_ris", "ris_ue")  # link families, in dump order
_SURFACE_LINKS = _LINKS[1:]  # drawn together, on first read

# substream kinds for per-link seeding, in the order of the pathloss exponents
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
        for name in ("bs_positions", "ue_positions", "ris_positions"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), float)))
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


def pathloss(distance, exponent, wavelength):
    """Distance-dependent power gain (lambda / 4 pi)^2 * (d / 1 m)^(-exponent)."""
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("distance must be > 0")
    return (wavelength / (4.0 * np.pi)) ** 2 * distance ** (-exponent)


def generate_link_taps(rng, rows, cols, num_taps, total_gain):
    """Draw one link's delay taps, shape (rows, cols, num_taps).

    Taps are i.i.d. circularly-symmetric complex Gaussian across the spatial
    dimensions with an exponential power-delay profile
    ``exp(-tau / DEFAULT_TAP_DECAY)``, normalized so the expected total tap
    power per spatial entry equals ``total_gain``.
    """
    if num_taps < 1:
        raise ValueError("need at least one tap")
    profile = np.exp(-np.arange(num_taps) / DEFAULT_TAP_DECAY)
    profile *= total_gain / profile.sum()
    scale = np.sqrt(profile / 2.0)
    shape = (rows, cols, num_taps)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def taps_to_frequency(taps, num_subcarriers, axis=0):
    """K-point DFT along the trailing delay axis; subcarrier axis moved to ``axis``.

    Input shape (..., T) with T <= K gives a C-contiguous output with the K
    subcarriers at ``axis``: (K, ...) by default.  Each length-T row is
    transformed on its own, so a stack of links gives the bits of one DFT
    per link.
    """
    taps = np.asarray(taps)
    if taps.shape[-1] > num_subcarriers:
        raise ValueError("more taps than subcarriers")
    freq = np.fft.fft(taps, n=num_subcarriers, axis=-1)
    return np.ascontiguousarray(np.moveaxis(freq, -1, axis))


def _link_rng(root_seed, kind, a, b):
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=(kind, a, b)))


@dataclass(frozen=True)
class LinkDraw:
    """Everything that fixes one realization's links, as plain data.

    It holds no arrays of links and no closure, so a :class:`NetworkChannels`
    waiting on it pickles, and the links it draws depend on its fields alone.
    Each family is drawn link by link from the per-link substreams and
    taken to the frequency domain with one batched DFT.
    """

    topology: NetworkTopology
    grid: SubcarrierGrid
    exponents: tuple  # (alpha_bs_ue, alpha_bs_ris, alpha_ris_ue)
    root_seed: int
    num_taps: int

    def direct(self):
        """(Q, U, K, N) BS -> user links."""
        t = self.topology
        freq = self._family(_KIND_DIRECT, t.bs_positions, t.ue_positions,
                            np.ndindex(t.num_bs, t.num_users), (1, t.num_antennas))
        return freq.reshape(t.num_bs, t.num_users, -1, t.num_antennas)

    def surfaces(self):
        """``(bs_ris, ris_ue)``: (Q, K, M, N) BS -> own surface, (Q, U, K, M) surface -> user."""
        t = self.topology
        bs_ris = self._family(_KIND_BS_RIS, t.bs_positions, t.ris_positions,
                              [(j, j) for j in range(t.num_bs)],
                              (t.num_elements, t.num_antennas))
        ris_ue = self._family(_KIND_RIS_UE, t.ris_positions, t.ue_positions,
                              np.ndindex(t.num_bs, t.num_users), (1, t.num_elements))
        return bs_ris, ris_ue.reshape(t.num_bs, t.num_users, -1, t.num_elements)

    def _family(self, kind, tx, rx, pairs, shape):
        """(L, K, *shape) responses of the links ``tx[a] -> rx[b]`` of ``pairs``.

        Link (a, b) draws its taps from substream ``(kind, a, b)``; ``kind``
        also indexes the family's pathloss exponent.
        """
        wavelength = SPEED_OF_LIGHT / self.grid.carrier_frequency
        pairs = list(pairs)
        taps = np.empty((len(pairs), *shape, self.num_taps), complex)
        for out, (a, b) in zip(taps, pairs):
            gain = pathloss(np.linalg.norm(tx[a] - rx[b]), self.exponents[kind], wavelength)
            out[...] = generate_link_taps(_link_rng(self.root_seed, kind, a, b), *shape,
                                          self.num_taps, gain)
        return taps_to_frequency(taps, self.grid.num_subcarriers, axis=1)


@dataclass
class NetworkChannels:
    """Frequency-domain channels of all links plus the grid they live on.

    Built from arrays, every link is there from the start.
    :func:`generate_channels` passes one :class:`LinkDraw` as both ``bs_ris``
    and ``ris_ue``: the first read of either draws both, and later reads are
    plain attribute reads of the same arrays.  ``num_elements`` and the
    cached properties need no draw, and a ``dataclasses.replace`` copy reads
    (so draws) the original's surface links and shares them.

    Attributes
    ----------
    direct : (Q, U, K, N) complex
        ``direct[j, u, k]`` is the BS j -> user u channel at subcarrier k.
    bs_ris : (Q, K, M, N) complex
        ``bs_ris[q, k]`` is the BS q -> surface q matrix at subcarrier k.
        Drawn on the first read of ``bs_ris`` or ``ris_ue`` if generated.
    ris_ue : (Q, U, K, M) complex
        ``ris_ue[j, u, k]`` is the surface j -> user u channel at subcarrier k.
        Drawn together with ``bs_ris``.
    bs_of_user : (U,) int
        Serving base station of each user.
    grid : SubcarrierGrid
    circuit : ElementCircuit
        Element circuit of the surfaces these channels were generated for.
    coefficients : (A, B, D), each (K, 1) complex
        The circuit's :func:`~bdris.circuit.rational_coefficients` of the
        subcarriers, computed once per instance on first use.
    same_cell : (U, U) bool
        ``same_cell[t, v]`` is true when users t and v share a serving BS,
        computed once per instance on first use.
    """

    direct: np.ndarray
    bs_ris: np.ndarray
    ris_ue: np.ndarray
    bs_of_user: np.ndarray
    grid: SubcarrierGrid
    circuit: ElementCircuit = field(default_factory=ElementCircuit)

    def __post_init__(self):
        q, u, k, n = self.direct.shape
        self._draw = draw = self.bs_ris if isinstance(self.bs_ris, LinkDraw) else None
        if draw is not None:
            t = draw.topology
            if self.ris_ue is not draw or (t.num_bs, t.num_users, draw.grid.num_subcarriers,
                                           t.num_antennas) != (q, u, k, n):
                raise ValueError("surface links must come from the direct links' draw")
            del self.bs_ris, self.ris_ue  # drawn by __getattr__ on first read
        else:
            m = self.bs_ris.shape[2]
            if self.bs_ris.shape != (q, k, m, n):
                raise ValueError("bs_ris shape inconsistent with direct channels")
            if self.ris_ue.shape != (q, u, k, m):
                raise ValueError("ris_ue shape inconsistent with the other links")
        if len(self.bs_of_user) != u:
            raise ValueError("bs_of_user must cover every user")
        bs = np.asarray(self.bs_of_user)
        if np.any(bs < 0) or np.any(bs >= q):
            raise ValueError("bs_of_user entries must lie in [0, Q)")
        if np.any(np.bincount(bs, minlength=q) == 0):
            raise ValueError("every BS must serve at least one user")
        if k != self.grid.num_subcarriers:
            raise ValueError("subcarrier count does not match the grid")

    def __getattr__(self, name):
        # reached only for attributes that are not set: surface links not yet drawn
        draw = vars(self).get("_draw")
        if draw is None or name not in _SURFACE_LINKS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        for link, arr in zip(_SURFACE_LINKS, draw.surfaces()):
            vars(self).setdefault(link, arr)
        return vars(self)[name]

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
        return self.bs_ris.shape[2] if self._draw is None else self._draw.topology.num_elements

    def users_of_bs(self, q):
        return np.flatnonzero(self.bs_of_user == q)

    @cached_property
    def coefficients(self):
        return rational_coefficients(self.grid.frequencies[:, None], self.circuit)

    @cached_property
    def same_cell(self):
        return self.bs_of_user[:, None] == self.bs_of_user


def generate_channels(topology, grid, exponents, root_seed, num_taps, circuit):
    """One network realization: direct links now, surface links on first read.

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
    circuit : ElementCircuit
    """
    draw = LinkDraw(topology, grid, tuple(exponents), root_seed, num_taps)
    return NetworkChannels(draw.direct(), draw, draw, topology.bs_of_user, grid, circuit)


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
        for link in _LINKS:
            arr = _per_user(link, getattr(channels, link))
            for j, u, k in np.ndindex(arr.shape[:3]):
                wr.writerow([link, j, j if link == "bs_ris" else u, k] + _flat(arr[j, u, k]))


def _per_user(link, arr):
    """``arr`` with a user axis second; bs_ris gets a length-1 one."""
    return arr[:, None] if link == "bs_ris" else arr


def _flat(arr):
    return [repr(float(x)) for v in np.asarray(arr).ravel() for x in (v.real, v.imag)]


def _unflat(cells, shape):
    vals = np.array([float(x) for x in cells])
    return (vals[0::2] + 1j * vals[1::2]).reshape(shape)


def _header(rd, tag, width=None):
    """Cells of the next row, which must carry ``tag`` (and ``width`` cells)."""
    row = next(rd, None)
    if not row or row[0] != tag or (width is not None and len(row) != width + 1):
        raise ValueError(f"not a channel dump file: expected a {tag!r} row")
    return row[1:]


def load_channels(path):
    """Read a realization written by :func:`save_channels`.

    Raises ``ValueError`` unless the file holds every header row and exactly
    one row of finite values per (link, j, u, k) entry.
    """
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        q, u, k, n, m = (int(x) for x in _header(rd, "dims", 5))
        fc, bw, ksc = _header(rd, "grid", 3)
        grid = SubcarrierGrid(float(fc), float(bw), int(ksc))
        circuit = ElementCircuit(*(float(x) for x in _header(rd, "circuit", 6)))
        bs_of_user = np.array([int(x) for x in _header(rd, "users")])
        arrays = {"direct": np.zeros((q, u, k, n), dtype=complex),
                  "bs_ris": np.zeros((q, k, m, n), dtype=complex),
                  "ris_ue": np.zeros((q, u, k, m), dtype=complex)}
        seen = {link: np.zeros(_per_user(link, arr).shape[:3], bool)
                for link, arr in arrays.items()}
        for link, j, uu, kk, *cells in rd:
            if link not in arrays:
                raise ValueError(f"unknown link kind {link!r}")
            target = _per_user(link, arrays[link])
            index = (int(j), 0 if link == "bs_ris" else int(uu), int(kk))
            if not all(0 <= i < d for i, d in zip(index, target.shape)):
                raise ValueError(f"{link} row {j},{uu},{kk} lies outside the dimensions")
            if seen[link][index]:
                raise ValueError(f"repeated {link} row {j},{uu},{kk}")
            seen[link][index] = True
            target[index] = _unflat(cells, target.shape[3:])
            if not np.all(np.isfinite(target[index])):
                raise ValueError(f"{link} row {j},{uu},{kk} holds a non-finite value")
    for link, rows in seen.items():
        if not rows.all():
            raise ValueError(f"{np.count_nonzero(~rows)} {link} rows are missing")
    return NetworkChannels(**arrays, bs_of_user=bs_of_user, grid=grid, circuit=circuit)
