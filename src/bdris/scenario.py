"""Scenario configuration, default geometry and config-file handling.

The default scenario places four base stations at the corners of a 60 m
square (the first at the origin), one surface near each of the first two
stations plus two more at the documented fixed spots, and the users at the
corners of a small 2.5 m square whose origin corner sits at (30, 60).  All
values are plain config fields and can be overridden from an INI-style
``key = value`` file.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import NetworkTopology, generate_channels
from .circuit import ElementCircuit, SubcarrierGrid
from .errors import ConfigError
from .solver import VARIANTS, SolverConfig

DEFAULT_RIS_XY = ((-2.5, 8.5), (62.5, 8.5), (-2.5, 111.5), (62.5, 111.5))
DEFAULT_POWER_DBM = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0)


def dbm_to_watt(p_dbm):
    return 10.0 ** ((np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)


@dataclass
class ScenarioConfig:
    """Complete description of one simulated deployment.

    Construction raises :class:`ConfigError`, naming the INI key, for a value
    no run could use: a non-finite number, a repeated variant or power, a
    BS without users, or a grid or tap count channel generation would reject.
    """

    num_bs: int = 4
    num_antennas: int = 4
    num_elements: int = 100
    users_per_bs: tuple = (1, 1, 1, 1)

    bs_square_width: float = 60.0
    bs_height: float = 5.0
    ue_square_origin: tuple = (30.0, 60.0)
    ue_square_width: float = 2.5
    ue_height: float = 1.5
    ris_height: float = 3.0
    ris_xy: tuple | None = None  # defaults to DEFAULT_RIS_XY prefix

    carrier_frequency: float = 3.5e9
    bandwidth: float = 0.1e9
    num_subcarriers: int = 64
    num_taps: int = 16

    alpha_bs_ue: float = 3.7
    alpha_bs_ris: float = 2.2
    alpha_ris_ue: float = 2.6

    noise_dbm: float = -90.0
    power_dbm: tuple = DEFAULT_POWER_DBM

    trials: int = 100
    seed: int = 1
    variants: tuple = tuple(VARIANTS)

    circuit: ElementCircuit = field(default_factory=ElementCircuit)
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if isinstance(self.users_per_bs, int):
            self.users_per_bs = (self.users_per_bs,) * self.num_bs
        self.users_per_bs = tuple(int(l) for l in self.users_per_bs)
        if len(self.users_per_bs) != self.num_bs:
            raise ConfigError("network.L_q must list one entry per BS")
        if any(l < 1 for l in self.users_per_bs):
            raise ConfigError("network.L_q must list >= 1 users for each BS")
        if self.trials < 1:
            raise ConfigError("simulation.trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("simulation.seed must be >= 0")
        if self.num_bs < 1 or self.num_antennas < 1 or self.num_elements < 1:
            raise ConfigError("network sizes must be >= 1")
        for section, key, name, parse in _INI_KEYS:  # nested configs check their own
            if parse in (finite_float, parse_floats, _pairs) and "." not in name:
                value = getattr(self, name)
                if value is not None and not np.all(np.isfinite(np.asarray(value, float))):
                    raise ConfigError(f"{section}.{key} must hold finite numbers")
        try:
            self.grid()
        except ValueError as exc:
            raise ConfigError(f"ofdm.f_c, ofdm.BW, ofdm.K: {exc}") from exc
        if not 1 <= self.num_taps <= self.num_subcarriers:
            raise ConfigError("ofdm.delay_taps must lie between 1 and ofdm.K")
        for key, names in (("power.power_dbm", self.power_dbm),
                           ("simulation.variants", self.variants)):
            if len(set(names)) != len(names):
                raise ConfigError(f"{key} lists an entry twice: {names}")
        origin = np.atleast_1d(np.asarray(self.ue_square_origin, dtype=float))
        if origin.shape != (2,):
            raise ConfigError("geometry.ue_square_origin must be two finite numbers x, y")
        self.ue_square_origin = tuple(origin.tolist())

    @property
    def num_users(self):
        return sum(self.users_per_bs)

    @property
    def noise_power(self):
        return float(dbm_to_watt(self.noise_dbm))

    def grid(self):
        return SubcarrierGrid(self.carrier_frequency, self.bandwidth,
                              self.num_subcarriers)

    def exponents(self):
        return (self.alpha_bs_ue, self.alpha_bs_ris, self.alpha_ris_ue)


def _corner_grid(count, width, origin=(0.0, 0.0)):
    """Corners of a square walked row by row: (0,0), (w,0), (0,w), (w,w), ..."""
    return np.array([(origin[0] + width * (i % 2), origin[1] + width * (i // 2))
                     for i in range(count)])


def build_scenario(config):
    """Node geometry of a configuration, as a :class:`NetworkTopology`."""
    q_n = config.num_bs
    bs_xy = _corner_grid(q_n, config.bs_square_width)
    ue_xy = _corner_grid(config.num_users, config.ue_square_width,
                         config.ue_square_origin)
    if config.ris_xy is not None:
        ris_xy = np.asarray(config.ris_xy, dtype=float)
        if ris_xy.shape != (q_n, 2):
            raise ConfigError("geometry.ris_positions must list one x,y pair per BS")
    elif q_n <= len(DEFAULT_RIS_XY):
        ris_xy = np.asarray(DEFAULT_RIS_XY[:q_n], dtype=float)
    else:
        raise ConfigError("geometry.ris_positions is required for more than "
                          f"{len(DEFAULT_RIS_XY)} base stations")
    stack = lambda xy, z: np.column_stack([xy, np.full(len(xy), z)])
    return NetworkTopology(stack(bs_xy, config.bs_height),
                           stack(ue_xy, config.ue_height),
                           stack(ris_xy, config.ris_height),
                           config.num_antennas, config.num_elements,
                           config.users_per_bs)


def trial_seed(root_seed, trial):
    """Stable per-trial channel seed derived from the root seed."""
    ss = np.random.SeedSequence(root_seed, spawn_key=(int(trial),))
    return int(ss.generate_state(1, np.uint64)[0])


def channels_for_trial(config, trial, topology=None):
    """One channel realization of the configured scenario."""
    topology = topology or build_scenario(config)
    return generate_channels(topology, config.grid(), config.exponents(),
                             trial_seed(config.seed, trial),
                             num_taps=config.num_taps, circuit=config.circuit)


# ---------------------------------------------------------------------------
# INI config files
# ---------------------------------------------------------------------------

def finite_float(text):
    """One finite number; NaN, infinities and non-numbers raise ValueError."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def parse_floats(text):
    """Comma- or semicolon-separated finite numbers; None if there are none."""
    return tuple(finite_float(x) for x in text.replace(";", ",").split(",")
                 if x.strip()) or None


def _pairs(text):
    chunks = [c.split(",") for c in text.split(";") if c.strip()]
    return tuple((finite_float(x), finite_float(y)) for x, y in chunks) or None


def parse_names(text):
    """Comma-separated names; None if there are none."""
    return tuple(v.strip() for v in text.split(",") if v.strip()) or None


def _counts(text):
    """Users per BS; a single count applies to every BS."""
    vals = tuple(int(x) for x in text.split(","))
    return vals[0] if len(vals) == 1 else vals


# (section, INI key, config field, parser); a dotted field names a field of
# the nested circuit or solver config, and a list parser returns None for an
# empty value, which keeps the default
_INI_KEYS = (
    ("network", "Q", "num_bs", int),
    ("network", "N", "num_antennas", int),
    ("network", "M", "num_elements", int),
    ("network", "L_q", "users_per_bs", _counts),
    ("geometry", "bs_square_width", "bs_square_width", finite_float),
    ("geometry", "bs_height", "bs_height", finite_float),
    ("geometry", "ue_square_origin", "ue_square_origin", parse_floats),
    ("geometry", "ue_square_width", "ue_square_width", finite_float),
    ("geometry", "ue_height", "ue_height", finite_float),
    ("geometry", "ris_height", "ris_height", finite_float),
    ("geometry", "ris_positions", "ris_xy", _pairs),
    ("ofdm", "f_c", "carrier_frequency", finite_float),
    ("ofdm", "BW", "bandwidth", finite_float),
    ("ofdm", "K", "num_subcarriers", int),
    ("ofdm", "delay_taps", "num_taps", int),
    ("pathloss", "bs_ue", "alpha_bs_ue", finite_float),
    ("pathloss", "bs_ris", "alpha_bs_ris", finite_float),
    ("pathloss", "ris_ue", "alpha_ris_ue", finite_float),
    ("power", "noise_dbm", "noise_dbm", finite_float),
    ("power", "power_dbm", "power_dbm", parse_floats),
    ("circuit", "resistance", "circuit.resistance", finite_float),
    ("circuit", "L1", "circuit.inductance_l1", finite_float),
    ("circuit", "L2", "circuit.inductance_l2", finite_float),
    ("circuit", "Z0", "circuit.z0", finite_float),
    ("circuit", "c_min", "circuit.c_min", finite_float),
    ("circuit", "c_max", "circuit.c_max", finite_float),
    ("solver", "tau", "solver.tau", finite_float),
    ("solver", "alpha0", "solver.alpha0", finite_float),
    ("solver", "epsilon", "solver.epsilon", finite_float),
    ("solver", "max_iters", "solver.max_iters", int),
    ("solver", "tol", "solver.tol", finite_float),
    ("simulation", "trials", "trials", int),
    ("simulation", "seed", "seed", int),
    ("simulation", "variants", "variants", parse_names),
)


def load_config(path):
    """Read a scenario from an INI file; unset keys keep their defaults.

    Without ``L_q``, a configured ``Q`` gets one user per BS.  A section or
    key outside ``_INI_KEYS`` raises :class:`ConfigError`.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    known = {(section, parser.optionxform(key)) for section, key, _, _ in _INI_KEYS}
    sections = {section for section, _ in known}
    unknown = [f"[{s}]" for s in parser.sections() if s not in sections]
    unknown += [f"[{s}] {k}" for s in parser for k in parser[s]
                if (s in sections or s == parser.default_section) and (s, k) not in known]
    if unknown:
        raise ConfigError(f"unknown config entries in {path}: {', '.join(unknown)}")
    cfg = ScenarioConfig()
    fields = {"": {}, "circuit": {}, "solver": {}}
    for section, key, name, parse in _INI_KEYS:
        text = parser.get(section, key, fallback=None)
        try:
            value = None if text is None else parse(text)
        except ValueError as exc:
            raise ConfigError(f"malformed config {path}: [{section}] {key}: {exc}") from exc
        if value is not None:
            owner, _, attr = name.rpartition(".")
            fields[owner][attr] = value
    top = fields[""]
    if "num_bs" in top:
        top.setdefault("users_per_bs", 1)
    try:
        return replace(cfg, circuit=replace(cfg.circuit, **fields["circuit"]),
                       solver=replace(cfg.solver, **fields["solver"]), **top)
    except ValueError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
