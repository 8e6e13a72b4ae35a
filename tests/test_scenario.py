"""INI config files: every key of every section, and the special cases."""

import dataclasses
import re
from pathlib import Path

import pytest

from bdris.circuit import ElementCircuit
from bdris.errors import ConfigError
from bdris.scenario import ScenarioConfig, load_config
from bdris.solver import SolverConfig

FULL_INI = """\
[network]
Q = 2
N = 3
M = 16
L_q = 2, 1
[geometry]
bs_square_width = 50
bs_height = 6
ue_square_origin = 20, 40
ue_square_width = 3.5
ue_height = 1.2
ris_height = 2.5
ris_positions = -1,2;3,4.5
[ofdm]
f_c = 2.4e9
BW = 2e7
K = 32
delay_taps = 8
[pathloss]
bs_ue = 3.5
bs_ris = 2.0
ris_ue = 2.8
[power]
noise_dbm = -95
power_dbm = 5, 12.5
[circuit]
resistance = 2.0
L1 = 3e-9
L2 = 0.8e-9
Z0 = 376
c_min = 0.5e-12
c_max = 2.0e-12
[solver]
tau = 0.5
alpha0 = 0.2
epsilon = 0.05
max_iters = 50
tol = 1e-5
[simulation]
trials = 7
seed = 42
variants = bd, none-pi0
"""

EXPECTED = ScenarioConfig(
    num_bs=2, num_antennas=3, num_elements=16, users_per_bs=(2, 1),
    bs_square_width=50.0, bs_height=6.0, ue_square_origin=(20.0, 40.0),
    ue_square_width=3.5, ue_height=1.2, ris_height=2.5,
    ris_xy=((-1.0, 2.0), (3.0, 4.5)),
    carrier_frequency=2.4e9, bandwidth=2e7, num_subcarriers=32, num_taps=8,
    alpha_bs_ue=3.5, alpha_bs_ris=2.0, alpha_ris_ue=2.8,
    noise_dbm=-95.0, power_dbm=(5.0, 12.5),
    trials=7, seed=42, variants=("bd", "none-pi0"),
    circuit=ElementCircuit(2.0, 3e-9, 0.8e-9, 376.0, 0.5e-12, 2.0e-12),
    solver=SolverConfig(tau=0.5, alpha0=0.2, epsilon=0.05, max_iters=50,
                        tol=1e-5))

# solver fields that the variant names set, not the INI file
NOT_IN_INI = {"ris_mode", "cooperative"}
SOLVER_KEYS = {"tau", "alpha0", "epsilon", "max_iters", "tol"}


def load(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return load_config(path)


def test_every_key_of_every_section(tmp_path):
    # field by field, nested configs first; every INI value is a non-default
    cfg, default = load(tmp_path, FULL_INI), ScenarioConfig()
    for got, want, base in ((cfg.circuit, EXPECTED.circuit, default.circuit),
                            (cfg.solver, EXPECTED.solver, default.solver),
                            (cfg, EXPECTED, default)):
        for f in dataclasses.fields(want):
            g, w = getattr(got, f.name), getattr(want, f.name)
            assert type(g) is type(w) and g == w, f.name
            set_by_ini = base is not default.solver or f.name in SOLVER_KEYS
            assert w != getattr(base, f.name) or not set_by_ini, f.name


def test_every_solver_setting_is_an_ini_key_or_a_variant():
    assert {f.name for f in dataclasses.fields(SolverConfig)} == SOLVER_KEYS | NOT_IN_INI


def test_missing_sections_keep_defaults(tmp_path):
    assert load(tmp_path, "[network]\n") == ScenarioConfig()


def test_committed_two_user_scenario():
    # the multi-user scenario that CI runs end to end
    cfg = load_config(Path(__file__).parent / "data" / "two_users_per_bs.ini")
    default = ScenarioConfig()
    assert cfg == dataclasses.replace(
        default, users_per_bs=(2,) * default.num_bs, num_elements=16, num_subcarriers=16,
        num_taps=8, power_dbm=(20.0, 35.0), trials=3, variants=("none", "diag", "none-pi0"),
        solver=dataclasses.replace(default.solver, max_iters=300))


@pytest.mark.parametrize("text, users", [
    ("Q = 3", (1, 1, 1)),            # the default follows Q
    ("Q = 3\nL_q = 2", (2, 2, 2)),   # a single count applies to every BS
])
def test_users_per_bs(tmp_path, text, users):
    assert load(tmp_path, f"[network]\n{text}\n").users_per_bs == users


def test_empty_list_keys_keep_defaults(tmp_path):
    assert load(tmp_path, "[geometry]\nris_positions =\nue_square_origin =\n"
                          "[power]\npower_dbm =\n[simulation]\nvariants =\n") == ScenarioConfig()


@pytest.mark.parametrize("text", [
    "[network]\nM = many\n",
    "[ofdm]\nf_c = 3.5 GHz\n",
    "[geometry]\nris_positions = 1,2,3\n",
    "[power]\npower_dbm = 10, high\n",
    "[solver]\nmax_iters = 2.5\n",
    "[solver]\ntau = 0.5\n[solver]\ntol = 1e-5\n",  # a section twice
    "tau = 0.5\n",                                    # no section header
])
def test_malformed_value_raises_config_error(tmp_path, text):
    with pytest.raises(ConfigError):
        load(tmp_path, text)


@pytest.mark.parametrize("origin", ["5", "1, 2, 3", "1, inf"])
def test_ue_square_origin_must_be_two_finite_numbers(tmp_path, origin):
    with pytest.raises(ConfigError, match="ue_square_origin"):
        load(tmp_path, f"[geometry]\nue_square_origin = {origin}\n")
    with pytest.raises(ConfigError):
        ScenarioConfig(ue_square_origin=(1.0, 2.0, 3.0))


@pytest.mark.parametrize("kwargs, named", [
    ({"noise_dbm": float("inf")}, "noise_dbm"),
    ({"power_dbm": (float("nan"),)}, "power_dbm"),
    ({"bs_height": float("nan")}, "bs_height"),
    ({"bandwidth": float("inf")}, "BW"),
    ({"ris_xy": ((0.0, 0.0), (1.0, float("-inf")), (2.0, 2.0), (3.0, 3.0))},
     "ris_positions"),
    ({"num_subcarriers": 0}, "ofdm.K"),
    ({"num_taps": 0}, "delay_taps"),
    ({"num_subcarriers": 8}, "delay_taps"),  # default 16 taps > 8 subcarriers
    ({"carrier_frequency": -1.0}, "f_c"),
    ({"users_per_bs": (0, 1, 1, 1)}, "L_q"),
    ({"seed": -1}, "seed"),
    ({"variants": ("bd", "none", "bd")}, "variants"),
    ({"power_dbm": (20.0, 30.0, 20.0)}, "power_dbm"),
    ({"num_elements": 3.5}, "network.M"),
    ({"trials": 2.5}, "simulation.trials"),
    ({"users_per_bs": (1.7, 1, 1, 1)}, "network.L_q"),
    ({"power_dbm": ()}, "power.power_dbm"),
    ({"variants": ()}, "simulation.variants"),
])
def test_python_built_config_rejects_unusable_values(kwargs, named):
    with pytest.raises(ConfigError, match=named):
        ScenarioConfig(**kwargs)


@pytest.mark.parametrize("ris_xy", [
    ((0.0, 0.0), (1.0,), (2.0, 2.0), (3.0, 3.0)),        # ragged
    ((0.0, 0.0),),                                       # one pair for four BSs
    ((0.0, 0.0, 0.0),) * 4,                              # x, y, z triples
    ((0.0, 0.0), (1.0, 1.0), (2.0, (2.0,)), (3.0, 3.0)),  # ragged inside a pair
    (1.0, 2.0, 3.0, 4.0),                                # numbers, not pairs
    pytest.param(None, id="none-for-five-bs"),           # the defaults place four
])
def test_ris_positions_need_one_pair_per_bs_at_construction(ris_xy):
    num_bs = 4 if ris_xy is not None else 5
    with pytest.raises(ConfigError, match="ris_positions"):
        ScenarioConfig(num_bs=num_bs, users_per_bs=1, ris_xy=ris_xy)


@pytest.mark.parametrize("text, entry", [
    ("[solver]\nmx_iters = 5\n", "[solver] mx_iters"),           # misspelled key
    ("[netwrk]\nQ = 2\n", "[netwrk]"),                           # misspelled section
    ("[solver]\nswitch_hold_iters = 3\n", "[solver] switch_hold_iters"),  # removed key
])
def test_unknown_entry_raises_config_error(tmp_path, text, entry):
    with pytest.raises(ConfigError, match=re.escape(entry)):
        load(tmp_path, text)


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")
