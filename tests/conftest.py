import dataclasses

import numpy as np
import pytest

from bdris import rates
from bdris.circuit import ElementCircuit, SubcarrierGrid
from bdris.scenario import ScenarioConfig, channels_for_trial, dbm_to_watt
from bdris.selfcheck import complex_normal, random_network as make_network  # noqa: F401
from bdris.solver import initial_iterate


def assert_same_snapshot(got, want):
    """Every field of two rate snapshots equal, bit for bit."""
    for f in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name),
                                      err_msg=f.name, strict=True)


def recorded_bounds(monkeypatch):
    """List that records every surface's bound ``rates.selection_bounds`` returns,
    in call order and BS order within a call."""
    bounds, bound = [], rates.selection_bounds

    def recorded(*args):
        out = bound(*args)
        bounds.extend(out.tolist())
        return out
    monkeypatch.setattr(rates, "selection_bounds", recorded)
    return bounds


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def circuit():
    return ElementCircuit()


@pytest.fixture
def grid():
    return SubcarrierGrid(3.5e9, 0.1e9, 8)


@pytest.fixture
def small_network(rng):
    return make_network(rng)


@pytest.fixture
def multiuser_network(rng):
    return make_network(rng, users_per_bs=(2, 1))


@pytest.fixture(scope="session")
def default_scale_network():
    """Scenario defaults (M=100, K=64, trial 0) at 30 dBm, read-only.

    Precoders are the solver's initial point; capacitances are spread over
    the tunable range and every surface has a random non-identity permutation.
    """
    config = ScenarioConfig()
    channels = channels_for_trial(config, 0)
    iterate = initial_iterate(channels, dbm_to_watt(30.0))
    rng = np.random.default_rng(11)
    q_n, m_n = iterate.selections.shape
    iterate.selections = np.stack([rng.permutation(m_n) for _ in range(q_n)])
    assert not np.any(np.all(iterate.selections == np.arange(m_n), axis=1))
    iterate.capacitances = rng.uniform(config.circuit.c_min, config.circuit.c_max,
                                       (q_n, m_n))
    return channels, iterate, config.noise_power
