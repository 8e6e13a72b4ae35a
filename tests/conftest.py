import numpy as np
import pytest

from bdris.channels import NetworkChannels
from bdris.circuit import ElementCircuit, SubcarrierGrid
from bdris.rates import Iterate


def complex_normal(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def make_network(rng, num_bs=2, num_antennas=2, num_elements=4, num_subcarriers=4,
                 users_per_bs=(1, 1), noise_power=1e-2, precoder_scale=0.4,
                 circuit=None):
    """Synthetic random channels plus a feasible iterate at O(1) scale."""
    circuit = circuit or ElementCircuit()
    grid = SubcarrierGrid(3.5e9, 0.1e9, num_subcarriers)
    u_n = sum(users_per_bs)
    channels = NetworkChannels(
        complex_normal(rng, num_bs, u_n, num_subcarriers, num_antennas),
        complex_normal(rng, num_bs, num_subcarriers, num_elements, num_antennas),
        complex_normal(rng, num_bs, u_n, num_subcarriers, num_elements),
        np.repeat(np.arange(num_bs), users_per_bs), grid, circuit)
    w = complex_normal(rng, u_n, num_subcarriers, num_antennas) * precoder_scale
    caps = rng.uniform(circuit.c_min, circuit.c_max, (num_bs, num_elements))
    sels = np.stack([rng.permutation(num_elements) for _ in range(num_bs)])
    return channels, Iterate(w, caps, sels), noise_power


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
