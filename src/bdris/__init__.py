"""Multi-cell wideband downlink with switch-interconnected tunable surfaces.

A numpy library modeling an interference broadcast channel where each
base station owns one reconfigurable surface whose elements can be cross
routed by a switch network, plus a distributed pricing-based optimizer that
jointly tunes precoders, element capacitances and switch permutations to
maximize the network sum rate.  scipy is loaded only by the first switch
assignment that :func:`bdris.switches.certified_selection` cannot certify.
"""

from .channels import (NetworkChannels, NetworkTopology, generate_channels,
                       generate_link_taps, load_channels, pathloss,
                       save_channels, taps_to_frequency)
from .circuit import (ElementCircuit, SubcarrierGrid, characteristic_impedance,
                      rational_coefficients, reflection, reflection_direct)
from .errors import ConfigError, DegenerateInputError, NumericalFailureError
from .rates import Iterate, snapshot, sum_rate
from .scenario import (ScenarioConfig, build_scenario, channels_for_trial,
                       dbm_to_watt, load_config)
from .solver import VARIANTS, SolverConfig, Trace, run
from .montecarlo import run_sweep

__version__ = "0.1.0"
