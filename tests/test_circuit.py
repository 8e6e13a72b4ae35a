import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bdris.circuit import (ElementCircuit, SubcarrierGrid, characteristic_impedance,
                           rational_coefficients, reflection, reflection_direct)
from bdris.errors import DegenerateInputError

KAPPA = 2 * np.pi

# frozen from an independent 50-digit evaluation of the impedance formula
# at f = 3.5 GHz, C = 1 pF, R = 1 ohm, L1 = 2.5 nH, L2 = 0.7 nH
Z_ORACLE = 4.8676331364672369 - 66.220520711309178j
PHI_ORACLE = -0.91686265750220456 - 0.33240744251947942j


def reflection_at(f, cap, circuit):
    """(phi, d(phi)/dC) of the rational form at ``f`` and ``cap``, broadcast together."""
    return reflection(cap, rational_coefficients(f, circuit), circuit)


class TestElementCircuit:
    def test_default_constants(self, circuit):
        assert circuit.resistance == 1.0
        assert circuit.c_min < circuit.midpoint() < circuit.c_max

    @pytest.mark.parametrize("kwargs", [
        {"resistance": -1.0},
        {"inductance_l1": 0.0},
        {"z0": 0.0},
        {"c_min": 2e-12, "c_max": 1e-12},
        {"c_min": 0.0},
        {"inductance_l1": np.nan},
        {"resistance": np.inf},
        {"c_max": np.inf},
    ])
    def test_invalid_constants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ElementCircuit(**kwargs)


class TestSubcarrierGrid:
    def test_centered_bins(self):
        grid = SubcarrierGrid(3.5e9, 0.1e9, 4)
        f = grid.frequencies
        assert np.all(np.diff(f) > 0)
        # symmetric around the carrier, no bin on a band edge
        np.testing.assert_allclose(f.mean(), 3.5e9)
        assert f[0] > 3.45e9 and f[-1] < 3.55e9
        np.testing.assert_allclose(f[0] - 3.45e9, 3.55e9 - f[-1])

    def test_single_subcarrier(self):
        grid = SubcarrierGrid(3.5e9, 0.1e9, 1)
        np.testing.assert_allclose(grid.frequencies, [3.5e9])

    def test_invalid(self):
        with pytest.raises(ValueError):
            SubcarrierGrid(3.5e9, 0.1e9, 0)
        with pytest.raises(ValueError):
            SubcarrierGrid(1e6, 1e9, 4)

    @pytest.mark.parametrize("carrier, bandwidth", [(np.nan, 1e8), (np.inf, 1e8),
                                                    (3.5e9, np.nan)])
    def test_non_finite_rejected(self, carrier, bandwidth):
        with pytest.raises(ValueError, match="finite"):
            SubcarrierGrid(carrier, bandwidth, 8)


class TestCharacteristicImpedance:
    def test_finite_for_generic_inputs(self, circuit):
        z = characteristic_impedance(3.5e9, 1.3e-12, circuit)
        assert np.isfinite(z)

    def test_against_extended_precision_oracle(self, circuit):
        z = characteristic_impedance(3.5e9, 1e-12, circuit)
        assert abs(z - Z_ORACLE) <= 1e-10 * abs(Z_ORACLE)

    def test_series_resonance_gives_zero(self):
        # lossless element with the inner branch resonant: numerator vanishes
        circ = ElementCircuit(resistance=0.0, c_max=5e-12)
        f = 3.5e9
        cap = 1.0 / ((KAPPA * f) ** 2 * circ.inductance_l2)
        z = characteristic_impedance(f, cap, circ)
        assert abs(z) <= 1e-6

    def test_degenerate_inputs_raise(self, circuit):
        # an exact resonance is measure-zero in floats; the finiteness check
        # still catches inputs whose evaluation overflows to inf/nan
        with pytest.raises(DegenerateInputError):
            characteristic_impedance(3.5e9, 1e-320, circuit)

    def test_near_resonance_stays_finite(self):
        # a lossless loop close to (but not exactly at) resonance is huge yet
        # finite, and must not raise
        circ = ElementCircuit(resistance=0.0)
        f = 3.5e9
        cap = 1.0 / ((KAPPA * f) ** 2 * (circ.inductance_l1 + circ.inductance_l2))
        z = characteristic_impedance(f, cap * (1 + 1e-9), circ)
        assert np.isfinite(z) and abs(z) > 1e3

    def test_preconditions(self, circuit):
        with pytest.raises(ValueError):
            characteristic_impedance(-1.0, 1e-12, circuit)
        with pytest.raises(ValueError):
            characteristic_impedance(3.5e9, 0.0, circuit)


class TestReflection:
    def test_matched_load_reflects_nothing(self):
        # at the parallel resonance of a lossy element the impedance is real;
        # matching the free-space impedance to it must null the reflection
        from scipy.optimize import brentq
        base = ElementCircuit()
        cap = 1.2e-12
        f_res = brentq(lambda f: characteristic_impedance(f, cap, base).imag,
                       2.0e9, 3.4e9)
        z = characteristic_impedance(f_res, cap, base)
        matched = ElementCircuit(z0=z.real)
        phi = reflection_direct(f_res, cap, matched)
        assert abs(phi) <= 1e-9

    def test_short_circuit_reflects_inverted(self):
        circ = ElementCircuit(resistance=0.0, c_max=5e-12)
        f = 3.5e9
        cap = 1.0 / ((KAPPA * f) ** 2 * circ.inductance_l2)
        phi = reflection_direct(f, cap, circ)
        assert abs(phi + 1.0) <= 1e-6

    def test_lossless_is_unimodular(self, rng):
        circ = ElementCircuit(resistance=0.0)
        f = rng.uniform(3.45e9, 3.55e9, 500)
        cap = rng.uniform(circ.c_min, circ.c_max, 500)
        for phi in (reflection_direct(f, cap, circ), reflection_at(f, cap, circ)[0]):
            np.testing.assert_allclose(np.abs(phi), 1.0, atol=1e-12)

    def test_lossy_is_strictly_passive(self, circuit):
        cap = np.linspace(circuit.c_min, circuit.c_max, 1000)
        for f in (3.45e9, 3.5e9, 3.55e9):
            assert np.all(np.abs(reflection_direct(f, cap, circuit)) < 1.0)

    def test_out_of_range_capacitance_rejected(self, circuit):
        with pytest.raises(ValueError):
            reflection_at(3.5e9, 3e-12, circuit)

    @settings(max_examples=300, deadline=None)
    @given(f=st.floats(3.45e9, 3.55e9), cap=st.floats(0.47e-12, 2.35e-12))
    def test_reformulation_matches_direct(self, f, cap):
        circ = ElementCircuit()
        d = reflection_direct(f, cap, circ)
        r = reflection_at(f, cap, circ)[0]
        assert abs(d - r) <= 1e-10 * (1.0 + abs(d))

    def test_reformulation_matches_direct_bulk(self, circuit, rng):
        f = rng.uniform(3.45e9, 3.55e9, 10000)
        cap = rng.uniform(circuit.c_min, circuit.c_max, 10000)
        d = reflection_direct(f, cap, circuit)
        r = reflection_at(f, cap, circuit)[0]
        assert np.max(np.abs(d - r)) <= 1e-10 * (1.0 + np.max(np.abs(d)))


class TestReflectionSlope:
    def test_matches_finite_differences(self, circuit, rng):
        h = 1e-17
        f = rng.uniform(3.45e9, 3.55e9, 300)
        cap = rng.uniform(circuit.c_min + 2 * h, circuit.c_max - 2 * h, 300)
        analytic = reflection_at(f, cap, circuit)[1]
        fd = oracles.fd_reflection_derivative(f, cap, circuit, h)
        rel = np.abs(analytic - fd) / np.abs(analytic)
        assert np.max(rel) <= 1e-5

    def test_numerator_slope_is_exact(self, circuit):
        # the conjugated numerator 1 + C A is linear in C with a known slope
        f = 3.5e9
        c1, c2 = 0.8e-12, 1.9e-12
        a, _, _ = rational_coefficients(f, circuit)
        n1, n2 = 1.0 + c1 * a, 1.0 + c2 * a
        slope = (np.conj(n2) - np.conj(n1)) / (c2 - c1)
        kf = KAPPA * f
        expected = -(kf**2) * (circuit.inductance_l1 + circuit.inductance_l2) \
            - 1j * kf * circuit.resistance
        assert abs(slope - expected) <= 1e-12 * abs(expected)

    def test_varies_with_capacitance(self, circuit):
        cap = np.linspace(circuit.c_min, circuit.c_max, 50)
        d = reflection_at(3.5e9, cap, circuit)[1]
        assert np.ptp(np.abs(d)) > 0


class TestReflectionAndSlope:
    def test_matches_direct_form_and_finite_differences(self, circuit, grid, rng):
        # a (Q, M) capacitance array with both ends of the range and
        # uniform draws between them
        caps = rng.uniform(circuit.c_min, circuit.c_max, (3, 7))
        caps[0, :2] = circuit.c_min, circuit.c_max
        caps[1] = np.linspace(circuit.c_min, circuit.c_max, 7)
        f, c = grid.frequencies[None, :, None], caps[:, None, :]
        phi, slope = reflection_at(f[0], c, circuit)
        assert phi.shape == slope.shape == (3, grid.num_subcarriers, 7)
        # against the explicit impedance form, which shares no code with it
        np.testing.assert_allclose(phi, reflection_direct(f, c, circuit), rtol=0, atol=1e-10)
        h = 1e-17
        inner = np.clip(c, circuit.c_min + 2 * h, circuit.c_max - 2 * h)
        fd = (reflection_direct(f, inner + h, circuit)
              - reflection_direct(f, inner - h, circuit)) / (2 * h)
        _, slope_inner = reflection_at(f[0], inner, circuit)
        assert np.max(np.abs(slope_inner - fd) / np.abs(slope_inner)) <= 1e-5

    def test_broadcast_equals_paired_samples(self, circuit, grid, rng):
        # (Q, 1, M) capacitances against (K, 1) coefficients give, entry by
        # entry, what flat paired (frequency, capacitance) samples give
        caps = rng.uniform(circuit.c_min, circuit.c_max, (3, 1, 7))
        f = grid.frequencies[:, None]
        phi, slope = reflection(caps, rational_coefficients(f, circuit), circuit)
        f_pairs, c_pairs = (np.broadcast_to(x, phi.shape).ravel() for x in (f, caps))
        phi_pairs, slope_pairs = reflection_at(f_pairs, c_pairs, circuit)
        np.testing.assert_array_equal(phi.ravel(), phi_pairs)
        np.testing.assert_array_equal(slope.ravel(), slope_pairs)

    def test_out_of_range_rejected(self, circuit, grid):
        coefficients = rational_coefficients(grid.frequencies[:, None], circuit)
        for bad in (circuit.c_min * 0.99, circuit.c_max * 1.01):
            with pytest.raises(ValueError):
                reflection(np.array([[1e-12, bad]]), coefficients, circuit)

    def test_zero_total_raises(self, circuit):
        # (A, B, D) = (0, 0, -1) make num = 1 and den = -1, so num + den is
        # exactly 0: phi and its slope both divide by zero
        coefficients = (np.zeros((2, 1), complex), np.zeros((2, 1), complex),
                        np.full((2, 1), -1.0 + 0j))
        with pytest.raises(DegenerateInputError):
            reflection(np.array([1e-12, 2e-12]), coefficients, circuit)

    def test_scalar_inputs_give_the_array_values(self, circuit, rng):
        # a scalar capacitance and frequency run the array arithmetic: phi and
        # its slope equal the entries of a one-element array call, bit for bit
        for f, cap in zip(rng.uniform(3.45e9, 3.55e9, 50),
                          rng.uniform(circuit.c_min, circuit.c_max, 50)):
            phi, slope = reflection(cap, rational_coefficients(f, circuit), circuit)
            arrays = reflection(np.array([cap]), rational_coefficients(np.array([f]), circuit),
                                circuit)
            assert np.isscalar(phi) and np.isscalar(slope)
            assert (phi, slope) == (arrays[0][0], arrays[1][0])

    def test_non_finite_raises(self, circuit):
        with np.errstate(invalid="ignore"):
            coefficients = rational_coefficients(np.array([[3.5e9], [np.inf]]), circuit)
        with pytest.raises(DegenerateInputError):
            reflection(np.array([1e-12]), coefficients, circuit)


def reflection_profile(caps, grid, circuit):
    """(K, M) profile of one surface from the joint evaluation."""
    return reflection_at(grid.frequencies[:, None], caps, circuit)[0]


class TestPhaseMatrices:
    def test_scalar_case(self, circuit):
        grid = SubcarrierGrid(3.5e9, 0.1e9, 1)
        prof = reflection_profile(np.array([1e-12]), grid, circuit)
        assert prof.shape == (1, 1)
        expected = reflection_at(grid.frequencies[0], 1e-12, circuit)[0]
        np.testing.assert_allclose(prof[0, 0], expected)

    def test_diagonal_and_equal_entries(self, circuit, grid):
        # the profile is the diagonal of the entrywise-built reflection matrix
        caps = np.full(5, 1.1e-12)
        prof = reflection_profile(caps, grid, circuit)
        assert prof.shape == (grid.num_subcarriers, 5)
        for k in range(grid.num_subcarriers):
            mat = oracles.reflection_matrix(caps, grid, circuit, k)
            off = mat - np.diag(np.diag(mat))
            assert np.all(off == 0)
            np.testing.assert_array_equal(np.diag(mat), prof[k])
            np.testing.assert_allclose(prof[k], prof[k, 0])

    def test_frequency_selectivity(self, circuit, grid):
        prof = reflection_profile(np.array([1.3e-12]), grid, circuit)
        assert abs(prof[0, 0] - prof[-1, 0]) > 0

    def test_out_of_range_rejected(self, circuit, grid):
        with pytest.raises(ValueError):
            reflection_profile(np.array([1e-12, 9e-12]), grid, circuit)
