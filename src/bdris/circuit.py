"""Frequency response of a tunable reflecting element.

Each surface element is modeled as an equivalent parallel resonant circuit:
a resistor ``R`` and a tunable capacitor ``C`` in series, bridged by an
inductor ``L2``, all in parallel with a second inductor ``L1``.  The complex
reflection coefficient seen by an impinging wave is the usual impedance
mismatch ratio against the free-space impedance ``Z0``.

Two algebraically equivalent evaluations of the coefficient are provided:
``reflection_direct`` forms the circuit impedance explicitly, while
``reflection_reformulated`` evaluates a rational form in the capacitance
that is cheaper to differentiate.  The analytic derivative used by the
capacitance optimizer is exposed as ``reflection_derivative``.

All functions broadcast over numpy arrays of frequencies and capacitances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

ANGULAR = 2.0 * np.pi


@dataclass(frozen=True)
class ElementCircuit:
    """Lumped constants shared by all tunable elements of a surface.

    Attributes
    ----------
    resistance : float
        Series loss resistance in ohms (>= 0; zero means a lossless element).
    inductance_l1 : float
        Bottom-layer inductance in henries.
    inductance_l2 : float
        Top-layer inductance in henries.
    z0 : float
        Free-space impedance in ohms.
    c_min, c_max : float
        Tuning range of the element capacitance in farads.
    """

    resistance: float = 1.0
    inductance_l1: float = 2.5e-9
    inductance_l2: float = 0.7e-9
    z0: float = 377.0
    c_min: float = 0.47e-12
    c_max: float = 2.35e-12

    def __post_init__(self):
        if self.resistance < 0:
            raise ValueError("resistance must be >= 0")
        if self.inductance_l1 <= 0 or self.inductance_l2 <= 0:
            raise ValueError("inductances must be > 0")
        if self.z0 <= 0:
            raise ValueError("free-space impedance must be > 0")
        if not (0 < self.c_min < self.c_max):
            raise ValueError("capacitance range must satisfy 0 < c_min < c_max")

    def midpoint(self):
        return 0.5 * (self.c_min + self.c_max)


@dataclass(frozen=True)
class SubcarrierGrid:
    """Uniform subcarrier grid centered on the carrier frequency.

    Subcarrier ``k`` (0-based) maps to the physical frequency
    ``f_c - BW/2 + (k + 1/2) * BW / K`` so no bin sits on a band edge.
    """

    carrier_frequency: float
    bandwidth: float
    num_subcarriers: int

    def __post_init__(self):
        if self.num_subcarriers < 1:
            raise ValueError("need at least one subcarrier")
        if self.carrier_frequency <= 0 or self.bandwidth < 0:
            raise ValueError("carrier frequency must be > 0 and bandwidth >= 0")
        if self.carrier_frequency - self.bandwidth / 2 <= 0:
            raise ValueError("band extends to non-positive frequencies")

    @property
    def frequencies(self):
        k = np.arange(self.num_subcarriers)
        step = self.bandwidth / self.num_subcarriers
        return self.carrier_frequency - self.bandwidth / 2 + (k + 0.5) * step


def _check_positive_freq(f):
    if np.any(np.asarray(f) <= 0):
        raise ValueError("frequency must be > 0")


def _check_in_range(cap, circuit):
    cap = np.asarray(cap)
    if np.any(cap < circuit.c_min) or np.any(cap > circuit.c_max):
        raise ValueError("capacitance outside the tunable range")


def characteristic_impedance(f, cap, circuit):
    """Impedance of the equivalent circuit at frequency ``f`` and capacitance ``cap``.

    Raises :class:`DegenerateInputError` when the parallel combination hits an
    exact resonance and the result is not finite.
    """
    _check_positive_freq(f)
    if np.any(np.asarray(cap) <= 0):
        raise ValueError("capacitance must be > 0")
    jkf = 1j * ANGULAR * np.asarray(f, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        series = jkf * circuit.inductance_l2 + circuit.resistance + 1.0 / (jkf * cap)
        denom = jkf * (circuit.inductance_l1 + circuit.inductance_l2) \
            + circuit.resistance + 1.0 / (jkf * cap)
        z = jkf * circuit.inductance_l1 * series / denom
    if not np.all(np.isfinite(z)):
        raise DegenerateInputError("circuit impedance is singular at an exact resonance")
    return z


def reflection_direct(f, cap, circuit):
    """Reflection coefficient (Z - Z0) / (Z + Z0) from the explicit impedance.

    Kept as the plain-form oracle for :func:`reflection_reformulated`.
    """
    _check_in_range(cap, circuit)
    z = characteristic_impedance(f, cap, circuit)
    denom = z + circuit.z0
    if np.any(np.abs(denom) == 0):
        raise DegenerateInputError("impedance equals -Z0, reflection undefined")
    return (z - circuit.z0) / denom


def _rational_parts(f, cap, circuit):
    """Numerator/denominator pair of the rational reflection form."""
    kf = ANGULAR * np.asarray(f, dtype=float)
    l1, l2, r = circuit.inductance_l1, circuit.inductance_l2, circuit.resistance
    num = 1.0 - kf**2 * (l1 + l2) * cap + 1j * kf * r * cap
    den = 1j * kf * (l1 / circuit.z0) * (1.0 - kf**2 * l2 * cap + 1j * kf * r * cap)
    return num, den


def reflection_reformulated(f, cap, circuit):
    """Reflection coefficient via the rational-in-capacitance form.

    Equals :func:`reflection_direct` wherever both are finite; preferred in
    hot paths because it avoids the intermediate impedance and has simple
    analytic derivatives.
    """
    _check_positive_freq(f)
    _check_in_range(cap, circuit)
    num, den = _rational_parts(f, cap, circuit)
    if np.any(num == 0):
        raise DegenerateInputError("rational reflection form is singular (zero numerator part)")
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = 1.0 - 2.0 / (1.0 + den / num)
    if not np.all(np.isfinite(phi)):
        raise DegenerateInputError("reflection coefficient is not finite")
    return phi


def reflection_derivative(f, cap, circuit):
    """Derivative of the conjugate coefficient, d(conj(phi))/dC.

    Note the conjugation: this is the slope of ``conj(phi)``, which is the
    quantity the gradient assembly of the capacitance subproblem is stated
    in.  Callers that need d(phi)/dC must conjugate the result.
    """
    _check_positive_freq(f)
    _check_in_range(cap, circuit)
    kf = ANGULAR * np.asarray(f, dtype=float)
    l1, l2, r = circuit.inductance_l1, circuit.inductance_l2, circuit.resistance
    num, den = _rational_parts(f, cap, circuit)
    num_c, den_c = np.conj(num), np.conj(den)
    dnum_c = -kf**2 * (l1 + l2) - 1j * kf * r
    dden_c = -1j * kf * (l1 / circuit.z0) * (-kf**2 * l2 - 1j * kf * r)
    total = num_c + den_c
    if np.any(total == 0):
        raise DegenerateInputError("reflection derivative is singular")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (-2.0 / total**2) * (dnum_c * den_c - num_c * dden_c)
    if not np.all(np.isfinite(out)):
        raise DegenerateInputError("reflection derivative is not finite")
    return out


def reflection_profile(cap_vector, grid, circuit):
    """Per-subcarrier reflection coefficients of one surface.

    Parameters
    ----------
    cap_vector : (M,) array
        Capacitance of each element, all within the tunable range.
    grid : SubcarrierGrid
    circuit : ElementCircuit

    Returns
    -------
    (K, M) complex array with entry ``[k, m] = phi(f_k, cap_vector[m])``.
    """
    cap_vector = np.asarray(cap_vector, dtype=float)
    return reflection_reformulated(grid.frequencies[:, None], cap_vector[None, :], circuit)
