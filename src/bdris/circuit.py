"""Frequency response of a tunable reflecting element.

Each surface element is modeled as an equivalent parallel resonant circuit:
a resistor ``R`` and a tunable capacitor ``C`` in series, bridged by an
inductor ``L2``, all in parallel with a second inductor ``L1``.  The complex
reflection coefficient seen by an impinging wave is the usual impedance
mismatch ratio against the free-space impedance ``Z0``.

Two algebraically equivalent evaluations of the coefficient are provided:
``reflection_direct`` forms the circuit impedance explicitly and is kept as
the oracle, while :func:`reflection` evaluates a rational form in the
capacitance, ``num = 1 + C A_k`` over ``den = D_k (1 + C B_k)`` with the
per-frequency coefficients of :func:`rational_coefficients`, and returns the
coefficient together with its slope d(phi)/dC.

All functions broadcast over numpy arrays of frequencies and capacitances.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"circuit {f.name} must be a finite number")
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
        if not (np.isfinite(self.carrier_frequency) and np.isfinite(self.bandwidth)):
            raise ValueError("carrier frequency and bandwidth must be finite numbers")
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

    Kept as the plain-form oracle for :func:`reflection`.
    """
    _check_in_range(cap, circuit)
    z = characteristic_impedance(f, cap, circuit)
    denom = z + circuit.z0
    if np.any(np.abs(denom) == 0):
        raise DegenerateInputError("impedance equals -Z0, reflection undefined")
    return (z - circuit.z0) / denom


def rational_coefficients(f, circuit):
    """Coefficients ``(A, B, D)`` of the rational form at frequencies ``f``.

    The numerator is ``1 + C A`` and the denominator ``D (1 + C B)``, so they
    depend on the capacitance C only through these per-frequency constants.
    """
    _check_positive_freq(f)
    kf = ANGULAR * np.asarray(f, dtype=float)
    l1, l2, r = circuit.inductance_l1, circuit.inductance_l2, circuit.resistance
    return (-kf**2 * (l1 + l2) + 1j * kf * r, -kf**2 * l2 + 1j * kf * r,
            1j * kf * (l1 / circuit.z0))


def reflection(cap, coefficients, circuit):
    """Reflection coefficient ``phi`` and its slope d(phi)/dC, broadcast elementwise.

    ``coefficients`` are :func:`rational_coefficients` of the frequencies; a
    (..., M) capacitance array with ``[:, None]`` coefficients gives the
    (..., K, M) profiles.  ``phi = (den - num) / (den + num)``, and with
    ``num = (den + num)(1 - phi) / 2`` and ``den = (den + num)(1 + phi) / 2``
    the slope ``2 (D B num - A den) / (den + num)**2`` is
    ``(D B (1 - phi) - A (1 + phi)) / (den + num)``.  Both are evaluated in
    place, in two buffers that first hold ``num`` and ``den``.  Raises
    :class:`DegenerateInputError` if either is not finite: the slope is formed
    from phi by multiplication, addition and division, so a non-finite phi
    gives a non-finite slope, and the slope alone is tested.
    """
    cap = np.asarray(cap, dtype=float)
    _check_in_range(cap, circuit)
    a, b, d = coefficients
    shape = np.broadcast_shapes(cap.shape, np.shape(a))
    total, phi = np.empty(shape, complex), np.empty(shape, complex)
    np.multiply(cap, a, out=total)
    total += 1.0              # num
    np.multiply(cap, b, out=phi)
    phi += 1.0
    np.multiply(d, phi, out=phi)  # den
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        total += phi              # num + den
        phi *= 2.0
        phi -= total              # den - num
        phi /= total
        slope = phi * -(d * b + a)
        slope += d * b - a
        slope /= total
    if not np.isfinite(slope).all():
        raise DegenerateInputError("reflection coefficient or its slope is not finite")
    return phi[()], slope  # phi[()] is a scalar for scalar inputs, as slope is
