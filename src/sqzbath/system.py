"""Two harmonic oscillators with a sinusoidally driven quadratic coupling.

Everything here works in the dimensionless variables (hbar = omega_c = 1);
the one conversion to SI units, of a temperature to kelvin, is a
presentation-layer concern handled by :func:`to_kelvin`, which takes hbar
and k_B at their exact 2019 SI values. All functions accept either scalars or numpy arrays for the
phase-space coordinates, so the same code path serves a single trajectory
and a batched ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the 2019 SI defining constants: exact by definition, so no CODATA release
# can move them (they equal scipy.constants.hbar and .k bit for bit)
_HBAR_SI = 6.62607015e-34 / (2.0 * math.pi)   # J s
_KB_SI = 1.380649e-23                         # J/K


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless parameters of the driven two-oscillator system.

    ``carrier_freq`` is the angular frequency (rad/s) that defines the
    dimensionless scaling; it is used only by :func:`to_kelvin`.
    ``frozen_coupling`` holds the coupling at its full amplitude instead of
    modulating it, which turns the model into a conservative benchmark case.
    """

    mass: float = 1.0
    spring_k: float = 1.25
    coupling_amp: float = 2.5       # omega_0
    drive_freq: float = 0.45        # omega_d
    carrier_freq: float = 3.93e13   # rad/s, SI conversion only
    frozen_coupling: bool = False

    def __post_init__(self):
        if not 0 < self.mass < np.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not 0 < self.spring_k < np.inf:
            raise ValueError(f"spring_k must be positive and finite, got {self.spring_k}")
        if not 0 <= self.coupling_amp < np.inf:
            raise ValueError(f"coupling_amp must be >= 0 and finite, got {self.coupling_amp}")
        if not 0 < self.drive_freq < np.inf:
            raise ValueError(f"drive_freq must be positive and finite, got {self.drive_freq}")
        if not 0 < self.carrier_freq < np.inf:
            raise ValueError(f"carrier_freq must be positive and finite, got {self.carrier_freq}")

    @property
    def freq(self) -> float:
        """Proper frequency omega = sqrt(K/m) of each oscillator."""
        return math.sqrt(self.spring_k / self.mass)


@dataclass
class SystemPhase:
    """Phase-space point (q1, q2, p1, p2); fields may be scalars or arrays."""

    q1: float | np.ndarray
    q2: float | np.ndarray
    p1: float | np.ndarray
    p2: float | np.ndarray


@dataclass
class NormalModePhase:
    """Center-of-mass (1) and relative-displacement (2) mode coordinates."""

    qt1: float | np.ndarray
    qt2: float | np.ndarray
    pt1: float | np.ndarray
    pt2: float | np.ndarray


_SQRT_HALF = 1.0 / math.sqrt(2.0)


def coupling_freq_sq(t, sys: SystemParams):
    """Squared coupling frequency, (omega_0 sin(omega_d t))^2.

    With ``frozen_coupling`` the modulation is replaced by the constant
    amplitude omega_0^2.
    """
    if sys.frozen_coupling:
        return sys.coupling_amp ** 2 * np.ones_like(np.asarray(t, dtype=float))
    w = sys.coupling_amp * np.sin(sys.drive_freq * t)
    return w * w


def coupling_stiffness(t, sys: SystemParams):
    """The drive coefficient m w(t)^2 that multiplies q2 - q1 in the force."""
    return sys.mass * coupling_freq_sq(t, sys)


def system_force(t, phase: SystemPhase, sys: SystemParams, out=None):
    """Forces (dp1/dt, dp2/dt) = -dH/dq from the system Hamiltonian, bath
    terms excluded.

    Returns an array of shape (2,) + the phase's shape whose rows are f1 and
    f2, so that ``f1, f2 = system_force(...)`` unpacks it: ``out`` when
    given, else a new one.
    """
    return coupled_force(coupling_stiffness(t, sys), phase, sys, out)


def coupled_force(k_rel, phase: SystemPhase, sys: SystemParams, out=None):
    """:func:`system_force` with the drive coefficient ``k_rel`` (see
    :func:`coupling_stiffness`) given instead of the time:
    f1 = -m omega^2 q1 + k_rel (q2 - q1) and f2 = -m omega^2 q2 - k_rel (q2 - q1),
    returned as the rows of ``out``, or of a new (2,) + shape array.
    """
    k_own = sys.mass * sys.freq ** 2
    rel = phase.q2 - phase.q1
    if out is None:
        out = np.empty((2,) + np.shape(rel))
    f1, f2 = out[0, ...], out[1, ...]
    np.multiply(phase.q1, -k_own, out=f1)
    np.multiply(phase.q2, -k_own, out=f2)
    rel *= k_rel
    np.add(f1, rel, out=f1)
    np.subtract(f2, rel, out=f2)
    return out


def system_energy(t, phase: SystemPhase, sys: SystemParams):
    """Dimensionless system Hamiltonian at time t."""
    wsq = sys.freq ** 2
    wt2 = coupling_freq_sq(t, sys)
    kinetic = (phase.p1 ** 2 + phase.p2 ** 2) / (2.0 * sys.mass)
    harmonic = 0.5 * sys.mass * wsq * (phase.q1 ** 2 + phase.q2 ** 2)
    coupling = 0.5 * sys.mass * wt2 * (phase.q2 - phase.q1) ** 2
    return kinetic + harmonic + coupling


def to_normal_modes(phase: SystemPhase) -> NormalModePhase:
    """Orthogonal map to normal-mode coordinates."""
    return NormalModePhase(
        qt1=(phase.q1 + phase.q2) * _SQRT_HALF,
        qt2=(phase.q1 - phase.q2) * _SQRT_HALF,
        pt1=(phase.p1 + phase.p2) * _SQRT_HALF,
        pt2=(phase.p1 - phase.p2) * _SQRT_HALF,
    )


def from_normal_modes(modes: NormalModePhase) -> SystemPhase:
    """Inverse of :func:`to_normal_modes` (the map is an involution pair)."""
    return SystemPhase(
        q1=(modes.qt1 + modes.qt2) * _SQRT_HALF,
        q2=(modes.qt1 - modes.qt2) * _SQRT_HALF,
        p1=(modes.pt1 + modes.pt2) * _SQRT_HALF,
        p2=(modes.pt1 - modes.pt2) * _SQRT_HALF,
    )


def normal_mode_freqs(t, sys: SystemParams):
    """Mode frequencies (omega_1, omega_2(t)); only mode 2 feels the drive."""
    w1 = sys.freq
    w2 = np.sqrt((sys.spring_k + 2.0 * sys.mass * coupling_freq_sq(t, sys)) / sys.mass)
    return w1, w2


def to_kelvin(temperature: float, carrier_freq: float) -> float:
    """A dimensionless temperature in kelvin: one unit is hbar omega_c / k_B
    at the carrier frequency ``carrier_freq`` (rad/s)."""
    if not 0 < carrier_freq < np.inf:
        raise ValueError(f"carrier_freq must be positive and finite, got {carrier_freq}")
    return temperature * _HBAR_SI * carrier_freq / _KB_SI
