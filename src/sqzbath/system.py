"""Two harmonic oscillators with a sinusoidally driven quadratic coupling.

Everything here works in the dimensionless variables (hbar = omega_c = 1);
conversion to SI units is a presentation-layer concern handled by
:func:`to_physical_units`, which takes hbar and k_B at their exact 2019 SI
values. All functions accept either scalars or numpy arrays for the
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
    dimensionless scaling; it is used only by :func:`to_physical_units`.
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
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.spring_k <= 0:
            raise ValueError(f"spring_k must be positive, got {self.spring_k}")
        if self.coupling_amp < 0:
            raise ValueError(f"coupling_amp must be >= 0, got {self.coupling_amp}")
        if self.drive_freq <= 0:
            raise ValueError(f"drive_freq must be positive, got {self.drive_freq}")
        if self.carrier_freq <= 0:
            raise ValueError(f"carrier_freq must be positive, got {self.carrier_freq}")

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

    def copy(self) -> "SystemPhase":
        return SystemPhase(*(np.array(v, dtype=float, copy=True) if isinstance(v, np.ndarray)
                             else float(v) for v in (self.q1, self.q2, self.p1, self.p2)))

    def is_finite(self):
        """Elementwise finiteness over all four coordinates."""
        return (np.isfinite(self.q1) & np.isfinite(self.q2)
                & np.isfinite(self.p1) & np.isfinite(self.p2))


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


def system_force(t, phase: SystemPhase, sys: SystemParams):
    """Forces (dp1/dt, dp2/dt) = -dH/dq from the system Hamiltonian, bath
    terms excluded."""
    k_own = sys.mass * sys.freq ** 2
    k_rel = sys.mass * coupling_freq_sq(t, sys)
    rel = phase.q2 - phase.q1
    f1 = -k_own * phase.q1 + k_rel * rel
    f2 = -k_own * phase.q2 - k_rel * rel
    return f1, f2


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


_UNIT_KINDS = ("time", "temperature", "frequency", "energy")


def to_physical_units(value: float, kind: str, carrier_freq: float) -> float:
    """Convert a dimensionless quantity to SI using the carrier frequency.

    time -> seconds, temperature -> kelvin, frequency -> rad/s,
    energy -> joules.
    """
    if carrier_freq <= 0:
        raise ValueError("carrier_freq must be positive")
    if kind == "time":
        return value / carrier_freq
    if kind == "temperature":
        return value * _HBAR_SI * carrier_freq / _KB_SI
    if kind == "frequency":
        return value * carrier_freq
    if kind == "energy":
        return value * _HBAR_SI * carrier_freq
    raise ValueError(f"unknown unit kind {kind!r}; expected one of {_UNIT_KINDS}")
