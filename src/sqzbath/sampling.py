"""Initial-condition sampling from thermal phase-space distributions.

Quantum mode: the Gaussian widths carry the tanh(omega/2T) occupation factor
of the thermal Wigner function. Classical mode: plain equipartition widths.
Sampling happens in normal-mode coordinates, where the thermal state
factorizes, and is mapped back to the oscillator coordinates.

Reproducibility contract: trajectory ``i`` of a run with master seed ``s``
draws from ``numpy.random.Generator(Philox(SeedSequence((s, i))))`` using
``standard_normal``; the draw order is fixed (system first, then bath) and
documented on each sampler. Streams are independent of worker scheduling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baths import NHCBathParams, NHCBathPhase, OhmicBathParams, OhmicBathPhase
from .system import NormalModePhase, SystemParams, SystemPhase, from_normal_modes, normal_mode_freqs


class SamplingMode(enum.Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"

    @classmethod
    def parse(cls, name: str) -> "SamplingMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown sampling mode {name!r}; "
                             f"expected 'quantum' or 'classical'") from None


@dataclass(frozen=True)
class ThermalWidths:
    """Variances of the thermal Gaussian for one mode; fields may be arrays."""

    var_q: float | np.ndarray
    var_p: float | np.ndarray

    @property
    def sigma_q(self):
        return np.sqrt(self.var_q)

    @property
    def sigma_p(self):
        return np.sqrt(self.var_p)


def thermal_widths(mass, freq, temperature, mode: SamplingMode) -> ThermalWidths:
    """Thermal Gaussian widths for a harmonic mode of given mass and frequency.

    Quantum: var_q = 1/(2 m w tanh(w/2T)), var_p = m w / (2 tanh(w/2T)).
    Classical: var_q = T/(m w^2), var_p = m T.
    """
    if np.any(np.asarray(temperature) <= 0):
        raise ValueError(f"temperature must be positive, got {temperature}")
    if mode is SamplingMode.QUANTUM:
        th = np.tanh(freq / (2.0 * temperature))
        return ThermalWidths(var_q=1.0 / (2.0 * mass * freq * th),
                             var_p=mass * freq / (2.0 * th))
    return ThermalWidths(var_q=temperature / (mass * freq ** 2),
                         var_p=mass * temperature)


def width_temperature(mass: float, freq: float, var_q: float,
                      mode: SamplingMode) -> Optional[float]:
    """Inverse of :func:`thermal_widths`: the temperature whose position
    variance is ``var_q``.

    Quantum: T = w / (2 artanh(1/(2 m w var_q))); None when var_q is at or
    below the zero-point width 1/(2 m w), which no temperature reaches.
    Classical: T = var_q m w^2.
    """
    if mode is SamplingMode.QUANTUM:
        ratio = 2.0 * mass * freq * var_q
        if not ratio > 1.0:
            return None
        return float(freq / (2.0 * math.atanh(1.0 / ratio)))
    return float(var_q * mass * freq ** 2)


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based, per-trajectory random stream (Philox)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def sample_system(rng: np.random.Generator, sys: SystemParams, temperature: float,
                  mode: SamplingMode) -> SystemPhase:
    """Draw (q1, q2, p1, p2) from the thermal state of the undriven system.

    Draw order: four standard normals scaling (qt1, qt2, pt1, pt2); mode
    frequencies are evaluated at t=0, where the drive vanishes.
    """
    w1, w2 = normal_mode_freqs(0.0, sys)
    wid1 = thermal_widths(sys.mass, w1, temperature, mode)
    wid2 = thermal_widths(sys.mass, w2, temperature, mode)
    z = rng.standard_normal(4)
    modes = NormalModePhase(qt1=z[0] * wid1.sigma_q, qt2=z[1] * wid2.sigma_q,
                            pt1=z[2] * wid1.sigma_p, pt2=z[3] * wid2.sigma_p)
    return from_normal_modes(modes)


def sample_ohmic_bath(rng: np.random.Generator, bath: OhmicBathParams,
                      temperature: float, mode: SamplingMode) -> OhmicBathPhase:
    """Draw all bath oscillators independently from their thermal widths.

    Draw order: 2N standard normals scaling (R_1..R_N, P_1..P_N).
    """
    wid = thermal_widths(bath.mass, bath.freqs, temperature, mode)
    z = rng.standard_normal(2 * bath.n_modes)
    return OhmicBathPhase(pos=z[:bath.n_modes] * wid.sigma_q,
                          mom=z[bath.n_modes:] * wid.sigma_p)


def init_nhc_bath(rng: np.random.Generator, bath: NHCBathParams,
                  temperature: float, mode: SamplingMode) -> NHCBathPhase:
    """Thermal draw for the bath oscillator; chain variables start at
    (eta1, eta2, p_eta1, p_eta2) = (0, 0, 0, 1).

    Draw order: two standard normals scaling (R1, P1).
    """
    wid = thermal_widths(bath.osc_mass, bath.osc_freq, temperature, mode)
    z = rng.standard_normal(2)
    return NHCBathPhase(osc_q=z[0] * wid.sigma_q, osc_p=z[1] * wid.sigma_p,
                        eta1=0.0, eta2=0.0, p_eta1=0.0, p_eta2=1.0)
