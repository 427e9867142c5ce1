"""Thermal environments: a discretized Ohmic oscillator bath and a single
oscillator thermalized by a two-link Nose-Hoover chain.

Both baths couple bilinearly to the sum q1 + q2, i.e. to the center-of-mass
mode only; the relative mode never feels either bath.

Every bath oscillator has unit mass: the rescaling R_j -> sqrt(m_j) R_j,
P_j -> P_j / sqrt(m_j) turns mass m_j and coupling c_j into unit mass and
coupling c_j / sqrt(m_j), and keeps the chain's P1^2 / m1, so a bath is its
(Omega_j, c_j) tables (README, "Forces and time stepping").
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .system import SystemPhase, system_energy

# Largest bath an Ohmic run takes (checked by driver.RunConfig). Each
# trajectory row's sum over the modes is one OpenBLAS ddot, which OpenBLAS
# 0.3.31 splits over its threads above 10000 elements, so that a larger
# bath's bits would follow OPENBLAS_NUM_THREADS. An NHC run only reads its
# Ohmic reference's tables once, so it takes any size.
MAX_BATH_MODES = 10000


@dataclass(frozen=True, eq=False)
class OhmicBathParams:
    """Discretized Ohmic bath: N unit-mass oscillators, as their tables."""

    freqs: np.ndarray       # Omega_j, positive and strictly increasing, len N
    couplings: np.ndarray   # c_j, len N

    def __post_init__(self):
        if len(self.couplings) != len(self.freqs):
            raise ValueError("frequency and coupling tables must have one length")
        if not (np.isfinite(self.freqs).all() and np.isfinite(self.couplings).all()):
            raise ValueError("bath frequency and coupling tables must be finite")
        if not np.all(np.diff(self.freqs, prepend=0.0) > 0):
            raise ValueError("bath frequencies must be positive and strictly increasing")

    @property
    def n_modes(self) -> int:
        return len(self.freqs)


def build_ohmic_bath(n_modes: int, kondo: float, cutoff: float) -> OhmicBathParams:
    """Construct the bath tables from (N, xi, omega_max).

    Omega_j = -ln(1 - j*spacing) with spacing = (1 - exp(-omega_max))/N, so
    Omega_N recovers the cutoff exactly; c_j = sqrt(xi * spacing * Omega_j).
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if not 0 <= kondo < np.inf:
        raise ValueError(f"kondo must be >= 0 and finite, got {kondo}")
    if not 0 < cutoff < np.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    spacing = (1.0 - np.exp(-cutoff)) / n_modes
    j = np.arange(1, n_modes + 1, dtype=float)
    arg = 1.0 - j * spacing
    if np.any(arg <= 0):
        raise ValueError("mode spacing too large: 1 - j*spacing must stay positive")
    freqs = -np.log(arg)
    return OhmicBathParams(freqs=freqs, couplings=np.sqrt(kondo * spacing * freqs))


@dataclass
class OhmicBathPhase:
    """Bath coordinates; arrays of shape (N,) or (batch, N)."""

    pos: np.ndarray   # R_j
    mom: np.ndarray   # P_j


class OhmicWorkspace:
    """Preallocated arrays for :func:`ohmic_forces` on one bath shape.

    Every array has the shape of the bath positions, (N,) or (batch, N), so
    that each of the force's elementwise passes runs as one flat loop rather
    than one inner loop per row. ``stiffness`` holds Omega_j^2 tiled to that
    shape, built once. ``force`` receives the bath force and ``scratch``
    the harmonic term; both are free for other use between calls.
    """

    def __init__(self, bath: OhmicBathParams, shape):
        self.stiffness = np.empty(shape)
        self.stiffness[...] = bath.freqs ** 2
        self.force = np.empty(shape)
        self.scratch = np.empty(shape)


def ohmic_forces(phase_sys: SystemPhase, phase_bath: OhmicBathPhase,
                 bath: OhmicBathParams, work: OhmicWorkspace | None = None):
    """Bath contribution to the dynamics.

    Returns ``(sys_kick, bath_force)``: the former is added to both dp1/dt
    and dp2/dt, the latter is dP_j/dt = -Omega_j^2 R_j + c_j (q1 + q2).
    ``bath_force`` is ``work.force``, overwritten by the next call with the
    same workspace; without ``work`` a fresh one is allocated.

    The pull sum_j c_j R_j is one ``np.vecdot`` per row, so a row's
    ``sys_kick`` has the same bits whatever the other rows of the batch.
    The coupling term c_j (q1 + q2) is formed by ``einsum``, which runs it
    as one loop where a broadcast multiply runs one per row. einsum sums
    each product into a zeroed output, so a product that is exactly -0.0
    (q1 + q2 = -0.0, or c_j = 0 at kondo = 0) comes out as +0.0; every
    other value has the bits of the product. The sign of a zero reaches no
    output, all of which are second moments, counts or energy sums.
    """
    if work is None:
        work = OhmicWorkspace(bath, np.shape(phase_bath.pos))
    sys_kick = np.vecdot(phase_bath.pos, bath.couplings)
    np.einsum("...,j->...j", phase_sys.q1 + phase_sys.q2, bath.couplings,
              out=work.force)
    np.multiply(work.stiffness, phase_bath.pos, out=work.scratch)
    np.subtract(work.force, work.scratch, out=work.force)
    return sys_kick, work.force


def ohmic_energy(t, phase_sys: SystemPhase, phase_bath: OhmicBathPhase,
                 sys, bath: OhmicBathParams):
    """Total dimensionless energy of the system + Ohmic bath model."""
    e_bath = 0.5 * (phase_bath.mom ** 2
                    + bath.freqs ** 2 * phase_bath.pos ** 2).sum(axis=-1)
    e_int = -(phase_sys.q1 + phase_sys.q2) * np.vecdot(phase_bath.pos,
                                                        bath.couplings)
    return system_energy(t, phase_sys, sys) + e_bath + e_int


@dataclass(frozen=True)
class NHCBathParams:
    """Unit-mass bath oscillator plus a two-link Nose-Hoover chain thermostat.

    The thermostat acts on the bath oscillator momentum only; the system
    momenta receive no direct drag. ``thermo_dof`` (g) is the number of
    thermostatted degrees of freedom, 1 for the single oscillator.
    """

    osc_freq: float          # Omega_1
    coupling: float          # c_1
    temperature: float       # T_ext
    mass_eta1: float = 1.0
    mass_eta2: float = 1.0
    thermo_dof: int = 1

    def __post_init__(self):
        if not 0 < self.osc_freq < np.inf:
            raise ValueError(f"osc_freq must be positive and finite, got {self.osc_freq}")
        if not math.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling}")
        if not (0 < self.mass_eta1 < np.inf and 0 < self.mass_eta2 < np.inf):
            raise ValueError("all masses must be positive and finite")
        if not 1 <= self.thermo_dof < np.inf:
            raise ValueError(f"thermo_dof must be >= 1 and finite, got {self.thermo_dof}")
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")


def nhc_from_ohmic(kondo: float, cutoff: float, temperature: float) -> NHCBathParams:
    """Single-oscillator bath built as the N=1 limit of the Ohmic grid.

    With N=1 the discretization gives Omega_1 = omega_max exactly, so the
    lone oscillator sits at the cutoff frequency. Note that this choice
    reproduces almost none of the static stiffness renormalization of the
    many-mode bath; see :func:`nhc_matched_to_ohmic` for the variant that
    does. The chain keeps :class:`NHCBathParams`'s defaults.
    """
    single = build_ohmic_bath(1, kondo, cutoff)
    return NHCBathParams(osc_freq=float(single.freqs[0]),
                         coupling=float(single.couplings[0]), temperature=temperature)


DRESSING_MATCHED_OSC_FREQ = 0.15


def nhc_matched_to_ohmic(reference: OhmicBathParams, temperature: float,
                         osc_freq: float = DRESSING_MATCHED_OSC_FREQ) -> NHCBathParams:
    """Single-oscillator bath matching the many-mode static dressing.

    Without a counter-term the bath renormalizes the center-of-mass
    stiffness by -2 sum_j c_j^2/Omega_j^2. Choosing c_1 so that
    c_1^2/Omega_1^2 equals sum_j c_j^2/Omega_j^2 makes the single
    oscillator reproduce that shift; a slow (far off-resonant) oscillator
    tracks it quasi-statically without classicalizing the mode it dresses.
    The default frequency was calibrated against the exact covariance of
    the 200-mode reference bath. The chain keeps :class:`NHCBathParams`'s
    defaults.
    """
    dressing = float(np.sum(reference.couplings ** 2 / reference.freqs ** 2))
    return NHCBathParams(osc_freq=osc_freq, coupling=osc_freq * math.sqrt(dressing),
                         temperature=temperature)


@dataclass
class NHCBathPhase:
    """Bath oscillator (R1, P1) plus the four fictitious chain variables."""

    osc_q: float | np.ndarray
    osc_p: float | np.ndarray
    eta1: float | np.ndarray
    eta2: float | np.ndarray
    p_eta1: float | np.ndarray
    p_eta2: float | np.ndarray


def nhc_bath_forces(phase_sys: SystemPhase, phase_bath: NHCBathPhase,
                    bath: NHCBathParams):
    """Conservative forces of the NHC model (thermostat drag excluded).

    Returns ``(sys_kick, osc_force)`` with sys_kick = c1*R1 added to both
    system momenta and osc_force = -Omega_1^2 R1 + c1 (q1 + q2).
    """
    sys_kick = bath.coupling * phase_bath.osc_q
    osc_force = (-(bath.osc_freq ** 2) * phase_bath.osc_q
                 + bath.coupling * (phase_sys.q1 + phase_sys.q2))
    return sys_kick, osc_force


def nhc_extended_energy(t, phase_sys: SystemPhase, phase_bath: NHCBathPhase,
                        sys, bath: NHCBathParams):
    """Extended Hamiltonian including the chain terms g*T*eta1 + T*eta2.

    The non-Hamiltonian flow conserves this quantity exactly, which makes it
    the standard integrator health check for the thermostatted model.
    """
    e_osc = (0.5 * phase_bath.osc_p ** 2
             + 0.5 * bath.osc_freq ** 2 * phase_bath.osc_q ** 2)
    e_int = -bath.coupling * phase_bath.osc_q * (phase_sys.q1 + phase_sys.q2)
    e_chain = (0.5 * phase_bath.p_eta1 ** 2 / bath.mass_eta1
               + 0.5 * phase_bath.p_eta2 ** 2 / bath.mass_eta2
               + bath.thermo_dof * bath.temperature * phase_bath.eta1
               + bath.temperature * phase_bath.eta2)
    return system_energy(t, phase_sys, sys) + e_osc + e_int + e_chain
