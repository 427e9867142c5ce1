"""Thermal environments: a discretized Ohmic oscillator bath and a single
oscillator thermalized by a two-link Nose-Hoover chain.

Both baths couple bilinearly to the sum q1 + q2, i.e. to the center-of-mass
mode only; the relative mode never feels either bath.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .system import SystemPhase, system_energy


@dataclass(frozen=True, eq=False)
class OhmicBathParams:
    """Discretized Ohmic bath: N oscillators on an exponential frequency grid."""

    n_modes: int
    kondo: float            # coupling strength xi
    cutoff: float           # omega_max
    mass: float             # m_j, identical for all modes
    mode_spacing: float     # (1 - exp(-cutoff)) / N
    freqs: np.ndarray       # Omega_j, strictly increasing, len N
    couplings: np.ndarray   # c_j, len N

    def __post_init__(self):
        if len(self.freqs) != self.n_modes or len(self.couplings) != self.n_modes:
            raise ValueError("frequency/coupling tables must have length n_modes")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("bath frequencies must be strictly increasing")


def build_ohmic_bath(n_modes: int, kondo: float, cutoff: float,
                     mass: float = 1.0) -> OhmicBathParams:
    """Construct the bath tables from (N, xi, omega_max).

    Omega_j = -ln(1 - j*spacing) with spacing = (1 - exp(-omega_max))/N, so
    Omega_N recovers the cutoff exactly; c_j = sqrt(xi * spacing * Omega_j).
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if kondo < 0:
        raise ValueError(f"kondo must be >= 0, got {kondo}")
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    spacing = (1.0 - np.exp(-cutoff)) / n_modes
    j = np.arange(1, n_modes + 1, dtype=float)
    arg = 1.0 - j * spacing
    if np.any(arg <= 0):
        raise ValueError("mode spacing too large: 1 - j*spacing must stay positive")
    freqs = -np.log(arg)
    couplings = np.sqrt(kondo * spacing * freqs)
    return OhmicBathParams(n_modes=n_modes, kondo=kondo, cutoff=cutoff, mass=mass,
                           mode_spacing=spacing, freqs=freqs, couplings=couplings)


@dataclass
class OhmicBathPhase:
    """Bath coordinates; arrays of shape (N,) or (batch, N)."""

    pos: np.ndarray   # R_j
    mom: np.ndarray   # P_j

    def copy(self) -> "OhmicBathPhase":
        return OhmicBathPhase(self.pos.copy(), self.mom.copy())

    def is_finite(self):
        return np.isfinite(self.pos).all(axis=-1) & np.isfinite(self.mom).all(axis=-1)


class OhmicWorkspace:
    """Preallocated arrays for :func:`ohmic_forces` on one bath shape.

    Every array has the shape of the bath positions, (N,) or (batch, N), so
    that each of the force's elementwise passes runs as one flat loop rather
    than one inner loop per row. ``stiffness`` holds m_j Omega_j^2 tiled to
    that shape, built once. ``force`` receives the bath force and ``scratch``
    the harmonic term; both are free for other use between calls.
    """

    def __init__(self, bath: OhmicBathParams, shape):
        self.stiffness = np.empty(shape)
        self.stiffness[...] = bath.mass * bath.freqs ** 2
        self.force = np.empty(shape)
        self.scratch = np.empty(shape)


def ohmic_forces(phase_sys: SystemPhase, phase_bath: OhmicBathPhase,
                 bath: OhmicBathParams, work: OhmicWorkspace | None = None):
    """Bath contribution to the dynamics.

    Returns ``(sys_kick, bath_force)``: the former is added to both dp1/dt
    and dp2/dt, the latter is dP_j/dt = -m_j Omega_j^2 R_j + c_j (q1 + q2).
    ``bath_force`` is ``work.force``, overwritten by the next call with the
    same workspace; without ``work`` a fresh one is allocated.

    The coupling term c_j (q1 + q2) is formed by ``einsum``, which runs it
    as one loop where a broadcast multiply runs one per row. einsum sums
    each product into a zeroed output, so a product that is exactly -0.0
    (q1 + q2 = -0.0, or c_j = 0 at kondo = 0) comes out as +0.0; every
    other value has the bits of the product. The sign of a zero reaches no
    output, all of which are second moments, counts or energy sums.
    """
    if work is None:
        work = OhmicWorkspace(bath, np.shape(phase_bath.pos))
    sys_kick = phase_bath.pos @ bath.couplings
    np.einsum("...,j->...j", phase_sys.q1 + phase_sys.q2, bath.couplings,
              out=work.force)
    np.multiply(work.stiffness, phase_bath.pos, out=work.scratch)
    np.subtract(work.force, work.scratch, out=work.force)
    return sys_kick, work.force


def ohmic_energy(t, phase_sys: SystemPhase, phase_bath: OhmicBathPhase,
                 sys, bath: OhmicBathParams):
    """Total dimensionless energy of the system + Ohmic bath model."""
    e_bath = 0.5 * (phase_bath.mom ** 2 / bath.mass
                    + bath.mass * bath.freqs ** 2 * phase_bath.pos ** 2).sum(axis=-1)
    e_int = -(phase_sys.q1 + phase_sys.q2) * (phase_bath.pos @ bath.couplings)
    return system_energy(t, phase_sys, sys) + e_bath + e_int


@dataclass(frozen=True)
class NHCBathParams:
    """Single bath oscillator plus a two-link Nose-Hoover chain thermostat.

    The thermostat acts on the bath oscillator momentum only; the system
    momenta receive no direct drag. ``thermo_dof`` (g) is the number of
    thermostatted degrees of freedom, 1 for the single oscillator.
    """

    osc_freq: float          # Omega_1
    coupling: float          # c_1
    temperature: float       # T_ext
    osc_mass: float = 1.0    # m_1
    mass_eta1: float = 1.0
    mass_eta2: float = 1.0
    thermo_dof: int = 1

    def __post_init__(self):
        if self.osc_freq <= 0:
            raise ValueError(f"osc_freq must be positive, got {self.osc_freq}")
        if self.osc_mass <= 0 or self.mass_eta1 <= 0 or self.mass_eta2 <= 0:
            raise ValueError("all masses must be positive")
        if self.thermo_dof < 1:
            raise ValueError(f"thermo_dof must be >= 1, got {self.thermo_dof}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def nhc_from_ohmic(kondo: float, cutoff: float, temperature: float,
                   mass_eta1: float = 1.0, mass_eta2: float = 1.0,
                   thermo_dof: int = 1) -> NHCBathParams:
    """Single-oscillator bath built as the N=1 limit of the Ohmic grid.

    With N=1 the discretization gives Omega_1 = omega_max exactly, so the
    lone oscillator sits at the cutoff frequency. Note that this choice
    reproduces almost none of the static stiffness renormalization of the
    many-mode bath; see :func:`nhc_matched_to_ohmic` for the variant that
    does.
    """
    single = build_ohmic_bath(1, kondo, cutoff)
    return NHCBathParams(osc_freq=float(single.freqs[0]),
                         coupling=float(single.couplings[0]),
                         temperature=temperature, osc_mass=single.mass,
                         mass_eta1=mass_eta1, mass_eta2=mass_eta2,
                         thermo_dof=thermo_dof)


DRESSING_MATCHED_OSC_FREQ = 0.15


def nhc_matched_to_ohmic(reference: OhmicBathParams, temperature: float,
                         osc_freq: float = DRESSING_MATCHED_OSC_FREQ,
                         mass_eta1: float = 1.0, mass_eta2: float = 1.0,
                         thermo_dof: int = 1) -> NHCBathParams:
    """Single-oscillator bath matching the many-mode static dressing.

    Without a counter-term the bath renormalizes the center-of-mass
    stiffness by -2 sum_j c_j^2/Omega_j^2. Choosing c_1 so that
    c_1^2/Omega_1^2 equals sum_j c_j^2/Omega_j^2 makes the single
    oscillator reproduce that shift; a slow (far off-resonant) oscillator
    tracks it quasi-statically without classicalizing the mode it dresses.
    The default frequency was calibrated against the exact covariance of
    the 200-mode reference bath.
    """
    dressing = float(np.sum(reference.couplings ** 2 / reference.freqs ** 2))
    return NHCBathParams(osc_freq=osc_freq,
                         coupling=osc_freq * math.sqrt(dressing),
                         temperature=temperature, osc_mass=reference.mass,
                         mass_eta1=mass_eta1, mass_eta2=mass_eta2,
                         thermo_dof=thermo_dof)


@dataclass
class NHCBathPhase:
    """Bath oscillator (R1, P1) plus the four fictitious chain variables."""

    osc_q: float | np.ndarray
    osc_p: float | np.ndarray
    eta1: float | np.ndarray
    eta2: float | np.ndarray
    p_eta1: float | np.ndarray
    p_eta2: float | np.ndarray

    def copy(self) -> "NHCBathPhase":
        vals = (self.osc_q, self.osc_p, self.eta1, self.eta2, self.p_eta1, self.p_eta2)
        return NHCBathPhase(*(v.copy() if isinstance(v, np.ndarray) else float(v)
                              for v in vals))

    def is_finite(self):
        return (np.isfinite(self.osc_q) & np.isfinite(self.osc_p)
                & np.isfinite(self.eta1) & np.isfinite(self.eta2)
                & np.isfinite(self.p_eta1) & np.isfinite(self.p_eta2))


def nhc_bath_forces(phase_sys: SystemPhase, phase_bath: NHCBathPhase,
                    bath: NHCBathParams):
    """Conservative forces of the NHC model (thermostat drag excluded).

    Returns ``(sys_kick, osc_force)`` with sys_kick = c1*R1 added to both
    system momenta and osc_force = -m_1 Omega_1^2 R1 + c1 (q1 + q2).
    """
    sys_kick = bath.coupling * phase_bath.osc_q
    osc_force = (-(bath.osc_mass * bath.osc_freq ** 2) * phase_bath.osc_q
                 + bath.coupling * (phase_sys.q1 + phase_sys.q2))
    return sys_kick, osc_force


def nhc_extended_energy(t, phase_sys: SystemPhase, phase_bath: NHCBathPhase,
                        sys, bath: NHCBathParams):
    """Extended Hamiltonian including the chain terms g*T*eta1 + T*eta2.

    The non-Hamiltonian flow conserves this quantity exactly, which makes it
    the standard integrator health check for the thermostatted model.
    """
    e_osc = (0.5 * phase_bath.osc_p ** 2 / bath.osc_mass
             + 0.5 * bath.osc_mass * bath.osc_freq ** 2 * phase_bath.osc_q ** 2)
    e_int = -bath.coupling * phase_bath.osc_q * (phase_sys.q1 + phase_sys.q2)
    e_chain = (0.5 * phase_bath.p_eta1 ** 2 / bath.mass_eta1
               + 0.5 * phase_bath.p_eta2 ** 2 / bath.mass_eta2
               + bath.thermo_dof * bath.temperature * phase_bath.eta1
               + bath.temperature * phase_bath.eta2)
    return system_energy(t, phase_sys, sys) + e_osc + e_int + e_chain
