"""Symmetric-Trotter trajectory propagation for all three models.

The Hamiltonian part is a velocity-Verlet step whose explicit time
dependence (the drive) is evaluated at the step midpoint, which keeps the
map second-order accurate and time-reversible. The conservative forces of
both baths depend on positions only, so within one :func:`integrate` call
the bath force is evaluated once per step, after the drift, and serves both
adjacent half-kicks ("first same as last"); the result is bit-identical to
evaluating it at every half-kick. The Nose-Hoover chain wraps that step
between two thermostat half-updates built from a Suzuki-Yoshida composition
with a multiple-time-step inner loop. They move only the bath oscillator
momentum, by an exact exponential drag, and the chain variables.

All steppers mutate the state in place and operate transparently on scalar
or batched (leading-axis) phase coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .baths import (NHCBathParams, NHCBathPhase, OhmicBathParams, OhmicBathPhase,
                    OhmicWorkspace, nhc_bath_forces, ohmic_forces)
from .system import SystemParams, SystemPhase, system_force


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    n_steps: int = 25000
    n_yoshida: int = 3
    n_mts: int = 3
    stride: int = 25    # steps between observable snapshots

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.n_yoshida not in (1, 3, 5):
            raise ValueError(f"n_yoshida must be 1, 3 or 5, got {self.n_yoshida}")
        if self.n_mts < 1:
            raise ValueError(f"n_mts must be >= 1, got {self.n_mts}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    @property
    def obs_times(self) -> np.ndarray:
        """The observation grid k * (stride * dt), k = 0 .. n_steps // stride."""
        return np.arange(self.n_steps // self.stride + 1) * (self.stride * self.dt)


BathPhase = Union[OhmicBathPhase, NHCBathPhase, None]
BathParams = Union[OhmicBathParams, NHCBathParams, None]


@dataclass
class TrajectoryState:
    """Current time plus system and (optional) bath phase coordinates."""

    t: float
    system: SystemPhase
    bath: BathPhase = None

    def copy(self) -> "TrajectoryState":
        return TrajectoryState(self.t, self.system.copy(),
                               self.bath.copy() if self.bath is not None else None)

    def is_finite(self):
        ok = self.system.is_finite()
        if self.bath is not None:
            ok = ok & self.bath.is_finite()
        return ok


class TrajectoryFailure(RuntimeError):
    """Raised when a trajectory produces non-finite coordinates."""

    def __init__(self, step: int):
        super().__init__(f"non-finite phase-space coordinates at step {step}")
        self.step = step


def yoshida_weights(n_yoshida: int) -> np.ndarray:
    """Fourth-order Suzuki-Yoshida composition weights (sum to 1)."""
    if n_yoshida == 1:
        return np.array([1.0])
    if n_yoshida == 3:
        w = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        return np.array([w, 1.0 - 2.0 * w, w])
    if n_yoshida == 5:
        w = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
        return np.array([w, w, 1.0 - 4.0 * w, w, w])
    raise ValueError(f"unsupported Yoshida stage count {n_yoshida}; use 1, 3 or 5")


class _Kick:
    """The half-kick h*F. Its bath part, computed after one step's drift,
    also serves the next step's first half-kick within one :func:`integrate`
    call, whose observers must not modify the state."""

    def __init__(self, bath: BathParams, state: TrajectoryState):
        self.bath = bath
        self.work = (OhmicWorkspace(bath, np.shape(state.bath.pos))
                     if isinstance(bath, OhmicBathParams) else None)
        self.h = None           # half-step of the cached kick; None until computed
        self.sys_kick = None
        self.bath_kick = None

    def update(self, state: TrajectoryState, h: float) -> None:
        if self.work is not None:
            self.sys_kick, force = ohmic_forces(state.system, state.bath, self.bath,
                                                self.work)
            self.bath_kick = np.multiply(force, h, out=force)
        elif self.bath is not None:
            self.sys_kick, force = nhc_bath_forces(state.system, state.bath, self.bath)
            self.bath_kick = h * force
        self.h = h

    def apply(self, state: TrajectoryState, sys: SystemParams,
              t_force: float) -> None:
        ph = state.system
        f1, f2 = system_force(t_force, ph, sys)
        if self.bath is None:
            ph.p1 = ph.p1 + self.h * f1
            ph.p2 = ph.p2 + self.h * f2
            return
        ph.p1 = ph.p1 + self.h * (f1 + self.sys_kick)
        ph.p2 = ph.p2 + self.h * (f2 + self.sys_kick)
        if self.work is not None:
            state.bath.mom += self.bath_kick
        else:
            state.bath.osc_p = state.bath.osc_p + self.bath_kick


def _drift(state: TrajectoryState, sys: SystemParams, kick: _Kick,
           dt: float) -> None:
    """Position update of the system and of the bath oscillators."""
    ph = state.system
    ph.q1 = ph.q1 + dt * ph.p1 / sys.mass
    ph.q2 = ph.q2 + dt * ph.p2 / sys.mass
    if kick.work is not None:
        state.bath.pos += np.multiply(state.bath.mom, dt / kick.bath.mass,
                                      out=kick.work.scratch)
    elif kick.bath is not None:
        state.bath.osc_q = state.bath.osc_q + dt * state.bath.osc_p / kick.bath.osc_mass


def step_hamiltonian(state: TrajectoryState, sys: SystemParams,
                     bath: BathParams, dt: float,
                     kick: Optional[_Kick] = None) -> TrajectoryState:
    """One symmetric kick-drift-kick step; drive frozen at the midpoint time.

    ``kick`` carries the bath force left by the previous step of the same
    :func:`integrate` call. Standalone calls omit it, and the force is then
    evaluated at entry.
    """
    t_mid = state.t + 0.5 * dt
    h = 0.5 * dt
    if kick is None:
        kick = _Kick(bath, state)
    if kick.h != h:
        kick.update(state, h)
    kick.apply(state, sys, t_mid)
    _drift(state, sys, kick, dt)
    kick.update(state, h)
    kick.apply(state, sys, t_mid)
    state.t += dt
    return state


def _thermostat_substep(ph: NHCBathPhase, bath: NHCBathParams, delta: float) -> None:
    """One reversible chain update of size delta, symmetric about the drag."""
    kt = bath.temperature
    g = bath.thermo_dof

    ph.p_eta2 = ph.p_eta2 + 0.5 * delta * (ph.p_eta1 ** 2 / bath.mass_eta1 - kt)
    scale1 = np.exp(-0.25 * delta * ph.p_eta2 / bath.mass_eta2)
    g1 = ph.osc_p ** 2 / bath.osc_mass - g * kt
    ph.p_eta1 = (ph.p_eta1 * scale1 + 0.5 * delta * g1) * scale1

    ph.osc_p = ph.osc_p * np.exp(-delta * ph.p_eta1 / bath.mass_eta1)
    ph.eta1 = ph.eta1 + delta * ph.p_eta1 / bath.mass_eta1
    ph.eta2 = ph.eta2 + delta * ph.p_eta2 / bath.mass_eta2

    g1 = ph.osc_p ** 2 / bath.osc_mass - g * kt
    ph.p_eta1 = (ph.p_eta1 * scale1 + 0.5 * delta * g1) * scale1
    ph.p_eta2 = ph.p_eta2 + 0.5 * delta * (ph.p_eta1 ** 2 / bath.mass_eta1 - kt)


def _thermostat_half_step(ph: NHCBathPhase, bath: NHCBathParams, half_dt: float,
                          weights: np.ndarray, n_mts: int) -> None:
    for _ in range(n_mts):
        for w in weights:
            _thermostat_substep(ph, bath, w * half_dt / n_mts)


def step_nhc(state: TrajectoryState, sys: SystemParams, bath: NHCBathParams,
             dt: float, n_yoshida: int = 3, n_mts: int = 3,
             kick: Optional[_Kick] = None) -> TrajectoryState:
    """Thermostat half-step, Hamiltonian step, mirrored thermostat half-step.

    The thermostat moves only P1 and the chain, so ``kick`` stays valid
    across it.
    """
    weights = yoshida_weights(n_yoshida)
    _thermostat_half_step(state.bath, bath, 0.5 * dt, weights, n_mts)
    step_hamiltonian(state, sys, bath, dt, kick)
    _thermostat_half_step(state.bath, bath, 0.5 * dt, weights, n_mts)
    return state


Observer = Callable[[int, TrajectoryState], None]


def integrate(state: TrajectoryState, sys: SystemParams, bath: BathParams,
              config: IntegratorConfig, observer: Optional[Observer] = None,
              strict: bool = True) -> TrajectoryState:
    """Propagate n_steps steps, calling the observer at step 0 and every stride.

    With ``strict`` a non-finite state at an observation point raises
    :class:`TrajectoryFailure`; batched ensemble runs disable it and handle
    per-trajectory masking themselves.
    """
    if observer is not None:
        observer(0, state)
    nhc = isinstance(bath, NHCBathParams)
    kick = _Kick(bath, state)
    for i in range(1, config.n_steps + 1):
        if nhc:
            step_nhc(state, sys, bath, config.dt, config.n_yoshida, config.n_mts,
                     kick)
        else:
            step_hamiltonian(state, sys, bath, config.dt, kick)
        if i % config.stride == 0 or i == config.n_steps:
            if strict and not np.all(state.is_finite()):
                raise TrajectoryFailure(i)
            if observer is not None and i % config.stride == 0:
                observer(i, state)
    return state
