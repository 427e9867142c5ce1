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
momentum, by an exact exponential drag, and the chain variables. The
thermostat copies these into arrays it owns, once per :func:`integrate`
call, and updates them in place; its divisions by unit masses are skipped,
which is exact, so the bits are those of the textbook substep.

The stepper owns the system phase as the thermostat owns the chain: it
copies (q1, q2) and (p1, p2) into stacked (2, rows) arrays once per
:func:`integrate` call, binds the state's fields to their rows and updates
them in place. Each half-kick's system force goes into a preallocated
buffer (``system_force(..., out=)``), and the drift divides by the mass only
when it is not 1; the arithmetic is that of the textbook step, bit for bit.

All steppers mutate the state in place and operate transparently on scalar
or batched (leading-axis) phase coordinates. They never write into arrays
the caller passed in, except the Ohmic bath arrays, which the Ohmic step
updates in place.
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
    """Raised when a trajectory produces non-finite coordinates, or when an
    ensemble's moments of finite coordinates overflow.

    ``args`` is ``(step, what)``, so the exception pickles, and crosses a
    process pool, with its message intact.
    """

    def __init__(self, step: int, what: str = "phase-space coordinates"):
        super().__init__(step, what)
        self.step = step
        self.what = what

    def __str__(self) -> str:
        return f"non-finite {self.what} at step {self.step}"


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
    """The half-kick h*F, and the system phase it moves.

    It copies (q1, q2) and (p1, p2) into (2, rows) stacks it owns, once,
    binds the state's fields to their rows and updates them in place, so
    arrays the caller holds are never written. The system force of each
    half-kick goes into a preallocated (2, rows) buffer. The bath part,
    computed after one step's drift, also serves the next step's first
    half-kick within one :func:`integrate` call, whose observers must not
    modify the state.
    """

    def __init__(self, bath: BathParams, state: TrajectoryState):
        ph = state.system
        shape = np.broadcast_shapes(*(np.shape(v) for v in (ph.q1, ph.q2, ph.p1, ph.p2)))
        self.q = np.empty((2,) + shape)
        self.p = np.empty((2,) + shape)
        views = (self.q[0, ...], self.q[1, ...], self.p[0, ...], self.p[1, ...])
        for dst, src in zip(views, (ph.q1, ph.q2, ph.p1, ph.p2)):
            dst[...] = src
        ph.q1, ph.q2, ph.p1, ph.p2 = views
        self.force = np.empty((2,) + shape)     # h*F of the system momenta
        self.dq = np.empty((2,) + shape)        # the drift's position change
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
        force = system_force(t_force, state.system, sys, out=self.force)
        if self.bath is not None:
            force += self.sys_kick
        force *= self.h
        self.p += force
        if self.work is not None:
            state.bath.mom += self.bath_kick
        elif self.bath is not None:
            state.bath.osc_p = state.bath.osc_p + self.bath_kick


def _drift(state: TrajectoryState, sys: SystemParams, kick: _Kick,
           dt: float) -> None:
    """Position update of the system and of the bath oscillators."""
    dq = np.multiply(kick.p, dt, out=kick.dq)
    if sys.mass != 1.0:
        dq /= sys.mass
    kick.q += dq
    if kick.work is not None:
        state.bath.pos += np.multiply(state.bath.mom, dt / kick.bath.mass,
                                      out=kick.work.scratch)
    elif kick.bath is not None:
        state.bath.osc_q = state.bath.osc_q + dt * state.bath.osc_p / kick.bath.osc_mass


def step_hamiltonian(state: TrajectoryState, sys: SystemParams,
                     bath: BathParams, dt: float,
                     kick: Optional[_Kick] = None) -> TrajectoryState:
    """One symmetric kick-drift-kick step; drive frozen at the midpoint time.

    ``kick`` holds the system phase arrays of the enclosing :func:`integrate`
    call and the bath force left by its previous step. Standalone calls omit
    it: a new one copies the system phase, and the force is evaluated at
    entry.
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


class _Thermostat:
    """The chain half-step: n_mts passes of the Suzuki-Yoshida substeps,
    each a reversible chain update symmetric about the drag on P1.

    It copies P1 and the chain into arrays it owns, (p_eta1, p_eta2) and
    (eta1, eta2) as (2, rows) stacks, binds the state's fields to views of
    them and updates them in place, so arrays the caller holds are never
    written. A substep leaves p_eta1^2/Q1 - T and P1^2/m1 - gT as the next
    one's opening values, and one stacked product gives both eta increments
    and, negated, the drag exponent. A division by a unit mass is skipped,
    which is exact. The arithmetic is that of the textbook substep, bit for
    bit.
    """

    def __init__(self, bath: NHCBathParams, state: TrajectoryState, dt: float,
                 n_yoshida: int, n_mts: int):
        ph = state.bath
        fields = (ph.osc_p, ph.p_eta1, ph.p_eta2, ph.eta1, ph.eta2)
        shape = np.broadcast_shapes(*(np.shape(v) for v in fields))
        self.p = np.empty(shape)
        self.p_eta = np.empty((2,) + shape)
        self.eta = np.empty((2,) + shape)
        self.p_eta1, self.p_eta2 = self.p_eta[0, ...], self.p_eta[1, ...]
        views = (self.p, self.p_eta1, self.p_eta2, self.eta[0, ...], self.eta[1, ...])
        for dst, src in zip(views, fields):
            dst[...] = src
        ph.osc_p, ph.p_eta1, ph.p_eta2, ph.eta1, ph.eta2 = views
        # x = p_eta1^2/Q1 - T, G = P1^2/m1 - gT, U = delta * p_eta / Q
        self.x, self.g, self.scale, self.tmp = (np.empty(shape) for _ in range(4))
        self.u = np.empty((2,) + shape)
        self.u1 = self.u[0, ...]

        # constants as 0-d arrays, which numpy takes faster than floats
        const = np.asarray
        self.kt = const(bath.temperature)
        self.gkt = const(bath.thermo_dof * bath.temperature)
        self.m1 = None if bath.osc_mass == 1.0 else const(bath.osc_mass)
        self.q1 = None if bath.mass_eta1 == 1.0 else const(bath.mass_eta1)
        self.q2 = None if bath.mass_eta2 == 1.0 else const(bath.mass_eta2)
        self.q = (None if self.q1 is None and self.q2 is None else
                  np.reshape([bath.mass_eta1, bath.mass_eta2], (2,) + (1,) * len(shape)))
        half_dt = 0.5 * dt
        self.deltas = [(const(d), const(0.5 * d), const(-0.25 * d))
                       for d in (w * half_dt / n_mts
                                 for w in yoshida_weights(n_yoshida).tolist())] * n_mts

    def half_step(self, ph: NHCBathPhase) -> None:
        p, p_eta, eta = self.p, self.p_eta, self.eta
        p_eta1, p_eta2 = self.p_eta1, self.p_eta2
        x, g, scale, tmp, u, u1 = self.x, self.g, self.scale, self.tmp, self.u, self.u1
        kt, gkt, m1, q1, q2, q = self.kt, self.gkt, self.m1, self.q1, self.q2, self.q
        multiply, add, exp = np.multiply, np.add, np.exp
        # the Hamiltonian step rebinds P1; the chain fields stay our views
        if ph.osc_p is not p:
            p[...] = ph.osc_p
            ph.osc_p = p
        _square_over(p_eta1, q1, kt, x)
        _square_over(p, m1, gkt, g)
        for delta, half_delta, quarter_neg in self.deltas:
            multiply(x, half_delta, tmp)
            add(p_eta2, tmp, p_eta2)
            multiply(p_eta2, quarter_neg, scale)
            if q2 is not None:
                np.divide(scale, q2, scale)
            exp(scale, scale)
            multiply(p_eta1, scale, p_eta1)
            multiply(g, half_delta, tmp)
            add(p_eta1, tmp, p_eta1)
            multiply(p_eta1, scale, p_eta1)

            multiply(p_eta, delta, u)
            if q is not None:
                np.divide(u, q, u)
            add(eta, u, eta)
            np.negative(u1, tmp)
            exp(tmp, tmp)
            multiply(p, tmp, p)

            _square_over(p, m1, gkt, g)
            multiply(p_eta1, scale, p_eta1)
            multiply(g, half_delta, tmp)
            add(p_eta1, tmp, p_eta1)
            multiply(p_eta1, scale, p_eta1)
            _square_over(p_eta1, q1, kt, x)
            multiply(x, half_delta, tmp)
            add(p_eta2, tmp, p_eta2)


def _square_over(v, mass, shift, out) -> None:
    """out <- v^2 / mass - shift; a mass of None is 1."""
    np.square(v, out)
    if mass is not None:
        np.divide(out, mass, out)
    np.subtract(out, shift, out)


def step_nhc(state: TrajectoryState, sys: SystemParams, bath: NHCBathParams,
             dt: float, n_yoshida: int = 3, n_mts: int = 3,
             kick: Optional[_Kick] = None,
             thermostat: Optional[_Thermostat] = None) -> TrajectoryState:
    """Thermostat half-step, Hamiltonian step, mirrored thermostat half-step.

    The thermostat moves only P1 and the chain, so ``kick`` stays valid
    across it. ``thermostat`` is the chain state of the enclosing
    :func:`integrate` call, built for this ``dt``, ``n_yoshida`` and
    ``n_mts``; standalone calls omit it and build their own.
    """
    if thermostat is None:
        thermostat = _Thermostat(bath, state, dt, n_yoshida, n_mts)
    thermostat.half_step(state.bath)
    step_hamiltonian(state, sys, bath, dt, kick)
    thermostat.half_step(state.bath)
    return state


Observer = Callable[[int, TrajectoryState], None]


def integrate(state: TrajectoryState, sys: SystemParams, bath: BathParams,
              config: IntegratorConfig,
              observer: Optional[Observer] = None) -> TrajectoryState:
    """Propagate n_steps steps, calling the observer at step 0 and every stride.

    Non-finite coordinates propagate; checking them is the caller's policy,
    and an exception the observer raises stops the integration. Observers
    must not modify the state, and must copy what they keep: the system
    phase and the NHC chain fields are updated in place.
    """
    if observer is not None:
        observer(0, state)
    kick = _Kick(bath, state)
    thermostat = (_Thermostat(bath, state, config.dt, config.n_yoshida, config.n_mts)
                  if isinstance(bath, NHCBathParams) else None)
    for i in range(1, config.n_steps + 1):
        if thermostat is not None:
            step_nhc(state, sys, bath, config.dt, config.n_yoshida, config.n_mts,
                     kick, thermostat)
        else:
            step_hamiltonian(state, sys, bath, config.dt, kick)
        if observer is not None and i % config.stride == 0:
            observer(i, state)
    return state
