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
momentum, by an exact exponential drag, and the chain variables; their
divisions by unit masses are skipped, which is exact, so the bits are those
of the textbook substep.

One kick-drift-kick body, :func:`_leapfrog`, serves every model. It runs
a stretch of steps with no thermostat between them in leapfrog form:
between two steps of the stretch, the closing half-kick of one and the
opening half-kick of the next act at the same positions and run as one
kick, which halves the system-force and momentum passes of those steps. Its
last step ends with a half-kick, so the state it leaves is synchronized. A
stretch of one step is the textbook step, bit for bit, and is
:func:`step_hamiltonian`. :func:`integrate` walks the observation stretches
once for all three models: without a thermostat (the isolated and Ohmic
models) each stretch is one :func:`_leapfrog` call, whose merges round
otherwise than the synchronized loop, which moves the observed states at
round-off level (about 1e-14 of their largest value after 5000 steps); with
the Nose-Hoover chain each step is one :func:`step_nhc`, bit for bit.

Steppers write nothing they are given: :func:`integrate`,
:func:`step_hamiltonian` and :func:`step_nhc` return a state of their own,
whose moved fields are rows of C-contiguous stacks, copied once per call
and updated in place. Each kick's system force goes into a preallocated
buffer (``system_force(..., out=)``, or ``coupled_force`` with the drive
coefficient given), and the drift divides by the mass only when it is not 1;
the arithmetic is that of the textbook step, or of the textbook leapfrog
loop, bit for bit. All steppers operate transparently on scalar or batched
(leading-axis) phase coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .baths import (NHCBathParams, NHCBathPhase, OhmicBathParams, OhmicBathPhase,
                    OhmicWorkspace, nhc_bath_forces, ohmic_forces)
from .system import (SystemParams, SystemPhase, check_range, coupled_force,
                     coupling_stiffness, system_force)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    n_steps: int = 25000
    n_yoshida: int = 3
    n_mts: int = 3
    stride: int = 25    # steps between observable snapshots

    def __post_init__(self):
        check_range("dt", self.dt)
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


def _own(phase, names, shape) -> np.ndarray:
    """Copy the fields ``names`` of ``phase`` into the rows of one new
    (len(names),) + shape array, bind the fields to those rows and return it.
    """
    stack = np.empty((len(names),) + shape)
    for i, name in enumerate(names):
        stack[i, ...] = getattr(phase, name)
        setattr(phase, name, stack[i, ...])
    return stack


class _Kick:
    """The kicks and the drift of one ``dt``, on the arrays they move.

    ``state`` holds shallow copies of the caller's phases. Their moved fields
    are rows of stacks it owns and updates in place: (q1, q2), (p1, p2) and
    the bath oscillators, (pos, mom) or (osc_q, osc_p). The system force of
    each kick goes into a preallocated buffer. The bath force is evaluated at
    construction and after each drift, and serves the next kick, or half-kick,
    also across the thermostat half-steps, which move no position; observers
    of an :func:`integrate` call must not modify the state.
    """

    def __init__(self, bath: BathParams, state: TrajectoryState, dt: float):
        ph = replace(state.system)
        shape = np.broadcast_shapes(*(np.shape(v) for v in vars(ph).values()))
        self.q = _own(ph, ("q1", "q2"), shape)
        self.p = _own(ph, ("p1", "p2"), shape)
        self.force = np.empty((2,) + shape)     # the system momenta's kick
        self.dq = np.empty((2,) + shape)        # the drift's position change
        self.bath = bath
        self.dt = dt
        self.h = 0.5 * dt
        self.work = None
        bath_ph = None if state.bath is None else replace(state.bath)
        self.state = TrajectoryState(state.t, ph, bath_ph)
        if isinstance(bath, OhmicBathParams):
            self.work = OhmicWorkspace(bath, np.shape(bath_ph.pos))
            _own(bath_ph, ("pos", "mom"), np.shape(bath_ph.pos))
            self.bath_q, self.bath_p = bath_ph.pos, bath_ph.mom
        elif bath is not None:
            _own(bath_ph, ("osc_q", "osc_p"), shape)
            self.bath_q, self.bath_p = bath_ph.osc_q, bath_ph.osc_p
        self.update(self.h)

    def update(self, scale: float) -> None:
        """Evaluate the bath force at the current positions; the bath's kick
        is that force times ``scale``, the duration of the next kick."""
        state = self.state
        if self.work is not None:
            self.sys_kick, force = ohmic_forces(state.system, state.bath, self.bath,
                                                self.work)
            self.bath_kick = np.multiply(force, scale, out=force)
        elif self.bath is not None:
            self.sys_kick, force = nhc_bath_forces(state.system, state.bath, self.bath)
            self.bath_kick = scale * force

    def apply(self, force: np.ndarray, scale: float) -> None:
        """Kick the momenta for a time ``scale``: the system's by ``force``,
        the system force written into ``self.force``, plus the bath pull, and
        the bath's by the kick :meth:`update` formed for the same time."""
        if self.bath is not None:
            force += self.sys_kick
            self.bath_p += self.bath_kick
        force *= scale
        self.p += force

    def drift(self, sys: SystemParams) -> None:
        """Position update of the system and of the unit-mass bath oscillators."""
        dq = np.multiply(self.p, self.dt, out=self.dq)
        if sys.mass != 1.0:
            dq /= sys.mass
        self.q += dq
        if self.work is not None:
            self.bath_q += np.multiply(self.bath_p, self.dt, out=self.work.scratch)
        elif self.bath is not None:
            self.bath_q += self.dt * self.bath_p


def step_hamiltonian(state: TrajectoryState, sys: SystemParams,
                     bath: BathParams, dt: float,
                     kick: Optional[_Kick] = None) -> TrajectoryState:
    """One symmetric kick-drift-kick step; drive frozen at the midpoint time:
    :func:`_leapfrog` of one step.

    ``kick`` is the stepper of the enclosing :func:`integrate` call, built for
    this ``dt``, and ``state`` is its state. Standalone calls omit it and
    build their own on a copy of ``state``. Returns the stepper's state.
    """
    if kick is None:
        kick = _Kick(bath, state, dt)
    _leapfrog(kick, sys, 1)
    return kick.state


def _leapfrog(kick: _Kick, sys: SystemParams, n_steps: int) -> None:
    """``n_steps`` >= 1 kick-drift-kick steps from a synchronized state, with
    no thermostat between them, in leapfrog form: the closing half-kick of
    each step but the last and the opening half-kick of the next act at the
    same positions, so they run as one kick of ``dt`` at the mean of the two
    midpoints' drive coefficients, with the bath force scaled by ``dt``. The
    opening and closing half-kicks take the system force at their midpoint
    time; each merged kick evaluates its later midpoint's coefficient once
    and carries it to the next. The state it leaves is synchronized again.
    Exact in exact arithmetic, the merge rounds otherwise than the
    synchronized loop; one step is the textbook step, bit for bit.
    """
    dt, h, state = kick.dt, kick.h, kick.state
    t_mid = state.t + h
    kick.apply(system_force(t_mid, state.system, sys, out=kick.force), h)
    k = coupling_stiffness(t_mid, sys) if n_steps > 1 else None
    for _ in range(n_steps - 1):
        kick.drift(sys)
        state.t += dt
        t_mid = state.t + h
        k_next = coupling_stiffness(t_mid, sys)
        kick.update(dt)
        kick.apply(coupled_force(0.5 * (k + k_next), state.system, sys, out=kick.force),
                   dt)
        k = k_next
    kick.drift(sys)
    state.t += dt
    kick.update(h)
    kick.apply(system_force(t_mid, state.system, sys, out=kick.force), h)


class _Thermostat:
    """The chain half-step: n_mts passes of the Suzuki-Yoshida substeps,
    each a reversible chain update symmetric about the drag on P1.

    It drags P1 in the array of the stepper ``kick``, which must be built
    first, and owns the chain of its state as (p_eta1, p_eta2) and (eta1,
    eta2) stacks, updated in place. x = p_eta1^2/Q1 - T and G = P1^2 - gT
    are the rows of one stack, so one product gives both opening
    half-increments of a substep. A substep leaves x and G as the next one's
    opening values, and only the thermostat moves p_eta1, so x is formed
    once, here, and each half-step refreshes only G. The stacked eta
    increments are formed with -delta, so that their first row is the drag
    exponent. A division by a unit chain mass is skipped, which is exact.
    The arithmetic is that of the textbook substep, bit for bit.
    """

    def __init__(self, bath: NHCBathParams, kick: _Kick, n_yoshida: int, n_mts: int):
        ph = kick.state.bath
        self.p = kick.bath_p
        shape = np.shape(self.p)
        self.p_eta = _own(ph, ("p_eta1", "p_eta2"), shape)
        self.eta = _own(ph, ("eta1", "eta2"), shape)
        self.p_eta1, self.p_eta2 = ph.p_eta1, ph.p_eta2
        # rows as [i, ...] views: on a scalar state, stack[i] would be a copy
        # xg = (x, G); half = delta/2 * (x, G); U = -delta * p_eta / Q
        self.xg, self.half, self.u = (np.empty((2,) + shape) for _ in range(3))
        self.x, self.g = self.xg[0, ...], self.xg[1, ...]
        self.half_x, self.half_g = self.half[0, ...], self.half[1, ...]
        self.u1 = self.u[0, ...]
        self.scale, self.tmp = np.empty(shape), np.empty(shape)

        # constants as 0-d arrays, which numpy takes faster than floats
        const = np.asarray
        self.kt = const(bath.temperature)
        self.gkt = const(bath.thermo_dof * bath.temperature)
        self.q1 = None if bath.mass_eta1 == 1.0 else const(bath.mass_eta1)
        self.q2 = None if bath.mass_eta2 == 1.0 else const(bath.mass_eta2)
        self.q = (None if self.q1 is None and self.q2 is None else
                  np.reshape([bath.mass_eta1, bath.mass_eta2], (2,) + (1,) * len(shape)))
        half_dt = 0.5 * kick.dt
        self.deltas = [(const(-d), const(0.5 * d), const(-0.25 * d))
                       for d in (w * half_dt / n_mts
                                 for w in yoshida_weights(n_yoshida).tolist())] * n_mts
        _square_over(self.p_eta1, self.q1, self.kt, self.x)

    def half_step(self) -> None:
        p, p_eta, eta = self.p, self.p_eta, self.eta
        p_eta1, p_eta2 = self.p_eta1, self.p_eta2
        xg, x, g, half, half_x, half_g = (self.xg, self.x, self.g, self.half,
                                          self.half_x, self.half_g)
        scale, tmp, u, u1 = self.scale, self.tmp, self.u, self.u1
        kt, gkt, q1, q2, q = self.kt, self.gkt, self.q1, self.q2, self.q
        multiply, add, subtract, exp = np.multiply, np.add, np.subtract, np.exp
        _square_over(p, None, gkt, g)
        for neg_delta, half_delta, quarter_neg in self.deltas:
            multiply(xg, half_delta, half)
            add(p_eta2, half_x, p_eta2)
            multiply(p_eta2, quarter_neg, scale)
            if q2 is not None:
                np.divide(scale, q2, scale)
            exp(scale, scale)
            multiply(p_eta1, scale, p_eta1)
            add(p_eta1, half_g, p_eta1)
            multiply(p_eta1, scale, p_eta1)

            multiply(p_eta, neg_delta, u)
            if q is not None:
                np.divide(u, q, u)
            subtract(eta, u, eta)
            exp(u1, tmp)
            multiply(p, tmp, p)

            _square_over(p, None, gkt, g)
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

    The thermostat moves only P1 and the chain, so the bath force ``kick``
    holds stays valid across it. ``kick`` and ``thermostat`` are the stepper
    and the chain state of the enclosing :func:`integrate` call, built for
    this ``dt``, ``n_yoshida`` and ``n_mts``, on ``state``; standalone calls
    omit them and build their own, on a copy. Returns the stepper's state.
    """
    if kick is None:
        kick = _Kick(bath, state, dt)
    if thermostat is None:
        thermostat = _Thermostat(bath, kick, n_yoshida, n_mts)
    thermostat.half_step()
    step_hamiltonian(kick.state, sys, bath, dt, kick)
    thermostat.half_step()
    return kick.state


Observer = Callable[[int, TrajectoryState], None]


def integrate(state: TrajectoryState, sys: SystemParams, bath: BathParams,
              config: IntegratorConfig,
              observer: Optional[Observer] = None) -> TrajectoryState:
    """Propagate n_steps steps, calling the observer at step 0 and every stride.

    Each stretch between observations, and the last, shorter one, runs as
    one :func:`_leapfrog` call without a thermostat (isolated and Ohmic
    models) and as one :func:`step_nhc` per step with one; every observed
    step, and the last, ends synchronized. Returns the stepper's final state.
    Non-finite coordinates propagate; checking them is the caller's policy,
    and an exception the observer raises stops the integration. Observers
    see the stepper's state, must not modify it, and must copy what they
    keep: its fields are the stepper's arrays, updated in place.
    """
    kick = _Kick(bath, state, config.dt)
    thermostat = (_Thermostat(bath, kick, config.n_yoshida, config.n_mts)
                  if isinstance(bath, NHCBathParams) else None)
    state, stride = kick.state, config.stride
    if observer is not None:
        observer(0, state)
    for start in range(0, config.n_steps, stride):
        n_steps = min(stride, config.n_steps - start)
        if thermostat is None:
            _leapfrog(kick, sys, n_steps)
        else:
            for _ in range(n_steps):
                step_nhc(state, sys, bath, config.dt, config.n_yoshida, config.n_mts,
                         kick, thermostat)
        if observer is not None and n_steps == stride:
            observer(start + stride, state)
    return state
