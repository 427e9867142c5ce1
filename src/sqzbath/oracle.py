"""Deterministic Gaussian ground truth for the Monte Carlo pipeline.

The models are linear, so Gaussian initial states stay Gaussian and every
variance follows from the fundamental solutions of the equations of motion.
Both oracles take the trajectory code's velocity-Verlet step (unit initial
conditions instead of thermal samples), which keeps discretization bias
common-mode between oracle and Monte Carlo; a finer-step run of the oracle
bounds that shared bias. The full covariance drives :func:`integrate`
itself; the relative mode runs the 2x2 loop of
:func:`stability.kdk_fundamental`, which
``tests/test_properties.py::TestFundamentalSolution`` checks against the
relative mode of :func:`integrate`.

The relative mode is exactly bath-decoupled (both baths couple to q1 + q2),
so its two-dimensional fundamental solution is exact for all three models.
The thermostatted model has no Gaussian closure in the chain variables and
is validated against the Ohmic oracle instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baths import OhmicBathParams, OhmicBathPhase
from .integrate import IntegratorConfig, TrajectoryFailure, TrajectoryState, integrate
from .observables import VarianceSeries
from .sampling import SamplingMode, thermal_widths, width_temperature
from .stability import kdk_fundamental
from .system import (SystemParams, SystemPhase, coupling_freq_sq, normal_mode_freqs,
                     to_normal_modes)


@dataclass
class FundamentalSolution:
    """Unit-position and unit-velocity solutions of the relative mode."""

    times: np.ndarray
    pos_a: np.ndarray   # y(0)=1, y'(0)=0
    vel_a: np.ndarray
    pos_b: np.ndarray   # y(0)=0, y'(0)=1
    vel_b: np.ndarray

    def wronskian(self) -> np.ndarray:
        return self.pos_a * self.vel_b - self.vel_a * self.pos_b


def fundamental_solution(sys: SystemParams, dt: float = 0.01,
                         n_steps: int = 25000) -> FundamentalSolution:
    """Fundamental solutions of the relative mode,
    y'' = -(w^2 + 2 w0^2 sin^2(wd t)) y, with the drive at each step midpoint
    as the trajectory stepper evaluates it."""
    k = sys.freq ** 2 + 2.0 * coupling_freq_sq((np.arange(n_steps) + 0.5) * dt, sys)
    out = np.empty((4, n_steps + 1))
    kdk_fundamental(k.tolist(), dt, out)
    finite = np.isfinite(out).all(axis=0)
    if not finite[-1]:
        raise TrajectoryFailure(int(finite.argmin()))
    pos_a, pos_b, vel_a, vel_b = out
    return FundamentalSolution(times=np.arange(n_steps + 1) * dt, pos_a=pos_a,
                               vel_a=vel_a, pos_b=pos_b, vel_b=vel_b)


def mode2_variance_exact(sys: SystemParams, temperature: float,
                         mode: SamplingMode = SamplingMode.QUANTUM, *,
                         fundamental: FundamentalSolution):
    """Exact (var_qt2, var_pt2) curves from the fundamental solutions.

    Returns ``(times, var_q, var_p)`` on the time grid of ``fundamental``.
    The initial widths are thermal at the relative-mode frequency at t=0, as
    the sampler draws them; the curves are exact for all three models since
    the relative mode never couples to a bath.
    """
    _, w2 = normal_mode_freqs(0.0, sys)
    wid = thermal_widths(sys.mass, w2, temperature, mode)
    m = sys.mass
    var_q = fundamental.pos_a ** 2 * wid.var_q + fundamental.pos_b ** 2 * (wid.var_p / m ** 2)
    var_p = (m * fundamental.vel_a) ** 2 * wid.var_q + fundamental.vel_b ** 2 * wid.var_p
    return fundamental.times, var_q, var_p


def isolated_variance_series(sys: SystemParams, temperature: float,
                             mode: SamplingMode = SamplingMode.QUANTUM, *,
                             config: IntegratorConfig,
                             fundamental: FundamentalSolution):
    """Exact isolated-model variance curves in the ensemble CSV layout.

    Mode 1 is an undriven thermal oscillator, so its position and momentum
    variances are constant; mode 2 comes from the fundamental solutions,
    which must span ``config.n_steps`` steps. Standard-error columns are
    zero (the curves are deterministic).
    """
    _, var_q2, var_p2 = mode2_variance_exact(sys, temperature, mode,
                                             fundamental=fundamental)
    w1, _ = normal_mode_freqs(0.0, sys)
    wid = thermal_widths(sys.mass, w1, temperature, mode)
    idx = np.arange(0, config.n_steps + 1, config.stride)
    n_obs = len(idx)
    variances = np.column_stack([
        np.full(n_obs, wid.var_q), var_q2[idx],
        np.full(n_obs, wid.var_p), var_p2[idx],
    ])
    return VarianceSeries(times=config.obs_times, variances=variances,
                          std_errors=np.zeros_like(variances),
                          count=np.zeros(n_obs, dtype=np.int64))


# Round-off bound on the closed-form threshold temperature, reported as its
# ``tolerance``: the closed form is exact for the discrete oracle curve.
THRESHOLD_TOLERANCE = 1e-9


@dataclass
class ThresholdResult:
    temperature: float
    definition: str          # "anywhere" or "sustained"
    tolerance: float
    min_variance: float      # minimum of the variance curve at the threshold

    def to_dict(self) -> dict:
        return {"temperature": self.temperature, "definition": self.definition,
                "tolerance": self.tolerance, "min_variance": self.min_variance}


def _sustained_level(shape: np.ndarray) -> float:
    """Infimum of the levels u at which ``shape``, once below u, stays below u.

    Where ``shape`` sets a new prefix minimum at index j, j is its first
    point below every level in (shape[j], previous minimum]; the curve stays
    below such a level from j on when the level exceeds its suffix maximum.
    So the levels in (suffix max, previous min] are sustained wherever that
    interval is non-empty (which implies a new prefix minimum at j).
    """
    suffix_max = np.maximum.accumulate(shape[::-1])[::-1]
    previous_min = np.concatenate([[np.inf], np.minimum.accumulate(shape)[:-1]])
    return float(suffix_max[suffix_max < previous_min].min())


def threshold_temperature(sys: SystemParams, *, fundamental: FundamentalSolution,
                          threshold: float = 0.5,
                          mode: SamplingMode = SamplingMode.QUANTUM,
                          definition: str = "anywhere") -> Optional[ThresholdResult]:
    """Temperature where position squeezing of the relative mode disappears.

    The initial momentum variance is m^2 w2^2 times the position variance in
    both sampling modes, so var_qt2(t; T) = var_q0(T) * g(t) with
    g = pos_a^2 + (w2 pos_b)^2 independent of T. ``anywhere``: the minimum
    of var_qt2 over the window touches the threshold, var_q0(T*) =
    threshold / min g. ``sustained``: the highest temperature at which the
    curve, once below the threshold, stays below it to the end of the
    window. Returns None when no positive temperature meets the definition,
    e.g. when even the zero-point curve never dips below the threshold.
    """
    if definition not in ("anywhere", "sustained"):
        raise ValueError(f"unknown threshold definition {definition!r}")
    # the shape is read off the oracle curve itself (at T = 1), so T* is
    # exact for that curve up to round-off
    _, w2 = normal_mode_freqs(0.0, sys)
    _, var_q, _ = mode2_variance_exact(sys, 1.0, mode, fundamental=fundamental)
    shape = var_q / thermal_widths(sys.mass, w2, 1.0, mode).var_q
    level = float(shape.min()) if definition == "anywhere" else _sustained_level(shape)
    t_star = width_temperature(sys.mass, w2, threshold / level, mode)
    if t_star is None:
        return None
    _, var_q, _ = mode2_variance_exact(sys, t_star, mode, fundamental=fundamental)
    return ThresholdResult(temperature=t_star, definition=definition,
                           tolerance=THRESHOLD_TOLERANCE,
                           min_variance=float(var_q.min()))


@dataclass
class CovarianceSeries:
    """Exact normal-mode variances of the full linear model on the
    observation grid."""

    times: np.ndarray
    variances: np.ndarray           # (n_times, 4): qt1, qt2, pt1, pt2


MAX_ORACLE_BATH_MODES = 512


def full_covariance_exact(sys: SystemParams, bath: OhmicBathParams,
                          temperature: float,
                          mode: SamplingMode = SamplingMode.QUANTUM,
                          config: Optional[IntegratorConfig] = None) -> CovarianceSeries:
    """Propagate the full covariance of the Ohmic model exactly.

    The one-step map is linear, so the propagator columns are obtained by
    integrating unit initial conditions through the ordinary stepper (one
    batch row per phase-space direction); variances follow by summing the
    squared rows against the diagonal initial covariance. The initial
    covariance is diagonal in the oscillator coordinates because both modes
    share the undriven frequency at t=0.
    """
    if bath.n_modes > MAX_ORACLE_BATH_MODES:
        raise ValueError(f"oracle capped at {MAX_ORACLE_BATH_MODES} bath modes, "
                         f"got {bath.n_modes}")
    if sys.frozen_coupling:
        raise ValueError("covariance oracle requires the driven model: with a "
                         "frozen coupling the t=0 covariance is not diagonal "
                         "in oscillator coordinates")
    if config is None:
        config = IntegratorConfig()
    n_bath = bath.n_modes
    dim = 4 + 2 * n_bath

    # unit columns, coordinate order (q1, q2, R_1..R_N, p1, p2, P_1..P_N)
    q1 = np.zeros(dim)
    q2 = np.zeros(dim)
    p1 = np.zeros(dim)
    p2 = np.zeros(dim)
    pos = np.zeros((dim, n_bath))
    mom = np.zeros((dim, n_bath))
    q1[0] = 1.0
    q2[1] = 1.0
    pos[2:2 + n_bath] = np.eye(n_bath)
    p1[2 + n_bath] = 1.0
    p2[3 + n_bath] = 1.0
    mom[4 + n_bath:] = np.eye(n_bath)
    state = TrajectoryState(t=0.0, system=SystemPhase(q1, q2, p1, p2),
                            bath=OhmicBathPhase(pos, mom))

    w1, _ = normal_mode_freqs(0.0, sys)
    wid_sys = thermal_widths(sys.mass, w1, temperature, mode)
    wid_bath = thermal_widths(bath.mass, bath.freqs, temperature, mode)
    sigma0_sq = np.concatenate([
        [wid_sys.var_q, wid_sys.var_q], wid_bath.var_q,
        [wid_sys.var_p, wid_sys.var_p], wid_bath.var_p,
    ])

    times = config.obs_times
    rows = np.empty((len(times), 4, dim))   # qt1, qt2, pt1, pt2 of every column

    def observer(step, st):
        modes = to_normal_modes(st.system)
        rows[step // config.stride] = modes.qt1, modes.qt2, modes.pt1, modes.pt2

    integrate(state, sys, bath, config, observer)
    return CovarianceSeries(times=times, variances=rows ** 2 @ sigma0_sq)
