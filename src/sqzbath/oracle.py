"""Deterministic Gaussian ground truth for the Monte Carlo pipeline.

The models are linear, so Gaussian initial states stay Gaussian and every
variance follows from the propagator of the trajectory code's
kick-drift-kick step (unit initial conditions instead of thermal samples),
which keeps discretization bias common-mode between oracle and Monte Carlo.
No code runs the oracle at a finer step, so nothing bounds that shared bias.

Both baths couple to q1 + q2 only. The relative mode is therefore
bath-decoupled, and its 2x2 fundamental solution, from the Floquet map's
loop :func:`stability._leapfrog`, is exact for all three models
(``tests/test_properties.py::TestFundamentalSolution`` checks it against the
relative mode of :func:`integrate`). The centre-of-mass mode is undriven:
alone (isolated) or with the Ohmic bath it forms a time-invariant linear
block whose step powers have one closed form (:func:`mode1_variance_exact`).
The thermostatted model has no Gaussian closure in the chain variables, so
only its mode 2 has an exact curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baths import OhmicBathParams
from .integrate import IntegratorConfig, TrajectoryFailure
from .observables import SQUEEZING_THRESHOLD, VarianceSeries
from .sampling import SamplingMode, thermal_widths, width_temperature
from .stability import _leapfrog
from .system import SystemParams, normal_mode_freqs, to_kelvin

# not called here; bench/tracer.py wraps these two module globals by name
from .integrate import integrate  # noqa: F401
from .system import to_normal_modes  # noqa: F401


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
    as the trajectory stepper evaluates it.

    Since 2 w0^2 sin^2(wd t) = w0^2 (1 - cos 2 wd t), the mode has the Mathieu
    form of the Floquet map, and runs in its loop (:func:`stability._leapfrog`)
    with a1 = dt (dt / 2) (w^2 + w0^2), q2 = dt (dt / 2) w0^2 and
    c_j = cos(2 wd (j + 1/2) dt); with frozen coupling, a1 = dt (dt / 2)
    (w^2 + 2 w0^2) and q2 = 0. Raises :class:`TrajectoryFailure` at the first
    step whose values are not finite.
    """
    IntegratorConfig(dt=dt, n_steps=n_steps)   # its rules for dt and n_steps
    h = 0.5 * dt
    w2, w02 = sys.freq ** 2, sys.coupling_amp ** 2
    if sys.frozen_coupling:
        a1, q2 = dt * h * (w2 + 2.0 * w02), 0.0
    else:
        a1, q2 = dt * h * (w2 + w02), dt * h * w02
    # on the stepper's grid t_j = (j + 1/2) dt, so that c_j rounds as its drive does
    c = np.cos((2.0 * sys.drive_freq) * ((np.arange(n_steps) + 0.5) * dt))
    out = np.empty((4, n_steps + 1))
    out[:, 0] = 1.0, 0.0, 0.0, 1.0
    if n_steps:
        _leapfrog(a1, q2, c, dt, out[:, 1:])
    del c   # freed before the time grid, which would otherwise set the peak
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

    Mode 1 comes from :func:`mode1_variance_exact` with no bath, mode 2 from
    the fundamental solutions, which must span ``config.n_steps`` steps.
    Standard errors and the count are zero (the curves are deterministic).
    """
    _, var_q2, var_p2 = mode2_variance_exact(sys, temperature, mode,
                                             fundamental=fundamental)
    var_q1, var_p1 = mode1_variance_exact(sys, None, temperature, mode, config=config)
    idx = np.arange(0, config.n_steps + 1, config.stride)
    variances = np.column_stack([var_q1, var_q2[idx], var_p1, var_p2[idx]])
    return VarianceSeries(times=config.obs_times, variances=variances,
                          std_errors=np.zeros_like(variances), count=0)


# Round-off bound on the closed-form threshold temperature, reported as its
# ``tolerance``: the closed form is exact for the discrete oracle curve.
THRESHOLD_TOLERANCE = 1e-9


@dataclass
class ThresholdResult:
    temperature: float
    definition: str          # "anywhere" or "sustained"
    tolerance: float
    min_variance: float      # minimum of the variance curve at the threshold
    temperature_K: float     # ``temperature`` in kelvin at the carrier frequency


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
                          mode: SamplingMode = SamplingMode.QUANTUM,
                          definition: str = "anywhere") -> Optional[ThresholdResult]:
    """Temperature where position squeezing of the relative mode disappears.

    The initial momentum variance is m^2 w2^2 times the position variance in
    both sampling modes, so var_qt2(t; T) = var_q0(T) * g(t) with
    g = pos_a^2 + (w2 pos_b)^2 independent of T. The threshold is
    :data:`observables.SQUEEZING_THRESHOLD`. ``anywhere``: the minimum of
    var_qt2 over the window touches the threshold, var_q0(T*) = threshold /
    min g. ``sustained``: the highest temperature at which the curve, once
    below the threshold, stays below it to the end of the window. Returns
    None when no positive temperature meets the definition, e.g. when even
    the zero-point curve never dips below the threshold.
    """
    if definition not in ("anywhere", "sustained"):
        raise ValueError(f"unknown threshold definition {definition!r}")
    # the shape is read off the oracle curve itself (at T = 1), so T* is
    # exact for that curve up to round-off
    _, w2 = normal_mode_freqs(0.0, sys)
    _, var_q, _ = mode2_variance_exact(sys, 1.0, mode, fundamental=fundamental)
    shape = var_q / thermal_widths(sys.mass, w2, 1.0, mode).var_q
    level = float(shape.min()) if definition == "anywhere" else _sustained_level(shape)
    t_star = width_temperature(sys.mass, w2, SQUEEZING_THRESHOLD / level, mode)
    if t_star is None:
        return None
    _, var_q, _ = mode2_variance_exact(sys, t_star, mode, fundamental=fundamental)
    return ThresholdResult(temperature=t_star, definition=definition,
                           tolerance=THRESHOLD_TOLERANCE,
                           min_variance=float(var_q.min()),
                           temperature_K=to_kelvin(t_star, sys.carrier_freq))


_OBS_BLOCK = 64   # observations per block, to bound the temporaries

# the isolated model's centre of mass: the Ohmic block with no bath modes
_NO_BATH = OhmicBathParams(freqs=np.empty(0), couplings=np.empty(0))


def mode1_variance_exact(sys: SystemParams, bath: Optional[OhmicBathParams],
                         temperature: float,
                         mode: SamplingMode = SamplingMode.QUANTUM, *,
                         config: IntegratorConfig):
    """Exact (var_qt1, var_pt1) of the isolated (``bath`` None) or Ohmic
    model on ``config.obs_times``.

    The centre-of-mass mode and the bath form an undriven linear block
    (qt1, R_1..R_N | pt1, P_1..P_N) with symmetric force matrix F (F00 =
    -m w^2, F0j = sqrt(2) c_j, Fjj = -W_j^2 for the unit-mass bath); the
    isolated model is the block with N = 0. With s = diag(m, 1, .., 1)^(-1/2),
    -s F s = U diag(lam) U^T splits it into independent modes whose
    kick-drift-kick step is M = [[c, dt], [-lam dt (1 - lam dt^2/4), c]],
    c = 1 - lam dt^2/2, so M^k = (sin(k th) M - sin((k-1) th) I) / sin(th)
    with th = 2 arcsin(dt sqrt(lam) / 2). Complex arithmetic covers an
    unstable block (lam < 0).
    The variances sum the squared rows against the diagonal thermal
    covariance the samplers draw from.
    """
    bath = _NO_BATH if bath is None else bath
    dt = config.dt
    w1, _ = normal_mode_freqs(0.0, sys)
    wid_sys = thermal_widths(sys.mass, w1, temperature, mode)
    wid_bath = thermal_widths(1.0, bath.freqs, temperature, mode)
    var_q = np.append(wid_sys.var_q, wid_bath.var_q)
    var_p = np.append(wid_sys.var_p, np.broadcast_to(wid_bath.var_p, bath.n_modes))
    masses = np.append(sys.mass, np.ones(bath.n_modes))
    s = masses ** -0.5
    force = np.diag(-masses * np.append(w1, bath.freqs) ** 2)
    force[0, 1:] = force[1:, 0] = math.sqrt(2.0) * bath.couplings
    lam, u = np.linalg.eigh(-(s[:, None] * force * s))
    theta = 2.0 * np.arcsin(0.5 * dt * np.sqrt(lam.astype(complex)))
    sin_th = np.sin(theta)
    cos_th = 1.0 - 0.5 * lam * dt ** 2
    kick = -lam * dt * (1.0 - 0.25 * lam * dt ** 2)
    # row 0 of U diag(.) U^T, rescaled to (qt1, pt1) from the unweighted (q, p)
    u0, ratio, prod = u[0], s[0] / s, s[0] * s
    steps = np.arange(0, config.n_steps + 1, config.stride)
    var_q1, var_p1 = np.empty((2, len(steps)))
    with np.errstate(over="ignore", invalid="ignore"):   # a blow-up raises below
        for lo in range(0, len(steps), _OBS_BLOCK):
            k = steps[lo:lo + _OBS_BLOCK, None]
            sin_k = (np.sin(k * theta) / sin_th).real
            diag = sin_k * cos_th - (np.sin((k - 1) * theta) / sin_th).real
            a, b, c = ((u0 * d) @ u.T for d in (diag, sin_k * dt, sin_k * kick))
            block = slice(lo, lo + _OBS_BLOCK)
            var_q1[block] = (a * ratio) ** 2 @ var_q + (b * prod) ** 2 @ var_p
            var_p1[block] = (c / prod) ** 2 @ var_q + (a / ratio) ** 2 @ var_p
    finite = np.isfinite(var_q1) & np.isfinite(var_p1)
    if not finite.all():
        raise TrajectoryFailure(int(steps[finite.argmin()]))
    return var_q1, var_p1
