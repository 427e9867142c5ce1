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
That block is an arrowhead matrix, whose eigenpairs follow from its secular
equation and Lowner's formula (:func:`_arrowhead_modes`), with exact
deflation of uncoupled modes; the module makes no LAPACK call and no matrix
product, so its bits do not follow the BLAS thread count.
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


_BLOCK = 64   # observations, roots or eigenvector components per block

# the isolated model's centre of mass: the Ohmic block with no bath modes
_NO_BATH = OhmicBathParams(freqs=np.empty(0), couplings=np.empty(0))

_EPS = float(np.finfo(float).eps)
_SECULAR_STEPS = 100   # a bound on the loop; Ohmic roots converge in 12 or fewer


def _secular_roots(alpha: float, d: np.ndarray, z2: np.ndarray):
    """Roots of g(lam) = lam - alpha - sum_j z2_j / (lam - d_j), z2 > 0 and
    d strictly increasing: one in each of (-inf, d_0), (d_0, d_1), ..,
    (d_{n-1}, inf), as ``(pole, tau)`` with root i = d[pole_i] + tau_i.

    d[pole_i] is the nearer end of root i's interval (its one finite end for
    the two outer roots), so that every lam_i - d_j = (d[pole_i] - d_j) +
    tau_i keeps the digits of tau_i. Each root takes Newton steps on a model
    of g that keeps its nearest pole exactly, -z2_k / t + psi(tau) + psi'(tau)
    (t - tau), inside a bracket that falls back to bisection, and stops once
    g is zero to its rounding error. Each block of roots is solved on its own,
    so that no array is larger than (block, n).
    """
    n = len(d)
    pole = np.minimum(np.arange(n + 1), n - 1)
    far = np.empty(n + 1)   # the bracket's far end, as an offset from the pole
    reach = math.sqrt(z2.sum())   # every root lies within |z| of [min(alpha, d), max(..)]
    far[0] = min(alpha - d[0], 0.0) - reach
    far[n] = max(alpha - d[-1], 0.0) + reach
    half = 0.5 * np.diff(d)
    for lo in range(0, n - 1, _BLOCK):   # the sign of g at each gap's midpoint
        j = np.arange(lo, min(lo + _BLOCK, n - 1))
        g = (d[j] - alpha) + half[j] - np.vecdot(1.0 / ((d[j, None] - d) + half[j, None]), z2)
        below = g >= 0
        pole[j + 1] -= below
        far[j + 1] = np.where(below, half[j], -half[j])
    tau = np.empty(n + 1)
    for lo in range(0, n + 1, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        k, t = pole[block], far[block]
        offsets, c = d[k, None] - d, z2[k]
        above = t > 0
        lower, upper = np.minimum(t, 0.0), np.maximum(t, 0.0)
        active = np.ones(len(k), dtype=bool)
        for _ in range(_SECULAR_STEPS):
            inv = 1.0 / (offsets + t[:, None])
            inv[np.arange(len(k)), k] = 0.0   # psi leaves out the nearest pole
            psi = (d[k] - alpha) + t - np.vecdot(inv, z2)
            g = psi - c / t
            upper = np.where(g > 0, t, upper)
            lower = np.where(g < 0, t, lower)
            # the model's root on the pole's side: slope t^2 + b t - c = 0
            slope = 1.0 + np.vecdot(inv * inv, z2)
            b = psi - slope * t
            q = -0.5 * (b + np.copysign(np.sqrt(b * b + 4.0 * slope * c), b))
            step = np.where(above, np.maximum(q / slope, -c / q), np.minimum(q / slope, -c / q))
            step = np.where((lower <= step) & (step <= upper), step, 0.5 * (lower + upper))
            noise = abs(d[k] - alpha) + abs(t) + np.vecdot(abs(inv), z2) + c / abs(t)
            converged = abs(g) <= 8.0 * _EPS * noise
            step = np.where(converged, t, step)
            done = converged | (abs(step - t) <= 4.0 * _EPS * abs(step))
            t = np.where(active, step, t)
            active &= ~done
            if not active.any():
                break
        else:
            raise ArithmeticError("secular equation: a root did not converge")
        tau[block] = t
    return pole, tau


@dataclass(frozen=True)
class _ArrowheadModes:
    """Eigenpairs of a symmetric arrowhead [[alpha, z^T], [z, diag(d)]] that
    have a first component. A pole with z_j = 0 is deflated: (d_j, e_j) is an
    eigenpair with none, and is left out, as is d_j's component of the rest."""

    d: np.ndarray       # the coupled poles, strictly increasing
    zhat: np.ndarray    # Lowner's border: lam are the exact eigenvalues for it
    pole: np.ndarray    # each eigenvalue's nearer pole, an index into d
    tau: np.ndarray     # each eigenvalue minus that pole
    lam: np.ndarray     # the eigenvalues, one per coupled pole and one more
    first: np.ndarray   # the first component of each unit eigenvector

    def components(self, lo: int, hi: int) -> np.ndarray:
        """Components lo .. hi - 1 of every unit eigenvector, one row each:
        row 0 the first, row j >= 1 zhat_j first / (lam - d_j)."""
        n = len(self.d)
        j = np.arange(max(lo, 1), min(hi, n + 1)) - 1
        rows = np.empty((min(hi, n + 1) - lo, n + 1))
        if lo == 0:
            rows[0] = self.first
        if len(j):
            rows[len(rows) - len(j):] = (self.zhat[j, None] * self.first) / (
                (self.d[self.pole] - self.d[j, None]) + self.tau)
        return rows


def _arrowhead_modes(alpha: float, d: np.ndarray, z: np.ndarray) -> _ArrowheadModes:
    """Eigenpairs of [[alpha, z^T], [z, diag(d)]], d strictly increasing,
    without LAPACK (Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 15, 1266
    (1994); Jakovcevic Stor, Slapnicar and Barlow, Linear Algebra Appl. 464,
    62 (2015)).

    The eigenvalues interlace the coupled poles and solve the secular
    equation (:func:`_secular_roots`). Lowner's formula rebuilds the border
    zhat_j^2 = prod_i |d_j - lam_i| / prod_(m != j) |d_j - d_m| for which
    they are exact, so that the eigenvectors (1, zhat / (lam - d)) are
    orthogonal to working accuracy however close a root lies to its pole.
    The products run over blocks of roots; each lam_i but the outer two is
    paired with a pole it interlaces, so that every ratio lies in (0, 1) and
    no partial product underflows before the last. A bare alpha (no coupled
    pole) is its own eigenvalue, with first component 1.
    """
    coupled = z != 0
    d, z = d[coupled], z[coupled]
    n = len(d)
    if n == 0:
        return _ArrowheadModes(d=d, zhat=z, pole=np.empty(0, dtype=int), tau=np.empty(0),
                               lam=np.array([alpha]), first=np.ones(1))
    pole, tau = _secular_roots(alpha, d, z * z)
    zhat2, j = np.ones(n), np.arange(n)
    for lo in range(0, n + 1, _BLOCK):
        i = np.arange(lo, min(lo + _BLOCK, n + 1))[:, None]
        # lam_i for i <= j pairs with d_(i-1) below d_j, for i > j with d_i;
        # lam_0 and lam_n have no partner
        partner = i - (i <= j)
        spacing = np.where((partner < 0) | (partner == n), 1.0,
                           abs(d - d[partner.clip(0, n - 1)]))
        zhat2 *= np.prod(abs((d[pole[i]] - d) + tau[i]) / spacing, axis=0)
    first = np.empty(n + 1)
    for lo in range(0, n + 1, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        inv = 1.0 / ((d[pole[block], None] - d) + tau[block, None])
        first[block] = 1.0 / np.sqrt(1.0 + np.vecdot(inv * inv, zhat2))
    return _ArrowheadModes(d=d, zhat=np.copysign(np.sqrt(zhat2), z), pole=pole, tau=tau,
                           lam=d[pole] + tau, first=first)


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
    -s F s = U diag(lam) U^T is an arrowhead: alpha = w^2 at (0, 0), the
    border sqrt(2) c_j / sqrt(m) and the diagonal W_j^2. Its eigenpairs come
    from the secular equation and Lowner's formula (:func:`_arrowhead_modes`),
    with no LAPACK or matrix product. An uncoupled mode (c_j = 0) is its own
    eigenmode with no qt1 component, so it drops out of qt1's rows exactly.
    The modes are independent, and each one's kick-drift-kick step is
    M = [[c, dt], [-lam dt (1 - lam dt^2/4), c]], c = 1 - lam dt^2/2, so
    M^k = (sin(k th) M - sin((k-1) th) I) / sin(th) with th = 2 arcsin(dt
    sqrt(lam) / 2). Complex arithmetic covers an unstable block (lam < 0).
    The variances sum the squared rows against the diagonal thermal
    covariance the samplers draw from; every sum over modes is one
    row-local ``np.vecdot``, and no array holds more than 3 x 64 x (N + 1)
    values.
    """
    bath = _NO_BATH if bath is None else bath
    coupled = bath.couplings != 0
    freqs, couplings = bath.freqs[coupled], bath.couplings[coupled]
    n = len(freqs)
    dt = config.dt
    w1, _ = normal_mode_freqs(0.0, sys)
    wid_sys = thermal_widths(sys.mass, w1, temperature, mode)
    wid_bath = thermal_widths(1.0, freqs, temperature, mode)
    var_q = np.append(wid_sys.var_q, wid_bath.var_q)
    var_p = np.append(wid_sys.var_p, np.broadcast_to(wid_bath.var_p, n))
    masses = np.append(sys.mass, np.ones(n))
    s = masses ** -0.5
    stiffness = masses * np.append(w1, freqs) ** 2
    modes = _arrowhead_modes(s[0] * stiffness[0] * s[0], freqs ** 2,
                             s[0] * (math.sqrt(2.0) * couplings))
    lam = modes.lam
    theta = 2.0 * np.arcsin(0.5 * dt * np.sqrt(lam.astype(complex)))
    sin_th = np.sin(theta)
    cos_th = 1.0 - 0.5 * lam * dt ** 2
    kick = -lam * dt * (1.0 - 0.25 * lam * dt ** 2)
    # row 0 of U diag(.) U^T, rescaled to (qt1, pt1) from the unweighted (q, p)
    ratio, prod = s[0] / s, s[0] * s
    steps = np.arange(0, config.n_steps + 1, config.stride)
    var_q1, var_p1 = np.empty((2, len(steps)))
    with np.errstate(over="ignore", invalid="ignore"):   # a blow-up raises below
        for lo in range(0, len(steps), _BLOCK):
            k = steps[lo:lo + _BLOCK, None]
            sin_k = (np.sin(k * theta) / sin_th).real
            diag = sin_k * cos_th - (np.sin((k - 1) * theta) / sin_th).real
            weights = np.stack([diag, sin_k * dt, sin_k * kick])[:, :, None] * modes.first
            rows = np.empty((3, len(k), n + 1))
            for col in range(0, n + 1, _BLOCK):
                rows[..., col:col + _BLOCK] = np.vecdot(weights,
                                                        modes.components(col, col + _BLOCK))
            a, b, c = rows
            block = slice(lo, lo + _BLOCK)
            var_q1[block] = np.vecdot((a * ratio) ** 2, var_q) + np.vecdot((b * prod) ** 2, var_p)
            var_p1[block] = np.vecdot((c / prod) ** 2, var_q) + np.vecdot((a / ratio) ** 2, var_p)
    finite = np.isfinite(var_q1) & np.isfinite(var_p1)
    if not finite.all():
        raise TrajectoryFailure(int(steps[finite.argmin()]))
    return var_q1, var_p1
