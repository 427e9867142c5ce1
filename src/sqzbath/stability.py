"""Floquet stability of the driven relative mode.

In drive-scaled time the relative mode obeys y'' + (a - 2q cos 2t) y = 0;
one period is [0, pi]. The monodromy matrix is built from the two
fundamental solutions of the relative mode's kick-drift-kick loop, and
|trace| > 2 flags parametric instability.

One loop form steps the mode: :func:`_leapfrog`, which merges the two
half-kicks that meet between steps into one, so that arrays of cells take
8 passes per step instead of 15. It serves the monodromy and the map, the
growth check :func:`grows_unbounded` and the oracle's
:func:`~sqzbath.oracle.fundamental_solution`, which records every step.
That it is the relative mode of the trajectory stepper is checked by
``tests/test_properties.py::TestFundamentalSolution``.

The monodromy and the map step only the first half period: the drive's
time-reversal symmetry gives the one-period map in closed form from the
states after N // 2 and (N + 1) // 2 of the period's N steps (see
:func:`_floquet`). Both rearrangements are exact in exact arithmetic, but
they round otherwise than the synchronized full-period loop: against it,
the 100 x 100, 4096-step map's traces differ by at most 1.9e-14
max(1, |trace|), |det - 1| stays below 2.1e-14, and no cell's
classification differs. :func:`grows_unbounded` runs every step of every
period, so it checks the half-period closure independently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .system import SystemParams


@dataclass(frozen=True)
class MathieuParams:
    """Mathieu parameters of one cell, or arrays of them for a batch of cells."""

    a: float | np.ndarray
    q: float | np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.a).all() and np.isfinite(self.q).all()):
            raise ValueError("a and q must be finite")
        if np.any(np.asarray(self.q) < 0):
            raise ValueError(f"q must be >= 0, got {np.min(self.q)}")

    @classmethod
    def from_axes(cls, x, y) -> "MathieuParams":
        """Map map-plane coordinates x=(w/wd)^2, y=(w0/wd)^2 to (a, q)."""
        return cls(a=x + y, q=y / 2.0)


def mathieu_params(sys: SystemParams) -> MathieuParams:
    """a = (w^2 + w0^2)/wd^2 and q = w0^2/(2 wd^2) for the relative mode."""
    wd2 = sys.drive_freq ** 2
    return MathieuParams(a=(sys.freq ** 2 + sys.coupling_amp ** 2) / wd2,
                         q=sys.coupling_amp ** 2 / (2.0 * wd2))


# steps whose values the recording _leapfrog holds as Python floats before
# writing them to ``out``: about 32 B each, so 4 x 2048 floats stay near 0.26 MB
_FLUSH_STEPS = 2048


# every caller handles an overflowed cell: monodromy raises, the map and
# grows_unbounded classify it as unstable, fundamental_solution raises
@np.errstate(over="ignore", invalid="ignore")
def _leapfrog(a1, q2, c, dt: float, out=None):
    """Kick-drift-kick fundamental solutions of y'' = -k(t) y over the steps
    whose midpoint cosines are ``c``, with dt (dt / 2) k_j = a1 - q2 c_j.

    In leapfrog form: with w = dt y', step j kicks w by -(a1 - q2 c_j) y
    before and after its drift y += w, and the kicks that meet between two
    steps are merged into one, with coefficient 2 a1 - q2 (c_j + c_(j+1)).
    Solution a starts at (y, y') = (1, 0) and b at (0, 1); returns
    ``(ay, by, wa, wb)`` after the last step's closing kick. Arrays of
    ``a1`` or ``q2`` over cells run in :func:`_leapfrog_cells`.

    When ``out`` is given, of shape (4, len(c)), column j receives
    ``(ay, by, av, bv)`` after step j, its velocities v = w / dt taken after
    the step's closing kick. The steps' values are held as Python floats and
    written ``_FLUSH_STEPS`` columns at a time, and the merged coefficients
    are formed one such block at a time.
    """
    if np.ndim(a1) or np.ndim(q2):
        return _leapfrog_cells(a1, q2, c, dt)
    a1, q2 = float(a1), float(q2)   # Python floats step faster than numpy's
    ay, by, wa, wb = 1.0, 0.0, 0.0, dt
    a2, n, record = 2.0 * a1, len(c), out is not None
    k = a1 - q2 * float(c[0])
    wa -= k * ay
    wb -= k * by
    for lo in range(0, n, _FLUSH_STEPS):
        ends = c[lo:lo + _FLUSH_STEPS + 1]
        ks = (a2 - q2 * (ends[:-1] + ends[1:])).tolist()
        if lo + _FLUSH_STEPS >= n:
            ks.append(a1 - q2 * float(c[-1]))   # the last step's closing kick
        ays, bys, was, wbs = track = [], [], [], []
        for k in ks:
            ay += wa
            by += wb
            if record:
                ays.append(ay)
                bys.append(by)
                was.append(wa)
                wbs.append(wb)
            wa -= k * ay
            wb -= k * by
        if record:
            block = out[:, lo:lo + len(ks)]
            block[:] = track
            block[2:] -= (a1 - q2 * c[lo:lo + len(ks)]) * block[:2]   # closing kicks
            block[2:] /= dt
    return ay, by, wa, wb


def _leapfrog_cells(a1, q2, c, dt: float):
    """:func:`_leapfrog` on arrays over cells, with stacked (ay, by) and
    (wa, wb) buffers updated in place: 8 passes over the cells per step."""
    multiply, add, subtract = np.multiply, np.add, np.subtract
    shape = np.broadcast_shapes(np.shape(a1), np.shape(q2))
    y = np.zeros((2,) + shape)      # (ay, by)
    w = np.zeros((2,) + shape)      # (wa, wb)
    y[0], w[1] = 1.0, dt
    a2 = 2.0 * a1
    k, scratch = np.empty(shape), np.empty((2,) + shape)

    def kick(a, s):                 # w -= (a - q2 s) y
        multiply(q2, s, out=k)
        subtract(a, k, out=k)
        multiply(y, k, out=scratch)
        subtract(w, scratch, out=w)

    kick(a1, c[0])
    add(y, w, out=y)
    for s in (c[:-1] + c[1:]).tolist():
        kick(a2, s)
        add(y, w, out=y)
    kick(a1, c[-1])
    return y[0], y[1], w[0], w[1]


def _mathieu_kicks(a, q, dt: float, steps: int):
    """``(a1, q2, c)`` of :func:`_leapfrog` for ``steps`` steps of ``dt``
    from t = 0 of y'' + (a - 2q cos 2t) y = 0."""
    half = 0.5 * dt
    c = np.cos(2.0 * (np.arange(steps) * dt + half))
    return dt * half * a, 2.0 * dt * half * q, c


@np.errstate(over="ignore", invalid="ignore")   # an overflowed cell is unstable
def _floquet(a, q, steps: int):
    """One period's monodromy ``(m00, m01, m10, m11)`` of ``steps`` loop
    steps, and its determinant, from the first half period alone.

    Each step uses one coefficient for both half-kicks, so its map P_j is its
    own time reverse, S P_j^-1 S = P_j with S = diag(1, -1); cos 2t is even
    with period pi, so P_(N-1-j) = P_j. Hence M = S adj(H) S G exactly, with
    H the state after N // 2 steps and G after (N + 1) // 2, one step more
    when N is odd; the determinant is det(H) det(G). H comes from
    :func:`_leapfrog`, and G from one more kick-drift-kick step.
    """
    dt = np.pi / steps
    a1, q2, c = _mathieu_kicks(a, q, dt, (steps + 1) // 2)
    ay, by, wa, wb = _leapfrog(a1, q2, c[:steps // 2], dt)
    av, bv = wa / dt, wb / dt
    gay, gby, gav, gbv = ay, by, av, bv
    if steps % 2:
        k = a1 - q2 * c[-1]
        gwa, gwb = wa - k * ay, wb - k * by
        gay, gby = ay + gwa, by + gwb
        gav, gbv = (gwa - k * gay) / dt, (gwb - k * gby) / dt
    m = (bv * gay + by * gav, bv * gby + by * gbv,
         av * gay + ay * gav, av * gby + ay * gbv)
    return m, (ay * bv - av * by) * (gay * gbv - gav * gby)


# Bounds on the map's arguments, checked before anything is allocated: the
# loop's cosine table takes 4 MiB at MAX_PERIOD_STEPS steps per period, and a
# map keeps about 160 B per cell alive at once, 160 MB at MAX_MAP_CELLS.
MAX_PERIOD_STEPS = 2 ** 20
MAX_MAP_CELLS = 1_000_000


def _check_steps(steps: int) -> None:
    """Steps per period of the monodromy and the map: fewer than 256
    under-resolve the period, and more than ``MAX_PERIOD_STEPS`` are refused."""
    if steps < 256:
        raise ValueError(f"steps must be >= 256, got {steps}")
    if steps > MAX_PERIOD_STEPS:
        raise ValueError(f"steps must be <= {MAX_PERIOD_STEPS}, got {steps}")


def monodromy(params: MathieuParams, steps: int = 4096) -> np.ndarray:
    """One-period propagator of the scaled relative-mode equation."""
    _check_steps(steps)
    (m00, m01, m10, m11), _ = _floquet(params.a, params.q, steps)
    m = np.array([[m00, m01], [m10, m11]], dtype=float)
    if not np.isfinite(m).all():
        raise ValueError(f"monodromy overflow at a={params.a}, q={params.q}")
    return m


# A cell is unstable when |trace| exceeds 2 by more than TRACE_TOL, and
# marginal when |trace| lies within MARGINAL_TOL of 2, where floating point
# cannot decide it.
TRACE_TOL = 1e-9
MARGINAL_TOL = 1e-3


def classify_trace(abs_trace):
    """``(unstable, marginal)`` flags of monodromy |trace| values, elementwise.

    A non-finite trace is unstable: the propagation overflowed, as in
    :func:`grows_unbounded`.
    """
    abs_trace = np.asarray(abs_trace)
    return (~np.isfinite(abs_trace) | (abs_trace > 2.0 + TRACE_TOL),
            np.abs(abs_trace - 2.0) < MARGINAL_TOL)


@dataclass
class StabilityMap:
    """Instability classification over the (x, y) = ((w/wd)^2, (w0/wd)^2) plane."""

    xs: np.ndarray          # cell centers, (nx,)
    ys: np.ndarray          # cell centers, (ny,)
    abs_trace: np.ndarray   # (ny, nx)
    determinant: np.ndarray
    unstable: np.ndarray    # see classify_trace
    marginal: np.ndarray


def stability_map(x_range=(0.0, 40.0), y_range=(0.0, 40.0), resolution=400,
                  steps: int = 4096) -> StabilityMap:
    """Classify every cell of a regular grid by its monodromy trace.

    Cells are sampled at their centers, mapped to (a, q) by
    :meth:`MathieuParams.from_axes` (so y must be >= 0) and classified by
    :func:`classify_trace`; at most ``MAX_MAP_CELLS`` of them.
    """
    if not np.isfinite([*x_range, *y_range]).all():
        raise ValueError("stability map window values must be finite")
    if x_range[1] <= x_range[0] or y_range[1] <= y_range[0]:
        raise ValueError("degenerate stability map window (zero area)")
    _check_steps(steps)
    if isinstance(resolution, numbers.Integral):
        nx = ny = int(resolution)
    else:
        nx, ny = (int(n) for n in resolution)
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be >= 1 in both directions")
    if nx * ny > MAX_MAP_CELLS:
        raise ValueError(f"resolution {nx} x {ny} exceeds {MAX_MAP_CELLS} cells")
    # a centre that overflows is refused by from_axes, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        xs = x_range[0] + (np.arange(nx) + 0.5) * (x_range[1] - x_range[0]) / nx
        ys = y_range[0] + (np.arange(ny) + 0.5) * (y_range[1] - y_range[0]) / ny
    gx, gy = np.meshgrid(xs, ys)
    cells = MathieuParams.from_axes(gx.ravel(), gy.ravel())
    (m00, _, _, m11), det = _floquet(cells.a, cells.q, steps)
    tr = np.abs(m00 + m11).reshape(ny, nx)
    det = det.reshape(ny, nx)
    unstable, marginal = classify_trace(tr)
    return StabilityMap(xs=xs, ys=ys, abs_trace=tr, determinant=det,
                        unstable=unstable, marginal=marginal)


def write_stability_csv(smap: StabilityMap, path, header_lines=()) -> None:
    """One row per cell, y-major; floats as ``repr`` so they read back exactly."""
    parts = [f"# {line}\n" for line in header_lines]
    parts.append("x,y,abs_trace,unstable,marginal\n")
    xs = [repr(x) for x in smap.xs.tolist()]
    for y, traces, unstable, marginal in zip(smap.ys.tolist(), smap.abs_trace.tolist(),
                                             smap.unstable.tolist(),
                                             smap.marginal.tolist()):
        y = repr(y)
        parts.extend(f"{x},{y},{tr!r},{int(u)},{int(m)}\n"
                     for x, tr, u, m in zip(xs, traces, unstable, marginal))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(parts))


def grows_unbounded(params: MathieuParams, periods: int = 50,
                    growth_threshold: float = 1e6,
                    steps_per_period: int = 4096):
    """Brute-force classification: does any entry of the propagator after
    ``periods`` periods (y or y' of either fundamental solution) exceed the
    threshold in magnitude, or overflow? Elementwise when ``params`` holds
    arrays of cells. Every step of every period runs, so this checks the
    half-period closure of the map independently."""
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    _check_steps(steps_per_period)
    dt = np.pi / steps_per_period
    ay, by, wa, wb = _leapfrog(*_mathieu_kicks(params.a, params.q, dt,
                                               periods * steps_per_period), dt)
    peak = np.max(np.abs([ay, by, wa / dt, wb / dt]), axis=0)
    return ~np.isfinite(peak) | (peak > growth_threshold)
