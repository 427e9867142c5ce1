"""Floquet stability of the driven relative mode.

In drive-scaled time the relative mode obeys y'' + (a - 2q cos 2t) y = 0;
one period is [0, pi]. The monodromy matrix is built from the two
fundamental solutions of :func:`kdk_fundamental`, the package's one
velocity-Verlet loop for the relative mode, and |trace| > 2 flags
parametric instability. That this loop is the relative mode of the
trajectory stepper is checked by
``tests/test_properties.py::TestFundamentalSolution``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import SystemParams


@dataclass(frozen=True)
class MathieuParams:
    """Mathieu parameters of one cell, or arrays of them for a batch of cells."""

    a: float | np.ndarray
    q: float | np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.q) < 0):
            raise ValueError(f"q must be >= 0, got {self.q}")

    @classmethod
    def from_axes(cls, x, y) -> "MathieuParams":
        """Map map-plane coordinates x=(w/wd)^2, y=(w0/wd)^2 to (a, q)."""
        return cls(a=x + y, q=y / 2.0)


def mathieu_params(sys: SystemParams) -> MathieuParams:
    """a = (w^2 + w0^2)/wd^2 and q = w0^2/(2 wd^2) for the relative mode."""
    wd2 = sys.drive_freq ** 2
    return MathieuParams(a=(sys.freq ** 2 + sys.coupling_amp ** 2) / wd2,
                         q=sys.coupling_amp ** 2 / (2.0 * wd2))


# every caller handles an overflowed cell: monodromy raises, the map and
# grows_unbounded classify it as unstable, fundamental_solution raises
@np.errstate(over="ignore", invalid="ignore")
def kdk_fundamental(ks, dt: float, out=None):
    """Velocity-Verlet fundamental solutions of y'' = -k(t) y.

    ``ks`` yields each step's coefficient at the step midpoint, as scalars or
    as arrays over cells. Solution a starts at (y, y') = (1, 0) and b at
    (0, 1); returns their final ``(ay, by, av, bv)``. When ``out`` is given,
    of shape (4, n_steps + 1), column i receives the same four values after
    i steps.
    """
    half = 0.5 * dt
    ay, by, av, bv = 1.0, 0.0, 0.0, 1.0
    if out is not None:
        out[:, 0] = ay, by, av, bv
    for i, k in enumerate(ks, 1):
        av -= half * k * ay
        bv -= half * k * by
        ay += dt * av
        by += dt * bv
        av -= half * k * ay
        bv -= half * k * by
        if out is not None:
            out[:, i] = ay, by, av, bv
    return ay, by, av, bv


def _mathieu_fundamental(a, q, t_final: float, steps: int):
    """Fundamental solutions of y'' + (a - 2q cos 2t) y = 0 over [0, t_final]."""
    dt = t_final / steps
    half = 0.5 * dt
    return kdk_fundamental((a - 2.0 * q * np.cos(2.0 * (i * dt + half))
                            for i in range(steps)), dt)


def _check_steps(steps: int) -> None:
    """Steps per period of the monodromy and the map: fewer than 256
    under-resolve the period."""
    if steps < 256:
        raise ValueError(f"steps must be >= 256, got {steps}")


def monodromy(params: MathieuParams, steps: int = 4096) -> np.ndarray:
    """One-period propagator of the scaled relative-mode equation."""
    _check_steps(steps)
    ay, by, av, bv = _mathieu_fundamental(params.a, params.q, np.pi, steps)
    m = np.array([[ay, by], [av, bv]], dtype=float)
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

    Cells are sampled at their centers and classified by
    :func:`classify_trace`.
    """
    if x_range[1] <= x_range[0] or y_range[1] <= y_range[0]:
        raise ValueError("stability map window must have positive area")
    _check_steps(steps)
    if isinstance(resolution, int):
        nx = ny = resolution
    else:
        nx, ny = resolution
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be >= 1 in both directions")
    xs = x_range[0] + (np.arange(nx) + 0.5) * (x_range[1] - x_range[0]) / nx
    ys = y_range[0] + (np.arange(ny) + 0.5) * (y_range[1] - y_range[0]) / ny
    gx, gy = np.meshgrid(xs, ys)
    a = (gx + gy).ravel()
    q = (gy / 2.0).ravel()
    ay, by, av, bv = _mathieu_fundamental(a, q, np.pi, steps)
    tr = np.abs(ay + bv).reshape(ny, nx)
    det = (ay * bv - av * by).reshape(ny, nx)
    unstable, marginal = classify_trace(tr)
    return StabilityMap(xs=xs, ys=ys, abs_trace=tr, determinant=det,
                        unstable=unstable, marginal=marginal)


def write_stability_csv(smap: StabilityMap, path, header_lines=()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("x,y,abs_trace,unstable,marginal\n")
        for iy, y in enumerate(smap.ys):
            for ix, x in enumerate(smap.xs):
                fh.write(f"{float(x)!r},{float(y)!r},"
                         f"{float(smap.abs_trace[iy, ix])!r},"
                         f"{int(smap.unstable[iy, ix])},{int(smap.marginal[iy, ix])}\n")


def grows_unbounded(params: MathieuParams, periods: int = 50,
                    growth_threshold: float = 1e6,
                    steps_per_period: int = 4096):
    """Brute-force classification: does any entry of the propagator after
    ``periods`` periods (y or y' of either fundamental solution) exceed the
    threshold in magnitude, or overflow? Elementwise when ``params`` holds
    arrays of cells."""
    ay, by, av, bv = _mathieu_fundamental(params.a, params.q,
                                          periods * np.pi,
                                          periods * steps_per_period)
    peak = np.max(np.abs([ay, by, av, bv]), axis=0)
    return ~np.isfinite(peak) | (peak > growth_threshold)
