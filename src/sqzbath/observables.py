"""Ensemble statistics of the normal-mode coordinates.

Variances are accumulated with Welford/Chan updates so partial accumulators
from independent workers merge associatively (to floating round-off). The
population (1/n) convention is used throughout: with the ensemble sizes in
play the difference from 1/(n-1) is far below the statistical error, and it
matches the phase-space-average definition of the moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

COORD_NAMES = ("qt1", "qt2", "pt1", "pt2")

# the vacuum level hbar / 2 = 1/2 that a squeezed variance dips below; the
# one definition that squeeze_report, the oracle's threshold temperature and
# the plot scripts read
SQUEEZING_THRESHOLD = 0.5


class VarianceAccumulator:
    """Streaming mean/variance of (qt1, qt2, pt1, pt2) on a fixed time grid,
    over one trajectory count for every time."""

    def __init__(self, times: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        nt = len(self.times)
        self.count = np.int64(0)    # not int: n_a * n_b / n divides as float64
        self.mean = np.zeros((nt, 4))
        self.m2 = np.zeros((nt, 4))

    def add_block(self, values: np.ndarray) -> None:
        """Merge a whole (n_traj, n_times, 4) block, one coordinate's
        ``values[..., k]`` view at a time.

        numpy sums a view's trajectory axis in order when that axis is not
        the view's smallest stride, and pairwise when it is (as it is when
        n_times is 1). A C-ordered block and the ``transpose(1, 2, 0)``
        view of a coordinate-major (4, n_traj, n_times) buffer both meet
        that condition, so they give the same bits.
        """
        values = np.asarray(values, dtype=float)
        n = values.shape[0]
        if n == 0:
            return
        block_mean, block_m2 = np.empty((2, len(self.times), 4))
        for k in range(4):
            coord = values[..., k]
            block_mean[:, k] = mean = coord.mean(axis=0)
            block_m2[:, k] = ((coord - mean) ** 2).sum(axis=0)
        self._merge_moments(np.int64(n), block_mean, block_m2)

    def merge(self, other: "VarianceAccumulator") -> "VarianceAccumulator":
        """Associative combination of two partial accumulators (Chan update)."""
        if not np.array_equal(self.times, other.times):
            raise ValueError("cannot merge accumulators on different time grids")
        self._merge_moments(other.count, other.mean, other.m2)
        return self

    def _merge_moments(self, n_b, mean_b, m2_b) -> None:
        if n_b == 0:
            return
        n_a = self.count
        n = n_a + n_b
        delta = mean_b - self.mean
        self.mean = self.mean + delta * (n_b / n)
        self.m2 = self.m2 + m2_b + delta ** 2 * (n_a * n_b / n)
        self.count = n

    def series(self) -> "VarianceSeries":
        if self.count < 2:
            raise ValueError("need at least two samples for variances")
        var = self.m2 / self.count
        se = var * np.sqrt(2.0 / (self.count - 1))
        return VarianceSeries(times=self.times.copy(), variances=var,
                              std_errors=se, count=int(self.count),
                              means=self.mean.copy())


@dataclass
class VarianceSeries:
    """Per-time ensemble variances of the four normal-mode coordinates.

    Column order is (qt1, qt2, pt1, pt2); ``std_errors`` is the Gaussian
    standard error var*sqrt(2/(n-1)) of each variance estimate.
    """

    times: np.ndarray          # (n_times,)
    variances: np.ndarray      # (n_times, 4)
    std_errors: np.ndarray     # (n_times, 4)
    count: int                 # trajectories behind every observation
    means: Optional[np.ndarray] = None

    def column(self, name: str) -> np.ndarray:
        return self.variances[:, COORD_NAMES.index(name)]

    def se_column(self, name: str) -> np.ndarray:
        return self.std_errors[:, COORD_NAMES.index(name)]


CSV_COLUMNS = ("t_prime", "var_q1", "se_q1", "var_q2", "se_q2",
               "var_p1", "se_p1", "var_p2", "se_p2", "n")


def write_variance_csv(series: VarianceSeries, path, header_lines=()) -> None:
    """Serialize a series to the canonical CSV schema (deterministic bytes)."""
    v, s = series.variances, series.std_errors
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i, t in enumerate(series.times):
            cells = [repr(float(t))]
            for k in range(4):
                cells.append(repr(float(v[i, k])))
                cells.append(repr(float(s[i, k])))
            cells.append(str(series.count))
            fh.write(",".join(cells) + "\n")


def read_variance_csv(path) -> VarianceSeries:
    """A :func:`write_variance_csv` file, whose ``n`` column holds one count."""
    import io

    with open(path, "r", encoding="utf-8") as fh:
        body = "".join(line for line in fh if not line.startswith("#"))
    data = np.genfromtxt(io.StringIO(body), delimiter=",", names=True)
    data = np.atleast_1d(data)
    counts = np.unique(data["n"])
    if len(counts) > 1:
        raise ValueError(f"{path}: the n column is not constant")
    var = np.column_stack([data["var_q1"], data["var_q2"], data["var_p1"], data["var_p2"]])
    se = np.column_stack([data["se_q1"], data["se_q2"], data["se_p1"], data["se_p2"]])
    return VarianceSeries(times=np.asarray(data["t_prime"]), variances=var,
                          std_errors=se, count=int(counts[0]) if len(counts) else 0)


@dataclass
class CoordinateSqueeze:
    """Threshold diagnostics for one coordinate's variance track."""

    first_crossing: Optional[float]
    min_variance: float
    time_of_min: float
    fraction_below: float
    se_at_min: float
    significant: bool   # threshold - min_variance > 2 * se_at_min


@dataclass
class SqueezeReport:
    threshold: float
    coords: dict

    def __getitem__(self, name: str) -> CoordinateSqueeze:
        return self.coords[name]


def squeeze_report(series: VarianceSeries) -> SqueezeReport:
    """First crossing below :data:`SQUEEZING_THRESHOLD`, minimum, and
    below-threshold fraction of each coordinate's variance track.

    A crossing is flagged significant when the minimum sits below the
    threshold by more than twice its standard error.
    """
    if len(series.times) == 0:
        raise ValueError("empty variance series")
    coords = {}
    for k, name in enumerate(COORD_NAMES):
        var = series.variances[:, k]
        below = var < SQUEEZING_THRESHOLD
        imin = int(np.argmin(var))
        first = float(series.times[np.argmax(below)]) if below.any() else None
        coords[name] = CoordinateSqueeze(
            first_crossing=first,
            min_variance=float(var[imin]),
            time_of_min=float(series.times[imin]),
            fraction_below=float(below.mean()),
            se_at_min=float(series.std_errors[imin, k]),
            significant=bool(SQUEEZING_THRESHOLD - var[imin]
                             > 2.0 * series.std_errors[imin, k]),
        )
    return SqueezeReport(threshold=SQUEEZING_THRESHOLD, coords=coords)

