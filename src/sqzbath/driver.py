"""Monte Carlo ensemble orchestration: runs, temperature sweeps, and
bath-model comparisons.

Each trajectory samples from its own counter-based random stream keyed by
(master seed, trajectory index). ``chunk_size`` sets the statistics chunk:
each chunk of trajectories is reduced to one partial accumulator, and the
partials merge in chunk order. Runs of consecutive chunks are sampled and
integrated together as one batch, whose width is set by a memory budget on
its snapshot buffers. Every step, the sampling and the normal-mode map act
on each row alone, so the batch width and the worker count never change an
output bit. An Ohmic batch is one chunk, integrated in consecutive row
blocks whose four (rows, N) bath arrays fit a 1 MiB budget, so that each
step's elementwise passes run from one core's L2 cache. The bath pull
``pos @ c`` is a BLAS product, which gives a row the same bits in a block as
in the whole batch only on aligned blocks, so blocks start at multiples of
32 rows.

The driver owns the failure policy: the first observation, or final state,
of a batch that holds a non-finite coordinate aborts the run with
:class:`~sqzbath.integrate.TrajectoryFailure` (the earliest over a batch's
blocks), and so does the first observation whose merged mean, m2 or energy
sum is non-finite.
"""

from __future__ import annotations

import dataclasses
import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baths import (NHCBathParams, OhmicBathParams, nhc_extended_energy,
                    ohmic_energy)
from .integrate import (BathParams, IntegratorConfig, TrajectoryFailure,
                        TrajectoryState, integrate)
from .oracle import (FundamentalSolution, fundamental_solution,
                     mode2_variance_exact, threshold_temperature)
from .observables import (SqueezeReport, VarianceAccumulator, VarianceSeries,
                          squeeze_report)
from .sampling import (SamplingMode, init_nhc_bath, sample_ohmic_bath,
                       sample_system, trajectory_rng)
from .system import SystemParams, system_energy, to_normal_modes

SEED_STREAM_RULE = "philox(seed_sequence=(seed, trajectory_index))"


class ModelKind(enum.Enum):
    ISOLATED = "isolated"
    OHMIC = "ohmic"
    NHC = "nhc"

    @classmethod
    def parse(cls, name: str) -> "ModelKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown model {name!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


_BATH_MODELS = {type(None): ModelKind.ISOLATED, OhmicBathParams: ModelKind.OHMIC,
                NHCBathParams: ModelKind.NHC}


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    temperature: float
    n_traj: int
    seed: int
    integrator: IntegratorConfig = IntegratorConfig()
    sampling: SamplingMode = SamplingMode.QUANTUM
    bath: BathParams = None     # None for the isolated model
    workers: int = 1
    chunk_size: int = 500
    track_energy: bool = False

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_traj < 2:
            raise ValueError(f"n_traj must be >= 2, got {self.n_traj}")
        if self.workers < 1 or self.chunk_size < 1:
            raise ValueError("workers and chunk_size must be >= 1")
        if type(self.bath) not in _BATH_MODELS:
            raise ValueError(f"unknown bath type {type(self.bath).__name__}")
        if self.model is ModelKind.NHC and self.bath.temperature != self.temperature:
            raise ValueError("thermostat temperature must match the ensemble "
                             "temperature")

    @property
    def model(self) -> ModelKind:
        """The model, named by the type of its bath."""
        return _BATH_MODELS[type(self.bath)]


@dataclass
class EnergySeries:
    times: np.ndarray
    mean: np.ndarray


@dataclass
class EnsembleResult:
    series: VarianceSeries
    report: SqueezeReport
    n_traj: int
    n_failed: int   # always 0: a non-finite trajectory aborts the run
    energy: Optional[EnergySeries] = None


def _sample_chunk(config: RunConfig, lo: int, hi: int) -> TrajectoryState:
    """Draw initial conditions for trajectory indices [lo, hi) as one batch.

    Row k is trajectory lo + k. One ``trajectory_rng`` call draws each row's
    standard normals, the system's (4,) then the bath's, and each sampler
    scales its share.
    """
    # looked up per call, so that wrappers installed on these names are used
    params = config.bath
    sample_bath, bath_shapes = None, ()
    if isinstance(params, OhmicBathParams):
        sample_bath, bath_shapes = sample_ohmic_bath, ((params.n_modes,), (params.n_modes,))
    elif isinstance(params, NHCBathParams):
        sample_bath, bath_shapes = init_nhc_bath, ((2,),)
    z, *bath_z = trajectory_rng(config.seed, range(lo, hi), (4,), *bath_shapes)
    system = sample_system(z, config.system, config.temperature, config.sampling)
    bath = None
    if sample_bath is not None:
        bath = sample_bath(*bath_z, params, config.temperature, config.sampling)
    return TrajectoryState(t=0.0, system=system, bath=bath)


def _chunk_energy(config: RunConfig, state: TrajectoryState):
    if config.model is ModelKind.OHMIC:
        return ohmic_energy(state.t, state.system, state.bath, config.system,
                            config.bath)
    if config.model is ModelKind.NHC:
        return nhc_extended_energy(state.t, state.system, state.bath,
                                   config.system, config.bath)
    return system_energy(state.t, state.system, config.system)


# an overflow is caught by the finiteness checks, which abort the run with one
# error line; numpy's warnings on the way there would only precede it
@np.errstate(over="ignore", invalid="ignore")
def _run_chunk(config: RunConfig, lo: int, hi: int):
    """Sample and integrate trajectories [lo, hi) as one batch of whole
    chunks; returns each chunk's (accumulator, energy_sums), in chunk order.

    The batch is integrated in consecutive row blocks (see
    :func:`_block_rows`), each a view of the sampled arrays. Raises
    :class:`TrajectoryFailure` at the first observation, or at the final
    state, that holds a non-finite coordinate: once a block fails, the
    blocks after it only run up to that step, and the earliest failure
    over all blocks is raised.
    """
    state = _sample_chunk(config, lo, hi)
    times = config.integrator.obs_times
    n = hi - lo
    snaps = np.empty((len(times), n, 4))
    # rows first, so that a chunk's energy sum runs over rows in order
    energies = np.empty((n, len(times))) if config.track_energy else None

    failure = None
    for a, b in _chunk_ranges(n, _block_rows(config, n)):
        integrator = config.integrator
        if failure is not None:
            integrator = dataclasses.replace(integrator, n_steps=failure.step)
        block = TrajectoryState(t=state.t, system=_rows(state.system, a, b),
                                bath=_rows(state.bath, a, b))
        try:
            _integrate_block(config, integrator, block, snaps[:, a:b],
                             energies[a:b] if energies is not None else None)
        except TrajectoryFailure as err:    # at or before the step of `failure`
            failure = err
    if failure is not None:
        raise failure

    partials = []
    for a, b in _chunk_ranges(n, config.chunk_size):
        acc = VarianceAccumulator(times)
        acc.add_block(snaps[:, a:b].swapaxes(0, 1))
        energy_sums = energies[a:b].sum(axis=0) if energies is not None else None
        partials.append((acc, energy_sums))
    return partials


def _integrate_block(config: RunConfig, integrator: IntegratorConfig,
                     state: TrajectoryState, snaps: np.ndarray,
                     energies: Optional[np.ndarray]) -> None:
    """Integrate one block of rows, writing its normal modes into ``snaps``
    (observations x rows x 4) and its energies into ``energies`` (rows x
    observations)."""
    stride = integrator.stride

    def observer(step, st):
        i = step // stride
        modes = to_normal_modes(st.system)
        snap = snaps[i]
        snap[:, 0] = modes.qt1
        snap[:, 1] = modes.qt2
        snap[:, 2] = modes.pt1
        snap[:, 3] = modes.pt2
        if not np.isfinite(snap).all():
            raise TrajectoryFailure(step)
        if energies is not None:
            energies[:, i] = _chunk_energy(config, st)

    integrate(state, config.system, config.bath, integrator, observer)
    if not np.all(state.is_finite()):
        raise TrajectoryFailure(integrator.n_steps)


def _rows(phase, a: int, b: int):
    """Rows [a, b) of a batched phase (or None), as views."""
    if phase is None:
        return None
    return dataclasses.replace(phase, **{k: v[a:b] for k, v in vars(phase).items()})


# Cap on one Ohmic block's four (rows, N) float64 bath arrays (positions,
# momenta, force and scratch), so that a block's step stays in one core's L2
# cache instead of streaming each elementwise pass from L3.
_BLOCK_BYTES = 2**20
# Ohmic blocks start at multiples of this many rows. The BLAS product
# pos @ c gives a row the bits it has in the whole batch only when the blocks
# are aligned: OpenBLAS 0.3.31 reproduces a 500-row product with blocks of
# any multiple of 4 rows, and not with blocks of 1, 2, 3, 5, 50, 125 or 250
# rows. 32 rather than 4 leaves a margin for BLAS builds whose kernels take
# more rows at a time.
_BLOCK_ALIGN = 32


def _block_rows(config: RunConfig, n: int) -> int:
    """Rows per integration block of an n-row batch.

    The Ohmic model takes the largest multiple of ``_BLOCK_ALIGN`` rows
    whose bath arrays fit ``_BLOCK_BYTES`` (160 rows at N = 200), and at
    least ``_BLOCK_ALIGN``. The other models' per-row arrays are small, and
    they integrate the whole batch at once, which makes fewer numpy calls.
    """
    if config.model is not ModelKind.OHMIC:
        return n
    rows = _BLOCK_BYTES // (4 * 8 * config.bath.n_modes)
    return max(_BLOCK_ALIGN, rows - rows % _BLOCK_ALIGN)


def _chunk_ranges(n_traj: int, chunk_size: int):
    return [(lo, min(lo + chunk_size, n_traj))
            for lo in range(0, n_traj, chunk_size)]


# Cap on one batch's snapshot and energy buffers, which hold
# n_obs x rows x (32 + 8 * track_energy) bytes. It keeps a pool worker's
# peak memory below the host process's.
_BATCH_BYTES = 4 * 2**20


def _batch_ranges(config: RunConfig):
    """Consecutive runs of whole chunks, each integrated as one batch.

    A batch holds as many chunks as the snapshot budget allows, but no more
    than an even share of the chunks per worker. The Ohmic model keeps one
    chunk per batch: its sampled (rows, N) bath arrays lie outside that
    budget. :func:`_run_chunk` integrates them in cache-sized row blocks.
    """
    n_chunks = -(-config.n_traj // config.chunk_size)
    chunks_per_batch = 1
    if config.model is not ModelKind.OHMIC:
        row_bytes = len(config.integrator.obs_times) * (32 + 8 * config.track_energy)
        chunks_per_batch = min(-(-n_chunks // config.workers),
                               max(1, _BATCH_BYTES // row_bytes // config.chunk_size))
    return _chunk_ranges(config.n_traj, chunks_per_batch * config.chunk_size)


def run_ensemble(config: RunConfig) -> EnsembleResult:
    """Sample, integrate and reduce a full trajectory ensemble.

    The models are linear, so a trajectory that goes non-finite signals a
    stepping problem, not noise: the run aborts with
    :class:`TrajectoryFailure`, and ``n_failed`` of a result is always 0.
    Finite coordinates whose merged moments overflow abort it too, at the
    step of the first such observation.
    """
    times = config.integrator.obs_times
    batches = _batch_ranges(config)
    if config.workers > 1 and len(batches) > 1:
        with ProcessPoolExecutor(max_workers=min(config.workers, len(batches))) as pool:
            per_batch = list(pool.map(_run_chunk, *zip(*((config, lo, hi)
                                                         for lo, hi in batches))))
    else:
        per_batch = [_run_chunk(config, lo, hi) for lo, hi in batches]

    acc = VarianceAccumulator(times)
    energy_sum = np.zeros(len(times)) if config.track_energy else None
    with np.errstate(over="ignore", invalid="ignore"):   # checked just below
        for part_acc, part_energy in (p for ps in per_batch for p in ps):
            acc.merge(part_acc)
            if energy_sum is not None:
                energy_sum += part_energy

    # finite coordinates can still overflow their squares or sums
    bad = ~(np.isfinite(acc.mean) & np.isfinite(acc.m2)).all(axis=1)
    if energy_sum is not None:
        bad |= ~np.isfinite(energy_sum)
    if bad.any():
        raise TrajectoryFailure(int(bad.argmax()) * config.integrator.stride,
                                "ensemble moments")

    series = acc.series()
    energy = None
    if energy_sum is not None:
        energy = EnergySeries(times=times, mean=energy_sum / config.n_traj)
    return EnsembleResult(series=series, report=squeeze_report(series),
                          n_traj=config.n_traj, n_failed=0, energy=energy)


def temperature_seed(master_seed: int, index: int) -> int:
    """Derived master seed for sweep point ``index`` (documented, stable)."""
    return int(np.random.SeedSequence((master_seed, 7919, index))
               .generate_state(1, np.uint64)[0])


@dataclass
class SweepRow:
    temperature: float
    min_variance: float
    se_at_min: float
    first_crossing: Optional[float]
    significant: bool
    oracle_min_variance: float
    series: Optional[VarianceSeries] = None

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload.pop("series")
        return payload


@dataclass
class SweepResult:
    rows: list
    mc_threshold: Optional[float]
    mc_threshold_defined: bool
    oracle_threshold: Optional[dict]
    oracle_threshold_note: str

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows],
                "mc_threshold": self.mc_threshold,
                "mc_threshold_defined": self.mc_threshold_defined,
                "oracle_threshold": self.oracle_threshold,
                "oracle_threshold_note": self.oracle_threshold_note}


def _oracle_threshold_auto(sys: SystemParams, t_lo: float, t_hi: float,
                           mode: SamplingMode, fundamental: FundamentalSolution):
    """Closed-form ``anywhere`` threshold as ``(dict, note)``; the dict is
    None when no temperature squeezes, and the note flags a threshold
    outside the sweep window [t_lo, t_hi]."""
    result = threshold_temperature(sys, mode=mode, fundamental=fundamental)
    if result is None:
        return None, "no squeezing even as T -> 0; threshold undefined"
    note = ""
    if not (t_lo <= result.temperature <= t_hi):
        note = (f"threshold {result.temperature:.4f} lies outside the requested "
                f"window [{t_lo}, {t_hi}]")
    return result.to_dict(), note


def temperature_sweep(config: RunConfig, temperatures) -> SweepResult:
    """One ensemble per temperature with per-temperature derived seeds.

    The Monte Carlo threshold estimate is the lowest grid temperature with no
    statistically significant sub-threshold crossing of var(qt2); the exact
    covariance oracle provides the reference column and headline threshold.
    """
    temps = [float(t) for t in temperatures]
    if not temps:
        raise ValueError("temperature list must be non-empty")
    if any(b <= a for a, b in zip(temps, temps[1:])):
        raise ValueError("temperatures must be strictly increasing")

    fundamental = fundamental_solution(config.system, dt=config.integrator.dt,
                                       n_steps=config.integrator.n_steps)
    rows = []
    for i, temp in enumerate(temps):
        run_cfg = dataclasses.replace(
            config, temperature=temp, seed=temperature_seed(config.seed, i),
            bath=(dataclasses.replace(config.bath, temperature=temp)
                  if config.model is ModelKind.NHC else config.bath))
        result = run_ensemble(run_cfg)
        diag = result.report["qt2"]
        _, oracle_var_q, _ = mode2_variance_exact(config.system, temp,
                                                  config.sampling,
                                                  fundamental=fundamental)
        rows.append(SweepRow(temperature=temp,
                             min_variance=diag.min_variance,
                             se_at_min=diag.se_at_min,
                             first_crossing=diag.first_crossing,
                             significant=diag.significant,
                             oracle_min_variance=float(oracle_var_q.min()),
                             series=result.series))

    mc_threshold = None
    defined = False
    if len(rows) > 1:
        for row in rows:
            if not row.significant:
                mc_threshold = row.temperature
                defined = True
                break
    oracle_thr, note = _oracle_threshold_auto(config.system, temps[0], temps[-1],
                                              config.sampling, fundamental)
    return SweepResult(rows=rows, mc_threshold=mc_threshold,
                       mc_threshold_defined=defined, oracle_threshold=oracle_thr,
                       oracle_threshold_note=note)


@dataclass
class CoordAgreement:
    max_rel_dev: float
    time_of_max: float
    passed: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class BathComparison:
    coords: dict
    passed: bool
    n_traj: int
    rel_tolerance: float

    def to_dict(self) -> dict:
        return {"coords": {k: v.to_dict() for k, v in self.coords.items()},
                "passed": self.passed, "n_traj": self.n_traj,
                "rel_tolerance": self.rel_tolerance}


def compare_variance_series(series_ref: VarianceSeries, series_other: VarianceSeries,
                            rel_tolerance: float = 0.05):
    """Pointwise agreement check between two variance series.

    A coordinate passes when, at every observed time, the curves differ by
    no more than max(rel_tolerance * var, 3 * combined standard error).
    Returns ``(coords, passed)``.
    """
    coords = {}
    all_ok = True
    for name in ("qt1", "qt2", "pt1", "pt2"):
        vo = series_ref.column(name)
        vn = series_other.column(name)
        se = np.hypot(series_ref.se_column(name), series_other.se_column(name))
        dev = np.abs(vo - vn)
        allowed = np.maximum(rel_tolerance * np.abs(vo), 3.0 * se)
        ok = bool(np.all(dev <= allowed))
        imax = int(np.argmax(np.where(vo != 0, dev / np.abs(vo), 0.0)))
        coords[name] = CoordAgreement(
            max_rel_dev=float(dev[imax] / abs(vo[imax])) if vo[imax] != 0 else float("inf"),
            time_of_max=float(series_ref.times[imax]),
            passed=ok)
        all_ok &= ok
    return coords, all_ok


def bath_equivalence(config_ohmic: RunConfig, config_nhc: RunConfig,
                     rel_tolerance: float = 0.05) -> BathComparison:
    """Run the two bath representations and compare their variance curves."""
    if config_ohmic.model is not ModelKind.OHMIC or config_nhc.model is not ModelKind.NHC:
        raise ValueError("expected an ohmic config and an nhc config")
    for attr in ("system", "temperature", "seed", "n_traj", "integrator", "sampling"):
        if getattr(config_ohmic, attr) != getattr(config_nhc, attr):
            raise ValueError(f"configs must share {attr} for a fair comparison")

    res_o = run_ensemble(config_ohmic)
    res_n = run_ensemble(config_nhc)
    coords, all_ok = compare_variance_series(res_o.series, res_n.series, rel_tolerance)
    return BathComparison(coords=coords, passed=all_ok, n_traj=config_ohmic.n_traj,
                          rel_tolerance=rel_tolerance)
