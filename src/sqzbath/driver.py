"""Monte Carlo ensemble orchestration: runs, temperature sweeps, and
bath-model comparisons.

Each trajectory samples from its own counter-based random stream keyed by
(master seed, trajectory index). ``chunk_size`` sets the statistics chunk:
each chunk of trajectories is reduced to one partial accumulator, and the
partials merge in chunk order. Runs of consecutive chunks are sampled and
reduced together as one batch, whose width is set by a memory budget on the
buffer it needs if it is stepped. A stepped batch and a propagated chunk
fill the same coordinate-major buffer, (qt1, qt2, pt1, pt2) and, with
energy tracking, the energy, each a (rows, records) array, and every chunk
is reduced from it by one function (:func:`_reduce`). A temperature sweep,
and a bath comparison, run their ensembles one after another on one
process pool (see :func:`_pool`). The pool's class, and with it
``concurrent.futures`` and multiprocessing, is imported only when a run
opens a pool (see :func:`__getattr__`).

The isolated and Ohmic models are linear, so a run of either, without
energy tracking, steps no trajectory of its own: :func:`_response` steps
four unit probes once, and each chunk's coordinates are its initial
coordinates contracted with the probes' records (see :func:`_propagate`).
The centre-of-mass + bath block is undriven and its step is symplectic and
time-reversible, so the probes' columns of the k-step map give the rows
that (qt1, pt1) need; the driven relative mode is bath-free and takes its
2x2 map from two more probes. The contraction acts on each row alone, so
the batch width and the worker count never change an output bit. The
probes do not depend on the temperature or the seed, so a temperature
sweep integrates them once for all its points.

Every other batch is integrated by the stepper: those of the NHC model and
of energy-tracking runs, and a batch whose sampled state or propagated
coordinates hold a value that is non-finite or at least 2**511 in magnitude
(whose square overflows). Every failure is therefore the stepper's. That
check (:func:`_bounded`) reduces each array to its maximum and minimum and
allocates nothing, so a propagated chunk at 25000 steps and stride 25
peaks at 1.26 times its (4, 500, 1001) buffer, and a default 10000 x 25000
run on one worker at 67.2 MB resident (Ohmic) or 59.4 MB (isolated), as
measured on a 2-vCPU Xeon. The sampling and the normal-mode map act on
each row alone there too. An Ohmic batch is one chunk, integrated in
consecutive row blocks whose five (rows, N) bath arrays fit a 1.5 MiB
budget, so that each step's elementwise passes run from one core's L2
cache. Every sum over bath modes is one ``np.vecdot`` per row, so a row has
the same bits in a block of any size as in the whole batch.

The driver owns the failure policy, one rule for every block and batch,
serial or pooled: each runs to its end or its own failure, and the run then
aborts with the earliest :class:`~sqzbath.integrate.TrajectoryFailure` over
all of them, the first observation, or final state, that holds a non-finite
coordinate, so the same step for any worker count and batch width. So does
the first observation whose merged mean, m2 or energy sum is non-finite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baths import (MAX_BATH_MODES, NHCBathParams, OhmicBathParams, OhmicBathPhase,
                    nhc_extended_energy, ohmic_energy)
from .integrate import (BathParams, IntegratorConfig, TrajectoryFailure,
                        TrajectoryState, integrate)
from .oracle import (FundamentalSolution, fundamental_solution,
                     mode2_variance_exact, threshold_temperature)
from .observables import (SqueezeReport, VarianceAccumulator, VarianceSeries,
                          squeeze_report)
from .sampling import (SamplingMode, init_nhc_bath, sample_ohmic_bath,
                       sample_system, trajectory_rng)
from .system import SystemParams, SystemPhase, system_energy, to_normal_modes

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


# Most worker processes of a run: a pool forks all of its min(workers,
# batches) processes at its first task (Python 3.11's fork context), and a
# run of one-trajectory chunks has a batch per trajectory.
MAX_WORKERS = 256

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
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_traj < 2:
            raise ValueError(f"n_traj must be >= 2, got {self.n_traj}")
        if self.workers < 1 or self.chunk_size < 1:
            raise ValueError("workers and chunk_size must be >= 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be <= {MAX_WORKERS}, got {self.workers}")
        if type(self.bath) not in _BATH_MODELS:
            raise ValueError(f"unknown bath type {type(self.bath).__name__}")
        if self.model is ModelKind.OHMIC and self.bath.n_modes > MAX_BATH_MODES:
            raise ValueError(f"n_modes must be <= {MAX_BATH_MODES}, "
                             f"got {self.bath.n_modes}")
        if self.model is ModelKind.NHC and self.bath.temperature != self.temperature:
            raise ValueError("thermostat temperature must match the ensemble "
                             "temperature")

    @property
    def model(self) -> ModelKind:
        """The model, named by the type of its bath."""
        return _BATH_MODELS[type(self.bath)]


@dataclass
class EnsembleResult:
    series: VarianceSeries
    report: SqueezeReport
    energy: Optional[np.ndarray] = None     # (n_obs,) mean, with track_energy

    @property
    def n_traj(self) -> int:
        """The run's trajectory count, which every observation holds."""
        return self.series.count

    @property
    def n_failed(self) -> int:
        """Always 0: a non-finite trajectory aborts the run."""
        return 0


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
def _run_chunk(config: RunConfig, lo: int, hi: int,
               response: Optional[_Response] = None):
    """Sample trajectories [lo, hi) as one batch of whole chunks and reduce
    each chunk (:func:`_reduce`); returns each chunk's (accumulator,
    energy_sums), in chunk order.

    With a ``response`` the chunks are propagated (:func:`_propagate`);
    without one, or when the propagation declines the batch, the batch is
    integrated (:func:`_step_batch`), which raises
    :class:`TrajectoryFailure` at the first non-finite observation or final
    state.
    """
    state = _sample_chunk(config, lo, hi)
    if response is not None:
        partials = _propagate(config, response, state)
        if partials is not None:
            return partials
    coords = _step_batch(config, state)
    return [_reduce(config, coords[:, a:b])
            for a, b in _chunk_ranges(hi - lo, config.chunk_size)]


def _reduce(config: RunConfig, coords: np.ndarray):
    """One chunk's (accumulator, energy_sums) from its coordinate-major
    buffer, stepped or propagated: rows 0-3 of ``coords`` hold (qt1, qt2,
    pt1, pt2) and, with ``track_energy``, row 4 the energy, each a (rows,
    records) array whose first records are the observations. Both reduce
    over rows in order (see :meth:`VarianceAccumulator.add_block`)."""
    times = config.integrator.obs_times
    acc = VarianceAccumulator(times)
    acc.add_block(coords[:4, :, :len(times)].transpose(1, 2, 0))
    return acc, coords[4].sum(axis=0) if config.track_energy else None


def _step_batch(config: RunConfig, state: TrajectoryState) -> np.ndarray:
    """Integrate a sampled batch in consecutive row blocks (see
    :func:`_block_rows`), each a view of the sampled arrays; returns its
    coordinate-major (4 + track_energy, rows, observations) buffer, (qt1,
    qt2, pt1, pt2) and, with ``track_energy``, the energy.

    Every block runs to its end or its own failure; then the earliest
    failure over all blocks is raised (see :func:`_raise_earliest`): the
    first observation, or final state, that holds a non-finite coordinate.
    """
    n_obs, n = len(config.integrator.obs_times), len(state.system.q1)
    coords = np.empty((4 + config.track_energy, n, n_obs))

    failures = []
    for a, b in _chunk_ranges(n, _block_rows(config, n)):
        block = TrajectoryState(t=state.t, system=_rows(state.system, a, b),
                                bath=_rows(state.bath, a, b))
        try:
            _integrate_block(config, block, coords[:, a:b])
        except TrajectoryFailure as err:
            failures.append(err)
    _raise_earliest(failures)
    return coords


def _integrate_block(config: RunConfig, state: TrajectoryState,
                     coords: np.ndarray) -> None:
    """Integrate one block of rows, writing observation i of its normal
    modes, and of its energy with ``track_energy``, into ``coords[:, :, i]``
    (a view of :func:`_step_batch`'s buffer)."""
    integrator = config.integrator
    stride = integrator.stride

    def observer(step, st):
        obs = coords[:, :, step // stride]
        modes = to_normal_modes(st.system)
        obs[0], obs[1], obs[2], obs[3] = modes.qt1, modes.qt2, modes.pt1, modes.pt2
        if not np.isfinite(obs[:4]).all():
            raise TrajectoryFailure(step)
        if config.track_energy:
            obs[4] = _chunk_energy(config, st)

    final = integrate(state, config.system, config.bath, integrator, observer)
    if not all(np.isfinite(a).all() for a in _coordinates(final)):
        raise TrajectoryFailure(integrator.n_steps)


@dataclass
class _Response:
    """The stepper's response to four unit probes, started with the bath at
    rest, read at each observation and, when it is off the stride grid, at
    ``n_steps`` (one record each, in step order).

    ``mode1[i, p]`` holds (qt1, pt1) of probe p = A (pt1 = 1), B (qt1 = 1)
    at record i; ``bath_pos[i, p]`` and ``bath_mom[i, p]`` hold its bath
    (R_1..R_N) and (P_1..P_N), None for the isolated model. ``mode2[i, p]``
    holds (qt2, pt2) of probe p = C (qt2 = 1), D (pt2 = 1).
    """

    mode1: np.ndarray                   # (records, 2, 2)
    mode2: np.ndarray                   # (records, 2, 2)
    bath_pos: Optional[np.ndarray]      # (records, 2, N)
    bath_mom: Optional[np.ndarray]


# The probes' system coordinate: to_normal_modes maps sqrt(0.5), not
# 1/sqrt(2), to exactly 1, so every probe starts at an exact unit vector.
_UNIT = math.sqrt(0.5)


@np.errstate(over="ignore", invalid="ignore")   # a blow-up is declined later
def _response(config: RunConfig) -> Optional[_Response]:
    """The probes' records for the run ``config``, integrated in one
    4-row :func:`integrate` call: rows A (pt1 = 1), B (qt1 = 1), C (qt2 = 1)
    and D (pt2 = 1). None when the run's batches are stepped: for the NHC
    model, whose chain is not linear, and with ``track_energy``.
    """
    if config.model is ModelKind.NHC or config.track_energy:
        return None
    integrator = config.integrator
    n_obs = len(integrator.obs_times)
    n_rec = n_obs + (integrator.n_steps % integrator.stride != 0)
    u = _UNIT
    system = SystemPhase(q1=np.array([0.0, u, u, 0.0]), q2=np.array([0.0, u, -u, 0.0]),
                         p1=np.array([u, 0.0, 0.0, u]), p2=np.array([u, 0.0, 0.0, -u]))
    mode1, mode2 = np.empty((2, n_rec, 2, 2))
    bath = bath_pos = bath_mom = None
    if config.model is ModelKind.OHMIC:
        bath = OhmicBathPhase(pos=np.zeros((4, config.bath.n_modes)),
                              mom=np.zeros((4, config.bath.n_modes)))
        bath_pos, bath_mom = np.empty((2, n_rec, 2, config.bath.n_modes))

    def record(i, st):
        modes = to_normal_modes(st.system)
        mode1[i, :, 0], mode1[i, :, 1] = modes.qt1[:2], modes.pt1[:2]
        mode2[i, :, 0], mode2[i, :, 1] = modes.qt2[2:], modes.pt2[2:]
        if bath is not None:
            bath_pos[i], bath_mom[i] = st.bath.pos[:2], st.bath.mom[:2]

    final = integrate(TrajectoryState(t=0.0, system=system, bath=bath), config.system,
                      config.bath, integrator,
                      lambda step, st: record(step // integrator.stride, st))
    if n_rec > n_obs:
        record(n_obs, final)
    return _Response(mode1=mode1, mode2=mode2, bath_pos=bath_pos, bath_mom=bath_mom)


# Magnitude from which a propagated batch is stepped instead: the square of
# a larger value can overflow, and only the stepper decides where a failure
# happens.
_HUGE = 2.0 ** 511


def _coordinates(state: TrajectoryState) -> list:
    """The system's, then the bath's, coordinate arrays of ``state``."""
    arrays = list(vars(state.system).values())
    if state.bath is not None:
        arrays += vars(state.bath).values()
    return arrays


def _bounded(*arrays) -> bool:
    """Whether every value is finite and below ``_HUGE`` in magnitude.

    Each array takes two reductions and no temporary: a NaN carries through
    both and fails either comparison. An array with no values is bounded."""
    return all(a.size == 0 or (np.max(a) < _HUGE and np.min(a) > -_HUGE)
               for a in arrays)


def _propagate(config: RunConfig, response: _Response,
               state: TrajectoryState) -> Optional[list]:
    """Each chunk's (accumulator, None), in chunk order, for a sampled batch
    whose chunks are propagated (:func:`_contract`) and reduced
    (:func:`_reduce`) one at a time, so that one chunk's buffer is alive at
    once; None when the sampled state, or a propagated coordinate at any
    record, the final one included, is not :func:`_bounded`, so that the
    batch is stepped instead."""
    if not _bounded(*_coordinates(state)):
        return None
    modes = to_normal_modes(state.system)
    partials = []
    for a, b in _chunk_ranges(len(modes.qt1), config.chunk_size):
        coords = _contract(response, _rows(modes, a, b), _rows(state.bath, a, b))
        if not _bounded(coords):
            return None
        partials.append(_reduce(config, coords))
    return partials


def _contract(response: _Response, modes, bath: Optional[OhmicBathPhase]) -> np.ndarray:
    """(qt1, qt2, pt1, pt2) at every record of the rows whose initial normal
    modes are ``modes`` and bath is ``bath``, as one coordinate-major (4,
    rows, records) buffer, the layout of :func:`_step_batch`.

    With probes A-D as in :class:`_Response`, qt1(k) = A.pt1(k) qt1(0) +
    A.qt1(k) pt1(0) + sum_j A.P_j(k) R_j(0) + sum_j A.R_j(k) P_j(0), and
    pt1(k) is the same sum over probe B: the step map M of the undriven
    (qt1, R | pt1, P) block is symplectic and time-reversible, so the q and p
    rows of M^k are its p and q columns transposed. Mode 2 is the 2x2 map of
    probes C and D. Every product acts on each row alone: each sum over j
    is one ``np.vecdot`` of a row with a record.
    """
    outer = np.multiply.outer
    coords = np.empty((4, len(modes.qt1), len(response.mode1)))
    term = np.empty(coords.shape[1:])
    for k, p in ((0, 0), (2, 1)):       # qt1 from probe A, pt1 from B
        coord = outer(modes.qt1, response.mode1[:, p, 1], out=coords[k])
        coord += outer(modes.pt1, response.mode1[:, p, 0], out=term)
        if bath is not None:
            coord += np.vecdot(bath.pos[:, None, :], response.bath_mom[None, :, p],
                               out=term)
            coord += np.vecdot(bath.mom[:, None, :], response.bath_pos[None, :, p],
                               out=term)
    for k, c in ((1, 0), (3, 1)):       # qt2, pt2: the map of C, D
        coord = outer(modes.qt2, response.mode2[:, 0, c], out=coords[k])
        coord += outer(modes.pt2, response.mode2[:, 1, c], out=term)
    return coords


def _raise_earliest(outcomes) -> None:
    """Raise the earliest :class:`TrajectoryFailure` among ``outcomes``, the
    first of those at the same step, if there is one. Blocks and batches
    fail independently, so this is the step a run fails at for any block
    size, batch width and worker count."""
    failures = [o for o in outcomes if isinstance(o, TrajectoryFailure)]
    if failures:
        raise min(failures, key=lambda err: err.step)


def _try_chunk(config: RunConfig, lo: int, hi: int,
               response: Optional[_Response] = None):
    """:func:`_run_chunk`'s partials, or the :class:`TrajectoryFailure` it
    raises, returned so that a pool hands back every batch's outcome."""
    try:
        return _run_chunk(config, lo, hi, response)
    except TrajectoryFailure as err:
        return err


def _rows(phase, a: int, b: int):
    """Rows [a, b) of a batched phase (or None), as views."""
    if phase is None:
        return None
    return dataclasses.replace(phase, **{k: v[a:b] for k, v in vars(phase).items()})


# Cap on one Ohmic block's five (rows, N) float64 bath arrays (positions,
# momenta, and the workspace's tiled stiffness, force and scratch), so that
# a block's step stays in one core's L2 cache instead of streaming each
# elementwise pass from L3. Three quarters of a 2 MiB L2 gives 196 rows at
# N = 200. On a 2-vCPU Xeon with 2 MiB of L2 per core, 192-row blocks ran
# the 500-row ohmic-run chunk about 4% faster than 160-row ones, and 128
# rows no faster than 160.
_BLOCK_BYTES = 3 * 2**19


def _block_rows(config: RunConfig, n: int) -> int:
    """Rows per integration block of an n-row batch.

    The Ohmic model takes as many rows as fit their bath arrays in
    ``_BLOCK_BYTES`` (196 rows at N = 200), and at least one. The other
    models' per-row arrays are small, and they integrate the whole batch at
    once, which makes fewer numpy calls.
    """
    if config.model is not ModelKind.OHMIC:
        return n
    return max(1, _BLOCK_BYTES // (5 * 8 * config.bath.n_modes))


def _chunk_ranges(n_traj: int, chunk_size: int):
    return [(lo, min(lo + chunk_size, n_traj))
            for lo in range(0, n_traj, chunk_size)]


# Cap on the buffer of one stepped batch, which holds (4 + track_energy) x
# rows x n_obs floats. It keeps a pool worker's peak memory below the host
# process's. A propagated batch holds one chunk's buffer at a time, so the
# cap bounds only what it needs if it falls back to stepping.
_BATCH_BYTES = 4 * 2**20


def _batch_ranges(config: RunConfig):
    """Consecutive runs of whole chunks, each integrated as one batch.

    A batch holds as many chunks as the buffer budget allows, but no more
    than an even share of the chunks per worker. The Ohmic model keeps one
    chunk per batch: its sampled (rows, N) bath arrays lie outside that
    budget. :func:`_step_batch` integrates them in cache-sized row blocks.
    """
    n_chunks = -(-config.n_traj // config.chunk_size)
    chunks_per_batch = 1
    if config.model is not ModelKind.OHMIC:
        row_bytes = len(config.integrator.obs_times) * 8 * (4 + config.track_energy)
        chunks_per_batch = min(-(-n_chunks // config.workers),
                               max(1, _BATCH_BYTES // row_bytes // config.chunk_size))
    return _chunk_ranges(config.n_traj, chunks_per_batch * config.chunk_size)


def _pool(*configs):
    """One process pool for the runs of ``configs``, made one after another,
    sized by the widest: a run maps its batches on a pool when it has more
    than one worker and more than one batch, and keeps min(workers, batches)
    processes busy. Use it in ``with`` form; it opens as None when no run
    needs a pool."""
    width = max(min(c.workers, len(_batch_ranges(c))) for c in configs)
    if width < 2:
        return contextlib.nullcontext()
    # read through the module: a bare name never reaches __getattr__, and a
    # replacement installed on the module's name must take effect
    return sys.modules[__name__].ProcessPoolExecutor(max_workers=width)


def __getattr__(name):
    """``ProcessPoolExecutor``, imported on first access (PEP 562), so that
    ``concurrent.futures`` and the multiprocessing stack under it load only
    when a run opens a pool or the name is read."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_ensemble(config: RunConfig, *, pool=None,
                 response: Optional[_Response] = None) -> EnsembleResult:
    """Sample, integrate and reduce a full trajectory ensemble.

    The models are linear, so a trajectory that goes non-finite signals a
    stepping problem, not noise: the run aborts with
    :class:`TrajectoryFailure`, and ``n_failed`` of a result is always 0.
    Finite coordinates whose merged moments overflow abort it too, at the
    step of the first such observation.

    Every batch runs through :func:`_try_chunk` with the same arguments, the
    probes of :func:`_response` included: a run with more than one worker and
    more than one batch maps them on ``pool``, an open pool from
    :func:`_pool` shared by a sequence of runs, or on a pool of its own when
    ``pool`` is None, as one task of consecutive batches per worker, so that
    the probes are pickled once per worker rather than once per batch; any
    other run maps them in this process. A failing batch does not stop the
    others, and the earliest failure over all of them is raised. The probes
    are integrated here unless ``response`` holds them already: they depend
    on the system, the bath and the integrator, not on the temperature or
    the seed, so a sweep shares one set across its points.
    """
    times = config.integrator.obs_times
    batches = _batch_ranges(config)
    if response is None:
        response = _response(config)
    args = zip(*((config, lo, hi, response) for lo, hi in batches))
    width = min(config.workers, len(batches))
    if width > 1:
        with _pool(config) if pool is None else contextlib.nullcontext(pool) as pool:
            per_batch = list(pool.map(_try_chunk, *args,
                                      chunksize=-(-len(batches) // width)))
    else:
        per_batch = list(map(_try_chunk, *args))
    _raise_earliest(per_batch)

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
    energy = None if energy_sum is None else energy_sum / series.count
    return EnsembleResult(series=series, report=squeeze_report(series), energy=energy)


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
    oracle_threshold: Optional[dict]
    oracle_threshold_note: str

    @property
    def mc_threshold_defined(self) -> bool:
        return self.mc_threshold is not None

    def to_dict(self) -> dict:
        return {**vars(self), "rows": [r.to_dict() for r in self.rows],
                "mc_threshold_defined": self.mc_threshold_defined}


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
    return dataclasses.asdict(result), note


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
    run_cfgs = [dataclasses.replace(
        config, temperature=temp, seed=temperature_seed(config.seed, i),
        bath=(dataclasses.replace(config.bath, temperature=temp)
              if config.model is ModelKind.NHC else config.bath))
        for i, temp in enumerate(temps)]
    # the points run in order on one pool, so a failing point raises before
    # later points start; they differ only in temperature and seed, so they
    # share one set of probes
    response = _response(run_cfgs[0])
    with _pool(*run_cfgs) as pool:
        results = [run_ensemble(run_cfg, pool=pool, response=response)
                   for run_cfg in run_cfgs]
    rows = []
    for temp, result in zip(temps, results):
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

    mc_threshold = (next((r.temperature for r in rows if not r.significant), None)
                    if len(rows) > 1 else None)
    oracle_thr, note = _oracle_threshold_auto(config.system, temps[0], temps[-1],
                                              config.sampling, fundamental)
    return SweepResult(rows=rows, mc_threshold=mc_threshold, oracle_threshold=oracle_thr,
                       oracle_threshold_note=note)


# Relative deviation two bath models' variance curves may show at any time
# (or 3 combined standard errors, when larger) and still agree.
AGREEMENT_REL_TOLERANCE = 0.05


@dataclass
class CoordAgreement:
    max_rel_dev: float
    time_of_max: float
    passed: bool


@dataclass
class BathComparison:
    coords: dict
    passed: bool
    n_traj: int
    rel_tolerance: float


def compare_variance_series(series_ref: VarianceSeries, series_other: VarianceSeries):
    """Pointwise agreement check between two variance series.

    A coordinate passes when, at every observed time, the curves differ by
    no more than max(AGREEMENT_REL_TOLERANCE * var, 3 * combined standard
    error).
    Returns ``(coords, passed)``.
    """
    coords = {}
    all_ok = True
    for name in ("qt1", "qt2", "pt1", "pt2"):
        vo = series_ref.column(name)
        vn = series_other.column(name)
        se = np.hypot(series_ref.se_column(name), series_other.se_column(name))
        dev = np.abs(vo - vn)
        allowed = np.maximum(AGREEMENT_REL_TOLERANCE * np.abs(vo), 3.0 * se)
        ok = bool(np.all(dev <= allowed))
        imax = int(np.argmax(np.where(vo != 0, dev / np.abs(vo), 0.0)))
        coords[name] = CoordAgreement(
            max_rel_dev=float(dev[imax] / abs(vo[imax])) if vo[imax] != 0 else float("inf"),
            time_of_max=float(series_ref.times[imax]),
            passed=ok)
        all_ok &= ok
    return coords, all_ok


def bath_equivalence(config_ohmic: RunConfig, config_nhc: RunConfig) -> BathComparison:
    """Run the two bath representations and compare their variance curves."""
    if config_ohmic.model is not ModelKind.OHMIC or config_nhc.model is not ModelKind.NHC:
        raise ValueError("expected an ohmic config and an nhc config")
    for attr in ("system", "temperature", "seed", "n_traj", "integrator", "sampling"):
        if getattr(config_ohmic, attr) != getattr(config_nhc, attr):
            raise ValueError(f"configs must share {attr} for a fair comparison")

    with _pool(config_ohmic, config_nhc) as pool:
        res_o = run_ensemble(config_ohmic, pool=pool)
        res_n = run_ensemble(config_nhc, pool=pool)
    coords, all_ok = compare_variance_series(res_o.series, res_n.series)
    return BathComparison(coords=coords, passed=all_ok, n_traj=config_ohmic.n_traj,
                          rel_tolerance=AGREEMENT_REL_TOLERANCE)
