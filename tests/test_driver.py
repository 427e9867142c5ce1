import dataclasses
import hashlib
import itertools
import time
import tracemalloc
import types

import numpy as np
import pytest

from sqzbath import (IntegratorConfig, ModelKind, NHCBathParams, OhmicBathParams,
                     RunConfig, SamplingMode, SystemParams, TrajectoryFailure,
                     bath_equivalence,
                     build_ohmic_bath, init_nhc_bath, mode1_variance_exact,
                     nhc_from_ohmic, nhc_matched_to_ohmic, run_ensemble,
                     sample_ohmic_bath, sample_system, temperature_sweep,
                     thermal_widths, to_kelvin)
from sqzbath import driver
from sqzbath.baths import MAX_BATH_MODES
from sqzbath.cli import EXIT_TRAJECTORY, main
from sqzbath.driver import (_batch_ranges, _contract, _propagate, _response, _rows,
                           _sample_chunk, _step_batch, temperature_seed)
from sqzbath.observables import VarianceAccumulator
from sqzbath.system import normal_mode_freqs, to_normal_modes

from conftest import contract_normals, row_ordered_moments


def isolated_config(**kwargs):
    base = dict(system=SystemParams(), temperature=1.0,
                n_traj=64, seed=11,
                integrator=IntegratorConfig(n_steps=1000, stride=50))
    base.update(kwargs)
    return RunConfig(**base)


class TestRunConfigValidation:
    def test_requires_matching_thermostat_temperature(self):
        nhc = nhc_from_ohmic(0.007, 3.0, temperature=2.0)
        with pytest.raises(ValueError, match="temperature"):
            RunConfig(system=SystemParams(), temperature=1.0,
                      n_traj=8, seed=1, bath=nhc)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            isolated_config(seed=-1)
        assert isolated_config(seed=0).seed == 0

    def test_minimal_ensemble_size(self):
        with pytest.raises(ValueError):
            isolated_config(n_traj=1)

    @pytest.mark.parametrize("make", [
        lambda: SystemParams(mass=np.nan),
        lambda: SystemParams(spring_k=np.nan),
        lambda: SystemParams(coupling_amp=np.nan),
        lambda: SystemParams(drive_freq=np.nan),
        lambda: SystemParams(carrier_freq=np.nan),
        lambda: IntegratorConfig(dt=np.nan),
        lambda: NHCBathParams(osc_freq=np.nan, coupling=0.1, temperature=1.0),
        lambda: NHCBathParams(osc_freq=0.8, coupling=np.nan, temperature=1.0),
        lambda: NHCBathParams(osc_freq=0.8, coupling=np.inf, temperature=1.0),
        lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=1.0,
                              mass_eta2=np.nan),
        lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=np.nan),
        lambda: OhmicBathParams(freqs=np.array([np.nan, 1.0]),
                                couplings=np.array([0.1, 0.1])),
        lambda: OhmicBathParams(freqs=np.array([1.0, np.inf]),
                                couplings=np.array([0.1, 0.1])),
        lambda: OhmicBathParams(freqs=np.array([0.5, 1.0]),
                                couplings=np.array([0.1, np.nan])),
        lambda: build_ohmic_bath(4, np.nan, 3.0),
        lambda: build_ohmic_bath(4, np.inf, 3.0),
        lambda: build_ohmic_bath(4, 0.007, np.nan),
        lambda: isolated_config(temperature=np.nan),
        lambda: thermal_widths(1.0, 1.0, np.nan, SamplingMode.QUANTUM),
        lambda: SystemParams(mass=np.inf),
        lambda: SystemParams(spring_k=np.inf),
        lambda: SystemParams(coupling_amp=np.inf),
        lambda: SystemParams(drive_freq=np.inf),
        lambda: SystemParams(carrier_freq=np.inf),
        lambda: IntegratorConfig(dt=np.inf),
        lambda: NHCBathParams(osc_freq=np.inf, coupling=0.1, temperature=1.0),
        lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=1.0,
                              mass_eta1=np.inf),
        lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=1.0,
                              mass_eta2=np.inf),
        lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=1.0,
                              thermo_dof=np.inf),
        lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=np.inf),
        lambda: isolated_config(temperature=np.inf),
        lambda: thermal_widths(1.0, 1.0, np.inf, SamplingMode.QUANTUM),
        lambda: OhmicBathParams(freqs=np.array([-1.0, 0.0, 1.0]),
                                couplings=np.array([0.1, 0.1, 0.1])),
        lambda: OhmicBathParams(freqs=np.array([0.0, 1.0]),
                                couplings=np.array([0.1, 0.1])),
    ], ids=["mass", "spring_k", "coupling_amp", "drive_freq", "carrier_freq", "dt",
            "osc_freq", "nhc_coupling_nan", "nhc_coupling_inf", "mass_eta2",
            "nhc_temperature", "ohmic_freq_nan", "ohmic_freq_inf",
            "ohmic_coupling_nan", "kondo_nan", "kondo_inf", "cutoff_nan",
            "run_temperature", "thermal_widths_temperature",
            "mass_inf", "spring_k_inf", "coupling_amp_inf", "drive_freq_inf",
            "carrier_freq_inf", "dt_inf", "osc_freq_inf", "mass_eta1_inf",
            "mass_eta2_inf", "thermo_dof_inf", "nhc_temperature_inf",
            "run_temperature_inf", "thermal_widths_temperature_inf",
            "ohmic_freq_negative", "ohmic_freq_zero"])
    def test_non_finite_parameters_rejected(self, make):
        # each range check fails for NaN and +inf, tables and couplings must
        # be finite, and bath frequencies positive; only Python callers reach
        # these, as the config layer refuses non-finite numbers
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: SystemParams(mass=np.inf), "mass must be positive and finite, got inf"),
        (lambda: SystemParams(spring_k=np.inf),
         "spring_k must be positive and finite, got inf"),
        (lambda: SystemParams(coupling_amp=np.inf),
         "coupling_amp must be >= 0 and finite, got inf"),
        (lambda: SystemParams(drive_freq=np.inf),
         "drive_freq must be positive and finite, got inf"),
        (lambda: SystemParams(carrier_freq=np.inf),
         "carrier_freq must be positive and finite, got inf"),
        (lambda: IntegratorConfig(dt=np.inf), "dt must be positive and finite, got inf"),
        (lambda: NHCBathParams(osc_freq=np.inf, coupling=0.1, temperature=1.0),
         "osc_freq must be positive and finite, got inf"),
        (lambda: NHCBathParams(osc_freq=0.8, coupling=np.inf, temperature=1.0),
         "coupling must be finite, got inf"),
        (lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=1.0,
                               mass_eta1=np.inf), "mass_eta1 must be positive and finite, got inf"),
        (lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=1.0,
                               mass_eta2=np.inf), "mass_eta2 must be positive and finite, got inf"),
        (lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=1.0,
                               thermo_dof=np.inf), "thermo_dof must be >= 1 and finite, got inf"),
        (lambda: NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=np.inf),
         "temperature must be positive and finite, got inf"),
        (lambda: isolated_config(temperature=np.inf),
         "temperature must be positive and finite, got inf"),
        (lambda: thermal_widths(1.0, 1.0, np.inf, SamplingMode.QUANTUM),
         "temperature must be positive and finite, got inf"),
        (lambda: to_kelvin(1.0, np.inf), "carrier_freq must be positive and finite, got inf"),
        (lambda: build_ohmic_bath(8, np.inf, 3.0), "kondo must be >= 0 and finite, got inf"),
        (lambda: build_ohmic_bath(8, 0.007, np.inf), "cutoff must be positive and finite, got inf"),
        (lambda: SystemParams(mass=np.nan), "mass must be positive and finite, got nan"),
        (lambda: build_ohmic_bath(8, np.nan, 3.0), "kondo must be >= 0 and finite, got nan"),
        (lambda: NHCBathParams(osc_freq=0.8, coupling=np.nan, temperature=1.0),
         "coupling must be finite, got nan"),
    ])
    def test_range_messages_name_the_whole_range(self, make, message):
        # +inf fails the upper end of the range, so the message names both
        # ends; NaN fails every form with the same message
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_model_follows_bath(self):
        assert isolated_config().model is ModelKind.ISOLATED
        assert (isolated_config(bath=build_ohmic_bath(4, 0.007, 3.0)).model
                is ModelKind.OHMIC)
        assert isolated_config(bath=nhc_from_ohmic(0.007, 3.0, 1.0)).model is ModelKind.NHC
        with pytest.raises(ValueError, match="bath type"):
            isolated_config(bath="ohmic")

    def test_ohmic_bath_size_bound(self):
        # the cap guards the Ohmic rows' sums over the modes; an NHC run only
        # builds its matched parameters from a reference of any size
        assert (isolated_config(bath=build_ohmic_bath(MAX_BATH_MODES, 0.007, 3.0))
                .bath.n_modes == MAX_BATH_MODES)
        big = build_ohmic_bath(MAX_BATH_MODES + 1, 0.007, 3.0)
        with pytest.raises(ValueError, match="n_modes must be <= 9999"):
            isolated_config(bath=big)
        assert isolated_config(bath=nhc_matched_to_ohmic(big, 1.0)).model is ModelKind.NHC

    def test_worker_count_bound(self):
        # a pool forks all its processes at its first task, so the count is
        # capped; the bound itself is accepted (no pool is opened here)
        assert isolated_config(workers=driver.MAX_WORKERS).workers == driver.MAX_WORKERS
        with pytest.raises(ValueError, match=f"workers must be <= {driver.MAX_WORKERS}"):
            isolated_config(workers=driver.MAX_WORKERS + 1)

    def test_model_parsing(self):
        assert ModelKind.parse("Ohmic") is ModelKind.OHMIC
        with pytest.raises(ValueError):
            ModelKind.parse("lindblad")


class TestDeterminism:
    def test_identical_runs_identical_statistics(self):
        a = run_ensemble(isolated_config())
        b = run_ensemble(isolated_config())
        assert np.array_equal(a.series.variances, b.series.variances)
        assert np.array_equal(a.series.std_errors, b.series.std_errors)

    def test_chunk_size_invariance(self):
        a = run_ensemble(isolated_config(chunk_size=64))
        b = run_ensemble(isolated_config(chunk_size=17))
        assert np.allclose(a.series.variances, b.series.variances, rtol=1e-12)

    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(5, 0.007, 3.0),
                                      nhc_from_ohmic(0.007, 3.0, 1.0)],
                             ids=["isolated", "ohmic", "nhc"])
    def test_worker_invariance(self, bath):
        a = run_ensemble(isolated_config(chunk_size=16, workers=1, bath=bath))
        b = run_ensemble(isolated_config(chunk_size=16, workers=2, bath=bath))
        assert np.array_equal(a.series.variances, b.series.variances)
        assert np.array_equal(a.series.std_errors, b.series.std_errors)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(20, 0.05, 3.0),
                                      nhc_from_ohmic(0.007, 3.0, 1.0)],
                             ids=["isolated", "ohmic", "nhc"])
    def test_batch_width_invariance(self, monkeypatch, bath, workers):
        # chunks of 100, 100 and 50 rows. By default they integrate as
        # batches of several chunks, with zero budgets as one chunk each. An
        # Ohmic batch is always one chunk: by default one block, with a zero
        # block budget one-row blocks.
        cfg = isolated_config(n_traj=250, chunk_size=100, workers=workers, bath=bath,
                              track_energy=True,
                              integrator=IntegratorConfig(n_steps=200, stride=50))
        ohmic = cfg.model is ModelKind.OHMIC
        assert len(_batch_ranges(cfg)) == (3 if ohmic else workers)
        assert driver._block_rows(cfg, 100) >= 100
        wide = run_ensemble(cfg)
        monkeypatch.setattr(driver, "_BATCH_BYTES", 0)
        monkeypatch.setattr(driver, "_BLOCK_BYTES", 0)
        assert len(_batch_ranges(cfg)) == 3
        assert driver._block_rows(cfg, 100) == (1 if ohmic else 100)
        narrow = run_ensemble(cfg)
        for name in ("variances", "std_errors", "means"):
            assert np.array_equal(getattr(wide.series, name),
                                  getattr(narrow.series, name)), name
        assert wide.n_failed == narrow.n_failed
        assert np.array_equal(wide.energy, narrow.energy)

    def test_prefix_stability_when_growing_ensemble(self):
        small = _sample_chunk(isolated_config(n_traj=16), 0, 16)
        large = _sample_chunk(isolated_config(n_traj=32), 0, 32)
        assert np.array_equal(small.system.q1, large.system.q1[:16])
        assert np.array_equal(small.system.p2, large.system.p2[:16])

    @pytest.mark.parametrize("bath, sample_bath, bath_shapes", [
        (None, None, ()),
        (build_ohmic_bath(5, 0.007, 3.0), sample_ohmic_bath, ((5,), (5,))),
        (nhc_from_ohmic(0.007, 3.0, 1.0), init_nhc_bath, ((2,),)),
    ], ids=["isolated", "ohmic", "nhc"])
    def test_chunk_rows_are_per_trajectory_draws(self, bath, sample_bath, bath_shapes):
        # row k is trajectory lo + k: its system draw, then its bath draw
        # (for NHC including the chain state), scaled from the normals of the
        # contract generator. Seeds: a plain one; a 64-bit one, as
        # temperature_seed gives every sweep point; one past the vectorized
        # keys (>= 2**96); and indices across 2**32.
        for seed, lo in [(11, 3), (temperature_seed(11, 0), 3), (2**96 + 5, 3),
                         (11, 2**32 - 3)]:
            cfg = isolated_config(bath=bath, seed=seed)
            state = _sample_chunk(cfg, lo, lo + 6)
            z, *bath_z = contract_normals(seed, range(lo, lo + 6), (4,), *bath_shapes)
            expected = [(state.system, sample_system(z, cfg.system, cfg.temperature,
                                                     cfg.sampling))]
            if sample_bath is not None:
                expected.append((state.bath, sample_bath(*bath_z, bath, cfg.temperature,
                                                         cfg.sampling)))
            for batch, draw in expected:
                for name, value in vars(draw).items():
                    assert np.array_equal(getattr(batch, name), value), (seed, name)
            assert (state.bath is None) == (bath is None)

    def test_temperature_seed_derivation_is_stable(self):
        assert temperature_seed(123, 0) == temperature_seed(123, 0)
        assert temperature_seed(123, 0) != temperature_seed(123, 1)
        # the documented derivation, for seeds of one to four 32-bit words
        for seed, index in [(123, 0), (123, 11), (2**40 + 3, 2), (2**100, 7)]:
            state = np.random.SeedSequence((seed, 7919, index)).generate_state(1, np.uint64)
            assert temperature_seed(seed, index) == int(state[0])


class TestBatching:
    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(5, 0.007, 3.0),
                                      nhc_from_ohmic(0.007, 3.0, 1.0)],
                             ids=["isolated", "ohmic", "nhc"])
    def test_batches_are_whole_chunks_within_budget(self, bath):
        for n_traj, chunk, workers, n_steps, track in itertools.product(
                (2, 17, 500, 1001, 10000), (1, 7, 500, 4096), (1, 2, 3),
                (0, 500, 25000), (False, True)):
            cfg = isolated_config(n_traj=n_traj, chunk_size=chunk, workers=workers,
                                  bath=bath, track_energy=track,
                                  integrator=IntegratorConfig(n_steps=n_steps, stride=25))
            batches = _batch_ranges(cfg)
            assert batches[0][0] == 0 and batches[-1][1] == n_traj
            assert all(a[1] == b[0] for a, b in zip(batches, batches[1:]))
            assert all(lo < hi for lo, hi in batches)
            assert all(lo % chunk == 0 for lo, _ in batches)
            n_chunks = -(-n_traj // chunk)
            row_bytes = len(cfg.integrator.obs_times) * (32 + 8 * track)
            for lo, hi in batches:
                if cfg.model is ModelKind.OHMIC:
                    assert hi - lo == min(chunk, n_traj - lo)
                elif hi - lo > chunk:
                    assert (hi - lo) * row_bytes <= driver._BATCH_BYTES
                    assert hi - lo <= -(-n_chunks // workers) * chunk

    def test_benchmark_sweep_grouping(self):
        # 10000 trajectories x 21 observations in chunks of 500 on 2 workers
        cfg = isolated_config(n_traj=10000, chunk_size=500, workers=2,
                              integrator=IntegratorConfig(n_steps=500, stride=25))
        assert _batch_ranges(cfg) == [(0, 5000), (5000, 10000)]

    @pytest.mark.parametrize("n_traj, chunk_size, n_batches",
                             [(64, 32, 2), (96, 16, 6)])
    def test_pool_bounded_by_batches(self, pool_sizes, n_traj, chunk_size, n_batches):
        cfg = isolated_config(n_traj=n_traj, chunk_size=chunk_size)
        wide = dataclasses.replace(cfg, workers=64)
        assert len(_batch_ranges(wide)) == n_batches
        pooled = run_ensemble(wide)
        serial = run_ensemble(cfg)
        assert pool_sizes == [n_batches]
        assert np.array_equal(serial.series.variances, pooled.series.variances)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the driver's process pool by an in-process one; returns the
    max_workers of every pool started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(driver, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestSharedPool:
    """A sweep, and a bath comparison, start one pool for all their runs."""

    temps = [0.9, 1.0, 1.1]

    def test_one_pool_per_sweep(self, pool_sizes):
        cfg = isolated_config(n_traj=64, chunk_size=32,
                              integrator=IntegratorConfig(n_steps=500, stride=50))
        pooled = temperature_sweep(dataclasses.replace(cfg, workers=2), self.temps)
        assert pool_sizes == [2]
        serial = temperature_sweep(cfg, self.temps)
        assert pool_sizes == [2]
        assert [r.to_dict() for r in pooled.rows] == [r.to_dict() for r in serial.rows]
        for a, b in zip(pooled.rows, serial.rows):
            assert np.array_equal(a.series.variances, b.series.variances)
            assert np.array_equal(a.series.std_errors, b.series.std_errors)

    def test_one_pool_per_bath_comparison(self, pool_sizes):
        icfg = IntegratorConfig(n_steps=200, stride=50)
        cfg_o = isolated_config(bath=build_ohmic_bath(8, 0.007, 3.0), integrator=icfg,
                                n_traj=96, chunk_size=16, workers=4)
        cfg_n = isolated_config(bath=nhc_from_ohmic(0.007, 3.0, 1.0), integrator=icfg,
                                n_traj=96, chunk_size=32, workers=2)
        # sized by the wider run: Ohmic keeps one chunk per batch
        assert len(_batch_ranges(cfg_o)) == 6 and len(_batch_ranges(cfg_n)) == 2
        pooled = bath_equivalence(cfg_o, cfg_n)
        assert pool_sizes == [4]
        serial = bath_equivalence(dataclasses.replace(cfg_o, workers=1),
                                  dataclasses.replace(cfg_n, workers=1))
        assert pool_sizes == [4]
        assert dataclasses.asdict(pooled) == dataclasses.asdict(serial)

    def test_probes_pickled_once_per_worker(self, monkeypatch):
        # six one-chunk Ohmic batches on two workers: each worker takes one
        # task of three consecutive batches, so the probes are pickled twice,
        # not once per batch, and the outputs keep their bits
        pickles = []

        def counting(response, protocol):
            pickles.append(protocol)
            return object.__reduce_ex__(response, protocol)

        monkeypatch.setattr(driver._Response, "__reduce_ex__", counting, raising=False)
        cfg = isolated_config(n_traj=60, chunk_size=10, workers=2,
                              bath=build_ohmic_bath(5, 0.007, 3.0),
                              integrator=IntegratorConfig(n_steps=100, stride=50))
        assert len(_batch_ranges(cfg)) == 6
        pooled = run_ensemble(cfg)
        assert len(pickles) == 2
        serial = run_ensemble(dataclasses.replace(cfg, workers=1))
        assert len(pickles) == 2
        for name in ("variances", "std_errors", "means"):
            assert np.array_equal(getattr(pooled.series, name),
                                  getattr(serial.series, name)), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_point_stops_the_sweep(self, monkeypatch, pool_sizes):
        sampled = []

        def sample(config, lo, hi):
            sampled.append(config.temperature)
            state = _sample_chunk(config, lo, hi)
            if config.temperature == 1.0:
                state.system.q1[3] = np.inf
            return state

        monkeypatch.setattr(driver, "_sample_chunk", sample)
        cfg = isolated_config(n_traj=64, chunk_size=32, workers=2,
                              integrator=IntegratorConfig(n_steps=500, stride=50))
        with pytest.raises(TrajectoryFailure):
            temperature_sweep(cfg, self.temps)
        assert pool_sizes == [2]
        assert sampled == [0.9, 0.9, 1.0, 1.0]


class TestZeroCouplingEquivalence:
    def test_ohmic_with_zero_kondo_matches_isolated(self):
        bath = build_ohmic_bath(8, 0.0, 3.0)
        cfg_o = isolated_config(bath=bath)
        cfg_i = isolated_config()
        res_o = run_ensemble(cfg_o)
        res_i = run_ensemble(cfg_i)
        assert np.max(np.abs(res_o.series.variances - res_i.series.variances)) < 1e-12


class TestFailurePolicy:
    """Any non-finite trajectory aborts the run with TrajectoryFailure."""

    unstable = IntegratorConfig(dt=2.0, n_steps=600, stride=100)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_step_aborts(self):
        # a deliberately oversized time step blows the trajectories up; the
        # run stops at the first non-finite observation, not at the end
        with pytest.raises(TrajectoryFailure) as err:
            run_ensemble(isolated_config(integrator=self.unstable))
        assert err.value.step % self.unstable.stride == 0
        assert err.value.step < self.unstable.n_steps

    @staticmethod
    def start_one_row_at_inf(monkeypatch, field):
        """Sample as usual, then set row 3 of ``field(state)`` to inf."""
        def sample(config, lo, hi):
            state = _sample_chunk(config, lo, hi)
            field(state)[3] = np.inf
            return state

        monkeypatch.setattr(driver, "_sample_chunk", sample)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_raises_with_step_index(self, monkeypatch):
        # one infinite row among finite ones: the observation at step 0 fails
        self.start_one_row_at_inf(monkeypatch, lambda state: state.system.q1)
        with pytest.raises(TrajectoryFailure) as err:
            run_ensemble(isolated_config())
        assert err.value.step == 0

    def test_non_finite_final_state_aborts(self, monkeypatch):
        # the chain position eta1 never feeds back into the system, so only the
        # final-state check sees it
        self.start_one_row_at_inf(monkeypatch, lambda state: state.bath.eta1)
        icfg = IntegratorConfig(n_steps=95, stride=20)
        with pytest.raises(TrajectoryFailure) as err:
            run_ensemble(isolated_config(bath=nhc_from_ohmic(0.007, 3.0, 1.0),
                                         integrator=icfg))
        assert err.value.step == icfg.n_steps

    def test_earliest_failure_over_ohmic_blocks(self, monkeypatch, tmp_path, capsys):
        # one 100-row Ohmic chunk. Row 5 (block 0 of the 25-row blocks)
        # starts at the edge of overflow and goes non-finite when its momenta
        # peak; row 70 (block 2) has an infinite bath position, which reaches
        # the system in the first step. In blocks as in one, the run stops at
        # row 70's observation and writes nothing.
        def perturb(rows):
            def sample(config, lo, hi):
                state = _sample_chunk(config, lo, hi)
                if 5 in rows:
                    state.system.q1[5] = state.system.q2[5] = 0.85e308
                if 70 in rows:
                    state.bath.pos[70, 0] = np.inf
                return state
            monkeypatch.setattr(driver, "_sample_chunk", sample)

        budgets = {1: driver._BLOCK_BYTES, 4: 25 * 5 * 8 * 20}   # 25 rows of N = 20

        def failure_step(blocks, rows):
            monkeypatch.setattr(driver, "_BLOCK_BYTES", budgets[blocks])
            assert -(-100 // driver._block_rows(cfg, 100)) == blocks
            perturb(rows)
            with pytest.raises(TrajectoryFailure) as err:
                run_ensemble(cfg)
            return err.value.step

        icfg = IntegratorConfig(n_steps=400, stride=50)
        cfg = isolated_config(n_traj=100, chunk_size=100, integrator=icfg,
                              bath=build_ohmic_bath(20, 0.007, 3.0))
        late, early = failure_step(1, {5}), failure_step(1, {70})
        assert early == icfg.stride < late < icfg.n_steps
        assert failure_step(4, {5}) == late
        assert failure_step(4, {5, 70}) == failure_step(1, {5, 70}) == early

        out = tmp_path / "results"
        ini = tmp_path / "case.ini"
        ini.write_text("[bath]\nmodel = ohmic\nn_modes = 20\n"
                       "[integrator]\nn_steps = 400\nstride = 50\n"
                       "[ensemble]\nn_traj = 100\nchunk_size = 100\n"
                       f"[output]\ndir = {out}\n")
        assert main(["run", "--config", str(ini)]) == EXIT_TRAJECTORY
        assert not out.exists()
        assert capsys.readouterr().err == ("sqzbath: error: non-finite phase-space "
                                           f"coordinates at step {early}\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("workers, batch_bytes, n_batches",
                             [(1, None, 1), (2, None, 2), (1, 0, 2), (2, 0, 2)])
    def test_earliest_failure_over_batches(self, monkeypatch, tmp_path, capsys,
                                           workers, batch_bytes, n_batches):
        # two 100-row chunks. Row 5 starts at the edge of overflow and goes
        # non-finite later; row 150 starts at inf. However the chunks are
        # batched, serially or in a pool, the run stops at step 0 and writes
        # nothing.
        def sample(config, lo, hi):
            state = _sample_chunk(config, lo, hi)
            for row, value in ((5, 0.85e308), (150, np.inf)):
                if lo <= row < hi:
                    state.system.q1[row - lo] = state.system.q2[row - lo] = value
            return state

        monkeypatch.setattr(driver, "_sample_chunk", sample)
        if batch_bytes is not None:
            monkeypatch.setattr(driver, "_BATCH_BYTES", batch_bytes)
        cfg = isolated_config(n_traj=200, chunk_size=100, seed=5, workers=workers,
                              integrator=IntegratorConfig(n_steps=400, stride=50))
        assert len(_batch_ranges(cfg)) == n_batches
        with pytest.raises(TrajectoryFailure) as err:
            run_ensemble(dataclasses.replace(cfg, n_traj=100))
        assert err.value.step > 0
        with pytest.raises(TrajectoryFailure) as err:
            run_ensemble(cfg)
        assert err.value.step == 0

        out = tmp_path / "results"
        ini = tmp_path / "case.ini"
        ini.write_text("[bath]\nmodel = isolated\n"
                       "[integrator]\nn_steps = 400\nstride = 50\n"
                       f"[ensemble]\nn_traj = 200\nchunk_size = 100\nseed = 5\n"
                       f"workers = {workers}\n[output]\ndir = {out}\n")
        assert main(["run", "--config", str(ini)]) == EXIT_TRAJECTORY
        assert not out.exists()
        assert capsys.readouterr().err == ("sqzbath: error: non-finite phase-space "
                                           "coordinates at step 0\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_serial_and_pooled_batches_run_alike(self, monkeypatch):
        # two 100-row batches; row 5 starts at the edge of overflow, so the
        # first batch is stepped and fails. Serially as on a pool, both
        # batches reach _try_chunk with the probes, and the run raises the
        # same failure
        def sample(config, lo, hi):
            state = _sample_chunk(config, lo, hi)
            if lo <= 5 < hi:
                state.system.q1[5 - lo] = state.system.q2[5 - lo] = 0.85e308
            return state

        def recording(mapper):
            def record(fn, *iterables, **kwargs):
                args = list(zip(*iterables))
                calls.append([(fn, lo, hi, resp) for _, lo, hi, resp in args])
                return mapper(fn, *zip(*args), **kwargs)
            return record

        monkeypatch.setattr(driver, "_sample_chunk", sample)
        monkeypatch.setattr(driver, "_BATCH_BYTES", 0)
        cfg = isolated_config(n_traj=200, chunk_size=100, seed=5,
                              integrator=IntegratorConfig(n_steps=400, stride=50))
        response = _response(cfg)
        calls = []
        monkeypatch.setattr(driver, "map", recording(map), raising=False)
        with pytest.raises(TrajectoryFailure) as serial:
            run_ensemble(cfg, response=response)
        monkeypatch.delattr(driver, "map")
        pooled_cfg = dataclasses.replace(cfg, workers=2)
        with driver._pool(pooled_cfg) as pool, pytest.raises(TrajectoryFailure) as pooled:
            run_ensemble(pooled_cfg, pool=types.SimpleNamespace(map=recording(pool.map)),
                         response=response)

        assert len(calls) == 2
        for batches in calls:
            assert [(fn, lo, hi) for fn, lo, hi, _ in batches] == [
                (driver._try_chunk, 0, 100), (driver._try_chunk, 100, 200)]
            assert all(resp is response for *_, resp in batches)
        assert 0 < serial.value.step == pooled.value.step < cfg.integrator.n_steps
        assert str(serial.value) == str(pooled.value)

    def test_non_finite_energy_sum_aborts(self, monkeypatch):
        # finite coordinates whose energies overflow from the third
        # observation on: the merged energy sum names that step
        cfg = isolated_config(track_energy=True)
        limit = 1.5 * cfg.integrator.stride * cfg.integrator.dt
        chunk_energy = driver._chunk_energy

        def energy(config, state):
            e = chunk_energy(config, state)
            return e * np.inf if state.t > limit else e

        monkeypatch.setattr(driver, "_chunk_energy", energy)
        with pytest.raises(TrajectoryFailure) as err:
            run_ensemble(cfg)
        assert err.value.step == 2 * cfg.integrator.stride
        assert str(err.value) == f"non-finite ensemble moments at step {err.value.step}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_crosses_the_pool(self):
        cfg = isolated_config(integrator=self.unstable, workers=2, chunk_size=16)
        assert len(_batch_ranges(cfg)) > 1
        with pytest.raises(TrajectoryFailure) as err:
            run_ensemble(cfg)
        assert str(err.value) == f"non-finite phase-space coordinates at step {err.value.step}"
        assert err.value.step < self.unstable.n_steps


class TestPropagation:
    """Isolated and Ohmic runs propagate their snapshots from four stepped
    unit probes instead of stepping every trajectory."""

    # "masses": system mass 1.7, and a bath of mass 0.7 as its unit-mass
    # equivalent, kondo 0.007 / 0.7 (couplings c_j / sqrt(0.7))
    @pytest.mark.parametrize("bath, system, sampling, n_steps", [
        (None, SystemParams(), SamplingMode.QUANTUM, 1000),
        (build_ohmic_bath(20, 0.0, 3.0), SystemParams(), SamplingMode.QUANTUM, 1000),
        (build_ohmic_bath(20, 0.007, 3.0), SystemParams(), SamplingMode.QUANTUM, 1000),
        (build_ohmic_bath(20, 0.3, 3.0), SystemParams(), SamplingMode.CLASSICAL, 1000),
        (build_ohmic_bath(20, 0.007 / 0.7, 3.0), SystemParams(mass=1.7),
         SamplingMode.QUANTUM, 1000),
        (build_ohmic_bath(20, 0.007 / 0.7, 3.0), SystemParams(mass=1.7),
         SamplingMode.CLASSICAL, 1037),
        (None, SystemParams(mass=1.7), SamplingMode.CLASSICAL, 1037),
    ], ids=["isolated", "kondo0", "kondo0.007", "kondo0.3-classical", "masses",
            "masses-classical-offgrid", "isolated-mass-offgrid"])
    def test_propagated_equals_stepped(self, bath, system, sampling, n_steps):
        # the same samples, stepped and propagated, per trajectory; step 0
        # is the sampled state itself, bit for bit
        cfg = isolated_config(bath=bath, system=system, sampling=sampling, chunk_size=23,
                              integrator=IntegratorConfig(n_steps=n_steps, stride=50))
        state = _sample_chunk(cfg, 0, cfg.n_traj)
        propagated = _contract(_response(cfg), to_normal_modes(state.system), state.bath)
        stepped = _step_batch(cfg, state)
        n_obs = len(cfg.integrator.obs_times)
        assert stepped.shape == (4, cfg.n_traj, n_obs)
        # one more record when n_steps is off the stride grid
        assert propagated.shape == (4, cfg.n_traj, n_obs + (n_steps % 50 != 0))
        propagated = propagated[:, :, :n_obs]
        assert np.array_equal(propagated[:, :, 0], stepped[:, :, 0])
        rms = np.sqrt((stepped ** 2).mean(axis=1, keepdims=True))
        assert (np.abs(propagated - stepped) / rms).max() <= 1e-12

    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(20, 0.007, 3.0)],
                             ids=["isolated", "ohmic"])
    def test_chunk_accumulators_equal_add_block(self, bath):
        # each chunk's moments, reduced from its propagated coordinates,
        # have the bits of a sum over its rows in order; 70 rows make an
        # uneven last chunk, and step 1037 is off the stride grid
        cfg = isolated_config(n_traj=70, chunk_size=32, bath=bath,
                              integrator=IntegratorConfig(n_steps=1037, stride=50))
        resp = _response(cfg)
        state = _sample_chunk(cfg, 0, cfg.n_traj)
        modes, times = to_normal_modes(state.system), cfg.integrator.obs_times
        partials = _propagate(cfg, resp, state)
        assert len(partials) == 3
        for (acc, energy_sums), (a, b) in zip(partials, ((0, 32), (32, 64), (64, 70))):
            assert energy_sums is None
            coords = _contract(resp, _rows(modes, a, b), _rows(state.bath, a, b))
            assert coords.shape == (4, b - a, len(times) + 1)
            mean, m2 = row_ordered_moments(coords[:, :, :len(times)].transpose(1, 2, 0))
            assert np.all(acc.count == b - a)
            assert np.array_equal(acc.mean, mean)
            assert np.array_equal(acc.m2, m2)

    @pytest.mark.parametrize("track_energy", [False, True], ids=["propagated", "stepped"])
    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(20, 0.007, 3.0),
                                      nhc_from_ohmic(0.007, 3.0, 1.0)],
                             ids=["isolated", "ohmic", "nhc"])
    def test_every_chunk_reduces_through_add_block_once(self, monkeypatch, bath,
                                                        track_energy):
        shapes, add_block = [], VarianceAccumulator.add_block

        def counting(self, values):
            shapes.append(values.shape)
            return add_block(self, values)

        monkeypatch.setattr(VarianceAccumulator, "add_block", counting)
        cfg = isolated_config(n_traj=70, chunk_size=32, bath=bath,
                              track_energy=track_energy)
        run_ensemble(cfg)
        n_obs = len(cfg.integrator.obs_times)
        assert shapes == [(32, n_obs, 4), (32, n_obs, 4), (6, n_obs, 4)]

    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(20, 0.007, 3.0)],
                             ids=["isolated", "ohmic"])
    def test_one_observation_reduces_alike_stepped_and_propagated(self, bath):
        # with n_steps < stride the only observation is the sampled state,
        # the same bits stepped and propagated, and one reduction gives them
        # the same moments
        cfg = isolated_config(n_traj=300, chunk_size=150, bath=bath,
                              integrator=IntegratorConfig(n_steps=30, stride=50))
        propagated = run_ensemble(cfg).series
        stepped = run_ensemble(dataclasses.replace(cfg, track_energy=True)).series
        for name in ("variances", "std_errors", "means"):
            assert np.array_equal(getattr(propagated, name), getattr(stepped, name))

    @pytest.mark.parametrize("kondo", [0.0, 0.007, 0.3])
    def test_probes_reproduce_ohmic_oracle(self, kondo):
        # var(qt1) and var(pt1) as the probe coefficients squared against the
        # sampled thermal widths: the oracle's closed form, without Monte
        # Carlo noise
        bath = build_ohmic_bath(200, kondo / 0.7, 3.0)   # bath mass 0.7, rescaled
        system = SystemParams(mass=1.7)
        cfg = isolated_config(bath=bath, system=system,
                              integrator=IntegratorConfig(n_steps=5000, stride=25))
        resp = _response(cfg)
        w1, _ = normal_mode_freqs(0.0, system)
        sys_w = thermal_widths(system.mass, w1, cfg.temperature, cfg.sampling)
        bath_w = thermal_widths(1.0, bath.freqs, cfg.temperature, cfg.sampling)
        # probe A gives qt1's coefficients, probe B pt1's: (qt1, pt1) of the
        # probe weigh the initial (pt1, qt1), its (R, P) the initial (P, R)
        variances = (resp.mode1[:, :, 1] ** 2 * sys_w.var_q
                     + resp.mode1[:, :, 0] ** 2 * sys_w.var_p
                     + resp.bath_mom ** 2 @ bath_w.var_q
                     + resp.bath_pos ** 2 @ np.broadcast_to(bath_w.var_p, bath.n_modes))
        var_q1, var_p1 = mode1_variance_exact(system, bath, cfg.temperature, cfg.sampling,
                                              config=cfg.integrator)
        assert np.allclose(variances[:, 0], var_q1, rtol=1e-10, atol=0)
        assert np.allclose(variances[:, 1], var_p1, rtol=1e-10, atol=0)

    @staticmethod
    def integrate_rows(monkeypatch):
        """Record the number of rows of every driver.integrate call."""
        rows, integrate = [], driver.integrate

        def recording(state, *args, **kwargs):
            rows.append(np.size(state.system.q1))
            return integrate(state, *args, **kwargs)

        monkeypatch.setattr(driver, "integrate", recording)
        return rows

    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(20, 0.007, 3.0),
                                      nhc_from_ohmic(0.007, 3.0, 1.0)],
                             ids=["isolated", "ohmic", "nhc"])
    def test_healthy_run_integrates_only_the_probes(self, monkeypatch, bath):
        rows = self.integrate_rows(monkeypatch)
        cfg = isolated_config(bath=bath, chunk_size=16)
        run_ensemble(cfg)
        if cfg.model is ModelKind.NHC:
            assert sum(rows) == cfg.n_traj     # stepped, batch by batch
        else:
            assert rows == [4]
        rows.clear()
        run_ensemble(dataclasses.replace(cfg, track_energy=True))
        assert sum(rows) == cfg.n_traj

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(20, 0.007, 3.0)],
                             ids=["isolated", "ohmic"])
    def test_near_overflow_batch_is_stepped(self, monkeypatch, bath):
        # row 21 starts at the edge of overflow: its chunk's batch is stepped
        # and fails where the stepper fails (step 150, as when every batch
        # was stepped); the batches before and after it are propagated
        rows = self.integrate_rows(monkeypatch)

        def sample(config, lo, hi):
            state = _sample_chunk(config, lo, hi)
            if lo <= 21 < hi:
                state.system.q1[21 - lo] = state.system.q2[21 - lo] = 0.85e308
            return state

        monkeypatch.setattr(driver, "_sample_chunk", sample)
        monkeypatch.setattr(driver, "_BATCH_BYTES", 0)
        cfg = isolated_config(bath=bath, chunk_size=16)
        with pytest.raises(TrajectoryFailure) as err:
            run_ensemble(cfg)
        assert err.value.step == 150
        # the probes, then chunk [16, 32) stepped; the later chunks propagated
        assert rows == [4, 16]
        rows.clear()
        monkeypatch.setattr(driver, "_response", lambda config: None)
        with pytest.raises(TrajectoryFailure) as stepped:
            run_ensemble(cfg)
        assert stepped.value.step == err.value.step
        assert str(stepped.value) == str(err.value)

    @pytest.mark.parametrize("shape", [(7,), (2, 3, 5)], ids=["1d", "3d"])
    def test_bound_check_at_the_edge(self, shape):
        # declined from 2**511 in magnitude on, where a square can overflow,
        # and at every non-finite value, wherever it sits in the array
        below = np.nextafter(2.0 ** 511, 0)
        for value, bounded in ((below, True), (-below, True), (2.0 ** 511, False),
                               (-2.0 ** 511, False), (np.nan, False),
                               (np.inf, False), (-np.inf, False)):
            for index in (0, -1):
                a = np.zeros(shape)
                a.flat[index] = value
                assert driver._bounded(np.ones(3), a) is bounded
        assert driver._bounded(np.empty((4, 0)))

    def test_propagated_chunk_peak_memory(self):
        # a chunk at the reference 25000 steps and stride 25: its (4, 500,
        # 1001) buffer and one (500, 1001) term, with no buffer-sized
        # temporary in the bound check
        cfg = isolated_config(n_traj=500, chunk_size=500,
                              integrator=IntegratorConfig(n_steps=25000, stride=25))
        response = _response(cfg)
        state = _sample_chunk(cfg, 0, 500)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert _propagate(cfg, response, state) is not None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (4 * 500 * len(response.mode1) * 8)

    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(20, 0.05, 3.0)],
                             ids=["isolated", "ohmic"])
    def test_chunk_rows_do_not_depend_on_the_batch(self, monkeypatch, bath):
        # a chunk propagated alone has the bits it has inside a wider batch
        cfg = isolated_config(n_traj=250, chunk_size=100, bath=bath,
                              integrator=IntegratorConfig(n_steps=200, stride=50))
        resp = _response(cfg)

        def contract(lo, hi):
            state = _sample_chunk(cfg, lo, hi)
            return _contract(resp, to_normal_modes(state.system), state.bath)

        wide = contract(0, 250)
        for lo, hi in ((0, 100), (100, 200), (200, 250)):
            alone = contract(lo, hi)
            for chunk, batch in zip(alone, wide):
                assert np.array_equal(chunk, batch[lo:hi])

        results = []
        for workers, batch_bytes in itertools.product((1, 2), (driver._BATCH_BYTES, 0)):
            monkeypatch.setattr(driver, "_BATCH_BYTES", batch_bytes)
            results.append(run_ensemble(dataclasses.replace(cfg, workers=workers)).series)
        for other in results[1:]:
            for name in ("variances", "std_errors", "means"):
                assert np.array_equal(getattr(results[0], name), getattr(other, name))


class TestEnergyTracking:
    def test_energy_series_present_and_exact_at_t0(self):
        cfg = isolated_config(track_energy=True, n_traj=32)
        res = run_ensemble(cfg)
        assert res.energy is not None
        # initial mean energy equals the sampled-ensemble average by definition
        state = _sample_chunk(cfg, 0, 32)
        from sqzbath.system import system_energy
        e0 = float(np.mean(system_energy(0.0, state.system, cfg.system)))
        assert res.energy[0] == pytest.approx(e0, rel=1e-12)

    # SHA-256 of the series variances, standard errors and means and of the
    # mean energy of a stepped energy-tracking run of each model: 250
    # trajectories in chunks of 100, 400 steps at stride 50. "ohmic-blocks"
    # integrates each chunk in blocks of 1, 7 and 33 rows, and each must
    # give the digest of one block per chunk: every sum over the bath modes
    # acts on one row
    GOLDEN = {
        "isolated": "5f9b7b3006a61b6592ef702a8a8009ac344ff7a65071ae17bc89a2baf2fefdb3",
        "ohmic": "494b6eba6d564fd97426c9019fd52cf5c94f1d65b4510e2b33b4ebae2e358c25",
        "ohmic-blocks": "494b6eba6d564fd97426c9019fd52cf5c94f1d65b4510e2b33b4ebae2e358c25",
        "nhc": "f9b4356387a97efb4a309cfb2bbb5f9e0f2fb56db2cb8b93226e591c695d6fef",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_stepped_runs(self, monkeypatch, case):
        bath = {"isolated": None, "nhc": nhc_from_ohmic(0.007, 3.0, 1.0)}.get(
            case, build_ohmic_bath(20, 0.007, 3.0))
        cfg = isolated_config(n_traj=250, chunk_size=100, bath=bath, track_energy=True,
                              integrator=IntegratorConfig(n_steps=400, stride=50))
        for rows in ((1, 7, 33) if case == "ohmic-blocks" else (None,)):
            if rows is not None:
                monkeypatch.setattr(driver, "_block_rows", lambda config, n, rows=rows: rows)
            res = run_ensemble(cfg)
            digest = hashlib.sha256()
            for values in (res.series.variances, res.series.std_errors, res.series.means,
                           res.energy):
                digest.update(values.tobytes())
            assert digest.hexdigest() == self.GOLDEN[case], rows


class TestSweep:
    def make_cfg(self):
        return isolated_config(n_traj=48,
                               integrator=IntegratorConfig(n_steps=500, stride=50))

    def test_single_temperature_row(self):
        sweep = temperature_sweep(self.make_cfg(), [1.0])
        assert len(sweep.rows) == 1
        assert not sweep.mc_threshold_defined
        assert sweep.rows[0].oracle_min_variance > 0

    def test_rows_carry_oracle_column(self):
        sweep = temperature_sweep(self.make_cfg(), [0.9, 1.0])
        assert all(r.oracle_min_variance > 0 for r in sweep.rows)
        assert sweep.rows[0].temperature == 0.9

    def test_monotone_grid_required(self):
        with pytest.raises(ValueError):
            temperature_sweep(self.make_cfg(), [1.0, 0.9])
        with pytest.raises(ValueError):
            temperature_sweep(self.make_cfg(), [])

    def test_oracle_threshold_reported(self):
        sweep = temperature_sweep(self.make_cfg(), [0.95, 1.06])
        # short window: threshold exists but may sit outside the grid
        assert (sweep.oracle_threshold is not None) or sweep.oracle_threshold_note

    @pytest.mark.parametrize("bath", [None, build_ohmic_bath(20, 0.007, 3.0)],
                             ids=["isolated", "ohmic"])
    def test_points_share_one_probe_integration(self, monkeypatch, bath):
        # the probes do not depend on temperature or seed: one 4-row
        # integrate call serves every point
        rows = []
        integrate = driver.integrate

        def counted(state, *args):
            rows.append(state.system.q1.shape)
            return integrate(state, *args)
        monkeypatch.setattr(driver, "integrate", counted)
        cfg = dataclasses.replace(self.make_cfg(), bath=bath)
        assert cfg.workers == 1
        sweep = temperature_sweep(cfg, [0.9, 1.0, 1.1])
        assert len(sweep.rows) == 3
        assert rows == [(4,)]


class TestBathEquivalence:
    def test_mode2_identical_and_everything_compares(self):
        bath = build_ohmic_bath(8, 0.007, 3.0)
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        icfg = IntegratorConfig(n_steps=500, stride=50)
        cfg_o = isolated_config(bath=bath, integrator=icfg, n_traj=128)
        cfg_n = isolated_config(bath=nhc, integrator=icfg, n_traj=128)
        cmp = bath_equivalence(cfg_o, cfg_n)
        # the relative mode never sees either bath: identical curves
        assert cmp.coords["qt2"].max_rel_dev < 1e-10
        assert cmp.coords["pt2"].max_rel_dev < 1e-10
        assert cmp.coords["qt2"].passed and cmp.coords["pt2"].passed

    def test_one_seed_one_relative_mode_in_every_model(self):
        # every model draws a trajectory's system normals first, from the
        # same stream, and the relative mode never feels either bath, so one
        # seed gives one qt2, pt2 ensemble: the isolated and Ohmic runs
        # propagate it from the same probes, bit for bit, and the NHC run
        # steps it, equal at round-off
        cfg = isolated_config(n_traj=300, integrator=IntegratorConfig(n_steps=400, stride=25))
        isolated, ohmic, nhc = (run_ensemble(dataclasses.replace(cfg, bath=bath)).series
                                for bath in (None, build_ohmic_bath(200, 0.007, 3.0),
                                             nhc_from_ohmic(0.007, 3.0, 1.0)))
        for name in ("variances", "std_errors", "means"):
            ref, same, close = (getattr(s, name)[:, [1, 3]] for s in (isolated, ohmic, nhc))
            assert np.array_equal(same, ref), name
            assert np.allclose(close, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()), name

    def test_mismatched_configs_rejected(self):
        bath = build_ohmic_bath(8, 0.007, 3.0)
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        cfg_o = isolated_config(bath=bath)
        cfg_n = isolated_config(bath=nhc, seed=99)
        with pytest.raises(ValueError, match="seed"):
            bath_equivalence(cfg_o, cfg_n)

    def test_wrong_models_rejected(self):
        with pytest.raises(ValueError, match="ohmic"):
            bath_equivalence(isolated_config(), isolated_config())


class TestScaling:
    def test_wall_time_scales_roughly_linearly(self):
        cfg_small = isolated_config(n_traj=128, chunk_size=128,
                                    integrator=IntegratorConfig(n_steps=2000, stride=500))
        cfg_large = dataclasses.replace(cfg_small, n_traj=512, chunk_size=512)
        run_ensemble(cfg_small)  # warm-up
        t0 = time.perf_counter()
        run_ensemble(cfg_small)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_ensemble(cfg_large)
        t_large = time.perf_counter() - t0
        assert t_large / t_small < 4 * 1.3
