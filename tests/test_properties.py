"""Property tests over random masses, bath couplings and states: every force
is -dH/dq, the energy (for the NHC model, the extended energy) is conserved
with frozen coupling, the relative mode never feels a bath, the oracle's 2x2 relative-mode
loop is the relative mode of integrate(), the Ohmic and NHC steps inside
integrate() evaluate the bath force once per step ("first same as last")
without changing a bit of the trajectory, the in-place NHC thermostat gives
the bits of the textbook substep, the chunk sampler's Philox keys are numpy's
SeedSequence keys, and its rows are the per-trajectory generators' draws."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sqzbath import (IntegratorConfig, NHCBathParams, NHCBathPhase, NormalModePhase,
                     OhmicBathPhase, SystemParams, SystemPhase, TrajectoryState,
                     build_ohmic_bath, from_normal_modes, fundamental_solution,
                     integrate, nhc_bath_forces, nhc_extended_energy, ohmic_energy,
                     ohmic_forces, step_hamiltonian, step_nhc, system_energy,
                     system_force, to_normal_modes, yoshida_weights)
from sqzbath.sampling import philox_keys, trajectory_rng

from conftest import contract_normals, reference_leapfrog

N_MODES = 4

masses = st.floats(0.25, 4.0)
times = st.floats(0.0, 20.0)
# the bath oscillators have unit mass; a mass m_j of the textbook bath is the
# coupling c_j / sqrt(m_j), so the bath couplings are drawn over the range
# the bath masses above would give: kondo 0.05 / m_j, and c_1 = 0.1 / sqrt(m_1)
kondos = st.floats(0.0125, 0.2)
osc_couplings = st.floats(0.05, 0.2)


def coords(n):
    return arrays(np.float64, n, elements=st.floats(-2.0, 2.0))


def minus_gradient(energy, x, eps=1e-4):
    """-dE/dx by central differences; exact up to round-off for quadratic E."""
    grad = np.empty(len(x))
    for i in range(len(x)):
        step = np.zeros(len(x))
        step[i] = eps
        grad[i] = (energy(x + step) - energy(x - step)) / (2 * eps)
    return -grad


def assert_matches(force, expected):
    np.testing.assert_allclose(force, expected, rtol=1e-7, atol=1e-7)


def ohmic_bath(kondo=0.05):
    return build_ohmic_bath(N_MODES, kondo, 3.0)


def nhc_bath(coupling=0.1, **chain):
    return NHCBathParams(osc_freq=0.8, coupling=coupling, temperature=1.0, **chain)


def nhc_phase(osc_q, osc_p):
    return NHCBathPhase(osc_q=osc_q, osc_p=osc_p, eta1=0.3, eta2=-0.2,
                        p_eta1=0.1, p_eta2=0.5)


class TestForceIsMinusGradient:
    @settings(max_examples=50, deadline=None)
    @given(mass=masses, spring_k=st.floats(0.5, 3.0), t=times, x=coords(4))
    def test_isolated(self, mass, spring_k, t, x):
        sys = SystemParams(mass=mass, spring_k=spring_k)

        def energy(q):
            return system_energy(t, SystemPhase(q[0], q[1], x[2], x[3]), sys)

        f1, f2 = system_force(t, SystemPhase(*x), sys)
        assert_matches([f1, f2], minus_gradient(energy, x[:2]))

    @settings(max_examples=50, deadline=None)
    @given(mass=masses, kondo=kondos, t=times, x=coords(4 + 2 * N_MODES))
    def test_ohmic(self, mass, kondo, t, x):
        sys = SystemParams(mass=mass)
        bath = ohmic_bath(kondo)
        mom = x[2 + N_MODES:2 + 2 * N_MODES]

        def energy(q):
            return ohmic_energy(t, SystemPhase(q[0], q[1], x[-2], x[-1]),
                                OhmicBathPhase(q[2:], mom), sys, bath)

        ph = SystemPhase(x[0], x[1], x[-2], x[-1])
        f1, f2 = system_force(t, ph, sys)
        sys_kick, bath_force = ohmic_forces(ph, OhmicBathPhase(x[2:2 + N_MODES], mom),
                                            bath)
        assert_matches(np.concatenate([[f1 + sys_kick, f2 + sys_kick], bath_force]),
                       minus_gradient(energy, x[:2 + N_MODES]))

    @settings(max_examples=50, deadline=None)
    @given(mass=masses, coupling=osc_couplings, t=times, x=coords(6))
    def test_nhc(self, mass, coupling, t, x):
        sys = SystemParams(mass=mass)
        bath = nhc_bath(coupling)

        def energy(q):
            return nhc_extended_energy(t, SystemPhase(q[0], q[1], x[3], x[4]),
                                       nhc_phase(q[2], x[5]), sys, bath)

        ph = SystemPhase(x[0], x[1], x[3], x[4])
        f1, f2 = system_force(t, ph, sys)
        sys_kick, osc_force = nhc_bath_forces(ph, nhc_phase(x[2], x[5]), bath)
        assert_matches([f1 + sys_kick, f2 + sys_kick, osc_force],
                       minus_gradient(energy, x[:3]))


def _energy_drift(state, sys, bath, energy, n_steps=2000):
    """(E0, largest |E - E0|) over an integrate() run, sampled every 50 steps."""
    e0 = energy(state)
    worst = [0.0]

    def observer(step, st):
        worst[0] = max(worst[0], abs(energy(st) - e0))

    integrate(state, sys, bath, IntegratorConfig(n_steps=n_steps, stride=50), observer)
    return e0, worst[0]


class TestEnergyConservationAnyMass:
    # velocity Verlet keeps the energy within O((omega dt)^2) of its start;
    # with the system or chain mass left out of a force it drifts by tens of
    # percent
    TOL = 2e-3

    @settings(max_examples=15, deadline=None)
    @given(mass=masses, x=coords(4))
    def test_isolated(self, mass, x):
        sys = SystemParams(mass=mass, frozen_coupling=True)
        state = TrajectoryState(0.0, SystemPhase(*x))
        e0, drift = _energy_drift(state, sys, None,
                                  lambda s: system_energy(s.t, s.system, sys))
        assert drift <= self.TOL * e0

    @settings(max_examples=15, deadline=None)
    @given(mass=masses, kondo=kondos, x=coords(4 + 2 * N_MODES))
    def test_ohmic(self, mass, kondo, x):
        sys = SystemParams(mass=mass, frozen_coupling=True)
        bath = ohmic_bath(kondo)
        state = TrajectoryState(0.0, SystemPhase(x[0], x[1], x[-2], x[-1]),
                                OhmicBathPhase(x[2:2 + N_MODES].copy(),
                                               x[2 + N_MODES:2 + 2 * N_MODES].copy()))
        e0, drift = _energy_drift(
            state, sys, bath, lambda s: ohmic_energy(s.t, s.system, s.bath, sys, bath))
        assert drift <= self.TOL * e0

    @settings(max_examples=15, deadline=None)
    @given(mass=masses, coupling=osc_couplings, mass_eta1=masses, mass_eta2=masses,
           thermo_dof=st.integers(1, 3), x=coords(6))
    def test_nhc_extended(self, mass, coupling, mass_eta1, mass_eta2, thermo_dof, x):
        sys = SystemParams(mass=mass, frozen_coupling=True)
        bath = nhc_bath(coupling, mass_eta1=mass_eta1, mass_eta2=mass_eta2,
                        thermo_dof=thermo_dof)
        state = TrajectoryState(0.0, SystemPhase(*x[:4]), nhc_phase(x[4], x[5]))
        e0, drift = _energy_drift(
            state, sys, bath,
            lambda s: nhc_extended_energy(s.t, s.system, s.bath, sys, bath))
        assert drift <= self.TOL * e0


class TestMode2BathIndependence:
    # both baths couple to q1 + q2, so from the same system state the
    # relative mode (qt2, pt2) of the Ohmic and NHC models follows the
    # isolated model to round-off: the premise of the closed-form threshold
    @settings(max_examples=20, deadline=None)
    @given(mass=masses, kondo=kondos, coupling=osc_couplings,
           x=coords(4 + 2 * N_MODES + 2))
    def test_ohmic_and_nhc_match_isolated(self, mass, kondo, coupling, x):
        sys = SystemParams(mass=mass)

        def relative_mode(bath, bath_phase):
            state = integrate(TrajectoryState(0.0, SystemPhase(*x[:4]), bath_phase),
                              sys, bath, IntegratorConfig(n_steps=300))
            modes = to_normal_modes(state.system)
            return np.array([modes.qt2, modes.pt2])

        isolated = relative_mode(None, None)
        ohmic = relative_mode(ohmic_bath(kondo),
                              OhmicBathPhase(x[4:4 + N_MODES].copy(),
                                             x[4 + N_MODES:4 + 2 * N_MODES].copy()))
        nhc = relative_mode(nhc_bath(coupling), nhc_phase(x[-2], x[-1]))
        np.testing.assert_allclose(ohmic, isolated, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(nhc, isolated, rtol=1e-9, atol=1e-10)


class TestFundamentalSolution:
    # fundamental_solution runs its own 2x2 kick-drift-kick loop; it must be
    # the relative mode (qt2, pt2/m) of the trajectory stepper, started in
    # pure relative-mode states, up to round-off
    TOL = 1e-9

    def assert_matches_integrate(self, sys, n_steps, dt=0.01):
        m = sys.mass
        zeros = np.zeros(2)
        # batch rows (a, b): (y, y') = (1, 0) resp. (0, 1)
        phase = from_normal_modes(NormalModePhase(qt1=zeros, qt2=np.array([1.0, 0.0]),
                                                  pt1=zeros, pt2=np.array([0.0, m])))
        rows = np.empty((n_steps + 1, 2, 2))

        def observer(step, st):
            modes = to_normal_modes(st.system)
            rows[step] = modes.qt2, modes.pt2 / m

        integrate(TrajectoryState(0.0, phase), sys, None,
                  IntegratorConfig(dt=dt, n_steps=n_steps, stride=1), observer)
        f = fundamental_solution(sys, dt=dt, n_steps=n_steps)
        expected = rows.transpose(2, 1, 0).reshape(4, -1)   # y_a, y'_a, y_b, y'_b
        got = np.array([f.pos_a, f.vel_a, f.pos_b, f.vel_b])
        assert np.abs(got - expected).max() <= self.TOL * np.abs(expected).max()

    @settings(max_examples=10, deadline=None)
    @given(mass=st.floats(0.5, 2.0), spring_k=st.floats(0.8, 2.0),
           coupling_amp=st.floats(0.0, 3.0), drive_freq=st.floats(0.2, 1.5),
           frozen_coupling=st.booleans(), n_steps=st.integers(1, 5000))
    def test_random_systems(self, mass, spring_k, coupling_amp, drive_freq,
                            frozen_coupling, n_steps):
        self.assert_matches_integrate(
            SystemParams(mass=mass, spring_k=spring_k, coupling_amp=coupling_amp,
                         drive_freq=drive_freq, frozen_coupling=frozen_coupling),
            n_steps)

    def test_paper_system(self):
        self.assert_matches_integrate(SystemParams(), 25000)


# bath, name of its force in sqzbath.integrate, standalone stepper
FSAL_MODELS = {"ohmic": (ohmic_bath, "ohmic_forces", step_hamiltonian),
               "nhc": (nhc_bath, "nhc_bath_forces", step_nhc)}


def _bath_state(model, x, batch):
    """Phase point from a flat vector; batch 0 gives scalar coordinates (and
    (N,) Ohmic bath arrays), otherwise every row is a scaled copy."""
    rows = np.linspace(1.0, 0.5, max(batch, 1))[:, None] * x
    if batch == 0:
        rows = rows[0]
    if model == "ohmic":
        bath = OhmicBathPhase(rows[..., 4:4 + N_MODES].copy(),
                              rows[..., 4 + N_MODES:].copy())
    else:
        bath = NHCBathPhase(*(rows[..., i].copy() for i in range(4, 10)))
    return TrajectoryState(0.0, SystemPhase(*(rows[..., i].copy() for i in range(4))),
                           bath)


def _phase_vector(state):
    return np.concatenate([np.ravel(v) for v in (*vars(state.system).values(),
                                                 *vars(state.bath).values())])


class TestOhmicFirstSameAsLast:
    """Inside integrate() the bath force of both baths is evaluated once per
    step; for the NHC model the held force also crosses the thermostat
    half-steps, which move only P1 and the chain. Each test runs both baths;
    the bitwise test also the isolated model."""

    @settings(max_examples=30, deadline=None)
    @given(mass=masses, kondo=kondos, coupling=osc_couplings, batch=st.integers(0, 5),
           n_steps=st.integers(1, 40), stride=st.integers(1, 50),
           dt=st.sampled_from([0.01, 0.005, 0.02]), x=coords(4 + 2 * N_MODES))
    def test_integrate_matches_standalone_steps_bitwise(self, mass, kondo, coupling,
                                                         batch, n_steps, stride, dt, x):
        # the NHC loop is a run of standalone steps; without a thermostat,
        # integrate() gives the bits of the merged-kick reference loop
        sys = SystemParams(mass=mass)
        config = IntegratorConfig(dt=dt, n_steps=n_steps, stride=stride)
        for model, (make_bath, _, step) in FSAL_MODELS.items():
            bath = make_bath(kondo if model == "ohmic" else coupling)
            fused = integrate(_bath_state(model, x, batch), sys, bath, config)
            looped = _bath_state(model, x, batch)
            if model == "nhc":
                for _ in range(n_steps):
                    looped = step(looped, sys, bath, dt)
            else:
                looped.t, system, (pos, mom) = reference_leapfrog(
                    looped.system, sys, dt, n_steps, stride, bath, looped.bath)
                looped.system, looped.bath = SystemPhase(*system), OhmicBathPhase(pos, mom)
                start = _bath_state(model, x, batch).system
                isolated = integrate(TrajectoryState(0.0, start), sys, None, config)
                t, system, _ = reference_leapfrog(start, sys, dt, n_steps, stride)
                assert isolated.t == t
                assert np.array_equal(np.ravel(list(vars(isolated.system).values())),
                                      np.ravel(system)), "isolated"
            assert fused.t == looped.t
            assert np.array_equal(_phase_vector(fused), _phase_vector(looped)), model

    @pytest.mark.parametrize("n_steps", [1, 7, 60])
    def test_one_force_evaluation_per_step(self, monkeypatch, n_steps):
        module = importlib.import_module("sqzbath.integrate")
        for model, (make_bath, force_name, _) in FSAL_MODELS.items():
            force = getattr(module, force_name)
            calls = []

            def counting(*args, **kwargs):
                calls.append(1)
                return force(*args, **kwargs)

            monkeypatch.setattr(module, force_name, counting)
            state = _bath_state(model, np.linspace(-1.0, 1.0, 4 + 2 * N_MODES), 3)
            integrate(state, SystemParams(), make_bath(),
                      IntegratorConfig(n_steps=n_steps, stride=5))
            assert len(calls) == n_steps + 1, model


def reference_substep(ph, bath, delta):
    """The thermostat substep as first written: every term recomputed into
    fresh arrays. The in-place thermostat must give its bits."""
    kt = bath.temperature
    g = bath.thermo_dof

    ph.p_eta2 = ph.p_eta2 + 0.5 * delta * (ph.p_eta1 ** 2 / bath.mass_eta1 - kt)
    scale1 = np.exp(-0.25 * delta * ph.p_eta2 / bath.mass_eta2)
    g1 = ph.osc_p ** 2 - g * kt
    ph.p_eta1 = (ph.p_eta1 * scale1 + 0.5 * delta * g1) * scale1

    ph.osc_p = ph.osc_p * np.exp(-delta * ph.p_eta1 / bath.mass_eta1)
    ph.eta1 = ph.eta1 + delta * ph.p_eta1 / bath.mass_eta1
    ph.eta2 = ph.eta2 + delta * ph.p_eta2 / bath.mass_eta2

    g1 = ph.osc_p ** 2 - g * kt
    ph.p_eta1 = (ph.p_eta1 * scale1 + 0.5 * delta * g1) * scale1
    ph.p_eta2 = ph.p_eta2 + 0.5 * delta * (ph.p_eta1 ** 2 / bath.mass_eta1 - kt)


def reference_half_step(ph, bath, dt, n_yoshida, n_mts):
    for _ in range(n_mts):
        for w in yoshida_weights(n_yoshida):
            reference_substep(ph, bath, w * (0.5 * dt) / n_mts)


def reference_step_nhc(state, sys, bath, dt, n_yoshida, n_mts):
    reference_half_step(state.bath, bath, dt, n_yoshida, n_mts)
    state = step_hamiltonian(state, sys, bath, dt)
    reference_half_step(state.bath, bath, dt, n_yoshida, n_mts)
    return state


def _nhc_states(x, batch, inf_field):
    """(state, reference state) from a flat vector. Batch 0 gives scalar
    coordinates, whose reference holds them as one-row arrays: numpy squares
    a Python or numpy scalar by pow(), which misses x*x in about 0.1% of
    cases, while the thermostat squares a scalar state as it squares a row.
    Otherwise rows are scaled copies and the last one starts at inf in
    field ``inf_field``."""
    rows = np.linspace(1.0, 0.5, max(batch, 1))[:, None] * x
    if batch:
        rows[-1, inf_field] = np.inf
    fields = [rows[..., i] for i in range(10)]
    scalar = [float(v[0]) for v in fields] if batch == 0 else None

    def build(values):
        return TrajectoryState(0.0, SystemPhase(*values[:4]), NHCBathPhase(*values[4:]))

    ref = build([v.copy() for v in fields])
    return (build(scalar) if scalar else build([v.copy() for v in fields])), ref


def _assert_same_fields(state, ref):
    assert state.t == ref.t
    for name in ("system", "bath"):
        for field, value in vars(getattr(state, name)).items():
            expected = getattr(getattr(ref, name), field)
            assert np.array_equal(np.ravel(value), np.ravel(expected),
                                  equal_nan=True), (name, field)


chain_masses = st.just(1.0) | st.floats(0.3, 3.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestThermostatReference:
    """step_nhc and integrate() against the textbook substep, bit for bit,
    at unit and non-unit chain masses, for every composition the config
    accepts."""

    @settings(max_examples=60, deadline=None)
    @given(q1=chain_masses, q2=chain_masses,
           thermo_dof=st.integers(1, 3), n_yoshida=st.sampled_from([1, 3, 5]),
           n_mts=st.integers(1, 4), dt=st.sampled_from([0.01, -0.02, 0.005]),
           batch=st.integers(0, 4), inf_field=st.integers(0, 9),
           n_steps=st.integers(1, 4), x=coords(10))
    def test_step_nhc(self, q1, q2, thermo_dof, n_yoshida, n_mts, dt, batch,
                      inf_field, n_steps, x):
        bath = NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=1.3,
                             mass_eta1=q1, mass_eta2=q2, thermo_dof=thermo_dof)
        state, ref = _nhc_states(x, batch, inf_field)
        for _ in range(n_steps):
            state = step_nhc(state, SystemParams(), bath, dt, n_yoshida, n_mts)
            ref = reference_step_nhc(ref, SystemParams(), bath, dt, n_yoshida, n_mts)
        _assert_same_fields(state, ref)

    @settings(max_examples=40, deadline=None)
    @given(q1=chain_masses, q2=chain_masses,
           thermo_dof=st.integers(1, 3), n_yoshida=st.sampled_from([1, 3, 5]),
           n_mts=st.integers(1, 4), dt=st.sampled_from([0.01, 0.02, 0.005]),
           batch=st.integers(0, 4), inf_field=st.integers(0, 9),
           n_steps=st.integers(1, 30), x=coords(10))
    def test_integrate(self, q1, q2, thermo_dof, n_yoshida, n_mts, dt, batch,
                       inf_field, n_steps, x):
        bath = NHCBathParams(osc_freq=0.8, coupling=0.1, temperature=1.3,
                             mass_eta1=q1, mass_eta2=q2, thermo_dof=thermo_dof)
        state, ref = _nhc_states(x, batch, inf_field)
        state = integrate(state, SystemParams(), bath,
                          IntegratorConfig(dt=dt, n_steps=n_steps, n_yoshida=n_yoshida,
                                           n_mts=n_mts, stride=7))
        for _ in range(n_steps):
            ref = reference_step_nhc(ref, SystemParams(), bath, dt, n_yoshida, n_mts)
        _assert_same_fields(state, ref)


class TestPhiloxKeys:
    """``philox_keys`` is a vectorized copy of numpy's SeedSequence mixing,
    with numpy itself as the fallback; either way each row must be numpy's
    key. A numpy release that changed SeedSequence would fail here."""

    seeds = (st.just(0) | st.integers(1, 2**32 - 1) | st.integers(2**32, 2**64 - 1)
             | st.integers(2**64, 2**96 - 1) | st.integers(2**96, 2**128))
    indices = (st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12)
               | st.lists(st.integers(0, 2**40), min_size=1, max_size=12))

    @staticmethod
    def numpy_keys(seed, indices):
        return np.array([np.random.SeedSequence((seed, i)).generate_state(2, np.uint64)
                         for i in indices])

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, indices=indices)
    def test_matches_seed_sequence(self, seed, indices):
        keys = philox_keys(seed, indices)
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, self.numpy_keys(seed, indices))

    @pytest.mark.parametrize("seed", [0, 11, 2**63 + 5, 2**96 + 1])
    def test_chunk_ranges(self, seed):
        for lo, hi in [(0, 500), (2**32 - 4, 2**32 + 4)]:
            assert np.array_equal(philox_keys(seed, range(lo, hi)),
                                  self.numpy_keys(seed, range(lo, hi)))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            philox_keys(-1, range(4))
        with pytest.raises(ValueError, match="indices"):
            philox_keys(3, [2, -1])


class TestTrajectoryRng:
    """Each row of a chunk's normals is its trajectory's contract generator,
    drawn in argument order, whether the keys are mixed in numpy or come from
    the SeedSequence fallback."""

    starts = (st.integers(0, 2**20) | st.integers(2**32 - 8, 2**32 - 1)
              | st.integers(2**32, 2**40))
    shapes = st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple)
                      | st.integers(1, 200).map(lambda n: (n,)), min_size=1, max_size=3)

    @settings(max_examples=100, deadline=None)
    @given(seed=TestPhiloxKeys.seeds, lo=starts, n=st.integers(1, 10), shapes=shapes)
    def test_rows_are_contract_draws(self, seed, lo, n, shapes):
        rows = trajectory_rng(seed, range(lo, lo + n), *shapes)
        expected = contract_normals(seed, range(lo, lo + n), *shapes)
        assert len(rows) == len(expected)
        for got, want in zip(rows, expected):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
