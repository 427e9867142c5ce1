import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from sqzbath import (IntegratorConfig, NHCBathParams, SamplingMode, SystemParams,
                     SystemPhase, TrajectoryFailure, TrajectoryState,
                     build_ohmic_bath, init_nhc_bath, integrate, nhc_extended_energy,
                     nhc_from_ohmic, sample_ohmic_bath, sample_system,
                     step_hamiltonian, step_nhc, system_energy, system_force,
                     to_normal_modes,
                     trajectory_rng, yoshida_weights)
from sqzbath.baths import NHCBathPhase


class TestConfig:
    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.dt == 0.01 and cfg.n_steps == 25000
        assert cfg.n_yoshida == 3 and cfg.n_mts == 3

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"n_steps": -1}, {"n_yoshida": 2}, {"n_yoshida": 7},
        {"n_mts": 0}, {"stride": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


class TestYoshidaWeights:
    def test_single_stage(self):
        assert yoshida_weights(1).tolist() == [1.0]

    def test_three_stage_values(self):
        w = yoshida_weights(3)
        w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        assert w[0] == pytest.approx(1.35120719, rel=1e-8)
        assert w[0] == pytest.approx(w1, rel=1e-15) and w[2] == w[0]
        assert w[1] == pytest.approx(1.0 - 2 * w1, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_weights_sum_to_one(self, n):
        assert abs(yoshida_weights(n).sum() - 1.0) < 1e-15

    def test_unsupported(self):
        with pytest.raises(ValueError):
            yoshida_weights(4)


def free_oscillator(spring_k=1.0):
    return SystemParams(spring_k=spring_k, coupling_amp=0.0, drive_freq=0.45)


class TestStepHamiltonian:
    def test_single_step_vs_analytic(self):
        st = TrajectoryState(0.0, SystemPhase(1.0, 0.0, 0.0, 0.0))
        step_hamiltonian(st, free_oscillator(), None, 0.01)
        assert abs(st.system.q1 - math.cos(0.01)) < 1e-6
        assert abs(st.system.p1 + math.sin(0.01)) < 1e-6
        assert st.t == pytest.approx(0.01)

    def test_tiny_step_keeps_state(self):
        st = TrajectoryState(0.0, SystemPhase(1.0, -0.3, 0.2, 0.7))
        step_hamiltonian(st, free_oscillator(), None, 1e-9)
        assert abs(st.system.q1 - 1.0) < 1e-9
        assert abs(st.system.p1 - 0.2) < 1e-8

    def test_matches_analytic_harmonic_trajectory(self, paper_system):
        # no drive: each oscillator follows q(t) = q0 cos(wt) + p0 sin(wt)/(m w)
        sys = SystemParams(spring_k=1.25, coupling_amp=0.0, drive_freq=0.45)
        st = TrajectoryState(0.0, SystemPhase(0.7, -0.4, 0.1, 0.9))
        dt, n = 0.01, 2000
        for _ in range(n):
            step_hamiltonian(st, sys, None, dt)
        w = sys.freq
        t = n * dt
        q_exact = 0.7 * math.cos(w * t) + 0.1 * math.sin(w * t) / w
        assert abs(st.system.q1 - q_exact) < 5 * (w * dt) ** 2

    def test_energy_drift_static_coupling_ensemble(self):
        # drive frozen at full amplitude: conservative Hamiltonian
        sys = SystemParams(frozen_coupling=True)
        n = 256
        z, = trajectory_rng(17, range(n), (4,))
        st = TrajectoryState(0.0, sample_system(z, sys, 1.0, SamplingMode.QUANTUM))
        e0 = system_energy(0.0, st.system, sys).mean()
        worst = 0.0
        for i in range(25000):
            step_hamiltonian(st, sys, None, 0.01)
            if (i + 1) % 500 == 0:
                drift = abs(system_energy(st.t, st.system, sys).mean() - e0)
                worst = max(worst, drift)
        assert worst / abs(e0) <= 1e-4

    def test_time_reversibility(self):
        sys = SystemParams(frozen_coupling=True)
        rng = np.random.default_rng(3)
        st = TrajectoryState(0.0, SystemPhase(*rng.standard_normal(4)))
        ref = st.copy()
        for _ in range(500):
            step_hamiltonian(st, sys, None, 0.01)
        for _ in range(500):
            step_hamiltonian(st, sys, None, -0.01)
        scale = max(abs(ref.system.q1), abs(ref.system.p1), 1.0)
        assert abs(st.system.q1 - ref.system.q1) / scale < 1e-9
        assert abs(st.system.p1 - ref.system.p1) / scale < 1e-9

    def test_symplectic_volume(self, paper_system):
        # the dynamics is linear, so finite differences recover the exact
        # one-step Jacobian; its determinant must be 1
        bath = build_ohmic_bath(3, 0.1, 3.0)
        dim = 4 + 2 * 3
        eye = np.eye(dim)
        cols = []
        for j in range(dim):
            e = eye[j]
            h = 1e-4
            plus = _ohmic_state_from_vector(e * h)
            minus = _ohmic_state_from_vector(-e * h)
            step_hamiltonian(plus, paper_system, bath, 0.01)
            step_hamiltonian(minus, paper_system, bath, 0.01)
            cols.append((_vector_from_ohmic_state(plus)
                         - _vector_from_ohmic_state(minus)) / (2 * h))
        jac = np.column_stack(cols)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-8

    def test_second_order_convergence(self, paper_system):
        def endpoint(dt):
            st = TrajectoryState(0.0, SystemPhase(0.5, -0.2, 0.3, 0.1))
            for _ in range(int(round(4.0 / dt))):
                step_hamiltonian(st, paper_system, None, dt)
            return np.array([st.system.q1, st.system.q2, st.system.p1, st.system.p2])

        ref = endpoint(0.02 / 16)
        err_coarse = np.linalg.norm(endpoint(0.02) - ref)
        err_fine = np.linalg.norm(endpoint(0.01) - ref)
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.2)


def _ohmic_state_from_vector(v):
    from sqzbath import OhmicBathPhase
    n = (len(v) - 4) // 2
    return TrajectoryState(0.0, SystemPhase(v[0], v[1], v[2 + n], v[3 + n]),
                           OhmicBathPhase(v[2:2 + n].copy(), v[4 + n:].copy()))


def _vector_from_ohmic_state(st):
    return np.concatenate([[st.system.q1, st.system.q2], st.bath.pos,
                           [st.system.p1, st.system.p2], st.bath.mom])


class TestModeTwoBathIndependence:
    def test_ohmic_bath_leaves_relative_mode_untouched(self):
        sys = SystemParams()
        bath = build_ohmic_bath(8, 0.3, 3.0)
        z, pos, mom = trajectory_rng(21, range(1), (4,), (8,), (8,))
        ph = sample_system(z, sys, 1.0, SamplingMode.QUANTUM)
        bph = sample_ohmic_bath(pos, mom, bath, 1.0, SamplingMode.QUANTUM)
        st_bath = TrajectoryState(0.0, ph.copy(), bph)
        st_free = TrajectoryState(0.0, ph.copy())
        worst = 0.0
        for _ in range(25000):
            step_hamiltonian(st_bath, sys, bath, 0.01)
            step_hamiltonian(st_free, sys, None, 0.01)
            a = to_normal_modes(st_bath.system)
            b = to_normal_modes(st_free.system)
            scale = max(abs(b.qt2), abs(b.pt2), 1e-3)
            worst = max(worst, abs(a.qt2 - b.qt2) / scale, abs(a.pt2 - b.pt2) / scale)
        assert worst <= 1e-10


class TestStepNHC:
    def make_state(self, nhc, seed=31, sys=None, temperature=1.0):
        sys = sys or SystemParams()
        z, osc = trajectory_rng(seed, range(1), (4,), (2,))
        ph = sample_system(z, sys, temperature, SamplingMode.QUANTUM)
        bph = init_nhc_bath(osc, nhc, temperature, SamplingMode.QUANTUM)
        return TrajectoryState(0.0, ph, bph)

    def test_decoupled_equilibrium_stays_near_fixed_point(self):
        # P1^2 = g*T balances the first chain equation, so p_eta1 stays at
        # zero up to the O(dt^3) rotation of the free oscillator; the second
        # link integrates p_eta1^2/m - T and therefore drifts at rate -T
        nhc = NHCBathParams(osc_freq=2.0, coupling=0.0, temperature=1.0)
        bph = NHCBathPhase(osc_q=0.0, osc_p=1.0, eta1=0.0, eta2=0.0,
                           p_eta1=0.0, p_eta2=0.0)
        st = TrajectoryState(0.0, SystemPhase(0.0, 0.0, 0.0, 0.0), bph)
        sys = SystemParams(coupling_amp=0.0)
        step_nhc(st, sys, nhc, 0.01)
        assert abs(st.bath.p_eta1) < 1e-5
        assert st.bath.p_eta2 == pytest.approx(-0.01, abs=1e-4)

    def test_infinite_fictitious_mass_reduces_to_hamiltonian(self):
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        heavy = dataclasses.replace(nhc, mass_eta1=1e300, mass_eta2=1e300)
        st_a = self.make_state(heavy)
        st_b = st_a.copy()
        for _ in range(100):
            step_nhc(st_a, SystemParams(), heavy, 0.01)
            step_hamiltonian(st_b, SystemParams(), heavy, 0.01)
        assert st_a.system.q1 == st_b.system.q1
        assert st_a.system.p1 == st_b.system.p1
        assert st_a.bath.osc_p == st_b.bath.osc_p

    def test_extended_energy_conserved(self):
        sys = SystemParams(frozen_coupling=True)
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        st = self.make_state(nhc, sys=sys)
        e0 = nhc_extended_energy(0.0, st.system, st.bath, sys, nhc)
        worst = 0.0
        for i in range(25000):
            step_nhc(st, sys, nhc, 0.01)
            if (i + 1) % 250 == 0:
                e = nhc_extended_energy(st.t, st.system, st.bath, sys, nhc)
                worst = max(worst, abs(e - e0))
        assert worst / abs(e0) <= 1e-3

    def test_thermostat_reversibility(self):
        # forward then backward with negated dt returns the initial state
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        st = self.make_state(nhc, seed=57)
        ref = st.copy()
        for _ in range(200):
            step_nhc(st, SystemParams(), nhc, 0.01)
        for _ in range(200):
            step_nhc(st, SystemParams(), nhc, -0.01)
        assert abs(st.system.q1 - ref.system.q1) < 1e-9
        assert abs(st.bath.osc_p - ref.bath.osc_p) < 1e-9
        assert abs(st.bath.p_eta1 - ref.bath.p_eta1) < 1e-9

    def test_caller_arrays_kept_and_shared_chain_array(self):
        # the thermostat updates arrays it owns: arrays the caller still holds
        # keep their values, and a state whose eta1 and eta2 are one array
        # integrates bit for bit like one with two separate arrays
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        x = np.random.default_rng(3).standard_normal((7, 6))

        def make(shared):
            eta2 = x[6].copy()
            eta1 = eta2 if shared else x[6].copy()
            return TrajectoryState(0.0, SystemPhase(*(v.copy() for v in x[:4])),
                                   NHCBathPhase(x[4].copy(), x[5].copy(), eta1, eta2,
                                                np.zeros(6), np.ones(6)))

        shared, separate = make(True), make(False)
        assert shared.bath.eta1 is shared.bath.eta2
        held = [*vars(shared.system).values(), *vars(shared.bath).values()]
        before = [v.copy() for v in held]
        config = IntegratorConfig(n_steps=60, stride=20)
        integrate(shared, SystemParams(), nhc, config)
        integrate(separate, SystemParams(), nhc, config)
        for value, old in zip(held, before):
            assert np.array_equal(value, old)
        for part in ("system", "bath"):
            for field, value in vars(getattr(shared, part)).items():
                assert np.array_equal(value, getattr(getattr(separate, part), field))
        assert not np.array_equal(shared.bath.eta1, shared.bath.eta2)

    def test_canonical_sampling_of_oscillator_momentum(self):
        # driving off, ensemble + time average of P1^2 approaches T_ext
        sys = SystemParams(coupling_amp=0.0)
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        n, steps = 128, 30000
        z, osc = trajectory_rng(406, range(n), (4,), (2,))
        st = TrajectoryState(0.0, sample_system(z, sys, 1.0, SamplingMode.QUANTUM),
                             init_nhc_bath(osc, nhc, 1.0, SamplingMode.QUANTUM))
        acc, cnt = 0.0, 0
        for i in range(steps):
            step_nhc(st, sys, nhc, 0.01, n_yoshida=3, n_mts=1)
            if i >= steps // 2 and i % 20 == 0:
                acc += float(np.mean(st.bath.osc_p ** 2))
                cnt += 1
        assert acc / cnt == pytest.approx(1.0, rel=0.05)


class TestIntegrate:
    def test_zero_steps_observes_initial_state_only(self):
        seen = []
        st = TrajectoryState(0.0, SystemPhase(1.0, 0.0, 0.0, 0.0))
        integrate(st, free_oscillator(), None, IntegratorConfig(n_steps=0),
                  observer=lambda i, s: seen.append((i, s.system.q1)))
        assert seen == [(0, 1.0)]
        assert st.system.q1 == 1.0

    def test_observer_stride(self):
        seen = []
        st = TrajectoryState(0.0, SystemPhase(1.0, 0.0, 0.0, 0.0))
        integrate(st, free_oscillator(), None,
                  IntegratorConfig(n_steps=100, stride=25),
                  observer=lambda i, s: seen.append(i))
        assert seen == [0, 25, 50, 75, 100]

    def test_deterministic_repetition(self, paper_system):
        def run():
            out = []
            st = TrajectoryState(0.0, SystemPhase(0.3, -0.1, 0.2, 0.4))
            integrate(st, paper_system, None, IntegratorConfig(n_steps=200, stride=50),
                      observer=lambda i, s: out.append((s.system.q1, s.system.p2)))
            return out

        assert run() == run()


    @pytest.mark.parametrize("model", ["isolated", "ohmic", "nhc"])
    def test_caller_system_arrays_never_written(self, model):
        # every stepper copies the arrays it moves, the Ohmic bath arrays
        # excepted, into arrays it owns, scalar coordinates (held as 0-d
        # arrays) as batched ones; an integrate observer sees those same
        # arrays at every observation
        z, pos, mom, osc = trajectory_rng(8, range(5), (4,), (6,), (6,), (2,))
        params = {"isolated": None, "ohmic": build_ohmic_bath(6, 0.05, 3.0),
                  "nhc": nhc_from_ohmic(0.05, 3.0, 1.0)}[model]
        steppers = [integrate, step_hamiltonian] + ([step_nhc] if model == "nhc" else [])
        config = IntegratorConfig(n_steps=40, stride=10)
        for stepper, batch in itertools.product(steppers, (0, 5)):
            system = sample_system(z, SystemParams(), 1.0, SamplingMode.QUANTUM)
            bath = None
            if model == "ohmic":
                bath = sample_ohmic_bath(pos, mom, params, 1.0, SamplingMode.QUANTUM)
            elif model == "nhc":
                bath = init_nhc_bath(osc, params, 1.0, SamplingMode.QUANTUM)
            if batch == 0:
                system = SystemPhase(*(np.array(v[0]) for v in vars(system).values()))
                if bath is not None:
                    bath = dataclasses.replace(
                        bath, **{k: np.array(v[0]) for k, v in vars(bath).items()})
            state = TrajectoryState(0.0, system, bath)
            held = [*vars(system).values(), *(vars(bath).values() if model == "nhc" else ())]
            before = [v.copy() for v in held]
            seen = []
            if stepper is integrate:
                integrate(state, SystemParams(), params, config, observer=lambda i, s: (
                    seen.append([*vars(s.system).values(),
                                 *(vars(s.bath).values() if s.bath is not None else ())])))
                assert len(seen) == 5
            else:
                for _ in range(config.n_steps):
                    stepper(state, SystemParams(), params, config.dt)
            for value, old in zip(held, before):
                assert np.array_equal(value, old), (stepper.__name__, batch)
            for value, old in zip(vars(state.system).values(), before):
                assert not np.array_equal(value, old), (stepper.__name__, batch)
            if model == "nhc":
                assert not np.array_equal(state.bath.osc_q, before[4])
                assert not np.array_equal(state.bath.osc_p, before[5])
            for fields in seen:
                assert all(a is b for a, b in zip(fields, seen[0])), batch

    @pytest.mark.parametrize("mass", [1.0, 0.7])
    def test_textbook_step_bits(self, mass):
        # the in-place system step gives the bits of the plain kick-drift-kick
        # formulas, division by the mass included
        sys = SystemParams(mass=mass, spring_k=1.25 * mass)
        z, = trajectory_rng(9, range(7), (4,))
        start = sample_system(z, sys, 1.0, SamplingMode.QUANTUM)
        q1, q2, p1, p2 = start.q1.copy(), start.q2.copy(), start.p1.copy(), start.p2.copy()
        dt, h, t = 0.02, 0.01, 0.0
        for _ in range(30):
            t_mid = t + 0.5 * dt
            f1, f2 = system_force(t_mid, SystemPhase(q1, q2, p1, p2), sys)
            p1, p2 = p1 + h * f1, p2 + h * f2
            q1, q2 = q1 + dt * p1 / mass, q2 + dt * p2 / mass
            f1, f2 = system_force(t_mid, SystemPhase(q1, q2, p1, p2), sys)
            p1, p2 = p1 + h * f1, p2 + h * f2
            t += dt
        state = TrajectoryState(0.0, start)
        integrate(state, sys, None, IntegratorConfig(dt=dt, n_steps=30, stride=30))
        for got, want in zip(vars(state.system).values(), (q1, q2, p1, p2)):
            assert got.tobytes() == want.tobytes()


def test_trajectory_failure_pickles():
    # a failure raised in a pool worker reaches the caller through pickle
    err = pickle.loads(pickle.dumps(TrajectoryFailure(100)))
    assert err.step == 100
    assert str(err) == "non-finite phase-space coordinates at step 100"
    err = pickle.loads(pickle.dumps(TrajectoryFailure(5, "ensemble moments")))
    assert str(err) == "non-finite ensemble moments at step 5"
