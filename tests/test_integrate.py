import dataclasses
import importlib
import itertools
import math
import pickle

import numpy as np
import pytest

from sqzbath import (IntegratorConfig, NHCBathParams, SamplingMode, SystemParams,
                     SystemPhase, TrajectoryFailure, TrajectoryState,
                     build_ohmic_bath, coupling_freq_sq, init_nhc_bath, integrate,
                     nhc_extended_energy, nhc_from_ohmic, sample_ohmic_bath,
                     sample_system, step_hamiltonian, step_nhc, system_energy,
                     to_normal_modes, trajectory_rng, yoshida_weights)
from sqzbath.baths import NHCBathPhase

from conftest import plain_force, reference_leapfrog


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
        st = step_hamiltonian(st, free_oscillator(), None, 0.01)
        assert abs(st.system.q1 - math.cos(0.01)) < 1e-6
        assert abs(st.system.p1 + math.sin(0.01)) < 1e-6
        assert st.t == pytest.approx(0.01)

    def test_tiny_step_keeps_state(self):
        st = TrajectoryState(0.0, SystemPhase(1.0, -0.3, 0.2, 0.7))
        st = step_hamiltonian(st, free_oscillator(), None, 1e-9)
        assert abs(st.system.q1 - 1.0) < 1e-9
        assert abs(st.system.p1 - 0.2) < 1e-8

    def test_matches_analytic_harmonic_trajectory(self, paper_system):
        # no drive: each oscillator follows q(t) = q0 cos(wt) + p0 sin(wt)/(m w)
        sys = SystemParams(spring_k=1.25, coupling_amp=0.0, drive_freq=0.45)
        st = TrajectoryState(0.0, SystemPhase(0.7, -0.4, 0.1, 0.9))
        dt, n = 0.01, 2000
        for _ in range(n):
            st = step_hamiltonian(st, sys, None, dt)
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
            st = step_hamiltonian(st, sys, None, 0.01)
            if (i + 1) % 500 == 0:
                drift = abs(system_energy(st.t, st.system, sys).mean() - e0)
                worst = max(worst, drift)
        assert worst / abs(e0) <= 1e-4

    def test_time_reversibility(self):
        sys = SystemParams(frozen_coupling=True)
        rng = np.random.default_rng(3)
        ref = TrajectoryState(0.0, SystemPhase(*rng.standard_normal(4)))
        st = ref
        for _ in range(500):
            st = step_hamiltonian(st, sys, None, 0.01)
        for _ in range(500):
            st = step_hamiltonian(st, sys, None, -0.01)
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
            plus = step_hamiltonian(_ohmic_state_from_vector(e * h), paper_system,
                                    bath, 0.01)
            minus = step_hamiltonian(_ohmic_state_from_vector(-e * h), paper_system,
                                     bath, 0.01)
            cols.append((_vector_from_ohmic_state(plus)
                         - _vector_from_ohmic_state(minus)) / (2 * h))
        jac = np.column_stack(cols)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-8

    def test_second_order_convergence(self, paper_system):
        def endpoint(dt):
            st = TrajectoryState(0.0, SystemPhase(0.5, -0.2, 0.3, 0.1))
            for _ in range(int(round(4.0 / dt))):
                st = step_hamiltonian(st, paper_system, None, dt)
            return np.array([st.system.q1, st.system.q2, st.system.p1, st.system.p2])

        ref = endpoint(0.02 / 16)
        err_coarse = np.linalg.norm(endpoint(0.02) - ref)
        err_fine = np.linalg.norm(endpoint(0.01) - ref)
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.2)


def _ohmic_state_from_vector(v):
    from sqzbath import OhmicBathPhase
    n = (len(v) - 4) // 2
    return TrajectoryState(0.0, SystemPhase(v[0], v[1], v[2 + n], v[3 + n]),
                           OhmicBathPhase(v[2:2 + n], v[4 + n:]))


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
        st_bath = TrajectoryState(0.0, ph, bph)
        st_free = TrajectoryState(0.0, ph)
        worst = 0.0
        for _ in range(25000):
            st_bath = step_hamiltonian(st_bath, sys, bath, 0.01)
            st_free = step_hamiltonian(st_free, sys, None, 0.01)
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
        st = step_nhc(st, sys, nhc, 0.01)
        assert abs(st.bath.p_eta1) < 1e-5
        assert st.bath.p_eta2 == pytest.approx(-0.01, abs=1e-4)

    def test_infinite_fictitious_mass_reduces_to_hamiltonian(self):
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        heavy = dataclasses.replace(nhc, mass_eta1=1e300, mass_eta2=1e300)
        st_a = st_b = self.make_state(heavy)
        for _ in range(100):
            st_a = step_nhc(st_a, SystemParams(), heavy, 0.01)
            st_b = step_hamiltonian(st_b, SystemParams(), heavy, 0.01)
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
            st = step_nhc(st, sys, nhc, 0.01)
            if (i + 1) % 250 == 0:
                e = nhc_extended_energy(st.t, st.system, st.bath, sys, nhc)
                worst = max(worst, abs(e - e0))
        assert worst / abs(e0) <= 1e-3

    def test_thermostat_reversibility(self):
        # forward then backward with negated dt returns the initial state
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        st = ref = self.make_state(nhc, seed=57)
        for _ in range(200):
            st = step_nhc(st, SystemParams(), nhc, 0.01)
        for _ in range(200):
            st = step_nhc(st, SystemParams(), nhc, -0.01)
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
        shared = integrate(shared, SystemParams(), nhc, config)
        separate = integrate(separate, SystemParams(), nhc, config)
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
            st = step_nhc(st, sys, nhc, 0.01, n_yoshida=3, n_mts=1)
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
                      observer=lambda i, s: out.append((float(s.system.q1),
                                                        float(s.system.p2))))
            return out

        assert run() == run()


    @pytest.mark.parametrize("model", ["isolated", "ohmic", "nhc"])
    def test_given_state_never_written(self, model):
        # every stepper returns a state of its own: the state it is given keeps
        # its time, its fields and every array's bytes, the Ohmic bath's
        # included, for scalar coordinates (held as 0-d arrays) as for batched
        # ones; the returned state has moved, and an integrate observer sees
        # the same arrays at every observation
        z, pos, mom, osc = trajectory_rng(8, range(5), (4,), (6,), (6,), (2,))
        params = {"isolated": None, "ohmic": build_ohmic_bath(6, 0.05, 3.0),
                  "nhc": nhc_from_ohmic(0.05, 3.0, 1.0)}[model]
        steppers = [integrate, step_hamiltonian] + ([step_nhc] if model == "nhc" else [])
        config = IntegratorConfig(n_steps=40, stride=10)
        moved = {"isolated": [], "ohmic": ["pos", "mom"], "nhc": ["osc_q", "osc_p"]}[model]
        for stepper, batch in itertools.product(steppers, (0, 5)):
            system = sample_system(z, SystemParams(), 1.0, SamplingMode.QUANTUM)
            bath = None
            if model == "ohmic":
                bath = sample_ohmic_bath(pos.copy(), mom.copy(), params, 1.0,
                                         SamplingMode.QUANTUM)
            elif model == "nhc":
                bath = init_nhc_bath(osc, params, 1.0, SamplingMode.QUANTUM)
            if batch == 0:
                system = SystemPhase(*(np.array(v[0]) for v in vars(system).values()))
                if bath is not None:
                    bath = dataclasses.replace(
                        bath, **{k: np.array(v[0]) for k, v in vars(bath).items()})
            state = TrajectoryState(0.0, system, bath)
            phases = [system] + ([bath] if bath is not None else [])
            fields = [dict(vars(ph)) for ph in phases]
            before = {(i, k): v.tobytes() for i, f in enumerate(fields) for k, v in f.items()}
            seen = []
            if stepper is integrate:
                final = integrate(state, SystemParams(), params, config, observer=lambda i, s: (
                    seen.append([*vars(s.system).values(),
                                 *(vars(s.bath).values() if s.bath is not None else ())])))
                assert len(seen) == 5
            else:
                final = state
                for _ in range(config.n_steps):
                    final = stepper(final, SystemParams(), params, config.dt)
            where = (stepper.__name__, batch)
            assert state.t == 0.0 and final.t == pytest.approx(0.4), where
            assert state.system is system and state.bath is bath, where
            for ph, held in zip(phases, fields):
                assert all(getattr(ph, k) is v for k, v in held.items()), where
            for (i, k), old in before.items():
                assert fields[i][k].tobytes() == old, (k, *where)
            for k in ("q1", "q2", "p1", "p2"):
                assert getattr(final.system, k).tobytes() != before[0, k], (k, *where)
            for k in moved:
                assert getattr(final.bath, k).tobytes() != before[1, k], (k, *where)
            for fields_seen in seen:
                assert all(a is b for a, b in zip(fields_seen, seen[0])), batch

    def test_ohmic_arrays_contiguous_from_strided_samples(self):
        # the sampled bath arrays are strided column views of one draw buffer;
        # the stepper moves C-contiguous copies of them
        z, pos, mom = trajectory_rng(8, range(5), (4,), (6,), (6,))
        bath = build_ohmic_bath(6, 0.05, 3.0)
        phase = sample_ohmic_bath(pos, mom, bath, 1.0, SamplingMode.QUANTUM)
        assert not phase.pos.flags.c_contiguous and not phase.mom.flags.c_contiguous
        state = TrajectoryState(0.0, sample_system(z, SystemParams(), 1.0,
                                                   SamplingMode.QUANTUM), phase)
        seen = []
        final = integrate(state, SystemParams(), bath,
                          IntegratorConfig(n_steps=20, stride=10),
                          observer=lambda i, s: seen.append(s.bath))
        stepped = step_hamiltonian(state, SystemParams(), bath, 0.01)
        for ph in [*seen, final.bath, stepped.bath]:
            assert ph.pos.flags.c_contiguous and ph.mom.flags.c_contiguous

    @pytest.mark.parametrize("mass", [1.0, 0.7])
    def test_textbook_step_bits(self, mass):
        # the in-place steppers give the bits of the plain formulas, division
        # by the mass included: standalone steps those of the kick-drift-kick
        # step, integrate those of the merged-kick loop
        sys = SystemParams(mass=mass, spring_k=1.25 * mass)
        z, = trajectory_rng(9, range(7), (4,))
        start = sample_system(z, sys, 1.0, SamplingMode.QUANTUM)
        q1, q2, p1, p2 = start.q1.copy(), start.q2.copy(), start.p1.copy(), start.p2.copy()
        dt, h, t = 0.02, 0.01, 0.0
        for _ in range(30):
            t_mid = t + 0.5 * dt
            k = mass * coupling_freq_sq(t_mid, sys)
            f1, f2 = plain_force(k, q1, q2, sys)
            p1, p2 = p1 + h * f1, p2 + h * f2
            q1, q2 = q1 + dt * p1 / mass, q2 + dt * p2 / mass
            f1, f2 = plain_force(k, q1, q2, sys)
            p1, p2 = p1 + h * f1, p2 + h * f2
            t += dt
        stepped = TrajectoryState(0.0, start)
        for _ in range(30):
            stepped = step_hamiltonian(stepped, sys, None, dt)
        for got, want in zip(vars(stepped.system).values(), (q1, q2, p1, p2)):
            assert got.tobytes() == want.tobytes()

        for stride in (30, 7):
            state = integrate(TrajectoryState(0.0, start), sys, None,
                              IntegratorConfig(dt=dt, n_steps=30, stride=stride))
            t_ref, want, _ = reference_leapfrog(start, sys, dt, 30, stride)
            assert state.t == t_ref
            for got, ref in zip(vars(state.system).values(), want):
                assert got.tobytes() == ref.tobytes(), stride


class TestLeapfrog:
    """Without a thermostat, integrate() merges the two half-kicks between
    unobserved steps; observed steps and the last stay synchronized."""

    @staticmethod
    def records(model, n_steps, stride, leapfrog):
        """(mode 1, mode 2, bath) at every observation and at the last step,
        from integrate() or from standalone synchronized steps."""
        sys = SystemParams(mass=1.7)
        # a bath of mass 0.7 as its unit-mass equivalent, kondo 0.05 / 0.7
        bath = build_ohmic_bath(20, 0.05 / 0.7, 3.0) if model == "ohmic" else None
        z, pos, mom = trajectory_rng(4, range(4), (4,), (20,), (20,))
        state = TrajectoryState(0.0, sample_system(z, sys, 1.0, SamplingMode.QUANTUM))
        if bath is not None:
            state.bath = sample_ohmic_bath(pos, mom, bath, 1.0, SamplingMode.QUANTUM)
        recs = []

        def record(step, st):
            modes = to_normal_modes(st.system)
            recs.append(([modes.qt1, modes.pt1], [modes.qt2, modes.pt2],
                         [st.bath.pos.copy(), st.bath.mom.copy()]
                         if bath is not None else []))

        config = IntegratorConfig(dt=0.01, n_steps=n_steps, stride=stride)
        if leapfrog:
            state = integrate(state, sys, bath, config, record)
        else:
            record(0, state)
            for i in range(1, n_steps + 1):
                state = step_hamiltonian(state, sys, bath, config.dt)
                if i % stride == 0:
                    record(i, state)
        if n_steps % stride:
            record(n_steps, state)
        return state.t, [np.array(group) for group in zip(*recs)]

    @pytest.mark.parametrize("model", ["isolated", "ohmic"])
    @pytest.mark.parametrize("n_steps, stride", [(4999, 25), (5000, 7), (1013, 1)])
    def test_agrees_with_synchronized_steps(self, model, n_steps, stride):
        t, got = self.records(model, n_steps, stride, leapfrog=True)
        t_ref, want = self.records(model, n_steps, stride, leapfrog=False)
        assert t == t_ref
        for group, new, ref, bound in zip(("mode 1", "mode 2", "bath"), got, want,
                                          (1e-12, 1e-9, 1e-12)):
            assert new.shape == ref.shape
            if stride == 1:     # every step is observed, so none is merged
                assert np.array_equal(new, ref), group
            elif ref.size:
                assert np.abs(new - ref).max() <= bound * np.abs(ref).max(), group

    @pytest.mark.parametrize("n_steps, stride", [(60, 5), (7, 5), (1, 5), (10, 1), (0, 3)])
    @pytest.mark.parametrize("model", ["isolated", "ohmic", "nhc"])
    def test_system_force_evaluations(self, monkeypatch, model, n_steps, stride):
        # once per merged step, twice per observed or last step; the NHC loop
        # keeps two per step
        module = importlib.import_module("sqzbath.integrate")
        calls = []

        def counting(force):
            def counted(*args, **kwargs):
                calls.append(1)
                return force(*args, **kwargs)
            return counted

        for name in ("system_force", "coupled_force"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
        bath = {"isolated": None, "ohmic": build_ohmic_bath(6, 0.05, 3.0),
                "nhc": nhc_from_ohmic(0.05, 3.0, 1.0)}[model]
        z, pos, mom, osc = trajectory_rng(8, range(3), (4,), (6,), (6,), (2,))
        state = TrajectoryState(0.0, sample_system(z, SystemParams(), 1.0,
                                                   SamplingMode.QUANTUM))
        if model == "ohmic":
            state.bath = sample_ohmic_bath(pos, mom, bath, 1.0, SamplingMode.QUANTUM)
        elif model == "nhc":
            state.bath = init_nhc_bath(osc, bath, 1.0, SamplingMode.QUANTUM)
        integrate(state, SystemParams(), bath,
                  IntegratorConfig(n_steps=n_steps, stride=stride))
        synchronized = -(-n_steps // stride)     # observed steps, and the last
        expected = 2 * n_steps if model == "nhc" else n_steps + synchronized
        assert len(calls) == expected


def test_trajectory_failure_pickles():
    # a failure raised in a pool worker reaches the caller through pickle
    err = pickle.loads(pickle.dumps(TrajectoryFailure(100)))
    assert err.step == 100
    assert str(err) == "non-finite phase-space coordinates at step 100"
    err = pickle.loads(pickle.dumps(TrajectoryFailure(5, "ensemble moments")))
    assert str(err) == "non-finite ensemble moments at step 5"
