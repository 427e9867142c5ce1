import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sqzbath import (IntegratorConfig, NormalModePhase, OhmicBathPhase, RunConfig,
                     SamplingMode, SystemParams, TrajectoryFailure, TrajectoryState,
                     build_ohmic_bath, from_normal_modes, fundamental_solution, integrate,
                     isolated_variance_series, mode2_variance_exact, normal_mode_freqs,
                     ohmic_mode1_variances, run_ensemble, threshold_temperature,
                     thermal_widths, to_normal_modes)

W1 = math.sqrt(1.25)


@pytest.fixture(scope="module")
def paper_fundamental():
    return fundamental_solution(SystemParams(), dt=0.01, n_steps=25000)


class TestFundamentalSolution:
    def test_initial_conditions(self, paper_fundamental):
        f = paper_fundamental
        assert f.pos_a[0] == pytest.approx(1.0, abs=1e-14)
        assert f.vel_a[0] == pytest.approx(0.0, abs=1e-14)
        assert f.pos_b[0] == pytest.approx(0.0, abs=1e-14)
        assert f.vel_b[0] == pytest.approx(1.0, abs=1e-14)

    def test_wronskian_conserved(self, paper_fundamental):
        assert np.abs(paper_fundamental.wronskian() - 1.0).max() < 1e-9

    def test_against_independent_integrator(self):
        # cross-check the stepper against scipy's DOP853 on a short window
        sys = SystemParams()

        def rhs(t, y):
            k = sys.freq ** 2 + 2 * (2.5 * math.sin(0.45 * t)) ** 2
            return [y[1], -k * y[0]]

        sol = solve_ivp(rhs, [0, 20], [1.0, 0.0], rtol=1e-11, atol=1e-12,
                        t_eval=np.arange(0, 20.001, 0.01), method="DOP853")
        f = fundamental_solution(sys, dt=0.01, n_steps=2000)
        assert np.max(np.abs(f.pos_a - sol.y[0])) < 2e-3

    def test_overflow_raises(self):
        # a = 1.0, q = 0.5: inside the first instability tongue, growing by
        # about e^5 per unit time, so the solutions overflow within the window
        with pytest.raises(TrajectoryFailure, match="non-finite"):
            fundamental_solution(SystemParams(coupling_amp=20.0, drive_freq=20.0),
                                 dt=0.01, n_steps=25000)


class TestMode2Variance:
    def test_initial_widths(self, paper_fundamental):
        _, vq, vp = mode2_variance_exact(SystemParams(), 1.0,
                                         fundamental=paper_fundamental)
        assert vq[0] == pytest.approx(0.8816473269146157, rel=1e-12)
        assert vp[0] == pytest.approx(1.1020591586432695, rel=1e-12)

    def test_free_oscillation_closed_form(self):
        sys = SystemParams(coupling_amp=0.0)
        f = fundamental_solution(sys, dt=0.005, n_steps=4000)
        _, vq, _ = mode2_variance_exact(sys, 1.0, fundamental=f)
        wid = thermal_widths(1.0, W1, 1.0, SamplingMode.QUANTUM)
        t = f.times
        expected = (np.cos(W1 * t) ** 2 * wid.var_q
                    + np.sin(W1 * t) ** 2 * wid.var_p / W1 ** 2)
        assert np.max(np.abs(vq - expected)) < 1e-4
        assert vq.min() >= min(wid.var_q, wid.var_p / W1 ** 2) - 1e-6

    def test_uncertainty_product_floor(self, paper_fundamental):
        _, vq, vp = mode2_variance_exact(SystemParams(), 1.0,
                                         fundamental=paper_fundamental)
        assert np.min(vq * vp) >= 0.25

    def test_frozen_coupling_matches_monte_carlo(self):
        # a frozen coupling raises w2(0) above w1; the sampler draws mode 2
        # at w2(0), so the oracle must start from the same widths
        sys = SystemParams(frozen_coupling=True)
        icfg = IntegratorConfig(n_steps=200, stride=10)
        res = run_ensemble(RunConfig(system=sys, temperature=1.0,
                                     n_traj=20000, seed=7,
                                     integrator=icfg, chunk_size=5000))
        _, vq, vp = mode2_variance_exact(sys, 1.0, fundamental=fundamental_solution(
            sys, dt=icfg.dt, n_steps=icfg.n_steps))
        idx = np.arange(0, icfg.n_steps + 1, icfg.stride)
        for name, exact in (("qt2", vq[idx]), ("pt2", vp[idx])):
            z = np.abs(res.series.column(name) - exact) / res.series.se_column(name)
            assert z.max() <= 5.0, (name, z.max())

    def test_temperature_monotone(self, paper_fundamental):
        _, v_lo, _ = mode2_variance_exact(SystemParams(), 0.9,
                                          fundamental=paper_fundamental)
        _, v_hi, _ = mode2_variance_exact(SystemParams(), 1.1,
                                          fundamental=paper_fundamental)
        assert np.all(v_lo <= v_hi + 1e-15)


class TestThreshold:
    def test_anywhere_matches_closed_form(self, paper_fundamental):
        # independent check: var(T) = coth(w/2T) * vacuum curve, so the
        # threshold solves coth(w/2T) * min(vacuum) = 1/2 exactly
        f = paper_fundamental
        vacuum = f.pos_a ** 2 / (2 * W1) + f.pos_b ** 2 * (W1 / 2)
        t_closed = W1 / (2 * math.atanh(2 * vacuum.min()))
        result = threshold_temperature(SystemParams(), fundamental=f)
        assert result.temperature == pytest.approx(t_closed, rel=1e-12)
        assert result.min_variance == pytest.approx(0.5, rel=1e-12)

    def test_against_independent_integrator_value(self, paper_fundamental):
        # frozen from a DOP853 integration of the relative-mode equation
        result = threshold_temperature(SystemParams(), fundamental=paper_fundamental)
        assert result.temperature == pytest.approx(3.7369, rel=5e-3)

    def test_step_refinement_consistency(self, paper_fundamental):
        coarse = threshold_temperature(SystemParams(), fundamental=paper_fundamental)
        fine = threshold_temperature(SystemParams(), fundamental=fundamental_solution(
            SystemParams(), dt=0.001, n_steps=250000))
        assert abs(coarse.temperature - fine.temperature) / fine.temperature < 2e-3

    def test_classical_quantum_relation(self, paper_fundamental):
        # classical widths replace tanh(x) by x, so the classical threshold
        # equals (w/2) coth(w / (2 T_quantum))
        tq = threshold_temperature(SystemParams(), mode=SamplingMode.QUANTUM,
                                   fundamental=paper_fundamental).temperature
        tc = threshold_temperature(SystemParams(), mode=SamplingMode.CLASSICAL,
                                   fundamental=paper_fundamental).temperature
        expected = (W1 / 2) / math.tanh(W1 / (2 * tq))
        assert tc == pytest.approx(expected, rel=1e-12)

    def test_sustained_edge(self):
        # just below T* the curve, once under 1/2, stays under it to the end
        # of the window; just above T* it comes back up
        sys = SystemParams()
        f = fundamental_solution(sys, dt=0.01, n_steps=500)
        t_star = threshold_temperature(sys, definition="sustained",
                                       fundamental=f).temperature

        def sustained(temp):
            _, vq, _ = mode2_variance_exact(sys, temp, fundamental=f)
            below = vq < 0.5
            return bool(below.any() and np.all(vq[np.argmax(below):] < 0.5))

        assert sustained(t_star * (1 - 1e-6))
        assert not sustained(t_star * (1 + 1e-6))

    def test_no_squeezing_returns_none(self):
        # undriven, with a zero-point width above 1/2: no temperature squeezes
        sys = SystemParams(spring_k=0.5, coupling_amp=0.0)
        f = fundamental_solution(sys, dt=0.01, n_steps=2000)
        for definition in ("anywhere", "sustained"):
            assert threshold_temperature(sys, definition=definition,
                                         fundamental=f) is None

    def test_temperature_in_kelvin(self, paper_fundamental):
        # 3.93e13 rad/s is hbar w / k_B = 300.2 K per dimensionless unit
        result = threshold_temperature(SystemParams(), fundamental=paper_fundamental)
        assert result.temperature == pytest.approx(3.7403, abs=5e-5)
        assert result.temperature_K == pytest.approx(1122.8, abs=0.05)
        assert asdict(result)["temperature_K"] == result.temperature_K

    def test_sustained_definition_accepted(self, paper_fundamental):
        with pytest.raises(ValueError):
            threshold_temperature(SystemParams(), definition="typo",
                                  fundamental=paper_fundamental)


def unit_column_variances(sys, bath, temperature, mode, config):
    """(n_obs, 4) variances of (qt1, qt2, pt1, pt2) in the Ohmic model, from
    one :func:`integrate` batch row per normal-mode phase-space direction,
    (qt1, qt2, R_1..R_N, pt1, pt2, P_1..P_N), squared against the diagonal
    thermal covariance the samplers draw from."""
    n = bath.n_modes
    eye = np.eye(4 + 2 * n)
    system = from_normal_modes(NormalModePhase(eye[0], eye[1], eye[2 + n], eye[3 + n]))
    state = TrajectoryState(0.0, system, OhmicBathPhase(eye[:, 2:2 + n].copy(),
                                                        eye[:, 4 + n:].copy()))
    w1, w2 = normal_mode_freqs(0.0, sys)
    mode1 = thermal_widths(sys.mass, w1, temperature, mode)
    mode2 = thermal_widths(sys.mass, w2, temperature, mode)
    wid = thermal_widths(bath.mass, bath.freqs, temperature, mode)
    sigma0_sq = np.concatenate([[mode1.var_q, mode2.var_q], wid.var_q,
                                [mode1.var_p, mode2.var_p],
                                np.broadcast_to(wid.var_p, n)])
    rows = []

    def observer(step, st):
        modes = to_normal_modes(st.system)
        rows.append([modes.qt1, modes.qt2, modes.pt1, modes.pt2])

    integrate(state, sys, bath, config, observer)
    return np.array(rows) ** 2 @ sigma0_sq


class TestFullCovariance:
    """Mode 1 from ohmic_mode1_variances and mode 2 from mode2_variance_exact
    against the Ohmic model's full propagator."""

    ICFG = IntegratorConfig(n_steps=2000, stride=50)

    def test_uncoupled_bath_reduces_to_isolated_curves(self):
        # mode 1 follows the same stepper at the undriven frequency
        bath = build_ohmic_bath(8, 0.0, 3.0)
        vq1, vp1 = ohmic_mode1_variances(SystemParams(), bath, 1.0, config=self.ICFG)
        sys0 = SystemParams(coupling_amp=0.0)
        f1 = fundamental_solution(sys0, dt=0.01, n_steps=2000)
        _, vq, vp = mode2_variance_exact(sys0, 1.0, fundamental=f1)
        idx = np.arange(0, 2001, 50)
        assert np.max(np.abs(vq1 - vq[idx])) < 1e-9
        assert np.max(np.abs(vp1 - vp[idx])) < 1e-9

    def test_mode2_block_is_bath_independent(self):
        sys = SystemParams()
        bath = build_ohmic_bath(16, 0.007, 3.0)
        ref = unit_column_variances(sys, bath, 1.0, SamplingMode.QUANTUM, self.ICFG)
        f = fundamental_solution(sys, dt=0.01, n_steps=2000)
        _, vq, vp = mode2_variance_exact(sys, 1.0, fundamental=f)
        idx = np.arange(0, 2001, 50)
        assert np.max(np.abs(ref[:, 1] - vq[idx])) < 1e-9
        assert np.max(np.abs(ref[:, 3] - vp[idx])) < 1e-9

    @pytest.mark.parametrize("mode", list(SamplingMode))
    @pytest.mark.parametrize("masses,kondo", [((1.0, 1.0), 0.007), ((2.0, 0.5), 0.007),
                                              ((1.0, 1.0), 0.3)],
                             ids=["unit-mass", "mass-2-0.5", "unstable-kondo-0.3"])
    def test_matches_unit_column_reference(self, mode, masses, kondo):
        # kondo = 0.3 renormalizes the centre-of-mass stiffness below zero:
        # the block's lowest eigenvalue is negative and the curves grow
        sys = SystemParams(mass=masses[0])
        bath = build_ohmic_bath(8, kondo, 3.0, mass=masses[1])
        vq1, vp1 = ohmic_mode1_variances(sys, bath, 1.3, mode, config=self.ICFG)
        ref = unit_column_variances(sys, bath, 1.3, mode, self.ICFG)
        assert np.max(np.abs(vq1 / ref[:, 0] - 1)) <= 1e-11
        assert np.max(np.abs(vp1 / ref[:, 2] - 1)) <= 1e-11

    def test_frozen_coupling_equals_driven(self):
        # the drive enters mode 2 only
        bath = build_ohmic_bath(8, 0.007, 3.0)
        driven = ohmic_mode1_variances(SystemParams(), bath, 1.0, config=self.ICFG)
        frozen = ohmic_mode1_variances(SystemParams(frozen_coupling=True), bath, 1.0,
                                       config=self.ICFG)
        for a, b in zip(driven, frozen):
            assert a.tobytes() == b.tobytes()

    def test_overflow_raises(self):
        bath = build_ohmic_bath(8, 300.0, 3.0)
        with pytest.raises(TrajectoryFailure, match="non-finite"):
            ohmic_mode1_variances(SystemParams(), bath, 1.0,
                                  config=IntegratorConfig(n_steps=20000, stride=50))


class TestIsolatedSeries:
    def test_schema_and_constant_mode1(self):
        cfg = IntegratorConfig(n_steps=1000, stride=100)
        s = isolated_variance_series(SystemParams(), 1.0, config=cfg,
                                     fundamental=fundamental_solution(
                                         SystemParams(), dt=cfg.dt, n_steps=cfg.n_steps))
        assert s.variances.shape == (11, 4)
        assert np.all(s.std_errors == 0.0)
        wid = thermal_widths(1.0, W1, 1.0, SamplingMode.QUANTUM)
        assert np.allclose(s.variances[:, 0], wid.var_q, rtol=1e-12)
        assert np.allclose(s.variances[:, 2], wid.var_p, rtol=1e-12)
