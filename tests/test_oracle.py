import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sqzbath import (IntegratorConfig, RunConfig, SamplingMode, SystemParams,
                     TrajectoryFailure, build_ohmic_bath, full_covariance_exact,
                     fundamental_solution, isolated_variance_series,
                     mode2_variance_exact, run_ensemble, threshold_temperature,
                     thermal_widths)

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

    def test_sustained_definition_accepted(self, paper_fundamental):
        with pytest.raises(ValueError):
            threshold_temperature(SystemParams(), definition="typo",
                                  fundamental=paper_fundamental)


class TestFullCovariance:
    ICFG = IntegratorConfig(n_steps=2000, stride=50)

    def test_uncoupled_bath_reduces_to_isolated_curves(self):
        sys = SystemParams()
        bath = build_ohmic_bath(8, 0.0, 3.0)
        cov = full_covariance_exact(sys, bath, 1.0, config=self.ICFG)
        f = fundamental_solution(sys, dt=0.01, n_steps=2000)
        _, vq, vp = mode2_variance_exact(sys, 1.0, fundamental=f)
        idx = np.arange(0, 2001, 50)
        assert np.max(np.abs(cov.variances[:, 1] - vq[idx])) < 1e-9
        assert np.max(np.abs(cov.variances[:, 3] - vp[idx])) < 1e-9
        # mode 1 follows the same stepper at the undriven frequency
        sys0 = SystemParams(coupling_amp=0.0)
        f1 = fundamental_solution(sys0, dt=0.01, n_steps=2000)
        _, vq1, vp1 = mode2_variance_exact(sys0, 1.0, fundamental=f1)
        assert np.max(np.abs(cov.variances[:, 0] - vq1[idx])) < 1e-9
        assert np.max(np.abs(cov.variances[:, 2] - vp1[idx])) < 1e-9

    def test_mode2_block_is_bath_independent(self):
        sys = SystemParams()
        bath = build_ohmic_bath(16, 0.007, 3.0)
        cov = full_covariance_exact(sys, bath, 1.0, config=self.ICFG)
        f = fundamental_solution(sys, dt=0.01, n_steps=2000)
        _, vq, vp = mode2_variance_exact(sys, 1.0, fundamental=f)
        idx = np.arange(0, 2001, 50)
        assert np.max(np.abs(cov.variances[:, 1] - vq[idx])) < 1e-9
        assert np.max(np.abs(cov.variances[:, 3] - vp[idx])) < 1e-9

    def test_dimension_cap(self):
        bath = build_ohmic_bath(600, 0.007, 3.0)
        with pytest.raises(ValueError, match="capped"):
            full_covariance_exact(SystemParams(), bath, 1.0, config=self.ICFG)

    def test_frozen_coupling_rejected(self):
        bath = build_ohmic_bath(4, 0.007, 3.0)
        with pytest.raises(ValueError, match="frozen"):
            full_covariance_exact(SystemParams(frozen_coupling=True), bath, 1.0,
                                  config=self.ICFG)


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
