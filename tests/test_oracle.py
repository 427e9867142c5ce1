import ast
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from sqzbath import (IntegratorConfig, NormalModePhase, OhmicBathPhase, RunConfig,
                     SamplingMode, SystemParams, TrajectoryFailure, TrajectoryState,
                     build_ohmic_bath, from_normal_modes, fundamental_solution, integrate,
                     isolated_variance_series, mode1_variance_exact, mode2_variance_exact,
                     normal_mode_freqs, run_ensemble, threshold_temperature,
                     thermal_widths, to_normal_modes)
from sqzbath import driver, oracle

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
    wid = thermal_widths(1.0, bath.freqs, temperature, mode)
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
    """Mode 1 from mode1_variance_exact and mode 2 from mode2_variance_exact
    against the Ohmic model's full propagator."""

    ICFG = IntegratorConfig(n_steps=2000, stride=50)

    def test_uncoupled_bath_reduces_to_isolated_curves(self):
        # mode 1 follows the same stepper at the undriven frequency
        bath = build_ohmic_bath(8, 0.0, 3.0)
        vq1, vp1 = mode1_variance_exact(SystemParams(), bath, 1.0, config=self.ICFG)
        sys0 = SystemParams(coupling_amp=0.0)
        f1 = fundamental_solution(sys0, dt=0.01, n_steps=2000)
        _, vq, vp = mode2_variance_exact(sys0, 1.0, fundamental=f1)
        idx = np.arange(0, 2001, 50)
        assert np.max(np.abs(vq1 - vq[idx])) < 1e-9
        assert np.max(np.abs(vp1 - vp[idx])) < 1e-9

    def test_uncoupled_bath_is_the_isolated_block(self):
        # every c_j = 0 deflates: only the 1x1 block of the isolated model is left
        cfg = IntegratorConfig(n_steps=2000, stride=50)
        bath = mode1_variance_exact(SystemParams(), build_ohmic_bath(8, 0.0, 3.0), 1.0,
                                    config=cfg)
        isolated = mode1_variance_exact(SystemParams(), None, 1.0, config=cfg)
        for a, b in zip(bath, isolated):
            assert a.tobytes() == b.tobytes()

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
        # the block's lowest eigenvalue is negative and the curves grow. A
        # bath mass m_b enters as its unit-mass equivalent, kondo / m_b,
        # whose couplings are c_j / sqrt(m_b)
        sys = SystemParams(mass=masses[0])
        bath = build_ohmic_bath(8, kondo / masses[1], 3.0)
        vq1, vp1 = mode1_variance_exact(sys, bath, 1.3, mode, config=self.ICFG)
        ref = unit_column_variances(sys, bath, 1.3, mode, self.ICFG)
        assert np.max(np.abs(vq1 / ref[:, 0] - 1)) <= 1e-11
        assert np.max(np.abs(vp1 / ref[:, 2] - 1)) <= 1e-11

    def test_frozen_coupling_equals_driven(self):
        # the drive enters mode 2 only
        bath = build_ohmic_bath(8, 0.007, 3.0)
        driven = mode1_variance_exact(SystemParams(), bath, 1.0, config=self.ICFG)
        frozen = mode1_variance_exact(SystemParams(frozen_coupling=True), bath, 1.0,
                                      config=self.ICFG)
        for a, b in zip(driven, frozen):
            assert a.tobytes() == b.tobytes()

    def test_overflow_raises(self):
        bath = build_ohmic_bath(8, 300.0, 3.0)
        with pytest.raises(TrajectoryFailure, match="non-finite"):
            mode1_variance_exact(SystemParams(), bath, 1.0,
                                 config=IntegratorConfig(n_steps=20000, stride=50))


class TestIsolatedSeries:
    def test_schema_and_constant_mode1(self):
        cfg = IntegratorConfig(n_steps=1000, stride=100)
        s = isolated_variance_series(SystemParams(), 1.0, config=cfg,
                                     fundamental=fundamental_solution(
                                         SystemParams(), dt=cfg.dt, n_steps=cfg.n_steps))
        assert s.variances.shape == (11, 4)
        assert np.all(s.std_errors == 0.0)
        var_q1, var_p1 = mode1_variance_exact(SystemParams(), None, 1.0, config=cfg)
        assert s.variances[:, 0].tobytes() == var_q1.tobytes()
        assert s.variances[:, 2].tobytes() == var_p1.tobytes()
        # the kick-drift-kick curve of the undriven mode stays near the
        # continuous-time thermal constants: with eps = w1^2 dt^2 / 4, var_q1
        # rises by up to eps / (1 - eps) and var_p1 falls by up to eps
        wid = thermal_widths(1.0, W1, 1.0, SamplingMode.QUANTUM)
        eps = W1 ** 2 * cfg.dt ** 2 / 4
        assert np.abs(var_q1 / wid.var_q - 1).max() <= eps / (1 - eps)
        assert np.abs(var_p1 / wid.var_p - 1).max() <= eps

    @pytest.mark.parametrize("mode", list(SamplingMode))
    @pytest.mark.parametrize("mass", [1.0, 1.7])
    def test_mode1_is_the_stepper_curve(self, mode, mass):
        # the stepper's unit probes A (pt1 = 1) and B (qt1 = 1), squared
        # against the thermal widths the sampler draws qt1 and pt1 from
        sys = SystemParams(mass=mass)
        cfg = RunConfig(system=sys, temperature=1.3, n_traj=2, seed=0, sampling=mode,
                        integrator=IntegratorConfig(n_steps=5000, stride=50))
        probes = driver._response(cfg).mode1          # (records, A/B, qt1/pt1)
        wid = thermal_widths(mass, normal_mode_freqs(0.0, sys)[0], 1.3, mode)
        expected = probes[:, 1] ** 2 * wid.var_q + probes[:, 0] ** 2 * wid.var_p
        s = isolated_variance_series(sys, 1.3, mode, config=cfg.integrator,
                                     fundamental=fundamental_solution(sys, n_steps=5000))
        assert np.abs(s.variances[:, 0] / expected[:, 0] - 1).max() <= 1e-11
        assert np.abs(s.variances[:, 2] / expected[:, 1] - 1).max() <= 1e-11


def arrowhead(alpha, d, z):
    a = np.diag(np.append(alpha, d))
    a[0, 1:] = a[1:, 0] = z
    return a


def arrowhead_eigensystem(alpha, d, z):
    """(lam, vecs) of :func:`arrowhead` from ``oracle._arrowhead_modes``, the
    deflated pairs (d_j, e_j) of the zero z_j appended; vecs' columns are the
    unit eigenvectors."""
    modes = oracle._arrowhead_modes(alpha, d, z)
    coupled = np.append(True, z != 0)
    m = len(modes.lam)
    vecs = np.zeros((len(d) + 1, len(d) + 1))
    vecs[np.ix_(coupled, np.arange(m))] = modes.components(0, m)
    vecs[np.flatnonzero(~coupled), np.arange(m, len(d) + 1)] = 1.0
    return np.append(modes.lam, d[z == 0]), vecs


class TestArrowheadEigenpairs:
    """``oracle._arrowhead_modes`` against LAPACK and against its own
    definition: A v = lam v, orthonormal vectors, roots that interlace."""

    @pytest.mark.parametrize("kondo", [0.007, 0.3])
    @pytest.mark.parametrize("n_modes", [1, 8, 200])
    def test_matches_eigh(self, n_modes, kondo):
        bath = build_ohmic_bath(n_modes, kondo, 3.0)
        args = (W1 ** 2, bath.freqs ** 2, math.sqrt(2.0) * bath.couplings)
        lam, vecs = arrowhead_eigensystem(*args)
        ref_lam, ref_vecs = np.linalg.eigh(arrowhead(*args))
        scale = np.abs(arrowhead(*args)).max()
        order = np.argsort(lam)
        assert np.abs(lam[order] - ref_lam).max() <= 1e-14 * scale
        vecs = vecs[:, order]
        vecs *= np.sign(np.sum(vecs * ref_vecs, axis=0))   # eigh's signs
        # either side's vectors are good to about eps |A| / (smallest gap)
        gap = np.diff(ref_lam).min()
        assert np.abs(vecs - ref_vecs).max() <= 64 * np.finfo(float).eps * scale / gap

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), data=st.data())
    def test_random_arrowheads(self, n, data):
        # positive, strictly increasing poles, some of them clustered; a
        # border with exact zeros, entries down to 1e-12 and either sign
        gap = st.sampled_from([1e-9, 1e-6]) | st.floats(1e-3, 2.0)
        d = np.cumsum(data.draw(arrays(float, n, elements=gap)))
        size = st.sampled_from([0.0, 1e-12, 1e-8]) | st.floats(1e-12, 3.0)
        z = (data.draw(arrays(float, n, elements=size))
             * data.draw(arrays(float, n, elements=st.sampled_from([-1.0, 1.0]))))
        alpha = data.draw(st.floats(-5.0, 50.0))
        a = arrowhead(alpha, d, z)
        lam, vecs = arrowhead_eigensystem(alpha, d, z)
        tol = 8 * (n + 1) * np.finfo(float).eps
        assert np.abs(a @ vecs - vecs * lam).max() <= tol * np.abs(a).max()
        assert np.abs(vecs.T @ vecs - np.eye(n + 1)).max() <= tol
        # one root below the coupled poles, one between each pair and one
        # above, each measured from the nearer pole of its interval
        modes = oracle._arrowhead_modes(alpha, d, z)
        poles, i = d[z != 0], np.arange(len(modes.lam))
        assert np.all(modes.lam[:-1] <= poles) and np.all(poles <= modes.lam[1:])
        below = modes.pole == i - 1
        assert np.all(below | (modes.pole == i))
        assert np.all((modes.tau > 0) == below) and np.all(modes.tau != 0)
        # backward stability: the roots are exact for Lowner's border, and
        # that border is z to working accuracy
        assert np.all(np.abs(modes.zhat / z[z != 0] - 1) <= tol)

    def test_bare_alpha_is_its_own_mode(self):
        # no coupled pole: the isolated model's 1x1 block keeps its bits
        modes = oracle._arrowhead_modes(1.25, np.array([0.5, 2.0]), np.zeros(2))
        assert modes.lam.tolist() == [1.25] and modes.first.tolist() == [1.0]
        assert modes.components(0, 64).tolist() == [[1.0]]


def test_package_calls_no_lapack_or_matrix_product():
    # LAPACK and BLAS-3 round differently on different thread counts; the
    # package's sums are row-local np.vecdot calls, which do not
    package = Path(__file__).resolve().parents[1] / "src" / "sqzbath"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("linalg", "matmul")
                    or isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
                    or isinstance(getattr(node, "op", None), ast.MatMult)):   # @ and @=
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
