import math

import numpy as np
import pytest

from sqzbath import (SamplingMode, build_ohmic_bath, init_nhc_bath,
                     nhc_from_ohmic, sample_ohmic_bath, sample_system,
                     thermal_widths, to_normal_modes, trajectory_rng)

W1 = math.sqrt(1.25)
# frozen from direct evaluation of the width formulas at (m=1, w=sqrt(1.25), T=1)
VAR_Q_QUANTUM = 0.8816473269146157
VAR_P_QUANTUM = 1.1020591586432695


def variance_se(var, n):
    return var * math.sqrt(2.0 / (n - 1))


class TestThermalWidths:
    def test_quantum_reference_values(self):
        w = thermal_widths(1.0, W1, 1.0, SamplingMode.QUANTUM)
        th = math.tanh(W1 / 2.0)
        assert w.var_q == pytest.approx(1.0 / (2.0 * W1 * th), rel=1e-14)
        assert w.var_q == pytest.approx(VAR_Q_QUANTUM, rel=1e-12)
        assert w.var_p == pytest.approx(VAR_P_QUANTUM, rel=1e-12)

    def test_zero_temperature_limit(self):
        w = thermal_widths(1.0, W1, 1e-6, SamplingMode.QUANTUM)
        assert w.var_q == pytest.approx(1.0 / (2.0 * W1), rel=1e-9)
        assert w.var_p == pytest.approx(W1 / 2.0, rel=1e-9)

    def test_classical_equipartition(self):
        w = thermal_widths(1.0, W1, 1.0, SamplingMode.CLASSICAL)
        assert w.var_q == pytest.approx(0.8, rel=1e-14)
        assert w.var_p == pytest.approx(1.0, rel=1e-14)

    def test_uncertainty_bound(self, rng):
        for _ in range(50):
            m, w, t = rng.uniform(0.5, 2), rng.uniform(0.2, 5), rng.uniform(0.05, 5)
            wid = thermal_widths(m, w, t, SamplingMode.QUANTUM)
            assert wid.var_q * wid.var_p >= 0.25 - 1e-12

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.1, 5, 30)
        vq = [thermal_widths(1.0, W1, t, SamplingMode.QUANTUM).var_q for t in temps]
        assert np.all(np.diff(vq) > 0)

    def test_classical_limit_at_high_temperature(self):
        t = 10 * W1 * 1.01
        q = thermal_widths(1.0, W1, t, SamplingMode.QUANTUM)
        c = thermal_widths(1.0, W1, t, SamplingMode.CLASSICAL)
        assert abs(q.var_q - c.var_q) / c.var_q < 0.01
        assert abs(q.var_p - c.var_p) / c.var_p < 0.01

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            thermal_widths(1.0, W1, 0.0, SamplingMode.QUANTUM)

    def test_mode_parsing(self):
        assert SamplingMode.parse("Quantum") is SamplingMode.QUANTUM
        assert SamplingMode.parse("classical") is SamplingMode.CLASSICAL
        with pytest.raises(ValueError):
            SamplingMode.parse("thermal")


def draw_system_modes(sys, n, temperature=1.0, mode=SamplingMode.QUANTUM, seed=77):
    cols = np.empty((n, 4))
    for i in range(n):
        ph = sample_system(trajectory_rng(seed, i), sys, temperature, mode)
        m = to_normal_modes(ph)
        cols[i] = m.qt1, m.qt2, m.pt1, m.pt2
    return cols


class TestSampleSystem:
    N = 10000

    def test_mode_variances(self, paper_system):
        cols = draw_system_modes(paper_system, self.N)
        for k, target in enumerate((VAR_Q_QUANTUM, VAR_Q_QUANTUM,
                                    VAR_P_QUANTUM, VAR_P_QUANTUM)):
            var = cols[:, k].var()
            assert abs(var - target) < 3 * variance_se(target, self.N)

    def test_zero_means(self, paper_system):
        cols = draw_system_modes(paper_system, self.N)
        for k in range(4):
            sd = cols[:, k].std()
            assert abs(cols[:, k].mean()) < 3 * sd / math.sqrt(self.N)

    def test_quantum_exceeds_classical(self, paper_system):
        quantum = draw_system_modes(paper_system, self.N)[:, 1].var()
        classical = draw_system_modes(paper_system, self.N,
                                      mode=SamplingMode.CLASSICAL)[:, 1].var()
        assert quantum > classical
        assert classical == pytest.approx(0.8, abs=3 * variance_se(0.8, self.N))

    def test_coordinates_uncorrelated(self, paper_system):
        cols = draw_system_modes(paper_system, self.N)
        z = (cols - cols.mean(axis=0)) / cols.std(axis=0)
        corr = z.T @ z / self.N
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 3.0 / math.sqrt(self.N))


class TestSampleBath:
    def test_position_width_at_cutoff(self):
        bath = build_ohmic_bath(4, 0.007, 3.0)
        target = 1.0 / (2 * 3.0 * math.tanh(1.5))
        assert target == pytest.approx(0.1841318, rel=1e-6)
        n = 10000
        draws = np.array([sample_ohmic_bath(trajectory_rng(5, i), bath, 1.0,
                                            SamplingMode.QUANTUM).pos[-1]
                          for i in range(n)])
        assert abs(draws.var() - target) < 3 * variance_se(target, n)

    def test_classical_momentum_width_frequency_independent(self):
        bath = build_ohmic_bath(16, 0.007, 3.0)
        n = 4000
        mom = np.array([sample_ohmic_bath(trajectory_rng(6, i), bath, 1.0,
                                          SamplingMode.CLASSICAL).mom
                        for i in range(n)])
        for j in (0, 7, 15):
            assert abs(mom[:, j].var() - 1.0) < 3 * variance_se(1.0, n)

    def test_minimum_uncertainty_at_zero_temperature(self):
        bath = build_ohmic_bath(4, 0.007, 3.0)
        n = 20000
        pos = np.empty((n, 4))
        mom = np.empty((n, 4))
        for i in range(n):
            ph = sample_ohmic_bath(trajectory_rng(7, i), bath, 1e-7,
                                   SamplingMode.QUANTUM)
            pos[i], mom[i] = ph.pos, ph.mom
        product = pos.var(axis=0) * mom.var(axis=0)
        assert np.all(np.abs(product - 0.25) < 0.02)


class TestInitNHC:
    def test_deterministic_chain_start(self):
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        ph = init_nhc_bath(trajectory_rng(1, 0), nhc, 1.0, SamplingMode.QUANTUM)
        assert (ph.eta1, ph.eta2, ph.p_eta1, ph.p_eta2) == (0.0, 0.0, 0.0, 1.0)

    def test_oscillator_momentum_variance(self):
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        target = 3.0 / (2 * math.tanh(1.5))
        assert target == pytest.approx(1.657186, rel=1e-6)
        n = 10000
        draws = np.array([init_nhc_bath(trajectory_rng(8, i), nhc, 1.0,
                                        SamplingMode.QUANTUM).osc_p
                          for i in range(n)])
        assert abs(draws.var() - target) < 3 * variance_se(target, n)

    def test_classical_momentum_variance(self):
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        n = 10000
        draws = np.array([init_nhc_bath(trajectory_rng(9, i), nhc, 1.0,
                                        SamplingMode.CLASSICAL).osc_p
                          for i in range(n)])
        assert abs(draws.var() - 1.0) < 3 * variance_se(1.0, n)


class TestReproducibility:
    def test_identical_seeds_identical_draws(self, paper_system):
        a = sample_system(trajectory_rng(123, 4), paper_system, 1.0,
                          SamplingMode.QUANTUM)
        b = sample_system(trajectory_rng(123, 4), paper_system, 1.0,
                          SamplingMode.QUANTUM)
        assert (a.q1, a.q2, a.p1, a.p2) == (b.q1, b.q2, b.p1, b.p2)

    def test_streams_differ_across_indices(self, paper_system):
        a = sample_system(trajectory_rng(123, 0), paper_system, 1.0,
                          SamplingMode.QUANTUM)
        b = sample_system(trajectory_rng(123, 1), paper_system, 1.0,
                          SamplingMode.QUANTUM)
        assert a.q1 != b.q1
