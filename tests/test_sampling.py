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
    z, = trajectory_rng(seed, range(n), (4,))
    m = to_normal_modes(sample_system(z, sys, temperature, mode))
    return np.column_stack((m.qt1, m.qt2, m.pt1, m.pt2))


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


def draw_ohmic_bath(bath, n, temperature, mode, seed):
    pos, mom = trajectory_rng(seed, range(n), (bath.n_modes,), (bath.n_modes,))
    return sample_ohmic_bath(pos, mom, bath, temperature, mode)


def draw_nhc_bath(bath, n, temperature, mode, seed):
    z, = trajectory_rng(seed, range(n), (2,))
    return init_nhc_bath(z, bath, temperature, mode)


class TestSampleBath:
    def test_position_width_at_cutoff(self):
        bath = build_ohmic_bath(4, 0.007, 3.0)
        target = 1.0 / (2 * 3.0 * math.tanh(1.5))
        assert target == pytest.approx(0.1841318, rel=1e-6)
        n = 10000
        draws = draw_ohmic_bath(bath, n, 1.0, SamplingMode.QUANTUM, seed=5).pos[:, -1]
        assert abs(draws.var() - target) < 3 * variance_se(target, n)

    def test_classical_momentum_width_frequency_independent(self):
        bath = build_ohmic_bath(16, 0.007, 3.0)
        n = 4000
        mom = draw_ohmic_bath(bath, n, 1.0, SamplingMode.CLASSICAL, seed=6).mom
        for j in (0, 7, 15):
            assert abs(mom[:, j].var() - 1.0) < 3 * variance_se(1.0, n)

    def test_minimum_uncertainty_at_zero_temperature(self):
        bath = build_ohmic_bath(4, 0.007, 3.0)
        ph = draw_ohmic_bath(bath, 20000, 1e-7, SamplingMode.QUANTUM, seed=7)
        product = ph.pos.var(axis=0) * ph.mom.var(axis=0)
        assert np.all(np.abs(product - 0.25) < 0.02)

    def test_scales_the_normals_in_place(self):
        bath = build_ohmic_bath(4, 0.007, 3.0)
        pos, mom = np.ones((3, 4)), np.ones((3, 4))
        ph = sample_ohmic_bath(pos, mom, bath, 1.0, SamplingMode.QUANTUM)
        wid = thermal_widths(1.0, bath.freqs, 1.0, SamplingMode.QUANTUM)
        assert ph.pos is pos and ph.mom is mom
        assert np.array_equal(pos, np.broadcast_to(wid.sigma_q, (3, 4)))
        assert np.array_equal(mom, np.broadcast_to(wid.sigma_p, (3, 4)))


class TestInitNHC:
    def test_deterministic_chain_start(self):
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        ph = draw_nhc_bath(nhc, 3, 1.0, SamplingMode.QUANTUM, seed=1)
        for name, value in (("eta1", 0.0), ("eta2", 0.0), ("p_eta1", 0.0),
                            ("p_eta2", 1.0)):
            field = getattr(ph, name)
            assert field.shape == (3,) and np.all(field == value), name

    def test_oscillator_momentum_variance(self):
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        target = 3.0 / (2 * math.tanh(1.5))
        assert target == pytest.approx(1.657186, rel=1e-6)
        n = 10000
        draws = draw_nhc_bath(nhc, n, 1.0, SamplingMode.QUANTUM, seed=8).osc_p
        assert abs(draws.var() - target) < 3 * variance_se(target, n)

    def test_classical_momentum_variance(self):
        nhc = nhc_from_ohmic(0.007, 3.0, 1.0)
        n = 10000
        draws = draw_nhc_bath(nhc, n, 1.0, SamplingMode.CLASSICAL, seed=9).osc_p
        assert abs(draws.var() - 1.0) < 3 * variance_se(1.0, n)


class TestReproducibility:
    def test_identical_seeds_identical_draws(self):
        a, = trajectory_rng(123, [4, 9], (4,))
        b, = trajectory_rng(123, [4, 9], (4,))
        assert np.array_equal(a, b)

    def test_streams_differ_across_indices(self):
        z, = trajectory_rng(123, range(2), (4,))
        assert not np.any(z[0] == z[1])
