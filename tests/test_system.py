import math

import numpy as np
import pytest

from sqzbath import (SystemParams, SystemPhase, coupling_freq_sq,
                     from_normal_modes, normal_mode_freqs, system_energy,
                     system_force, to_normal_modes, to_physical_units)
from sqzbath.system import _HBAR_SI, _KB_SI


class TestParams:
    def test_derived_frequency(self, paper_system):
        assert paper_system.freq == pytest.approx(math.sqrt(1.25), rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"mass": 0.0}, {"mass": -1.0}, {"spring_k": 0.0},
        {"coupling_amp": -0.1}, {"drive_freq": 0.0}, {"carrier_freq": -1.0},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


class TestCoupling:
    def test_zero_at_start(self, paper_system):
        assert coupling_freq_sq(0.0, paper_system) == 0.0

    def test_quarter_period_peak(self, paper_system):
        t = math.pi / (2 * 0.45)
        assert coupling_freq_sq(t, paper_system) == pytest.approx(6.25, abs=1e-12)

    def test_direct_evaluation(self, paper_system):
        # 6.25 * sin(0.45)^2
        expected = 6.25 * math.sin(0.45) ** 2
        assert expected == pytest.approx(1.1824688491541737, rel=1e-12)
        assert coupling_freq_sq(1.0, paper_system) == pytest.approx(expected, rel=1e-14)

    def test_periodic_and_bounded(self, paper_system, rng):
        t = rng.uniform(0, 100, size=200)
        period = math.pi / paper_system.drive_freq
        v = coupling_freq_sq(t, paper_system)
        assert np.allclose(v, coupling_freq_sq(t + period, paper_system), atol=1e-9)
        assert np.all(v >= 0) and np.all(v <= 6.25 + 1e-12)

    def test_frozen_coupling(self):
        sys = SystemParams(frozen_coupling=True)
        assert coupling_freq_sq(0.0, sys) == pytest.approx(6.25)
        assert coupling_freq_sq(1.7, sys) == pytest.approx(6.25)


class TestForce:
    def test_equilibrium(self, paper_system):
        f1, f2 = system_force(1.3, SystemPhase(0.0, 0.0, 0.0, 0.0), paper_system)
        assert f1 == 0.0 and f2 == 0.0

    def test_coupling_off_at_t0(self, paper_system):
        f1, f2 = system_force(0.0, SystemPhase(1.0, 0.0, 0.0, 0.0), paper_system)
        assert f1 == pytest.approx(-1.25, rel=1e-15)
        assert f2 == pytest.approx(0.0, abs=1e-15)

    def test_hand_evaluated_with_full_coupling(self, paper_system):
        t = math.pi / (2 * 0.45)   # drive at peak: coupling 6.25
        f1, f2 = system_force(t, SystemPhase(1.0, -1.0, 0.0, 0.0), paper_system)
        assert f1 == pytest.approx(-13.75, rel=1e-12)
        assert f2 == pytest.approx(13.75, rel=1e-12)


class TestEnergy:
    def test_zero_phase(self, paper_system):
        assert system_energy(0.7, SystemPhase(0.0, 0.0, 0.0, 0.0), paper_system) == 0.0

    def test_kinetic_only(self, paper_system):
        assert system_energy(0.0, SystemPhase(0.0, 0.0, 1.0, 0.0),
                             paper_system) == pytest.approx(0.5)

    def test_potential_at_t0(self, paper_system):
        assert system_energy(0.0, SystemPhase(1.0, 1.0, 0.0, 0.0),
                             paper_system) == pytest.approx(1.25)


class TestNormalModes:
    def test_symmetric_input(self):
        m = to_normal_modes(SystemPhase(1.0, 1.0, 0.0, 0.0))
        assert m.qt1 == pytest.approx(math.sqrt(2), rel=1e-15)
        assert m.qt2 == pytest.approx(0.0, abs=1e-15)

    def test_single_site(self):
        m = to_normal_modes(SystemPhase(1.0, 0.0, 0.0, 0.0))
        assert m.qt1 == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert m.qt2 == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    def test_round_trip(self, rng):
        x = rng.standard_normal((4, 50))
        ph = SystemPhase(*x)
        back = from_normal_modes(to_normal_modes(ph))
        for a, b in zip((ph.q1, ph.q2, ph.p1, ph.p2),
                        (back.q1, back.q2, back.p1, back.p2)):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_orthogonality_preserves_norms(self, rng):
        x = rng.standard_normal(4)
        ph = SystemPhase(*x)
        m = to_normal_modes(ph)
        assert m.qt1 ** 2 + m.qt2 ** 2 == pytest.approx(ph.q1 ** 2 + ph.q2 ** 2, abs=1e-12)
        assert m.pt1 ** 2 + m.pt2 ** 2 == pytest.approx(ph.p1 ** 2 + ph.p2 ** 2, abs=1e-12)


class TestModeFrequencies:
    def test_undriven_instant(self, paper_system):
        w1, w2 = normal_mode_freqs(0.0, paper_system)
        assert w1 == pytest.approx(1.1180340, rel=1e-7)
        assert w2 == pytest.approx(1.1180340, rel=1e-7)

    def test_full_coupling(self, paper_system):
        t = math.pi / (2 * 0.45)
        _, w2 = normal_mode_freqs(t, paper_system)
        assert w2 == pytest.approx(3.7080992, rel=1e-7)

    def test_no_drive(self):
        sys = SystemParams(coupling_amp=0.0)
        for t in (0.0, 1.0, 17.3):
            w1, w2 = normal_mode_freqs(t, sys)
            assert w2 == pytest.approx(w1, rel=1e-15)


class TestUnits:
    def test_room_temperature(self):
        t_si = to_physical_units(1.0, "temperature", 3.93e13)
        assert t_si == pytest.approx(300.2, abs=1.0)

    def test_threshold_temperature_value(self):
        t_si = to_physical_units(1.037, "temperature", 3.93e13)
        assert t_si == pytest.approx(311.1, abs=0.5)

    def test_time_zero(self):
        assert to_physical_units(0.0, "time", 3.93e13) == 0.0

    def test_frequency_and_energy(self):
        assert to_physical_units(2.0, "frequency", 1e13) == pytest.approx(2e13)
        # one quantum at the carrier: hbar * omega_c
        assert to_physical_units(1.0, "energy", 3.93e13) == pytest.approx(4.144e-21, rel=1e-3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown unit kind"):
            to_physical_units(1.0, "mass", 1e13)

    def test_si_constants_are_exact(self):
        # the 2019 SI defining values; equal to scipy's bit for bit, so every
        # kelvin value matches one computed with scipy.constants
        from scipy import constants
        assert _HBAR_SI == 6.62607015e-34 / (2.0 * math.pi)
        assert _KB_SI == 1.380649e-23
        assert (_HBAR_SI, _KB_SI) == (constants.hbar, constants.k)

    def test_carrier_must_be_positive(self):
        with pytest.raises(ValueError):
            to_physical_units(1.0, "time", 0.0)
