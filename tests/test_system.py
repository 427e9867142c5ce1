import math

import numpy as np
import pytest

from sqzbath import (SystemParams, SystemPhase, coupling_freq_sq,
                     from_normal_modes, normal_mode_freqs, system_energy,
                     system_force, to_kelvin, to_normal_modes)
from sqzbath.system import _HBAR_SI, _KB_SI, coupling_stiffness

from conftest import plain_force


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


    @pytest.mark.parametrize("mass", [1.0, 1.7])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("rows", [None, 9], ids=["scalar", "batched"])
    def test_out_gives_the_tuple_bits(self, rng, mass, frozen, rows):
        sys = SystemParams(mass=mass, frozen_coupling=frozen)
        q1, q2, p1, p2 = rng.standard_normal((4,) + ((rows,) if rows else ()))
        phase = SystemPhase(q1, q2, p1, p2)
        if rows is None:
            phase = SystemPhase(*(float(v) for v in (q1, q2, p1, p2)))
        for t in (0.0, 0.37, 2.9):
            f1, f2 = plain_force(coupling_stiffness(t, sys), phase.q1, phase.q2, sys)
            out = np.full((2,) + np.shape(f1), np.nan)
            assert system_force(t, phase, sys, out=out) is out
            for got in (out, system_force(t, phase, sys)):
                assert got[0].tobytes() == np.float64(f1).tobytes()
                assert got[1].tobytes() == np.float64(f2).tobytes()
        assert np.array_equal(phase.q1, q1) and np.array_equal(phase.q2, q2)


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
        assert to_kelvin(1.0, 3.93e13) == pytest.approx(300.2, abs=1.0)

    def test_threshold_temperature_value(self):
        assert to_kelvin(1.037, 3.93e13) == pytest.approx(311.1, abs=0.5)

    def test_si_constants_are_exact(self):
        # the 2019 SI defining values; equal to scipy's bit for bit, so every
        # kelvin value matches one computed with scipy.constants
        from scipy import constants
        assert _HBAR_SI == 6.62607015e-34 / (2.0 * math.pi)
        assert _KB_SI == 1.380649e-23
        assert (_HBAR_SI, _KB_SI) == (constants.hbar, constants.k)

    def test_carrier_must_be_positive(self):
        for carrier in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                to_kelvin(1.0, carrier)
