import math

import numpy as np
import pytest

from sqzbath import (NHCBathParams, NHCBathPhase, OhmicBathParams, OhmicBathPhase,
                     SystemPhase, build_ohmic_bath, nhc_bath_forces,
                     nhc_from_ohmic, ohmic_forces)
from sqzbath.baths import OhmicWorkspace


class TestBuildOhmic:
    def test_mode_spacing(self):
        bath = build_ohmic_bath(200, 0.007, 3.0)
        assert bath.mode_spacing == pytest.approx((1 - math.exp(-3)) / 200, rel=1e-12)
        assert bath.mode_spacing == pytest.approx(4.751065e-3, rel=1e-6)

    def test_cutoff_recovered(self):
        bath = build_ohmic_bath(200, 0.007, 3.0)
        assert bath.freqs[-1] == pytest.approx(3.0, abs=1e-10)

    def test_last_coupling(self):
        bath = build_ohmic_bath(200, 0.007, 3.0)
        expected = math.sqrt(0.007 * (1 - math.exp(-3)) / 200 * 3.0)
        assert bath.couplings[-1] == pytest.approx(expected, rel=1e-12)
        assert bath.couplings[-1] == pytest.approx(9.9886e-3, rel=1e-4)

    def test_tables_monotone_positive(self):
        bath = build_ohmic_bath(64, 0.3, 3.0)
        assert np.all(np.diff(bath.freqs) > 0)
        assert np.all(bath.couplings > 0)

    def test_mode_density_realizes_exponential_measure(self):
        bath = build_ohmic_bath(200, 0.007, 3.0)
        for w_star in (0.5, 1.0, 2.0, 2.9):
            count = int(np.sum(bath.freqs < w_star))
            expected = 200 * (1 - math.exp(-w_star)) / (1 - math.exp(-3.0))
            assert abs(count - round(expected)) <= 1

    @pytest.mark.parametrize("args", [(0, 0.007, 3.0), (10, -0.1, 3.0),
                                      (10, 0.007, 0.0), (10, 0.007, 3.0, -1.0)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            build_ohmic_bath(*args)

    def test_spacing_guard(self):
        # a huge cutoff makes 1 - j*spacing hit zero for the last mode
        with pytest.raises(ValueError, match="spacing"):
            build_ohmic_bath(1, 0.007, 1e9)

    def test_table_length_validation(self):
        with pytest.raises(ValueError):
            OhmicBathParams(n_modes=3, kondo=0.1, cutoff=3.0, mass=1.0,
                            mode_spacing=0.1, freqs=np.array([1.0, 2.0]),
                            couplings=np.array([0.1, 0.2]))

    def test_monotonicity_validation(self):
        with pytest.raises(ValueError):
            OhmicBathParams(n_modes=2, kondo=0.1, cutoff=3.0, mass=1.0,
                            mode_spacing=0.1, freqs=np.array([2.0, 1.0]),
                            couplings=np.array([0.1, 0.2]))


def single_mode_bath(freq=1.0, coupling=0.1):
    return OhmicBathParams(n_modes=1, kondo=0.1, cutoff=freq, mass=1.0,
                           mode_spacing=0.5, freqs=np.array([freq]),
                           couplings=np.array([coupling]))


class TestOhmicForces:
    def test_all_zero(self):
        bath = build_ohmic_bath(8, 0.007, 3.0)
        sys_kick, bath_force = ohmic_forces(
            SystemPhase(0.0, 0.0, 0.0, 0.0),
            OhmicBathPhase(np.zeros(8), np.zeros(8)), bath)
        assert sys_kick == 0.0
        assert np.all(bath_force == 0.0)

    def test_single_mode_read_off(self):
        bath = single_mode_bath()
        sys_kick, _ = ohmic_forces(SystemPhase(0.0, 0.0, 0.0, 0.0),
                                   OhmicBathPhase(np.array([1.0]), np.array([0.0])),
                                   bath)
        assert sys_kick == pytest.approx(0.1)

    def test_antisymmetric_state_decouples(self, rng):
        bath = build_ohmic_bath(8, 0.3, 3.0)
        pos = rng.standard_normal(8)
        _, bath_force = ohmic_forces(SystemPhase(1.0, -1.0, 0.0, 0.0),
                                     OhmicBathPhase(pos, np.zeros(8)), bath)
        assert np.allclose(bath_force, -bath.freqs ** 2 * pos, rtol=0, atol=1e-15)


    @pytest.mark.parametrize("mass", [1.0, 0.7])
    @pytest.mark.parametrize("kondo", [0.0, 0.3])
    @pytest.mark.parametrize("shape", [(200,), (1, 200), (20, 200), (160, 200),
                                       (500, 200)])
    def test_matches_textbook_formula(self, rng, shape, kondo, mass):
        bath = build_ohmic_bath(200, kondo, 3.0, mass)
        q1 = rng.standard_normal(shape[:-1])
        q2 = rng.standard_normal(shape[:-1])
        pos = rng.standard_normal(shape)
        pos[..., ::7] = 0.0
        if shape[:-1]:
            # q1 + q2 = +0.0 and -0.0, whose products with c_j are zeros
            q2[::3] = -q1[::3]
            q1[1::3] = q2[1::3] = -0.0
        expected = (bath.couplings * (q1 + q2)[..., None]
                    - bath.mass * bath.freqs ** 2 * pos)
        phase = SystemPhase(q1, q2, np.zeros(shape[:-1]), np.zeros(shape[:-1]))
        for work in (None, OhmicWorkspace(bath, shape)):
            sys_kick, force = ohmic_forces(phase, OhmicBathPhase(pos, pos.copy()),
                                           bath, work)
            assert np.array_equal(sys_kick, pos @ bath.couplings)
            assert np.array_equal(force, expected)
            # the documented exception: an exact -0.0 product comes out +0.0
            flipped = np.signbit(force) != np.signbit(expected)
            assert np.all(force[flipped] == 0.0)
            assert not np.signbit(force[flipped]).any()


class TestNHCParams:
    def test_n1_limit_of_discretization(self):
        nhc = nhc_from_ohmic(0.007, 3.0, temperature=1.0)
        assert nhc.osc_freq == pytest.approx(3.0, abs=1e-12)
        expected_c = math.sqrt(0.007 * (1 - math.exp(-3.0)) * 3.0)
        assert nhc.coupling == pytest.approx(expected_c, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"osc_freq": 0.0}, {"mass_eta1": 0.0}, {"mass_eta2": -1.0},
        {"thermo_dof": 0}, {"temperature": 0.0},
    ])
    def test_invalid(self, kwargs):
        base = dict(osc_freq=3.0, coupling=0.14, temperature=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            NHCBathParams(**base)


def make_nhc_phase(**kwargs):
    vals = dict(osc_q=0.0, osc_p=0.0, eta1=0.0, eta2=0.0, p_eta1=0.0, p_eta2=0.0)
    vals.update(kwargs)
    return NHCBathPhase(**vals)


class TestNHCForces:
    def test_zero(self):
        nhc = NHCBathParams(osc_freq=1.0, coupling=0.1, temperature=1.0)
        sys_kick, osc_force = nhc_bath_forces(SystemPhase(1.0, -1.0, 0.0, 0.0),
                                              make_nhc_phase(), nhc)
        assert sys_kick == 0.0 and osc_force == 0.0

    def test_decoupled(self):
        nhc = NHCBathParams(osc_freq=2.0, coupling=0.0, temperature=1.0)
        sys_kick, osc_force = nhc_bath_forces(SystemPhase(1.0, 1.0, 0.0, 0.0),
                                              make_nhc_phase(osc_q=0.5), nhc)
        assert sys_kick == 0.0
        assert osc_force == pytest.approx(-2.0)

    def test_hand_evaluated(self):
        nhc = NHCBathParams(osc_freq=1.0, coupling=0.1, temperature=1.0)
        sys_kick, osc_force = nhc_bath_forces(SystemPhase(1.0, 1.0, 0.0, 0.0),
                                              make_nhc_phase(osc_q=0.5), nhc)
        assert sys_kick == pytest.approx(0.05)
        assert osc_force == pytest.approx(-0.3)
