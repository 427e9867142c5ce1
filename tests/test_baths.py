import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sqzbath import (NHCBathParams, NHCBathPhase, OhmicBathParams, OhmicBathPhase,
                     SystemPhase, build_ohmic_bath, nhc_bath_forces,
                     nhc_from_ohmic, ohmic_forces)
from sqzbath.baths import MAX_BATH_MODES, OhmicWorkspace

from conftest import row_dots


class TestBuildOhmic:
    def test_mode_spacing(self):
        # the grid is uniform in 1 - exp(-Omega): 1 - exp(-Omega_j) = j * spacing
        bath = build_ohmic_bath(200, 0.007, 3.0)
        spacing = (1 - math.exp(-3)) / 200
        assert spacing == pytest.approx(4.751065e-3, rel=1e-6)
        np.testing.assert_allclose(-np.expm1(-bath.freqs), np.arange(1, 201) * spacing,
                                   rtol=1e-12, atol=0)

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
                                      (10, 0.007, 0.0), (10, 0.007, -3.0)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            build_ohmic_bath(*args)

    def test_row_sums_at_the_size_bound_ignore_blas_threads(self):
        # each row's pull is one np.vecdot, and the mode-1 oracle's sums over
        # the (1 + N) block have one term more; at the largest bath they must
        # give the same bits on one BLAS thread as on two (a BLAS that splits
        # a shorter dot over its threads fails here)
        n = MAX_BATH_MODES + 1
        script = ("import hashlib, numpy as np; rng = np.random.default_rng(5); "
                  f"rows, vec = rng.standard_normal((8, {n})), rng.standard_normal({n}); "
                  "print(hashlib.sha256(np.vecdot(rows, vec).tobytes()).hexdigest())")
        digests = {subprocess.run([sys.executable, "-c", script], check=True, text=True,
                                  capture_output=True, timeout=120,
                                  env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
                                  ).stdout
                   for threads in (1, 2)}
        assert len(digests) == 1

    def test_spacing_guard(self):
        # a huge cutoff makes 1 - j*spacing hit zero for the last mode
        with pytest.raises(ValueError, match="spacing"):
            build_ohmic_bath(1, 0.007, 1e9)

    def test_table_length_validation(self):
        with pytest.raises(ValueError):
            OhmicBathParams(freqs=np.array([1.0, 2.0]), couplings=np.array([0.1]))

    def test_monotonicity_validation(self):
        with pytest.raises(ValueError):
            OhmicBathParams(freqs=np.array([2.0, 1.0]), couplings=np.array([0.1, 0.2]))

    def test_n_modes_is_the_table_length(self):
        # the tables are the bath; n_modes is read off them, not set
        bath = build_ohmic_bath(7, 0.007, 3.0)
        assert bath.n_modes == len(bath.freqs) == len(bath.couplings) == 7
        with pytest.raises(AttributeError):
            bath.n_modes = 8
        with pytest.raises(TypeError):
            OhmicBathParams(freqs=bath.freqs, couplings=bath.couplings, n_modes=7)


class TestSpectralDensity:
    """The implemented bath, of unit masses: J(w) = (pi/2) sum_j c_j^2/Omega_j
    delta(w - Omega_j) has the density (pi/2) xi e^(-w), which is flat at low
    w, so the static dressing sum_j c_j^2/Omega_j^2 grows as xi ln N instead
    of converging."""

    @pytest.mark.parametrize("kondo", [0.007, 0.3])
    @pytest.mark.parametrize("n_modes", [50, 200, 3200])
    def test_cumulative_weight_is_exponential(self, n_modes, kondo):
        # the weight of the modes up to Omega_j is the integral of the
        # density up to Omega_j
        bath = build_ohmic_bath(n_modes, kondo, 3.0)
        weight = 0.5 * math.pi * np.cumsum(bath.couplings ** 2 / bath.freqs)
        np.testing.assert_allclose(
            weight, 0.5 * math.pi * kondo * (1.0 - np.exp(-bath.freqs)), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kondo", [0.007, 0.3])
    def test_dressing_grows_by_xi_ln2_per_doubling(self, kondo):
        def dressing(n_modes):
            bath = build_ohmic_bath(n_modes, kondo, 3.0)
            return float(np.sum(bath.couplings ** 2 / bath.freqs ** 2))

        sums = [dressing(50 * 2 ** k) for k in range(7)]
        for lo, hi in zip(sums, sums[1:]):
            assert hi - lo == pytest.approx(kondo * math.log(2), rel=6e-3)
        assert sums[0] / kondo == pytest.approx(0.02771 / 0.007, rel=2e-4)
        assert sums[-1] / kondo == pytest.approx(0.05676 / 0.007, rel=2e-4)


def single_mode_bath(freq=1.0, coupling=0.1):
    return OhmicBathParams(freqs=np.array([freq]), couplings=np.array([coupling]))


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
        # a bath of masses m_j enters as its unit-mass equivalent, with
        # couplings c_j / sqrt(m_j)
        tables = build_ohmic_bath(200, kondo, 3.0)
        bath = OhmicBathParams(freqs=tables.freqs,
                               couplings=tables.couplings / math.sqrt(mass))
        q1 = rng.standard_normal(shape[:-1])
        q2 = rng.standard_normal(shape[:-1])
        pos = rng.standard_normal(shape)
        pos[..., ::7] = 0.0
        if shape[:-1]:
            # q1 + q2 = +0.0 and -0.0, whose products with c_j are zeros
            q2[::3] = -q1[::3]
            q1[1::3] = q2[1::3] = -0.0
        expected = (bath.couplings * (q1 + q2)[..., None]
                    - bath.freqs ** 2 * pos)
        phase = SystemPhase(q1, q2, np.zeros(shape[:-1]), np.zeros(shape[:-1]))
        for work in (None, OhmicWorkspace(bath, shape)):
            sys_kick, force = ohmic_forces(phase, OhmicBathPhase(pos, pos.copy()),
                                           bath, work)
            assert np.array_equal(sys_kick, row_dots(pos, bath.couplings))
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
