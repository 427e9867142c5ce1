import math

import numpy as np
import pytest

from sqzbath import (MathieuParams, SystemParams, grows_unbounded, mathieu_params,
                     monodromy, stability_map, write_stability_csv)


class TestMathieuParams:
    def test_reference_point(self, paper_system):
        p = mathieu_params(paper_system)
        assert p.a == pytest.approx(37.0370370, rel=1e-7)
        assert p.q == pytest.approx(15.4320988, rel=1e-7)

    def test_no_drive_amplitude(self):
        sys = SystemParams(coupling_amp=0.0)
        p = mathieu_params(sys)
        assert p.q == 0.0
        assert p.a == pytest.approx((sys.freq / 0.45) ** 2, rel=1e-12)

    def test_drive_frequency_scaling(self, paper_system):
        doubled = SystemParams(drive_freq=0.9)
        p1 = mathieu_params(paper_system)
        p2 = mathieu_params(doubled)
        assert p2.a == pytest.approx(p1.a / 4, rel=1e-12)
        assert p2.q == pytest.approx(p1.q / 4, rel=1e-12)

    def test_axes_mapping(self):
        p = MathieuParams.from_axes(6.0, 30.0)
        assert p.a == 36.0 and p.q == 15.0


class TestMonodromy:
    @pytest.mark.parametrize("a", [2.0, 7.3, 40.0])
    def test_harmonic_limit_trace(self, a):
        # q=0: exact one-period propagator trace is 2 cos(pi sqrt(a))
        m = monodromy(MathieuParams(a=a, q=0.0), steps=2 ** 19)
        assert m[0, 0] + m[1, 1] == pytest.approx(2 * math.cos(math.pi * math.sqrt(a)),
                                                  abs=1e-8)

    def test_determinant_is_one(self, paper_system):
        m = monodromy(mathieu_params(paper_system))
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)

    def test_reference_point_is_stable(self, paper_system):
        m = monodromy(mathieu_params(paper_system))
        trace = abs(m[0, 0] + m[1, 1])
        assert trace <= 2.0
        # frozen from this stepper at 4096 steps per period
        assert trace == pytest.approx(1.3657053, rel=1e-6)

    def test_minimum_steps_enforced(self):
        with pytest.raises(ValueError):
            monodromy(MathieuParams(a=1.0, q=0.0), steps=100)


class TestStabilityMap:
    def test_first_instability_tongue(self):
        # a ~= 1 with small q sits inside the first parametric resonance tongue
        m = monodromy(MathieuParams.from_axes(0.8, 0.2))
        assert abs(m[0, 0] + m[1, 1]) > 2.0

    def test_harmonic_row_is_stable_off_resonance(self):
        smap = stability_map((0.1, 8.0), (1e-9, 0.1), resolution=(40, 1), steps=1024)
        # cell centers avoid the measure-zero integer-sqrt(a) lines
        a_vals = smap.xs + smap.ys[0]
        decided = np.abs(np.sqrt(a_vals) - np.round(np.sqrt(a_vals))) > 0.05
        assert not smap.unstable[0, decided].any()

    def test_reference_point_cell_is_stable(self):
        smap = stability_map((6.0, 6.4), (30.6, 31.0), resolution=4, steps=2048)
        assert not smap.unstable.any()

    def test_determinant_across_map(self):
        smap = stability_map((0.0, 40.0), (0.0, 40.0), resolution=24, steps=2048)
        assert np.abs(smap.determinant - 1.0).max() < 1e-10

    def test_classification_stable_under_step_refinement(self):
        # doubling the integration resolution never flips a decided cell
        coarse = stability_map((0.0, 20.0), (0.0, 20.0), resolution=16, steps=1024)
        fine = stability_map((0.0, 20.0), (0.0, 20.0), resolution=16, steps=2048)
        decided = np.abs(coarse.abs_trace - 2.0) > 1e-3
        assert np.array_equal(coarse.unstable[decided], fine.unstable[decided])

    def test_non_finite_trace_is_unstable(self):
        smap = stability_map((0.0, 2e7), (0.0, 2e7), resolution=2, steps=256)
        assert not np.isfinite(smap.abs_trace).any()
        assert smap.unstable.all() and not smap.marginal.any()

    def test_minimum_steps_enforced(self):
        # the same rule as monodromy's: fewer steps under-resolve the period
        for steps in (-5, 0, 3, 255):
            with pytest.raises(ValueError, match="steps must be >= 256"):
                stability_map((0.0, 4.0), (0.0, 4.0), resolution=2, steps=steps)
        assert stability_map((0.0, 4.0), (0.0, 4.0), resolution=2,
                             steps=256).abs_trace.shape == (2, 2)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            stability_map((1.0, 1.0), (0.0, 40.0))

    def test_brute_force_growth_agrees(self, rng):
        xs = rng.uniform(0.0, 40.0, size=20)
        ys = rng.uniform(0.0, 40.0, size=20)
        cells = []
        for x, y in zip(xs, ys):
            m = monodromy(MathieuParams.from_axes(x, y))
            trace = abs(m[0, 0] + m[1, 1])
            if abs(trace - 2.0) < 1e-3:
                continue  # boundary cells are excluded from the comparison
            # growth to 1e6 within 50 periods needs |trace| comfortably > 2;
            # skip the thin ambiguous shell just above the boundary
            if 2.0 < trace < 2.1:
                continue
            cells.append((x, y, trace))
        x, y, trace = np.array(cells).T
        grows = grows_unbounded(MathieuParams.from_axes(x, y))
        assert np.array_equal(grows, trace > 2.0), np.array(cells)[grows != (trace > 2.0)]

    def test_batched_growth_matches_single_cells(self):
        x = np.array([0.8, 6.173, 12.0])
        y = np.array([0.2, 30.864, 20.0])
        batch = grows_unbounded(MathieuParams.from_axes(x, y), periods=3)
        single = [grows_unbounded(MathieuParams.from_axes(xi, yi), periods=3)
                  for xi, yi in zip(x, y)]
        assert list(batch) == single

    def test_csv_writer(self, tmp_path):
        smap = stability_map((0.0, 4.0), (0.0, 4.0), resolution=5, steps=512)
        path = tmp_path / "map.csv"
        write_stability_csv(smap, path, header_lines=["hello"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == "x,y,abs_trace,unstable,marginal"
        assert len(lines) == 2 + 25
        # plain numbers, so numpy.genfromtxt and float() read every cell
        cells = [float(cell) for line in lines[2:] for cell in line.split(",")]
        assert len(cells) == 5 * 25
