import math
import tracemalloc

import numpy as np
import pytest

from sqzbath import (MathieuParams, SystemParams, TrajectoryFailure, fundamental_solution,
                     grows_unbounded, mathieu_params, monodromy, stability_map,
                     write_stability_csv)
from sqzbath.stability import classify_trace, kdk_fundamental
from sqzbath.system import coupling_freq_sq

# holds overflowed cells, both inf and nan traces, and one marginal cell; the
# half-period state overflows to nan traces only from x = 1.7e6 on
OVERFLOW_WINDOW = dict(x_range=(0.0, 2e6), y_range=(0.0, 3.0), resolution=(410, 3),
                       steps=256)


def reference_kdk(ks, dt, out=None):
    """The velocity-Verlet loop as first written, with half * k formed at
    each of the four half-kicks; kdk_fundamental must match it bit for bit."""
    half = 0.5 * dt
    ay, by, av, bv = 1.0, 0.0, 0.0, 1.0
    if out is not None:
        out[:, 0] = ay, by, av, bv
    with np.errstate(over="ignore", invalid="ignore"):
        for i, k in enumerate(ks, 1):
            av -= half * k * ay
            bv -= half * k * by
            ay += dt * av
            by += dt * bv
            av -= half * k * ay
            bv -= half * k * by
            if out is not None:
                out[:, i] = ay, by, av, bv
    return ay, by, av, bv


def reference_mathieu(a, q, steps, t_final=np.pi):
    dt = t_final / steps
    half = 0.5 * dt
    return reference_kdk((a - 2.0 * q * np.cos(2.0 * (i * dt + half))
                          for i in range(steps)), dt)


def reference_leapfrog(a, q, steps):
    """One period's monodromy ((m00, m01), (m10, m11)) and its determinant
    from the first half period, stepped as the leapfrog loop is written: with
    w = dt y' and each half-kick's coefficient dt (dt / 2) k_j = a1 - q2 c_j,
    the kicks that meet between steps j and j + 1 are one kick of
    2 a1 - q2 (c_j + c_(j+1)), and the first and last are half-kicks. H is
    the state after steps // 2 steps and G after (steps + 1) // 2, one more
    kick-drift-kick step; M = S adj(H) S G with S = diag(1, -1), and
    S adj(H) S = [[bv, by], [av, ay]] for H = (ay, by, av, bv)."""
    dt = np.pi / steps
    half = 0.5 * dt
    c = np.cos(2.0 * (np.arange((steps + 1) // 2) * dt + half))
    a1, q2 = dt * half * a, 2.0 * dt * half * q
    n = steps // 2
    with np.errstate(over="ignore", invalid="ignore"):
        ay, by, wa, wb = 1.0, 0.0, 0.0, dt
        for j in range(n):
            if j == 0:
                k = a1 - q2 * c[0]
                wa, wb = wa - k * ay, wb - k * by
            ay, by = ay + wa, by + wb
            k = a1 - q2 * c[j] if j == n - 1 else 2.0 * a1 - q2 * (c[j] + c[j + 1])
            wa, wb = wa - k * ay, wb - k * by
        gay, gby, gwa, gwb = ay, by, wa, wb
        if steps % 2:
            k = a1 - q2 * c[n]
            gwa, gwb = gwa - k * gay, gwb - k * gby
            gay, gby = gay + gwa, gby + gwb
            gwa, gwb = gwa - k * gay, gwb - k * gby
        av, bv, gav, gbv = wa / dt, wb / dt, gwa / dt, gwb / dt
        m = ((bv * gay + by * gav, bv * gby + by * gbv),
             (av * gay + ay * gav, av * gby + ay * gbv))
        det = (ay * bv - av * by) * (gay * gbv - gav * gby)
    return m, det


def reference_write_csv(smap, path, header_lines=()):
    """The cell-by-cell writer the stability CSV must still match byte for byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("x,y,abs_trace,unstable,marginal\n")
        for iy, y in enumerate(smap.ys):
            for ix, x in enumerate(smap.xs):
                fh.write(f"{float(x)!r},{float(y)!r},"
                         f"{float(smap.abs_trace[iy, ix])!r},"
                         f"{int(smap.unstable[iy, ix])},{int(smap.marginal[iy, ix])}\n")


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

    def test_integer_scalar_resolution(self):
        # any integer scalar is a square grid, numpy's included
        want = stability_map((0.0, 40.0), (0.0, 40.0), resolution=8, steps=256)
        for resolution in (np.int64(8), np.int32(8), np.uint8(8)):
            got = stability_map((0.0, 40.0), (0.0, 40.0), resolution=resolution, steps=256)
            assert got.abs_trace.shape == (8, 8)
            assert np.array_equal(got.abs_trace, want.abs_trace)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_csv_bytes_match_reference_writer(self, tmp_path):
        smap = stability_map(**OVERFLOW_WINDOW)
        assert np.isinf(smap.abs_trace).any() and np.isnan(smap.abs_trace).any()
        assert smap.marginal.any()
        header = ["sqzbath stability map", "window x=0:2e5, y=0:3"]
        write_stability_csv(smap, tmp_path / "new.csv", header)
        reference_write_csv(smap, tmp_path / "ref.csv", header)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestHalfPeriodIdentity:
    """The half-period monodromy against the full-period reference loop: the
    identity is exact, so only round-off separates the two."""

    @staticmethod
    def assert_agree(trace, flags, ref):
        """|trace| within 1e-12 relative of ``ref``, and the same flags."""
        assert np.all(np.abs(trace - ref) <= 1e-12 * np.maximum(1.0, ref))
        for got, want in zip(flags, classify_trace(ref)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("resolution, steps", [(24, 256), (24, 257), (24, 4097),
                                                   (100, 4096)])  # the benchmark's grid
    def test_map_matches_full_period(self, resolution, steps):
        smap = stability_map((0.0, 40.0), (0.0, 40.0), resolution=resolution, steps=steps)
        gx, gy = np.meshgrid(smap.xs, smap.ys)
        ay, by, av, bv = reference_mathieu((gx + gy).ravel(), (gy / 2.0).ravel(), steps)
        self.assert_agree(smap.abs_trace.ravel(),
                          (smap.unstable.ravel(), smap.marginal.ravel()), np.abs(ay + bv))
        assert np.isfinite(smap.determinant).all()
        assert np.abs(smap.determinant - 1.0).max() < 1e-12

    @pytest.mark.parametrize("steps", [256, 257, 4097])
    @pytest.mark.parametrize("a, q", [(37.037037, 15.432099), (1.0, 0.4), (7.3, 0.0),
                                      (20.0, 10.0)])
    def test_monodromy_matches_full_period(self, a, q, steps):
        m = monodromy(MathieuParams(a=a, q=q), steps=steps)
        trace = abs(m[0, 0] + m[1, 1])
        ay, by, av, bv = reference_mathieu(a, q, steps)
        self.assert_agree(trace, classify_trace(trace), abs(ay + bv))
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


class TestReferenceLoop:
    """The map and the monodromy give the leapfrog reference's bits, and
    every user of kdk_fundamental the reference loop's, including the nan
    and inf entries of overflowed cells."""

    @pytest.mark.parametrize("window", [
        OVERFLOW_WINDOW,
        dict(x_range=(0.0, 40.0), y_range=(0.0, 40.0), resolution=(9, 7), steps=512),
        dict(x_range=(0.0, 40.0), y_range=(0.0, 40.0), resolution=(9, 7), steps=257),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_map_matches_reference(self, window):
        smap = stability_map(**window)
        gx, gy = np.meshgrid(smap.xs, smap.ys)
        ((m00, _), (_, m11)), det = reference_leapfrog(
            (gx + gy).ravel(), (gy / 2.0).ravel(), window["steps"])
        shape = smap.abs_trace.shape
        assert np.array_equal(smap.abs_trace, np.abs(m00 + m11).reshape(shape),
                              equal_nan=True)
        assert np.array_equal(smap.determinant, det.reshape(shape), equal_nan=True)

    @pytest.mark.parametrize("a, q", [(37.037037, 15.432099), (1.0, 0.4), (7.3, 0.0)])
    def test_monodromy_matches_reference(self, a, q):
        for steps in (1024, 257):   # G = H, and G one step past H
            m = monodromy(MathieuParams(a=a, q=q), steps=steps)
            assert np.array_equal(m, reference_leapfrog(a, q, steps)[0])

    def test_fundamental_solution_matches_reference(self, paper_system):
        f = fundamental_solution(paper_system, dt=0.01, n_steps=3000)
        k = paper_system.freq ** 2 + 2.0 * coupling_freq_sq(
            (np.arange(3000) + 0.5) * 0.01, paper_system)
        out = np.empty((4, 3001))
        reference_kdk(k.tolist(), 0.01, out)
        assert np.array_equal(np.array([f.pos_a, f.pos_b, f.vel_a, f.vel_b]), out)

    @pytest.mark.parametrize("n_steps", [0, 1, 2047, 2048, 2049, 6001])
    def test_flushed_blocks_match_reference(self, paper_system, n_steps):
        # the columns are written in blocks of _FLUSH_STEPS (2048) steps; a
        # last block that is partial, full or empty gives the same bits
        k = (paper_system.freq ** 2 + 2.0 * coupling_freq_sq(
            (np.arange(n_steps) + 0.5) * 0.01, paper_system)).tolist()
        new, ref = np.full((4, n_steps + 1), np.nan), np.empty((4, n_steps + 1))
        assert kdk_fundamental(k, 0.01, new) == reference_kdk(k, 0.01, ref)
        assert np.array_equal(new, ref)

    def test_holds_a_bounded_number_of_floats(self, paper_system):
        # 4 x 25001 Python floats would take about 3.2 MB; the blocks hold
        # 4 x 2048 of them at a time
        k = (paper_system.freq ** 2 + 2.0 * coupling_freq_sq(
            (np.arange(25000) + 0.5) * 0.01, paper_system)).tolist()
        out = np.empty((4, 25001))
        tracemalloc.start()
        try:
            kdk_fundamental(k, 0.01, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_fundamental_solution_holds_a_bounded_number_of_floats(self, paper_system):
        # the 25000 coefficients as one list of Python floats would add about
        # 0.8 MB to the (4, 25001) output's 0.8 MB
        tracemalloc.start()
        try:
            fundamental_solution(paper_system, dt=0.01, n_steps=25000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_overflowed_columns_match_reference(self):
        sys = SystemParams(coupling_amp=20.0, drive_freq=20.0)
        k = (sys.freq ** 2 + 2.0 * coupling_freq_sq((np.arange(20000) + 0.5) * 0.01,
                                                     sys)).tolist()
        new, ref = np.empty((4, 20001)), np.empty((4, 20001))
        kdk_fundamental(k, 0.01, new)
        reference_kdk(k, 0.01, ref)
        assert np.isinf(ref).any() and np.isnan(ref).any()
        assert np.array_equal(new, ref, equal_nan=True)
        first_bad = int(np.isfinite(ref).all(axis=0).argmin())
        with pytest.raises(TrajectoryFailure) as err:
            fundamental_solution(sys, dt=0.01, n_steps=20000)
        assert err.value.step == first_bad
