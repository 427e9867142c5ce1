"""Acceptance suite: every exit criterion as a test with a printed verdict.

Heavy ensemble runs are shared through module-scoped fixtures; all seeds are
fixed, so the suite is deterministic. Two checks (the squeezing onset time
of 3.2 and the threshold temperature of 1.037) assert externally reported
reference values that the implemented equations of motion demonstrably do
not reproduce; they fail deliberately and are documented in the README
rather than weakened.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from sqzbath import (IntegratorConfig, RunConfig, SamplingMode,
                     SystemParams, build_ohmic_bath, compare_variance_series,
                     fundamental_solution, mode1_variance_exact,
                     mode2_variance_exact, monodromy, nhc_from_ohmic,
                     nhc_matched_to_ohmic, run_ensemble,
                     sample_system, threshold_temperature, thermal_widths,
                     to_kelvin, to_normal_modes, trajectory_rng)
from sqzbath.cli import main
from sqzbath.stability import MathieuParams, grows_unbounded, stability_map

DESK_SEED = 271828
WORKERS = min(2, os.cpu_count() or 1)
DESK_INTEGRATOR = IntegratorConfig(dt=0.01, n_steps=25000, stride=50)


def check(criterion: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {verdict} - {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def desk_config(**kwargs):
    base = dict(system=SystemParams(), temperature=1.0,
                n_traj=2000, seed=DESK_SEED, integrator=DESK_INTEGRATOR,
                workers=WORKERS, chunk_size=1000)
    base.update(kwargs)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def ohmic_bath():
    return build_ohmic_bath(200, 0.007, 3.0)


@pytest.fixture(scope="module")
def ohmic_run(ohmic_bath):
    cfg = desk_config(bath=ohmic_bath)
    t0 = time.perf_counter()
    result = run_ensemble(cfg)
    print(f"\n[runtime] ohmic ensemble 2000x25000: {time.perf_counter() - t0:.0f}s")
    return result


@pytest.fixture(scope="module")
def ohmic_run_hot(ohmic_bath):
    cfg = desk_config(bath=ohmic_bath, temperature=1.06,
                      n_traj=1000)
    return run_ensemble(cfg)


@pytest.fixture(scope="module")
def nhc_run(ohmic_bath):
    bath = nhc_matched_to_ohmic(ohmic_bath, temperature=1.0)
    cfg = desk_config(bath=bath)
    t0 = time.perf_counter()
    result = run_ensemble(cfg)
    print(f"\n[runtime] nhc ensemble 2000x25000: {time.perf_counter() - t0:.0f}s")
    return result


@pytest.fixture(scope="module")
def oracle_covariance(ohmic_bath, paper_fundamental):
    """Exact (var_qt1, var_qt2) of the Ohmic model on the observation grid."""
    t0 = time.perf_counter()
    var_q1, _ = mode1_variance_exact(SystemParams(), ohmic_bath, 1.0,
                                     config=DESK_INTEGRATOR)
    _, var_q2, _ = mode2_variance_exact(SystemParams(), 1.0,
                                        fundamental=paper_fundamental)
    print(f"\n[runtime] exact covariance: {time.perf_counter() - t0:.2f}s")
    return np.column_stack([var_q1, var_q2[::DESK_INTEGRATOR.stride]])


@pytest.fixture(scope="module")
def paper_fundamental():
    return fundamental_solution(SystemParams(), dt=0.01, n_steps=25000)


class TestCriterion1EnergyConservation:
    def test_ensemble_mean_energy_drift(self):
        sys = SystemParams(frozen_coupling=True)
        cfg = RunConfig(system=sys, temperature=1.0,
                        n_traj=1000, seed=DESK_SEED,
                        integrator=IntegratorConfig(n_steps=25000, stride=100),
                        track_energy=True)
        t0 = time.perf_counter()
        res = run_ensemble(cfg)
        elapsed = time.perf_counter() - t0
        drift = float(np.abs(res.energy - res.energy[0]).max()
                      / abs(res.energy[0]))
        check("criterion 1 (energy conservation)", drift <= 1e-4,
              f"static-coupling <H> relative drift {drift:.2e} over 25000 steps "
              f"(tolerance 1e-4); 1000-trajectory run took {elapsed:.0f}s")


class TestCriterion2SamplerMoments:
    def test_quantum_widths(self):
        sys = SystemParams()
        n = 10000
        z, = trajectory_rng(2025, range(n), (4,))
        modes = to_normal_modes(sample_system(z, sys, 1.0, SamplingMode.QUANTUM))
        qt2, pt2 = modes.qt2, modes.pt2
        wid = thermal_widths(1.0, sys.freq, 1.0, SamplingMode.QUANTUM)
        ok = True
        details = []
        for label, sample, target in (("var_q", qt2.var(), wid.var_q),
                                      ("var_p", pt2.var(), wid.var_p)):
            se = target * math.sqrt(2.0 / (n - 1))
            ok &= abs(sample - target) < 3 * se
            details.append(f"{label}={sample:.5f} (target {target:.5f} +- {3 * se:.5f})")
        check("criterion 2 (sampler moments)", ok, "; ".join(details))


class TestCriterion3SqueezingOnset:
    def test_onset_time(self, ohmic_run):
        diag = ohmic_run.report["qt2"]
        ok = diag.first_crossing is not None and abs(diag.first_crossing - 3.2) <= 0.3
        check("criterion 3a (squeezing onset at 3.2 +- 0.3)", ok,
              f"first var(qt2) crossing of 0.5 at t = {diag.first_crossing}; "
              f"the implemented dynamics crosses early (see README)")

    def test_sustained_below_threshold(self, ohmic_run):
        s = ohmic_run.series
        var = s.column("qt2")
        se = s.se_column("qt2")
        below = var < 0.5
        assert below.any()
        start = int(np.argmax(below))
        tail_ok = var[start:] < 0.5 + 2 * se[start:]
        frac = float(tail_ok.mean())
        check("criterion 3b (variance stays below threshold)", bool(tail_ok.all()),
              f"fraction of post-crossing times below 0.5 (+2SE): {frac:.3f}; "
              f"max post-crossing variance {var[start:].max():.3f}")


class TestCriterion4TemperatureThreshold:
    def test_oracle_bisection(self, paper_fundamental):
        t0 = time.perf_counter()
        result = threshold_temperature(SystemParams(), fundamental=paper_fundamental)
        elapsed = time.perf_counter() - t0
        ok = abs(result.temperature - 1.037) <= 0.005
        check("criterion 4a (oracle threshold 1.037 +- 0.005)", ok,
              f"closed form gives T* = {result.temperature:.4f} in {elapsed:.3f}s "
              f"(reported reference 1.037; see README)")

    def test_mc_squeezing_at_reference_temperature(self, ohmic_run):
        diag = ohmic_run.report["qt2"]
        check("criterion 4b (significant squeezing at T=1.00)",
              diag.first_crossing is not None and diag.significant,
              f"min variance {diag.min_variance:.4f} +- {diag.se_at_min:.4f} "
              f"crosses 0.5 significantly")

    def test_mc_no_squeezing_at_high_temperature(self, ohmic_run_hot):
        diag = ohmic_run_hot.report["qt2"]
        no_crossing = diag.first_crossing is None or not diag.significant
        check("criterion 4c (no squeezing at T=1.06)", no_crossing,
              f"min variance {diag.min_variance:.4f} +- {diag.se_at_min:.4f} at "
              f"T=1.06, first crossing {diag.first_crossing} (see README)")


class TestCriterion5OracleEquivalence:
    def test_monte_carlo_matches_exact_covariance(self, ohmic_run, oracle_covariance):
        series = ohmic_run.series
        idx = np.unique(np.linspace(0, len(series.times) - 1, 50).astype(int))
        worst = 0.0
        for k in (0, 1):   # qt1, qt2
            dev = np.abs(series.variances[idx, k] - oracle_covariance[idx, k])
            z = dev / series.std_errors[idx, k]
            worst = max(worst, float(z.max()))
        check("criterion 5a (MC vs exact covariance, 50 times)", worst <= 3.0,
              f"max |deviation|/SE = {worst:.2f} over qt1, qt2 (tolerance 3)")

    def test_mode2_uncertainty_product_floor(self, ohmic_run):
        s = ohmic_run.series
        product = s.column("qt2") * s.column("pt2")
        se_rel = (s.se_column("qt2") / s.column("qt2")
                  + s.se_column("pt2") / s.column("pt2"))
        floor = 0.25 * (1.0 - 5.0 * se_rel)
        check("criterion 5c (uncertainty-product floor)",
              bool(np.all(product >= floor)),
              f"min product {product.min():.4f} (floor with statistical slack)")

    def test_mode2_matches_reduced_oracle(self, ohmic_run, paper_fundamental):
        series = ohmic_run.series
        _, var_q, var_p = mode2_variance_exact(SystemParams(), 1.0,
                                               fundamental=paper_fundamental)
        stride_idx = np.arange(0, 25001, 50)
        idx = np.unique(np.linspace(0, len(series.times) - 1, 50).astype(int))
        worst = 0.0
        for col, exact in ((1, var_q[stride_idx]), (3, var_p[stride_idx])):
            dev = np.abs(series.variances[idx, col] - exact[idx])
            z = dev / series.std_errors[idx, col]
            worst = max(worst, float(z.max()))
        check("criterion 5b (mode-2 MC vs reduced oracle)", worst <= 3.0,
              f"max |deviation|/SE = {worst:.2f} (tolerance 3)")


class TestCriterion6BathEquivalence:
    def test_ohmic_vs_thermostatted_oscillator(self, ohmic_run, nhc_run, ohmic_bath):
        coords, passed = compare_variance_series(ohmic_run.series, nhc_run.series)
        detail = ", ".join(f"{k}: {v.max_rel_dev:.3f}" for k, v in coords.items())
        check("criterion 6 (bath equivalence at max(5%, 3SE))", passed,
              f"max relative deviations {detail}; thermostat oscillator matched "
              f"to the reference-bath stiffness dressing (see ledger)")

    def test_record_n1_discretization_default(self, ohmic_run, ohmic_bath):
        # recorded for reference, not asserted: the N=1 discretization bath
        bath = nhc_from_ohmic(0.007, 3.0, 1.0)
        cfg = desk_config(bath=bath, n_traj=1000)
        res = run_ensemble(cfg)
        coords, passed = compare_variance_series(ohmic_run.series, res.series)
        detail = ", ".join(f"{k}: {v.max_rel_dev:.3f}" for k, v in coords.items())
        print(f"[ACCEPTANCE] criterion 6 note: N=1-discretization bath "
              f"(osc_freq=3.0) comparison {'passes' if passed else 'fails'}: {detail}",
              flush=True)


class TestCriterion7StabilityMap:
    def test_map_determinant_and_operating_point(self):
        t0 = time.perf_counter()
        smap = stability_map((0.0, 40.0), (0.0, 40.0), resolution=400, steps=4096)
        elapsed = time.perf_counter() - t0
        det_err = float(np.abs(smap.determinant - 1.0).max())
        ix = int(np.argmin(np.abs(smap.xs - 6.173)))
        iy = int(np.argmin(np.abs(smap.ys - 30.864)))
        point_ok = not smap.unstable[iy, ix]
        check("criterion 7a (det=1 and stable operating point)",
              det_err < 1e-10 and point_ok,
              f"max |det-1| = {det_err:.2e}; operating-point cell "
              f"|trace| = {smap.abs_trace[iy, ix]:.4f}; 400x400 map in {elapsed:.0f}s")

    def test_harmonic_column(self):
        a = np.linspace(0.05, 40.0, 400)
        steps = 2 ** 19
        m = monodromy(MathieuParams(a=a, q=0.0), steps=steps)
        err = float(np.abs((m[0, 0] + m[1, 1]) - 2 * np.cos(np.pi * np.sqrt(a))).max())
        check("criterion 7b (q=0 column matches 2cos(pi sqrt(a)))", err < 1e-8,
              f"max |trace error| = {err:.2e} over 400 points (tolerance 1e-8)")

    def test_random_cells_against_brute_force(self):
        rng = np.random.default_rng(4242)
        cells = []
        while len(cells) < 20:
            x, y = rng.uniform(0, 40, size=2)
            m = monodromy(MathieuParams.from_axes(x, y))
            trace = abs(float(m[0, 0] + m[1, 1]))
            if abs(trace - 2.0) < 1e-3 or 2.0 < trace < 2.1:
                continue   # boundary band excluded; thin shell just above 2
                           # cannot reach the 1e6 growth threshold in 50 periods
            cells.append((x, y, trace))
        x, y, trace = np.array(cells).T
        agree = np.array_equal(grows_unbounded(MathieuParams.from_axes(x, y)),
                               trace > 2.0)
        check("criterion 7c (20 random cells vs 50-period growth)", agree,
              "monodromy classification agrees with brute-force growth")


class TestCriterion8UnitConversion:
    def test_threshold_in_kelvin(self):
        t_si = to_kelvin(1.037, 3.93e13)
        check("criterion 8 (unit conversion)", abs(t_si - 311.1) <= 0.5,
              f"T'=1.037 at 3.93e13 rad/s -> {t_si:.2f} K (target 311.1 +- 0.5)")


SMALL_INI = """
[bath]
model = ohmic
n_modes = 12

[integrator]
n_steps = 400
stride = 20

[ensemble]
n_traj = 32
seed = 9
workers = 1

[output]
dir = {out}
prefix = det
"""


class TestCriterion9Determinism:
    def run_twice(self, tmp_path, command):
        out = tmp_path / "results"
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_INI.format(out=out))
        payloads = []
        for _ in range(2):
            assert main(command + ["--config", str(cfg)]) == 0
            files = {}
            for name in sorted(os.listdir(out)):
                with open(out / name, "rb") as fh:
                    files[name] = fh.read()
            payloads.append(files)
        return payloads

    def test_run_outputs_byte_identical(self, tmp_path):
        a, b = self.run_twice(tmp_path, ["run"])
        same = True
        for name in a:
            if name.endswith("_manifest.json"):
                ma = json.loads(a[name])
                mb = json.loads(b[name])
                ma.pop("timing")
                mb.pop("timing")
                same &= ma == mb
            else:
                same &= a[name] == b[name]
        check("criterion 9a (byte-identical run outputs)", same,
              f"{len(a)} files compared; manifests equal after dropping timing")

    def test_oracle_outputs_byte_identical(self, tmp_path):
        a, b = self.run_twice(tmp_path, ["oracle"])
        same = all(a[n] == b[n] for n in a if not n.endswith("_manifest.json"))
        check("criterion 9b (byte-identical oracle outputs)", same,
              "oracle CSV and threshold JSON identical across invocations")
