"""The benchmark's own tests: every workload at tiny size, untraced and
traced, in a few seconds each. Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

They fail when a workload's command fails or its outputs stop passing the
checks, when a metric named in BENCHMARK.json is not printed, and when a
traced name disappears from the package or stops being called.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# spans each workload must reach: the layer it exists to exercise
REQUIRED = {
    "ohmic-run": {"baths.ohmic_forces", "sampling.sample_ohmic_bath"},
    "nhc-sweep-oracle": {"integrate.step_nhc", "baths.nhc_bath_forces",
                         "sampling.init_nhc_bath", "driver.pool", "sampling.sample_system",
                         "sampling.trajectory_rng", "observables.VarianceAccumulator.merge",
                         "driver._oracle_threshold_auto", "oracle.fundamental_solution",
                         "stability.stability_map", "stability.monodromy",
                         "oracle.threshold_temperature"},
}


def _run(tmp_path, workload, trace):
    out = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    return final, json.loads(out.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    final, _ = _run(tmp_path, workload, 0)
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = final["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_traced_runs_call_every_wrapped_name(tmp_path):
    called = set()
    for workload in WORKLOADS:
        final, full = _run(tmp_path, workload, 1)
        assert final["correct"] and final["failed"] == 0
        assert set(final["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
        spans = set(full["spans_called"])
        assert REQUIRED[workload] <= spans, REQUIRED[workload] - spans
        # self times add up to the timed call, less the host's few
        # microseconds of bookkeeping outside the root span
        breakdown = full["breakdown"]
        assert breakdown["main_self_sum_s"] == pytest.approx(
            breakdown["traced_wall_s"], rel=0.02)
        called |= spans
    assert set(tracer.SPAN_NAMES) - called == set()


def test_missing_wrapped_name_fails_loudly():
    code = ("import sys; sys.path.insert(0, 'bench'); import sqzbath.cli, tracer; "
            "del sys.modules['sqzbath.integrate'].ohmic_forces; tracer.install('')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, env={"PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode != 0
    assert "sqzbath.integrate.ohmic_forces no longer exists" in proc.stderr


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
