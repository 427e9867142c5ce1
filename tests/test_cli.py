import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sqzbath import (ohmic_mode1_variances, read_variance_csv, stability,
                     to_physical_units)
from sqzbath.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_TRAJECTORY, _parse_grid, main
from sqzbath.config import ConfigError, build_run_config, config_hash, read_config_file

SMALL_INI = """
[bath]
model = ohmic
n_modes = 6

[integrator]
n_steps = 200
stride = 20

[ensemble]
n_traj = 24
seed = 7
workers = 1

[output]
dir = {out}
prefix = demo
"""


# this drive puts the relative mode inside an instability tongue: its
# fundamental solutions overflow within the default window
# (tests/test_oracle.py::test_overflow_raises)
OVERFLOW_INI = """
[system]
coupling_amp = 20.0
drive_freq = 20.0

[output]
dir = {out}
"""

# an isolated run whose step is far too large: by the last step one of 1000
# trajectories overflows to inf, and the other rows' variances overflow too
BLOWUP_INI = """
[bath]
model = isolated

[integrator]
dt = 0.6
n_steps = 2905
stride = 5

[ensemble]
n_traj = 1000
seed = 1

[output]
dir = {out}
"""


def cli_env():
    """The environment of a ``python -m sqzbath.cli`` child: this checkout's
    ``src`` first on its path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))


def write_ini(tmp_path, text):
    out = tmp_path / "results"
    path = tmp_path / "case.ini"
    path.write_text(text.format(out=out))
    return str(path), out


@pytest.fixture
def small_config(tmp_path):
    out = tmp_path / "results"
    path = tmp_path / "small.ini"
    path.write_text(SMALL_INI.format(out=out))
    return str(path), str(out)


class TestConfigLayer:
    def test_defaults_match_reference_setup(self):
        resolved = read_config_file(None)
        assert resolved["system"] == {"mass": 1.0, "spring_k": 1.25,
                                      "coupling_amp": 2.5, "drive_freq": 0.45,
                                      "carrier_freq_hz": 3.93e13,
                                      "frozen_coupling": False}
        assert resolved["bath"]["n_modes"] == 200
        assert resolved["bath"]["kondo"] == 0.007
        assert resolved["bath"]["cutoff"] == 3.0
        assert resolved["integrator"] == {"dt": 0.01, "n_steps": 25000,
                                          "yoshida": 3, "mts": 3, "stride": 25}
        assert resolved["ensemble"]["n_traj"] == 10000
        assert resolved["ensemble"]["temperature"] == 1.0
        assert resolved["thermostat"]["mass_eta1"] == 1.0

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[system]\nmas = 2.0\n")
        with pytest.raises(ConfigError, match="mas"):
            read_config_file(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[systems]\nmass = 2.0\n")
        with pytest.raises(ConfigError, match="systems"):
            read_config_file(str(path))

    def test_type_errors_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[ensemble]\nn_traj = many\n")
        with pytest.raises(ConfigError, match="n_traj"):
            read_config_file(str(path))

    @pytest.mark.parametrize("section, key", [
        ("ensemble", "temperature"), ("integrator", "dt"), ("system", "mass"),
        ("thermostat", "osc_freq"), ("thermostat", "coupling"),
    ])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_rejected(self, tmp_path, section, key, raw):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"{key}: not a finite number"):
            read_config_file(str(path))

    @pytest.mark.parametrize("section, key", [("ensemble", "temperature"),
                                              ("integrator", "dt")])
    def test_non_finite_run_exits_config_no_files(self, tmp_path, capsys,
                                                  section, key):
        text = SMALL_INI.replace(f"[{section}]\n", f"[{section}]\n{key} = nan\n")
        cfg, out = write_ini(tmp_path, text)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert not out.exists()
        assert "not a finite number" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config_file("/nonexistent/file.ini")

    def test_invalid_physics_becomes_config_error(self):
        resolved = read_config_file(None)
        resolved["ensemble"]["temperature"] = -1.0
        resolved["ensemble"]["n_traj"] = 8
        with pytest.raises(ConfigError):
            build_run_config(resolved)

    def test_hash_stability_and_sensitivity(self):
        a = read_config_file(None)
        b = read_config_file(None)
        assert config_hash(a) == config_hash(b)
        b["ensemble"]["seed"] = 999
        assert config_hash(a) != config_hash(b)

    def test_thermostat_overrides_applied(self):
        resolved = read_config_file(None)
        resolved["bath"]["model"] = "nhc"
        resolved["thermostat"]["osc_freq"] = 1.5
        resolved["thermostat"]["coupling"] = 0.3
        resolved["ensemble"]["n_traj"] = 8
        run, _, _ = build_run_config(resolved)
        assert run.bath.osc_freq == 1.5
        assert run.bath.coupling == 0.3


class TestRunCommand:
    def test_produces_outputs(self, small_config, capsys):
        cfg, out = small_config
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "demo_variance.csv"))
        assert os.path.exists(os.path.join(out, "demo_squeeze.json"))
        assert os.path.exists(os.path.join(out, "demo_manifest.json"))
        payload = json.loads(Path(out, "demo_squeeze.json").read_text())
        assert payload["n_traj"] == 24

    def test_determinism_across_invocations(self, small_config):
        cfg, out = small_config
        assert main(["run", "--config", cfg, "--seed", "7"]) == EXIT_OK
        first_csv = Path(out, "demo_variance.csv").read_bytes()
        first_squeeze = Path(out, "demo_squeeze.json").read_bytes()
        first_manifest = json.loads(Path(out, "demo_manifest.json").read_text())
        assert main(["run", "--config", cfg, "--seed", "7"]) == EXIT_OK
        assert Path(out, "demo_variance.csv").read_bytes() == first_csv
        assert Path(out, "demo_squeeze.json").read_bytes() == first_squeeze
        second_manifest = json.loads(Path(out, "demo_manifest.json").read_text())
        first_manifest.pop("timing")
        second_manifest.pop("timing")
        assert first_manifest == second_manifest

    def test_invalid_temperature_exits_config_no_files(self, tmp_path, capsys):
        out = tmp_path / "res"
        path = tmp_path / "bad.ini"
        path.write_text(f"[ensemble]\ntemperature = -1\n[output]\ndir = {out}\n")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert not out.exists()
        assert "temperature" in capsys.readouterr().err

    def test_negative_seed_exits_config_no_files(self, small_config, capsys):
        cfg, out = small_config
        assert main(["run", "--config", cfg, "--seed", "-1"]) == EXIT_CONFIG
        assert not os.path.exists(out)
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_trajectory_exits_trajectory_no_files(self, tmp_path, capsys):
        cfg, out = write_ini(tmp_path, BLOWUP_INI)
        assert main(["run", "--config", cfg]) == EXIT_TRAJECTORY
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "sqzbath: error: non-finite phase-space coordinates at step 2905\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_moments_exit_trajectory_no_files(self, tmp_path, capsys):
        # 105 steps fewer, every trajectory stays finite, but from step 1450
        # on the ensemble's squared deviations overflow
        cfg, out = write_ini(tmp_path, BLOWUP_INI.replace("n_steps = 2905",
                                                          "n_steps = 2800"))
        assert main(["run", "--config", cfg]) == EXIT_TRAJECTORY
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "sqzbath: error: non-finite ensemble moments at step 1450\n"

    @pytest.mark.parametrize("n_steps, message", [
        (2905, "non-finite phase-space coordinates at step 2905"),
        (2800, "non-finite ensemble moments at step 1450"),
    ], ids=["coordinates", "moments"])
    def test_aborted_run_prints_one_line(self, tmp_path, n_steps, message):
        # numpy's warnings reach a child's stderr, where capsys cannot see
        # them: an aborted run prints its error line and nothing else
        cfg, out = write_ini(tmp_path, BLOWUP_INI.replace("n_steps = 2905",
                                                          f"n_steps = {n_steps}"))
        proc = subprocess.run([sys.executable, "-m", "sqzbath.cli", "run", "--config", cfg],
                              env=cli_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_TRAJECTORY
        assert not out.exists()
        assert proc.stderr == f"sqzbath: error: {message}\n"

    # SHA-256 of the run outputs of SMALL_INI with each model, written to a
    # relative directory so that the digests do not depend on tmp_path. A
    # change to any output byte, or to the numerics under it, changes them.
    GOLDEN = {
        "isolated": ("2a8580134808846e2faa620f3360f4da8544abf9b15fd0f7c047abf27235c1c1",
                     "5261b10580c0372eb3dae9e40a2947e83b47076444b521f7c8cad39a5aac91b3"),
        "ohmic": ("bf112ef3ab25963f9871af5b85d1419a20336d1b3006728c26cd54fd24f1c57a",
                  "1af8f846c0b0488acde1909cc44a843781fba5aaef92de03e99e0bda63c99686"),
        "nhc": ("24989b9fb990199ed83080c678b2b863f9d4e3855a06ef21a9d8718591ba5878",
                "d2921279401ccd1459c666cb7c300091b60c9b422cf978325af24f6297eb2f26"),
    }

    @pytest.mark.parametrize("model", sorted(GOLDEN))
    def test_golden_outputs(self, tmp_path, monkeypatch, model):
        monkeypatch.chdir(tmp_path)
        Path("small.ini").write_text(
            SMALL_INI.replace("model = ohmic", f"model = {model}").format(out="results"))
        assert main(["run", "--config", "small.ini"]) == EXIT_OK
        digests = tuple(hashlib.sha256(Path("results", name).read_bytes()).hexdigest()
                        for name in ("demo_variance.csv", "demo_squeeze.json"))
        assert digests == self.GOLDEN[model]

    def test_header_carries_config_hash(self, small_config):
        cfg, out = small_config
        main(["run", "--config", cfg])
        head = Path(out, "demo_variance.csv").read_text().splitlines()[:6]
        assert any("config_hash" in line for line in head)
        assert any("seed: 7" in line for line in head)


class TestSweepCommand:
    def test_single_point_grid(self, small_config):
        cfg, out = small_config
        assert main(["sweep", "--config", cfg, "--grid", "1.0:1.0"]) == EXIT_OK
        payload = json.loads(Path(out, "demo_sweep.json").read_text())
        assert len(payload["rows"]) == 1
        assert not payload["mc_threshold_defined"]
        assert os.path.exists(os.path.join(out, "demo_T1.0000_variance.csv"))

    def test_oracle_only(self, small_config):
        cfg, out = small_config
        assert main(["sweep", "--config", cfg, "--grid", "0.95:1.05:0.05",
                     "--oracle-only"]) == EXIT_OK
        payload = json.loads(Path(out, "demo_sweep.json").read_text())
        assert payload["oracle_only"]
        assert len(payload["rows"]) == 3

    def test_full_and_oracle_only_share_oracle_minimum(self, small_config, tmp_path):
        # both paths take the minimum over every integration step, not only
        # over the observation stride
        cfg, out = small_config
        grid = ["--grid", "0.95:1.05:0.05"]
        assert main(["sweep", "--config", cfg] + grid) == EXIT_OK
        full = json.loads(Path(out, "demo_sweep.json").read_text())
        only_dir = str(tmp_path / "oracle_only")
        assert main(["sweep", "--config", cfg, "--oracle-only", "--out-dir", only_dir]
                    + grid) == EXIT_OK
        only = json.loads(Path(only_dir, "demo_sweep.json").read_text())
        assert ([r["oracle_min_variance"] for r in full["rows"]]
                == [r["oracle_min_variance"] for r in only["rows"]])

    # SHA-256 of the sweep outputs of SMALL_INI on two workers, two chunks
    # per temperature, written to a relative directory. A change to any
    # output byte, or to the numerics under it, changes them.
    GOLDEN = {"demo_sweep.json":
              "e18927c83ea56d87b3c60fc6c03953edc76a83cf4d8db3be185bf76a63e563b6",
              "demo_T0.9500_variance.csv":
              "b3bc3e6092cb944815de87ffd36fc4548f364c76395a3ea223116e19d6fb986e",
              "demo_T1.0500_variance.csv":
              "fe564896c8e4f65260d624b211dde193cf8f99c57629469336471f09b098d1b0"}

    def test_golden_outputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("small.ini").write_text(SMALL_INI.replace(
            "workers = 1", "workers = 2\nchunk_size = 12").format(out="results"))
        assert main(["sweep", "--config", "small.ini", "--grid", "0.95:1.05:0.1"]) == EXIT_OK
        digests = {name: hashlib.sha256(Path("results", name).read_bytes()).hexdigest()
                   for name in self.GOLDEN}
        assert digests == self.GOLDEN

    def test_bad_grid(self, small_config, capsys):
        cfg, _ = small_config
        assert main(["sweep", "--config", cfg, "--grid", "2:1:0.1"]) == EXIT_CONFIG

    @pytest.mark.parametrize("grid", ["1:inf:0.1", "1:nan:0.1", "nan:1:0.1",
                                      "1:2:inf", "inf:inf"])
    def test_non_finite_grid(self, small_config, capsys, grid):
        cfg, out = small_config
        assert main(["sweep", "--config", cfg, "--oracle-only",
                     "--grid", grid]) == EXIT_CONFIG
        assert not os.path.exists(out)
        assert "values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("oracle_only", [["--oracle-only"], []],
                             ids=["oracle-only", "full"])
    @pytest.mark.parametrize("grid", ["0:0.2:0.1", "-0.1:0.1:0.1", "0:0"])
    def test_non_positive_grid(self, small_config, capsys, grid, oracle_only):
        cfg, out = small_config
        assert main(["sweep", "--config", cfg, f"--grid={grid}"]
                    + oracle_only) == EXIT_CONFIG
        assert not os.path.exists(out)
        assert "temperatures must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["sweep", "--oracle-only", "--grid", "1:1"],
                                      ["sweep", "--grid", "1:1"], ["oracle"]],
                             ids=["sweep-oracle-only", "sweep", "oracle"])
    def test_trajectory_failure_exits_trajectory(self, tmp_path, capsys, args):
        cfg, out = write_ini(tmp_path, OVERFLOW_INI)
        assert main(args + ["--config", cfg]) == EXIT_TRAJECTORY
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("sqzbath: error: non-finite") and "Traceback" not in err

    def test_grid_ends_at_stop(self):
        # the grid holds every step up to stop, and none past it
        assert _parse_grid("0.95:1.06:0.04") == pytest.approx([0.95, 0.99, 1.03])
        assert _parse_grid("0.9:1.1:0.1") == pytest.approx([0.9, 1.0, 1.1])
        assert len(_parse_grid("0.95:1.06:0.01")) == 12


class TestStabilityCommand:
    def test_small_map(self, small_config):
        cfg, out = small_config
        assert main(["stability", "--config", cfg, "--window", "0:8:0:8",
                     "--resolution", "10", "--steps", "512"]) == EXIT_OK
        lines = Path(out, "demo_stability.csv").read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert len(data_lines) == 1 + 100

    def test_point_query(self, capsys):
        assert main(["stability", "--point", "6.173", "30.864"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "abs_trace=" in out and "unstable=0" in out

    def test_point_overflow_exits_with_message(self, capsys):
        assert main(["stability", "--point", "1.5e7", "1.5e7",
                     "--steps", "256"]) == EXIT_CONFIG
        assert "overflow" in capsys.readouterr().err

    def test_point_and_map_share_one_classification(self, small_config, capsys,
                                                    monkeypatch):
        # widening the module's marginal band moves both paths alike
        monkeypatch.setattr(stability, "MARGINAL_TOL", 0.5)
        cfg, out = small_config
        assert main(["stability", "--config", cfg, "--window", "0:8:0:8",
                     "--resolution", "4", "--steps", "512"]) == EXIT_OK
        lines = Path(out, "demo_stability.csv").read_text().splitlines()
        cells = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert any(abs(float(c[2]) - 2) > 1e-3 and c[4] == "1" for c in cells)
        capsys.readouterr()
        for x, y, _, unstable, marginal in cells:
            assert main(["stability", "--point", x, y, "--steps", "512"]) == EXIT_OK
            assert (f"unstable={unstable} marginal={marginal}"
                    in capsys.readouterr().out)

    @pytest.mark.parametrize("args, message", [
        (["--steps", "0"], "steps must be >= 256"),
        (["--steps", "-5"], "steps must be >= 256"),
        (["--steps", "3"], "steps must be >= 256"),
        (["--resolution", "0"], "resolution must be >= 1"),
    ])
    def test_bad_map_arguments_exit_config_no_files(self, small_config, capsys,
                                                    args, message):
        cfg, out = small_config
        assert main(["stability", "--config", cfg, "--resolution", "4"]
                    + args) == EXIT_CONFIG
        assert not os.path.exists(out)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["nan:1:0:1", "0:inf:0:1", "0:1:-inf:1",
                                        "0:1:0:nan"])
    def test_non_finite_window(self, small_config, capsys, window):
        cfg, out = small_config
        assert main(["stability", "--config", cfg, "--window", window,
                     "--resolution", "4", "--steps", "512"]) == EXIT_CONFIG
        assert not os.path.exists(out)
        assert "values must be finite" in capsys.readouterr().err

    def test_degenerate_window(self, capsys):
        assert main(["stability", "--window", "0:0:0:40"]) == EXIT_CONFIG
        assert "degenerate" in capsys.readouterr().err


class TestCompareBathsCommand:
    def test_writes_agreement(self, small_config):
        cfg, out = small_config
        assert main(["compare-baths", "--config", cfg]) == EXIT_OK
        payload = json.loads(Path(out, "demo_bath_agreement.json").read_text())
        assert set(payload["coords"]) == {"qt1", "qt2", "pt1", "pt2"}
        assert payload["coords"]["qt2"]["max_rel_dev"] < 1e-9

    def test_invalid_thermostat_mass(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[thermostat]\nmass_eta1 = -1\n[bath]\nmodel = nhc\n"
                        "[ensemble]\nn_traj = 8\n")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG


class TestOracleCommand:
    def test_outputs(self, small_config):
        cfg, out = small_config
        assert main(["oracle", "--config", cfg]) == EXIT_OK
        csv = os.path.join(out, "demo_oracle_variance.csv")
        assert os.path.exists(csv)
        series = read_variance_csv(csv)
        assert np.all(series.std_errors == 0.0)
        payload = json.loads(Path(out, "demo_threshold.json").read_text())
        assert "anywhere" in payload and "sustained" in payload
        assert "bracket" not in payload
        assert set(payload["anywhere"]) == {"temperature", "definition", "tolerance",
                                            "min_variance", "temperature_K"}
        assert payload["anywhere"]["tolerance"] > 0

    @staticmethod
    def oracle_csv(tmp_path, model, capsys):
        tmp_path.mkdir(exist_ok=True)
        cfg, out = write_ini(tmp_path, SMALL_INI.replace("ohmic", model))
        assert main(["oracle", "--config", cfg]) == EXIT_OK
        return cfg, read_variance_csv(out / "demo_oracle_variance.csv"), capsys.readouterr().out

    def test_ohmic_mode1_columns(self, tmp_path, capsys):
        cfg, series, _ = self.oracle_csv(tmp_path, "ohmic", capsys)
        run_cfg, _, _ = build_run_config(read_config_file(cfg))
        var_q1, var_p1 = ohmic_mode1_variances(run_cfg.system, run_cfg.bath,
                                               run_cfg.temperature, run_cfg.sampling,
                                               config=run_cfg.integrator)
        # the CSV's repr round-trips every float
        assert series.column("qt1").tobytes() == var_q1.tobytes()
        assert series.column("pt1").tobytes() == var_p1.tobytes()
        assert series.column("qt1").max() > 1.001 * series.column("qt1")[0]

    def test_nhc_mode1_columns_are_nan(self, tmp_path, capsys):
        _, nhc, line = self.oracle_csv(tmp_path / "nhc", "nhc", capsys)
        _, isolated, _ = self.oracle_csv(tmp_path / "isolated", "isolated", capsys)
        assert np.isnan(nhc.column("qt1")).all() and np.isnan(nhc.column("pt1")).all()
        assert np.array_equal(nhc.column("qt2"), isolated.column("qt2"))
        assert np.array_equal(nhc.column("pt2"), isolated.column("pt2"))
        assert "var_q1, var_p1 written as nan" in line
        threshold = [json.loads(Path(tmp_path, m, "results", "demo_threshold.json")
                                .read_text()) for m in ("nhc", "isolated")]
        for payload in threshold:
            payload.pop("config_hash")
        assert threshold[0] == threshold[1]

    def test_threshold_in_kelvin_on_console(self, small_config, capsys):
        cfg, out = small_config
        assert main(["oracle", "--config", cfg]) == EXIT_OK
        anywhere = json.loads(Path(out, "demo_threshold.json").read_text())["anywhere"]
        assert anywhere["temperature_K"] == to_physical_units(
            anywhere["temperature"], "temperature", 3.93e13)
        assert f"({anywhere['temperature_K']:.1f} K)" in capsys.readouterr().out

    def test_ohmic_csv_byte_identical_across_processes(self, small_config):
        # one BLAS thread count in both: eigh and matrix products may round
        # differently under another thread count
        cfg, out = small_config
        payloads = []
        for _ in range(2):
            subprocess.run([sys.executable, "-m", "sqzbath.cli", "oracle", "--config", cfg],
                           env=cli_env(), check=True, capture_output=True, timeout=120)
            payloads.append(Path(out, "demo_oracle_variance.csv").read_bytes())
        assert payloads[0] == payloads[1]

    # SHA-256 of the oracle outputs of SMALL_INI with each model, written to
    # a relative directory: (threshold JSON, oracle CSV, console line). They
    # guard the kelvin values byte for byte. The Ohmic CSV is left out: its
    # last bits follow the BLAS thread count.
    GOLDEN = {
        "isolated": ("30e6dbe80f193d1dc69625efdf1f221de527abea07e4cc1c91b02d5a34e24092",
                     "3552233c5066fae041b968f7e9d876467ab62cffaf6627493424eca4b7af93a8",
                     "28f5dddc61f280f824da8b9574d5c4734f587af15a15d030ed2f3aaac127fcf1"),
        "ohmic": ("a229ddbd9cfa1126742174698b2c0c4c7052ed6084281e5ee0b20b921bd0e6a8",
                  None,
                  "28f5dddc61f280f824da8b9574d5c4734f587af15a15d030ed2f3aaac127fcf1"),
        "nhc": ("1055119cbd34e4cb730a8e6a7c36edf1ffdaae32fe1dae6317057e5fe7b8a860",
                "c7eda527217f80f28e3ea1822109ed5ba86f0363c4a13f9eff634a79983ebdee",
                "f3121d65fdc417b6ac7ae0e0f5bcf01da770a23d0d56fecc9d276ff089736221"),
    }

    @pytest.mark.parametrize("model", sorted(GOLDEN))
    def test_golden_outputs(self, tmp_path, monkeypatch, capsys, model):
        monkeypatch.chdir(tmp_path)
        Path("small.ini").write_text(
            SMALL_INI.replace("model = ohmic", f"model = {model}").format(out="results"))
        assert main(["oracle", "--config", "small.ini"]) == EXIT_OK
        json_digest, csv_digest, line_digest = self.GOLDEN[model]
        sha = lambda data: hashlib.sha256(data).hexdigest()
        assert sha(Path("results", "demo_threshold.json").read_bytes()) == json_digest
        if csv_digest is not None:
            assert sha(Path("results", "demo_oracle_variance.csv").read_bytes()) == csv_digest
        assert sha(capsys.readouterr().out.encode()) == line_digest


class TestDependencies:
    def test_cli_import_loads_no_scipy(self):
        probe = ("import sys, sqzbath.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe], env=cli_env(),
                              capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout == "[]\n"


class TestObservationGrid:
    GRID_INI = """
[bath]
model = isolated

[integrator]
dt = 0.003
n_steps = 3000
stride = 7

[ensemble]
n_traj = 8

[output]
dir = {out}
prefix = grid
"""

    @staticmethod
    def t_prime(path):
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        return [row.split(",", 1)[0] for row in rows[1:]]

    def test_run_and_oracle_write_one_grid(self, tmp_path):
        # k * (stride * dt) and (k * stride) * dt differ in the last bit
        # for some k at this dt and stride
        cfg, out = write_ini(tmp_path, self.GRID_INI)
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert main(["oracle", "--config", cfg]) == EXIT_OK
        run = self.t_prime(out / "grid_variance.csv")
        oracle = self.t_prime(out / "grid_oracle_variance.csv")
        assert len(run) == 3000 // 7 + 1
        assert run == oracle


class TestPlotCommand:
    def test_emits_scripts(self, small_config):
        cfg, out = small_config
        main(["run", "--config", cfg])
        main(["stability", "--config", cfg, "--window", "0:4:0:4",
              "--resolution", "4", "--steps", "512"])
        assert main(["plot", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "plot_variance.py"))
        scripts = [f for f in os.listdir(out) if f.startswith("plot_")]
        assert len(scripts) == 2

    def test_missing_results(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["plot", str(empty)]) == EXIT_IO
        assert main(["plot", str(tmp_path / "nope")]) == EXIT_IO
