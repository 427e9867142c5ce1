#!/usr/bin/env python3
"""The sqzbath benchmark: four command workloads, timed end to end, checked,
and broken down per layer in a separate traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--smoke] [--out RESULT.json]

Every command runs through the public CLI (``sqzbath.cli.main``, the entry
point of ``python -m sqzbath.cli``) in a command host process with ``src`` on
``PYTHONPATH``; the package is not installed. The seed only reaches the
program as ``--seed``. See ``bench/README.md`` for the workloads, the metrics
and which layer metric should move which end-to-end metric.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced repeats and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. All scratch files go
under ``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Monte Carlo variances must agree with the exact oracle to within this many
# of their own standard errors at every observation point. About 250
# correlated comparisons per command; a 5-sigma excursion of a Gaussian has
# probability 6e-7.
Z_BOUND = 5.0
# |det M - 1| of every stability-map cell and of the single-cell monodromy.
DET_TOL = 1e-9
# sweep --oracle-only minima against coth(w/2T) * (minimum vacuum variance)
ORACLE_SCALING_RTOL = 1e-9

SETUP_PROBES = 9
# Timed repeats rotate over this many host processes of each kind: the speed
# of one interpreter process differs from another's by a few percent (memory
# layout), an offset that repeats inside one process cannot average out.
HOSTS = 3
COMMAND_TIMEOUT_S = 100
# Floating-point operations of one stability-map cell-step in
# stability._propagate_fundamental: k = a - 2q*cos (3), three updates of the
# form v -= half*k*y (3 each, four of them) and two y += dt*v (2 each).
MAP_FLOPS_PER_CELL_STEP = 19

LAYERS = ("system", "baths", "integrate", "sampling", "observables", "driver",
          "oracle", "stability", "config", "cli")


def ohmic_flops_per_row(n_modes: int) -> int:
    """One ohmic_forces call, one trajectory row of N bath modes: pos @ c
    (2N), q1 + q2 (1), outer product (N), freqs**2 * pos (N), subtraction (N).
    The (N,) freqs**2 is shared by the batch and left out."""
    return 5 * n_modes + 1


def ohmic_bytes_per_row(n_modes: int) -> int:
    """Bytes moved by the same call for one row, 8-byte floats, counting each
    array operand read or written once (cache effects ignored): matvec reads
    pos; the outer product writes N; the scale reads pos and writes N; the
    subtraction reads two N-arrays and writes one; q1 + q2 and the kick 32."""
    return 8 * 7 * n_modes + 32


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict               # placeholder -> INI template, formatted with the sizes
    sizes: dict                 # "full" and "smoke" size parameters
    commands: tuple             # CLI argument templates
    # phase-space trajectory-steps one repeat integrates, from the sizes:
    # ensemble trajectories, the two rows of each fundamental solution, and
    # one trajectory per stability-map cell
    traj_steps: object


RUN = ("run", "--config", "{cfg}", "--seed", "{seed}", "--out-dir", "{out}")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ohmic-run",
        configs={"cfg": "[bath]\nmodel = ohmic\nn_modes = 200\nkondo = 0.007\n"
                        "cutoff = 3.0\n"
                        "[integrator]\ndt = 0.01\nn_steps = {n_steps}\nstride = 25\n"
                        "[ensemble]\nn_traj = {n_traj}\nchunk_size = 500\nworkers = 1\n"},
        sizes={"full": {"n_traj": 500, "n_steps": 500},
               "smoke": {"n_traj": 20, "n_steps": 50}},
        commands=(RUN,),
        traj_steps=lambda z: z["n_traj"] * z["n_steps"]),
    # One workload for every narrow-array and bath-free path: the NHC run,
    # the isolated-model sweep and the exact-map commands. Kept apart, the
    # NHC run alone spread by up to 29% over ten runs on a noisy 2-vCPU host
    # (see README.md); the trace still splits the workload per command.
    Workload(
        name="nhc-sweep-oracle",
        configs={"cfg": "[bath]\nmodel = nhc\n"
                        "[integrator]\ndt = 0.01\nn_steps = {nhc_steps}\nstride = 25\n"
                        "yoshida = 3\nmts = 3\n"
                        "[ensemble]\nn_traj = {nhc_traj}\nchunk_size = 500\nworkers = 1\n",
                 "sweep_cfg": "[bath]\nmodel = isolated\n"
                              "[integrator]\ndt = 0.01\nn_steps = {n_steps}\nstride = 25\n"
                              "[ensemble]\nn_traj = {n_traj}\nchunk_size = {chunk}\n"
                              "workers = 2\n",
                 "oracle_cfg": "[integrator]\nn_steps = {oracle_steps}\n"},
        sizes={"full": {"nhc_traj": 500, "nhc_steps": 1000,
                        "n_traj": 10000, "n_steps": 500, "chunk": 500,
                        "oracle_steps": 10000, "res": 100, "map_steps": 4096},
               "smoke": {"nhc_traj": 20, "nhc_steps": 50,
                         "n_traj": 200, "n_steps": 50, "chunk": 50,
                         "oracle_steps": 500, "res": 6, "map_steps": 256}},
        commands=(RUN,
                  ("sweep", "--config", "{sweep_cfg}", "--seed", "{seed}",
                   "--grid", "0.9:1.1:0.1", "--out-dir", "{out}"),
                  ("oracle", "--config", "{oracle_cfg}", "--seed", "{seed}",
                   "--out-dir", "{out}"),
                  ("sweep", "--oracle-only", "--config", "{oracle_cfg}", "--seed", "{seed}",
                   "--out-dir", "{out}"),
                  ("stability", "--config", "{oracle_cfg}", "--resolution", "{res}",
                   "--steps", "{map_steps}", "--out-dir", "{out}"),
                  ("stability", "--config", "{oracle_cfg}", "--point", "6.173", "30.864",
                   "--steps", "{map_steps}")),
        traj_steps=lambda z: (z["nhc_traj"] * z["nhc_steps"]
                              + 3 * z["n_traj"] * z["n_steps"] + 2 * z["n_steps"]
                              + 2 * 2 * z["oracle_steps"]
                              + z["res"] ** 2 * z["map_steps"] + z["map_steps"])),
)}


# ---------------------------------------------------------------- machine

def _lscpu() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    return {k.strip(): v.strip() for k, _, v in
            (line.partition(":") for line in out.splitlines()) if v}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_facts() -> dict:
    """What the numbers depend on besides the code; compare only runs whose
    facts agree (BLAS threading alone moved ohmic-run by about 8%)."""
    import numpy
    import scipy

    cpu = _lscpu()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name"),
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------- commands

@dataclass
class CommandResult:
    args: list
    out_dir: Path
    exit_code: int
    stdout: str
    report: dict
    worker_states: list


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Host:
    """A ``clirun.py serve`` process that runs CLI commands one at a time.

    Interpreter start and ``import sqzbath.cli`` are paid once per host, so
    the run's time goes into the commands; set-up is measured on its own.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.proc = None
        self.import_times = []

    def _start(self) -> None:
        cmd = [sys.executable, str(BENCH / "clirun.py"), "serve"]
        self.proc = subprocess.Popen(cmd + (["--trace"] if self.traced else []),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=_env(), cwd=ROOT)
        hello = self._reply()
        if hello is None:
            raise RuntimeError("command host failed to start")
        self.import_times.append(hello["import_s"])

    def _reply(self):
        ready, _, _ = select.select([self.proc.stdout], [], [], COMMAND_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def run(self, args, out_dir: Path, scratch: Path) -> CommandResult:
        if self.proc is None:
            self._start()
        worker_dir = scratch / "workers"
        worker_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        self.proc.stdin.write(json.dumps({"args": list(args),
                                          "worker_dir": str(worker_dir)}) + "\n")
        self.proc.stdin.flush()
        report = self._reply()
        if report is None:              # hung or died: the command failed
            print(f"  command host lost during: {' '.join(args)}", file=sys.stderr)
            self.proc.kill()
            self.close()
            report = {"exit_code": -1, "stdout": "", "wall_s": time.perf_counter() - t0,
                      "peak_rss_kb": {}}
        workers = [json.loads(p.read_text()) for p in sorted(worker_dir.glob("*.json"))]
        return CommandResult(list(args), out_dir, report["exit_code"], report["stdout"],
                             report, workers)

    def close(self) -> None:
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def setup_probe(cfg_path: Path) -> float:
    """Seconds for interpreter start + import + config resolution."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "clirun.py"), "setup",
                           str(cfg_path)], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return elapsed


def output_digest(res: CommandResult) -> str:
    """Hash of every output file and the console line; the manifest's timing
    block is the one part allowed to differ between repeats."""
    h = hashlib.sha256(res.stdout.encode())
    if res.out_dir.exists():
        for path in sorted(res.out_dir.rglob("*")):
            data = path.read_bytes()
            if path.name.endswith("_manifest.json"):
                manifest = json.loads(data)
                manifest.pop("timing", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# ----------------------------------------------------------------- checks

class Checker:
    """Correctness checks of command outputs against the exact oracles."""

    def __init__(self, cfg_path: Path):
        import numpy as np
        from sqzbath import config, oracle, stability, system

        self.np = np
        self.oracle, self.stability = oracle, stability
        self.run_cfg, _, _ = config.build_run_config(config.read_config_file(str(cfg_path)))
        self.omega = system.normal_mode_freqs(0.0, self.run_cfg.system)[0]
        self._fund = {}
        self.info = {"max_abs_z": 0.0, "threshold_err": 0.0, "det_err": 0.0}

    def fundamental(self, n_steps: int):
        if n_steps not in self._fund:
            self._fund[n_steps] = self.oracle.fundamental_solution(
                self.run_cfg.system, dt=self.run_cfg.integrator.dt, n_steps=n_steps)
        return self._fund[n_steps]

    def min_vacuum(self, n_steps: int) -> float:
        """Minimum relative-mode vacuum variance: every thermal curve is this
        vacuum curve scaled by coth(w / 2T)."""
        _, var_q, _ = self.oracle.mode2_variance_exact(
            self.run_cfg.system, 1.0, self.run_cfg.sampling,
            fundamental=self.fundamental(n_steps))
        return float(var_q.min()) * math.tanh(self.omega / 2.0)

    def closed_form_threshold(self, n_steps: int) -> float:
        return self.omega / (2.0 * math.atanh(2.0 * self.min_vacuum(n_steps)))

    def _z(self, name, mc, se, exact) -> list:
        z = self.np.abs(mc - exact) / se
        worst = float(z.max())
        self.info["max_abs_z"] = max(self.info["max_abs_z"], worst)
        return [] if worst <= Z_BOUND else [f"{name}: max |z| {worst:.2f} > {Z_BOUND}"]

    def variance_csv(self, path: Path, temperature: float, mode1: bool) -> list:
        np = self.np
        cfg = self.run_cfg.integrator
        # names=True would take the first "#" header line for the column names
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        data = np.genfromtxt(lines, delimiter=",", names=True)
        idx = np.arange(0, cfg.n_steps + 1, cfg.stride)
        errors = []
        if not np.allclose(data["t_prime"], idx * cfg.dt, rtol=0, atol=1e-9):
            errors.append(f"{path.name}: observation times differ from the grid")
        if np.any(data["n"] != self.run_cfg.n_traj):
            errors.append(f"{path.name}: trajectories lost (n < {self.run_cfg.n_traj})")
        _, var_q, var_p = self.oracle.mode2_variance_exact(
            self.run_cfg.system, temperature, self.run_cfg.sampling,
            fundamental=self.fundamental(cfg.n_steps))
        errors += self._z(f"{path.name} qt2", data["var_q2"], data["se_q2"], var_q[idx])
        errors += self._z(f"{path.name} pt2", data["var_p2"], data["se_p2"], var_p[idx])
        if mode1:
            var_q1, var_p1 = self.thermal_widths(temperature)
            errors += self._z(f"{path.name} qt1", data["var_q1"], data["se_q1"], var_q1)
            errors += self._z(f"{path.name} pt1", data["var_p1"], data["se_p1"], var_p1)
        return errors

    def thermal_widths(self, temperature: float) -> tuple:
        """(var_q, var_p) of the undriven centre-of-mass mode, written out
        here rather than taken from the package's sampler."""
        m, w = self.run_cfg.system.mass, self.omega
        if self.run_cfg.sampling.value == "quantum":
            th = math.tanh(w / (2.0 * temperature))
            return 1.0 / (2.0 * m * w * th), m * w / (2.0 * th)
        return temperature / (m * w ** 2), m * temperature

    def threshold(self, result: dict, n_steps: int, where: str) -> list:
        if result is None:
            return [f"{where}: no threshold reported"]
        err = abs(result["temperature"] - self.closed_form_threshold(n_steps))
        self.info["threshold_err"] = max(self.info["threshold_err"], err)
        if err > result["tolerance"]:
            return [f"{where}: threshold off the closed form by {err:.3g} "
                    f"> tolerance {result['tolerance']}"]
        return []

    def check(self, res: CommandResult) -> list:
        """Error messages for one command; empty when its outputs are right."""
        if res.exit_code != 0:
            return [f"exit code {res.exit_code}"]
        args = res.args
        model = self.run_cfg.model.value
        out = res.out_dir
        n_steps = self.run_cfg.integrator.n_steps
        if args[0] == "run":
            squeeze = json.loads((out / "run_squeeze.json").read_text())
            errors = [] if squeeze["n_failed"] == 0 else [f"n_failed = {squeeze['n_failed']}"]
            return errors + self.variance_csv(out / "run_variance.csv",
                                              self.run_cfg.temperature,
                                              mode1=model == "isolated")
        if args[0] == "sweep" and "--oracle-only" in args:
            rows = json.loads((out / "run_sweep.json").read_text())["rows"]
            vac = self.min_vacuum(n_steps)
            errors = []
            for row in rows:
                want = vac / math.tanh(self.omega / (2.0 * row["temperature"]))
                if abs(row["oracle_min_variance"] / want - 1) > ORACLE_SCALING_RTOL:
                    errors.append(f"oracle-only T={row['temperature']}: minimum "
                                  f"{row['oracle_min_variance']!r} != {want!r}")
            return errors
        if args[0] == "sweep":
            sweep = json.loads((out / "run_sweep.json").read_text())
            errors = self.threshold(sweep["oracle_threshold"], n_steps, "sweep")
            for row in sweep["rows"]:
                temp = row["temperature"]
                errors += self.variance_csv(out / f"run_T{temp:.4f}_variance.csv",
                                            temp, mode1=model == "isolated")
            return errors
        if args[0] == "oracle":
            payload = json.loads((out / "run_threshold.json").read_text())
            return self.threshold(payload["anywhere"], n_steps, "oracle anywhere")
        if args[0] == "stability":
            return self.stability_output(res)
        return [f"no check for command {args[0]!r}"]

    def stability_output(self, res: CommandResult) -> list:
        np = self.np
        args = res.args
        steps = int(args[args.index("--steps") + 1])
        if "--point" in args:
            i = args.index("--point")
            x, y = float(args[i + 1]), float(args[i + 2])
            m = self.stability.monodromy(self.stability.MathieuParams.from_axes(x, y),
                                         steps=steps)
            det_err = abs(float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) - 1.0)
            printed = res.stdout.split("abs_trace=")[1].split()[0]
            errors = [] if printed == repr(abs(float(m[0, 0] + m[1, 1]))) else \
                [f"point abs_trace {printed} differs from the monodromy trace"]
        else:
            res_n = int(args[args.index("--resolution") + 1])
            smap = self.stability.stability_map((0.0, 40.0), (0.0, 40.0),
                                                resolution=res_n, steps=steps)
            rows = [line.split(",") for line in
                    (res.out_dir / "run_stability.csv").read_text().splitlines()
                    if not line.startswith("#")][1:]
            # under numpy 2 the program writes these cells as "np.float64(...)"
            traces = [float(r[2].removeprefix("np.float64(").removesuffix(")"))
                      for r in rows]
            errors = [] if traces == smap.abs_trace.ravel().tolist() \
                else ["stability CSV traces differ from the map whose det is checked"]
            det_err = float(np.abs(smap.determinant - 1.0).max())
        self.info["det_err"] = max(self.info["det_err"], det_err)
        if det_err > DET_TOL:
            errors.append(f"max |det M - 1| = {det_err:.3g} > {DET_TOL}")
        return errors


# ---------------------------------------------------------------- metrics

def _merge(states) -> dict:
    spans, counts = {}, {}
    for st in states:
        for name, (calls, total, self_ns) in st["spans"].items():
            rec = spans.setdefault(name, [0, 0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_ns
        for name, value in st["counts"].items():
            if name == "baths.ohmic_modes":     # a size, the same in every call
                counts[name] = value
            else:
                counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_busy(spans: dict) -> dict:
    """Busy ns per layer: self time over the command process and every pool
    worker; the time the command process spends waiting on its pool is idle."""
    busy = {layer: 0 for layer in LAYERS}
    for name, (_, _, self_ns) in spans.items():
        if name != "driver.pool":
            busy[name.split(".")[0]] += self_ns
    return busy


def command_breakdown(traced: list, n_commands: int) -> list:
    """Per command of the workload: traced wall, layer shares, top spans."""
    out = []
    for c in range(n_commands):
        results = traced[c::n_commands]
        spans = _merge([r.report.get("trace", {"spans": {}, "counts": {}}) for r in results]
                       + [s for r in results for s in r.worker_states])["spans"]
        busy = layer_busy(spans)
        total = sum(busy.values())
        top = sorted(spans.items(), key=lambda kv: -kv[1][1])[:6]
        out.append({"command": " ".join(results[0].args[:2]),
                    "traced_wall_s": sum(r.report["wall_s"] for r in results) / len(results),
                    "shares": {k: _ratio(v, total) for k, v in busy.items() if v},
                    "top_spans_total_s": {k: v[1] / 1e9 / len(results) for k, v in top}})
    return out


def layer_metrics(traced: list, untraced_walls: list, traced_walls: list,
                  import_times: list) -> tuple:
    """Per-layer metrics from the traced repeats; also the layer breakdown."""
    n_it = len(traced_walls)
    main = _merge([r.report.get("trace", {"spans": {}, "counts": {}}) for r in traced])
    workers = _merge([s for r in traced for s in r.worker_states])
    both = _merge([main, workers])
    spans, counts = both["spans"], both["counts"]

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def total(name):
        return spans.get(name, [0, 0, 0])[1]

    def self_ns(name):
        return spans.get(name, [0, 0, 0])[2]

    traj_step_n = counts.get("integrate.traj_steps", 0)
    step_n = counts.get("integrate.steps", 0)
    n_modes = counts.get("baths.ohmic_modes", 0)
    ohmic_per_step = _ratio(calls("baths.ohmic_forces"), step_n)
    pool_slots = _ratio(counts.get("driver.pool_worker_slots", 0),
                        counts.get("driver.pool_starts", 0))
    worker_busy = workers["spans"].get("driver._run_chunk", [0, 0, 0])[1]
    m = {
        "baths.ohmic_forces.ns_per_traj_step": _ratio(total("baths.ohmic_forces"), traj_step_n),
        "baths.ohmic_forces.calls_per_step": ohmic_per_step,
        "baths.ohmic_forces.computed_flops_per_traj_step":
            ohmic_per_step * ohmic_flops_per_row(n_modes) if n_modes else 0.0,
        "baths.ohmic_forces.computed_bytes_per_traj_step":
            ohmic_per_step * ohmic_bytes_per_row(n_modes) if n_modes else 0.0,
        "integrate.step_hamiltonian.self_ns_per_traj_step":
            _ratio(self_ns("integrate.step_hamiltonian"), traj_step_n),
        "integrate.step_nhc.self_ns_per_traj_step":
            _ratio(self_ns("integrate.step_nhc"), traj_step_n),
        "baths.nhc_bath_forces.ns_per_traj_step":
            _ratio(total("baths.nhc_bath_forces"), traj_step_n),
        "integrate.integrate.self_ns_per_step": _ratio(self_ns("integrate.integrate"), step_n),
        "system.system_force.ns_per_traj_step": _ratio(total("system.system_force"), traj_step_n),
        "system.to_normal_modes.ns_per_traj_obs":
            _ratio(total("system.to_normal_modes"), counts.get("integrate.traj_obs", 0)),
        "sampling.trajectory_rng.ns_per_traj":
            _ratio(total("sampling.trajectory_rng"), calls("sampling.trajectory_rng")),
        "sampling.sample_system.ns_per_traj":
            _ratio(total("sampling.sample_system"), calls("sampling.sample_system")),
        "sampling.sample_ohmic_bath.ns_per_traj":
            _ratio(total("sampling.sample_ohmic_bath"), calls("sampling.sample_ohmic_bath")),
        "sampling.init_nhc_bath.ns_per_traj":
            _ratio(total("sampling.init_nhc_bath"), calls("sampling.init_nhc_bath")),
        "observables.VarianceAccumulator.add_block.ns_per_traj_obs":
            _ratio(total("observables.VarianceAccumulator.add_block"),
                   counts.get("observables.add_block.traj_obs", 0)),
        "observables.VarianceAccumulator.merge.calls":
            calls("observables.VarianceAccumulator.merge") / n_it,
        "observables.write_variance_csv.s": total("observables.write_variance_csv") / 1e9 / n_it,
        "observables.write_variance_csv.bytes":
            counts.get("observables.write_variance_csv.bytes", 0) / n_it,
        "driver.run_ensemble.self_s": self_ns("driver.run_ensemble") / 1e9 / n_it,
        "driver.chunks": calls("driver._run_chunk") / n_it,
        "driver.pool_starts": counts.get("driver.pool_starts", 0) / n_it,
        "driver.worker_busy_s": total("driver._run_chunk") / 1e9 / n_it,
        "driver.parallel_efficiency":
            _ratio(worker_busy, pool_slots * main["spans"].get("driver.pool", [0, 0, 0])[1]),
        "driver.traj_failed_frac":
            _ratio(counts.get("driver.traj_failed", 0), counts.get("driver.traj", 0)),
        "oracle.fundamental_solution.ns_per_step":
            _ratio(total("oracle.fundamental_solution"),
                   counts.get("oracle.fundamental_solution.steps", 0)),
        "oracle.fundamental_solution.calls": calls("oracle.fundamental_solution") / n_it,
        "oracle.mode2_variance_exact.calls": calls("oracle.mode2_variance_exact") / n_it,
        "stability.stability_map.ns_per_cell_step":
            _ratio(total("stability.stability_map"),
                   counts.get("stability.stability_map.cell_steps", 0)),
        "stability.stability_map.computed_flops_per_cell_step":
            MAP_FLOPS_PER_CELL_STEP if calls("stability.stability_map") else 0.0,
        "stability.monodromy.ns_per_step":
            _ratio(total("stability.monodromy"), counts.get("stability.monodromy.steps", 0)),
        "stability.write_stability_csv.s": total("stability.write_stability_csv") / 1e9 / n_it,
        "stability.write_stability_csv.bytes":
            counts.get("stability.write_stability_csv.bytes", 0) / n_it,
        "config.build_run_config.s":
            _ratio(total("config.build_run_config"), calls("config.build_run_config")) / 1e9,
        "cli.import_s": statistics.median(import_times),
        "trace_overhead_frac":
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
    }

    busy = layer_busy(spans)
    busy_total = sum(busy.values())
    for layer in LAYERS:
        m[f"share.{layer}"] = _ratio(busy[layer], busy_total)

    # the command processes' self times, pool wait included, add up to wall_s
    main_self = sum(s for _, _, s in main["spans"].values()) / 1e9
    breakdown = {
        "traced_wall_s": sum(traced_walls) / n_it,
        "main_self_sum_s": main_self / n_it,
        "busy_s_by_layer": {k: v / 1e9 / n_it for k, v in busy.items()},
        "pool_wait_s": self_ns("driver.pool") / 1e9 / n_it,
        "spans": {k: {"calls": v[0] / n_it, "total_s": v[1] / 1e9 / n_it,
                      "self_s": v[2] / 1e9 / n_it} for k, v in sorted(spans.items())},
    }
    return m, breakdown


# -------------------------------------------------------------------- run

def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, work: Path) -> dict:
    sizes = w.sizes["smoke" if smoke else "full"]
    fields = dict(sizes, seed=str(seed))
    checkers = {}             # config path -> its Checker
    for key, template in w.configs.items():
        path = work / f"{key}.ini"
        path.write_text(template.format(**sizes))
        fields[key] = str(path)
        checkers[str(path)] = Checker(path)
    cfg_path = Path(fields["cfg"])

    attempted = failed = 0
    first = {}                # command index -> (output digest, problems)
    errors = []
    iterations = []           # list of (traced, [CommandResult])

    # The checked warm-up repeat runs in a host of its own, so the byte
    # comparison of every later repeat is across processes.
    warmup = Host(traced=False)
    hosts = {traced: [Host(traced) for _ in range(HOSTS)] for traced in (False, True)}

    def one_iteration(k: int, host: Host):
        nonlocal attempted, failed
        results = []
        for c, template in enumerate(w.commands):
            # the same directory on every repeat: outputs embed the resolved
            # config, output directory included
            out_dir = work / f"c{c}"
            shutil.rmtree(out_dir, ignore_errors=True)
            args = [a.format(out=str(out_dir), **fields) for a in template]
            res = host.run(args, out_dir, work / f"it{k}" / f"s{c}")
            attempted += 1
            digest = output_digest(res)
            if c not in first:
                try:
                    problems = checkers[args[args.index("--config") + 1]].check(res)
                except (OSError, KeyError, IndexError, ValueError) as exc:
                    problems = [f"output missing or unreadable: {exc!r}"]
                first[c] = (digest, problems)
                errors.extend(f"{' '.join(args[:2])}: {p}" for p in problems)
            elif digest != first[c][0]:
                problems = ["outputs differ from the first repeat with the same seed"]
                errors.extend(f"{' '.join(args[:2])}: {p}" for p in problems)
            else:                       # identical outputs fail as the first did
                problems = first[c][1]
            if problems:
                failed += 1
            results.append(res)
        shutil.rmtree(work / f"it{k}", ignore_errors=True)
        iterations.append((host.traced, results))

    # The warm-up repeat is not timed. The set-up probes come after it, so
    # they find the bytecode cache filled, and one follows each timed repeat,
    # so they sample the whole run.
    n_probes = 0 if trace else (1 if smoke else SETUP_PROBES)
    setup_times = []
    t_begin = time.perf_counter()
    try:
        one_iteration(0, warmup)
        warmup.close()
        k = 1
        while True:
            traced = trace and k % 2 == 0
            n_kind = (k - 1) // 2 if trace else k - 1     # earlier repeats of this kind
            one_iteration(k, hosts[traced][n_kind % HOSTS])
            k += 1
            if len(setup_times) < n_probes:
                setup_times.append(setup_probe(cfg_path))
            timed = iterations[1:]
            n_traced = sum(t for t, _ in timed)
            enough = (len(timed) >= 2 if not trace else
                      n_traced >= 1 and len(timed) - n_traced >= 1)
            if enough and time.perf_counter() - t_begin >= seconds:
                break
        setup_times += [setup_probe(cfg_path) for _ in range(n_probes - len(setup_times))]
    finally:
        for host in (warmup, *hosts[False], *hosts[True]):
            host.close()
    iterations = iterations[1:]

    def wall(results):
        return sum(r.report["wall_s"] for r in results)

    untraced = [rs for t, rs in iterations if not t]
    out = {"workload": w.name, "seed": seed, "trace": int(trace), "smoke": smoke,
           "sizes": sizes, "iterations": len(iterations),
           "attempted": attempted, "failed": failed, "errors": errors,
           "checks": {k: max(c.info[k] for c in checkers.values())
                      for k in ("max_abs_z", "threshold_err", "det_err")}}
    if not trace:
        # per command, the median over repeats; wall_s is their sum
        per_cmd = [statistics.median(rs[c].report["wall_s"] for rs in untraced)
                   for c in range(len(w.commands))]
        wall_s = sum(per_cmd)
        # the host's peak and its largest pool worker's, over the whole run
        rss = max(max(r.report["peak_rss_kb"].values(), default=0)
                  for rs in untraced for r in rs)
        out["metrics"] = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss / 1024.0, "MB"),
        }
        # a constant over wall_s: printed, but not a gated metric
        out["traj_steps_per_s"] = w.traj_steps(sizes) / wall_s
        out["command_wall_s"] = per_cmd
        out["repeat_wall_s"] = [[r.report.get("wall_s") for r in rs] for rs in untraced]
        out["setup_samples_s"] = setup_times
        out["failed_frac"] = failed / attempted
    else:
        traced_its = [rs for t, rs in iterations if t]
        imports = [t for h in hosts[False] + hosts[True] for t in h.import_times]
        metrics, breakdown = layer_metrics([r for rs in traced_its for r in rs],
                                           [wall(rs) for rs in untraced],
                                           [wall(rs) for rs in traced_its], imports)
        out["metrics"] = {k: (metrics[k], unit) for k, unit in PER_LAYER.items()}
        breakdown["commands"] = command_breakdown(
            [r for rs in traced_its for r in rs], len(w.commands))
        out["breakdown"] = breakdown
        called = set(breakdown["spans"])
        out["spans_called"] = sorted(called)
    return out


# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "baths.ohmic_forces.ns_per_traj_step": "ns",
    "baths.ohmic_forces.calls_per_step": "1/step",
    "baths.ohmic_forces.computed_flops_per_traj_step": "flop",
    "baths.ohmic_forces.computed_bytes_per_traj_step": "B",
    "integrate.step_hamiltonian.self_ns_per_traj_step": "ns",
    "integrate.step_nhc.self_ns_per_traj_step": "ns",
    "baths.nhc_bath_forces.ns_per_traj_step": "ns",
    "integrate.integrate.self_ns_per_step": "ns",
    "system.system_force.ns_per_traj_step": "ns",
    "system.to_normal_modes.ns_per_traj_obs": "ns",
    "sampling.trajectory_rng.ns_per_traj": "ns",
    "sampling.sample_system.ns_per_traj": "ns",
    "sampling.sample_ohmic_bath.ns_per_traj": "ns",
    "sampling.init_nhc_bath.ns_per_traj": "ns",
    "observables.VarianceAccumulator.add_block.ns_per_traj_obs": "ns",
    "observables.VarianceAccumulator.merge.calls": "count",
    "observables.write_variance_csv.s": "s",
    "observables.write_variance_csv.bytes": "B",
    "driver.run_ensemble.self_s": "s",
    "driver.chunks": "count",
    "driver.pool_starts": "count",
    "driver.worker_busy_s": "s",
    "driver.parallel_efficiency": "ratio",
    "driver.traj_failed_frac": "ratio",
    "oracle.fundamental_solution.ns_per_step": "ns",
    "oracle.fundamental_solution.calls": "count",
    "oracle.mode2_variance_exact.calls": "count",
    "stability.stability_map.ns_per_cell_step": "ns",
    "stability.stability_map.computed_flops_per_cell_step": "flop",
    "stability.monodromy.ns_per_step": "ns",
    "stability.write_stability_csv.s": "s",
    "stability.write_stability_csv.bytes": "B",
    "config.build_run_config.s": "s",
    "cli.import_s": "s",
    "trace_overhead_frac": "ratio",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; for the benchmark's own tests")
    parser.add_argument("--out", help="also write the full result to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "sqzbath" / "cli.py").is_file():
        print(f"bench: no sqzbath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        facts = machine_facts()
        result = run_workload(w, args.seed, args.seconds, bool(args.trace),
                              args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result["machine"] = facts

    print(f"workload {w.name}")
    for key, value in facts.items():
        print(f"  machine {key}: {value}")
    print(f"  repeats timed: {result['iterations']}, commands attempted "
          f"{result['attempted']}, failed {result['failed']} "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    for err in result["errors"]:
        print(f"  CHECK FAILED {err}")
    info = result["checks"]
    print(f"  checks (information only): max |z| {info['max_abs_z']:.3f} "
          f"(bound {Z_BOUND}), threshold error {info['threshold_err']:.3g}, "
          f"max |det M - 1| {info['det_err']:.3g} (bound {DET_TOL})")
    if args.trace:
        bd = result["breakdown"]
        print(f"  traced wall {bd['traced_wall_s']:.4f} s = sum of command-process "
              f"self times {bd['main_self_sum_s']:.4f} s "
              f"(pool wait {bd['pool_wait_s']:.4f} s)")
        spans = sorted(bd["spans"].items(), key=lambda kv: -kv[1]["total_s"])
        for name, sp in spans[:8]:
            print(f"  span {name}: {sp['calls']:g} calls, total {sp['total_s']:.4f} s, "
                  f"self {sp['self_s']:.4f} s per repeat")
        for cmd in bd["commands"]:
            top = max(cmd["shares"], key=cmd["shares"].get)
            print(f"  command {cmd['command']}: traced {cmd['traced_wall_s']:.4f} s, "
                  f"largest layer {top} {cmd['shares'][top]:.1%}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    if "traj_steps_per_s" in result:
        print(f"  traj_steps_per_s (information) = {result['traj_steps_per_s']:.6g} 1/s")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    final = {"correct": result["failed"] == 0, "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {k: {"value": v, "unit": u}
                         for k, (v, u) in result["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
