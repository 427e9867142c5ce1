"""Command-line front end.

Subcommands: run, sweep, stability, compare-baths, plot, oracle. Every
output file embeds the resolved configuration (hash + seed) so a run is
reproducible from its own outputs; the manifest isolates wall-clock data
under a single "timing" key so everything else is byte-deterministic.

Exit codes: 0 success, 2 configuration error, 3 trajectory-failure abort (a
Monte Carlo trajectory or its ensemble's moments go non-finite, or an
oracle's relative mode overflows), 4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys as _sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import ConfigError, build_run_config, config_hash, read_config_file
from .driver import (ModelKind, SEED_STREAM_RULE, bath_equivalence, run_ensemble,
                     temperature_sweep)
from .integrate import TrajectoryFailure
from .observables import write_variance_csv
from .oracle import (fundamental_solution, isolated_variance_series,
                     mode2_variance_exact, ohmic_mode1_variances, threshold_temperature)
from .stability import (MathieuParams, classify_trace, monodromy, stability_map,
                        write_stability_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAJECTORY = 3
EXIT_IO = 4


def _fail(message: str, code: int) -> int:
    print(f"sqzbath: error: {message}", file=_sys.stderr)
    return code


def _parse_grid(spec: str):
    parts = spec.split(":")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}; use start:stop[:step]") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"bad grid spec {spec!r}: values must be finite")
    if values[0] <= 0:
        raise ConfigError(f"bad grid spec {spec!r}: temperatures must be positive")
    if len(values) == 2:
        lo, hi = values
        if lo == hi:
            return [lo]
        raise ConfigError("grid start:stop without a step requires start == stop")
    if len(values) != 3:
        raise ConfigError(f"bad grid spec {spec!r}; use start:stop[:step]")
    lo, hi, step = values
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad grid spec {spec!r}: need stop >= start and step > 0")
    # every point up to stop; the allowance absorbs round-off in the quotient
    n = math.floor((hi - lo) / step + 1e-9) + 1
    return [lo + i * step for i in range(n)]


def _parse_window(spec: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"bad window spec {spec!r}; use x0:x1:y0:y1")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad window spec {spec!r}") from None
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise ConfigError(f"bad window spec {spec!r}: values must be finite")
    if x1 <= x0 or y1 <= y0:
        raise ConfigError(f"degenerate stability window {spec!r} (zero area)")
    return (x0, x1), (y0, y1)


def _csv_header(resolved: dict, seed: int) -> list:
    return [f"sqzbath {__version__}",
            f"config_hash: {config_hash(resolved)}",
            f"seed: {seed}",
            f"rng_streams: {SEED_STREAM_RULE}",
            f"config: {json.dumps(resolved, sort_keys=True, separators=(',', ':'))}"]


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, prefix: str, resolved: dict, seed: int,
                    outputs: list, started: float) -> None:
    manifest = {
        "version": __version__,
        "config": resolved,
        "config_hash": config_hash(resolved),
        "seed": seed,
        "rng_streams": SEED_STREAM_RULE,
        "outputs": sorted(outputs),
        "timing": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "wall_time_s": time.perf_counter() - started,
        },
    }
    _write_json(manifest, os.path.join(out_dir, f"{prefix}_manifest.json"))


def _load(args, overrides=None) -> tuple:
    resolved = read_config_file(args.config)
    overrides = dict(overrides or {})
    if getattr(args, "seed", None) is not None:
        overrides[("ensemble", "seed")] = args.seed
    if getattr(args, "threads", None) is not None:
        overrides[("ensemble", "workers")] = args.threads
    if getattr(args, "out_dir", None) is not None:
        overrides[("output", "dir")] = args.out_dir
    return build_run_config(resolved, overrides)


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def cmd_run(args) -> int:
    run_cfg, out, resolved = _load(args)
    started = time.perf_counter()
    result = run_ensemble(run_cfg)
    _ensure_dir(out.directory)
    csv_path = os.path.join(out.directory, f"{out.prefix}_variance.csv")
    squeeze_path = os.path.join(out.directory, f"{out.prefix}_squeeze.json")
    write_variance_csv(result.series, csv_path, _csv_header(resolved, run_cfg.seed))
    _write_json({"squeeze": asdict(result.report),
                 "n_traj": result.n_traj, "n_failed": result.n_failed,
                 "config_hash": config_hash(resolved), "seed": run_cfg.seed},
                squeeze_path)
    _write_manifest(out.directory, out.prefix, resolved, run_cfg.seed,
                    [os.path.basename(csv_path), os.path.basename(squeeze_path)],
                    started)
    diag = result.report["qt2"]
    crossing = "none" if diag.first_crossing is None else f"{diag.first_crossing:g}"
    print(f"run: {result.n_traj} trajectories, {result.n_failed} failed; "
          f"var(qt2) min {diag.min_variance:.4f} at t={diag.time_of_min:g}, "
          f"first crossing {crossing}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    run_cfg, out, resolved = _load(args)
    temps = _parse_grid(args.grid)
    started = time.perf_counter()
    sweep = None
    if args.oracle_only:
        fundamental = fundamental_solution(run_cfg.system, dt=run_cfg.integrator.dt,
                                           n_steps=run_cfg.integrator.n_steps)
        rows = []
        for temp in temps:
            _, var_q, _ = mode2_variance_exact(run_cfg.system, temp, run_cfg.sampling,
                                               fundamental=fundamental)
            rows.append({"temperature": temp, "oracle_min_variance": float(var_q.min())})
        payload = {"rows": rows}
    else:
        sweep = temperature_sweep(run_cfg, temps)
        payload = sweep.to_dict()
    payload.update({"oracle_only": args.oracle_only, "config_hash": config_hash(resolved),
                    "seed": run_cfg.seed})
    _ensure_dir(out.directory)
    outputs = [f"{out.prefix}_sweep.json"]
    _write_json(payload, os.path.join(out.directory, outputs[0]))
    if sweep is not None:
        header = _csv_header(resolved, run_cfg.seed)
        for row in sweep.rows:
            name = f"{out.prefix}_T{row.temperature:.4f}_variance.csv"
            write_variance_csv(row.series, os.path.join(out.directory, name),
                               header + [f"temperature: {row.temperature!r}"])
            outputs.append(name)
    _write_manifest(out.directory, out.prefix, resolved, run_cfg.seed, outputs, started)
    print(f"sweep: {len(temps)} temperature(s) -> {outputs[0]}")
    return EXIT_OK


def cmd_stability(args) -> int:
    run_cfg, out, resolved = _load(args)
    if args.point is not None:
        x, y = args.point
        try:
            m = monodromy(MathieuParams.from_axes(x, y), steps=args.steps)
        except ValueError as exc:
            raise ConfigError(f"stability point x={x:g} y={y:g}: {exc}") from None
        tr = abs(float(m[0, 0] + m[1, 1]))
        unstable, marginal = classify_trace(tr)
        print(f"x={x:g} y={y:g} abs_trace={tr!r} unstable={int(unstable)} "
              f"marginal={int(marginal)}")
        return EXIT_OK
    x_range, y_range = _parse_window(args.window)
    started = time.perf_counter()
    try:
        smap = stability_map(x_range, y_range, resolution=args.resolution,
                             steps=args.steps)
    except ValueError as exc:
        raise ConfigError(f"stability map: {exc}") from None
    _ensure_dir(out.directory)
    path = os.path.join(out.directory, f"{out.prefix}_stability.csv")
    write_stability_csv(smap, path, _csv_header(resolved, run_cfg.seed))
    _write_manifest(out.directory, out.prefix, resolved, run_cfg.seed,
                    [os.path.basename(path)], started)
    print(f"stability: {smap.unstable.sum()} unstable of {smap.unstable.size} cells "
          f"-> {os.path.basename(path)}")
    return EXIT_OK


def cmd_compare_baths(args) -> int:
    _, out, resolved = _load(args)
    started = time.perf_counter()
    cfg_ohmic, _, _ = _load(args, overrides={("bath", "model"): "ohmic"})
    cfg_nhc, _, _ = _load(args, overrides={("bath", "model"): "nhc"})
    comparison = bath_equivalence(cfg_ohmic, cfg_nhc)
    _ensure_dir(out.directory)
    path = os.path.join(out.directory, f"{out.prefix}_bath_agreement.json")
    payload = asdict(comparison)
    payload.update({"config_hash": config_hash(resolved), "seed": cfg_ohmic.seed})
    _write_json(payload, path)
    _write_manifest(out.directory, out.prefix, resolved, cfg_ohmic.seed,
                    [os.path.basename(path)], started)
    print(f"compare-baths: {'PASS' if comparison.passed else 'FAIL'} "
          f"(per-coordinate max relative deviation "
          f"{max(c.max_rel_dev for c in comparison.coords.values()):.4f})")
    return EXIT_OK


def cmd_oracle(args) -> int:
    run_cfg, out, resolved = _load(args)
    started = time.perf_counter()
    fundamental = fundamental_solution(run_cfg.system, dt=run_cfg.integrator.dt,
                                       n_steps=run_cfg.integrator.n_steps)
    series = isolated_variance_series(run_cfg.system, run_cfg.temperature,
                                      run_cfg.sampling, config=run_cfg.integrator,
                                      fundamental=fundamental)
    # mode 2 is exact for every model; mode 1 depends on the bath
    note = ""
    if run_cfg.model is ModelKind.OHMIC:
        series.variances[:, 0], series.variances[:, 2] = ohmic_mode1_variances(
            run_cfg.system, run_cfg.bath, run_cfg.temperature, run_cfg.sampling,
            config=run_cfg.integrator)
    elif run_cfg.model is ModelKind.NHC:
        series.variances[:, [0, 2]] = np.nan
        note = "; var_q1, var_p1 written as nan (no exact mode-1 curve for nhc)"
    _ensure_dir(out.directory)
    csv_path = os.path.join(out.directory, f"{out.prefix}_oracle_variance.csv")
    write_variance_csv(series, csv_path, _csv_header(resolved, run_cfg.seed))
    payload = {"config_hash": config_hash(resolved)}
    for definition in ("anywhere", "sustained"):
        result = threshold_temperature(run_cfg.system, fundamental=fundamental,
                                       mode=run_cfg.sampling, definition=definition)
        if result is None:
            payload[definition] = None
            payload[f"{definition}_note"] = (f"no temperature meets the {definition} "
                                             f"squeezing definition")
        else:
            payload[definition] = asdict(result)
    json_path = os.path.join(out.directory, f"{out.prefix}_threshold.json")
    _write_json(payload, json_path)
    _write_manifest(out.directory, out.prefix, resolved, run_cfg.seed,
                    [os.path.basename(csv_path), os.path.basename(json_path)], started)
    summary = payload["anywhere"]
    if summary is not None:
        print(f"oracle: threshold (anywhere) T = {summary['temperature']:.4f} "
              f"({summary['temperature_K']:.1f} K){note}")
    else:
        print(f"oracle: no squeezing at any temperature{note}")
    return EXIT_OK


_VARIANCE_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot variance-vs-time curves with the squeezing threshold line.\"\"\"
import numpy as np
import matplotlib.pyplot as plt

FILES = {files!r}
fig, ax = plt.subplots(figsize=(7, 4.5))
for name in FILES:
    data = np.genfromtxt(name, delimiter=",", names=True)
    for column, style in (("var_q1", "-"), ("var_q2", "-"),
                          ("var_p1", "--"), ("var_p2", "--")):
        ax.plot(data["t_prime"], data[column], style, lw=0.8,
                label=f"{{name}}:{{column}}")
ax.axhline(0.5, color="k", lw=1.0, label="squeezing threshold 0.5")
ax.set_xlabel("t")
ax.set_ylabel("variance")
ax.legend(fontsize=6)
fig.tight_layout()
fig.savefig("variance.png", dpi=160)
print("wrote variance.png")
"""

_STABILITY_PLOT = """\
#!/usr/bin/env python3
\"\"\"Heat map of the parametric instability region.\"\"\"
import numpy as np
import matplotlib.pyplot as plt

data = np.genfromtxt({name!r}, delimiter=",", names=True)
xs = np.unique(data["x"])
ys = np.unique(data["y"])
grid = data["unstable"].reshape(len(ys), len(xs))
fig, ax = plt.subplots(figsize=(6, 5))
ax.pcolormesh(xs, ys, grid, cmap="Greys", shading="nearest")
ax.set_xlabel("(w / wd)^2")
ax.set_ylabel("(w0 / wd)^2")
fig.tight_layout()
fig.savefig("stability.png", dpi=160)
print("wrote stability.png")
"""


def cmd_plot(args) -> int:
    directory = args.results_dir
    if not os.path.isdir(directory):
        raise OSError(f"results directory {directory!r} does not exist")
    entries = sorted(os.listdir(directory))
    variance_files = [e for e in entries if e.endswith("_variance.csv")]
    stability_files = [e for e in entries if e.endswith("_stability.csv")]
    if not variance_files and not stability_files:
        raise OSError(f"no variance or stability CSV files found in {directory!r}")
    written = []
    if variance_files:
        path = os.path.join(directory, "plot_variance.py")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_VARIANCE_PLOT.format(files=variance_files))
        written.append(path)
    for name in stability_files:
        path = os.path.join(directory, f"plot_{name[:-4]}.py")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_STABILITY_PLOT.format(name=name))
        written.append(path)
    print("plot scripts: " + ", ".join(os.path.basename(p) for p in written))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzbath",
        description="Trajectory-ensemble simulation of squeezing in driven "
                    "oscillators coupled to thermal baths.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ensemble=True):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out-dir", default=None, help="output directory override")
        if ensemble:
            p.add_argument("--seed", type=int, default=None, help="master seed override")
            p.add_argument("--threads", type=int, default=None,
                           help="worker process count override")

    p = sub.add_parser("run", help="one Monte Carlo ensemble")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="temperature sweep")
    common(p)
    p.add_argument("--grid", default="0.95:1.06:0.01",
                   help="temperature grid start:stop[:step]")
    p.add_argument("--oracle-only", action="store_true",
                   help="skip Monte Carlo; emit exact covariance minima only")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stability", help="parametric instability map")
    common(p, ensemble=False)
    p.add_argument("--window", default="0:40:0:40", help="map window x0:x1:y0:y1")
    p.add_argument("--resolution", type=int, default=400, help="cells per axis")
    p.add_argument("--steps", type=int, default=4096, help="integration steps per period")
    p.add_argument("--point", nargs=2, type=float, metavar=("X", "Y"),
                   default=None, help="query a single (x, y) cell and exit")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("compare-baths", help="Ohmic vs thermostatted single oscillator")
    common(p)
    p.set_defaults(func=cmd_compare_baths)

    p = sub.add_parser("oracle", help="exact covariance curves and threshold temperature")
    common(p, ensemble=False)
    p.add_argument("--seed", type=int, default=None, help="seed recorded in outputs")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("plot", help="emit plot scripts for existing results")
    p.add_argument("results_dir", help="directory containing result CSV files")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except TrajectoryFailure as exc:
        return _fail(str(exc), EXIT_TRAJECTORY)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    raise SystemExit(main())
