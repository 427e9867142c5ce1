#!/usr/bin/env python3
"""Rewrite bench/baseline.json: one untraced and one traced run of every
workload, with the machine facts, the checks and the per-span breakdown.

    python3 bench/baseline.py [--seed N] [--seconds S]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import ROOT, WORK, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    scratch = WORK / "baseline"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / f"{workload}-{trace}.json"
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace), "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    scratch.rmdir()
    WORK.rmdir()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    args = parser.parse_args()

    baseline = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        plain = run_once(name, args.seed, args.seconds, 0)
        traced = run_once(name, args.seed, args.seconds, 1)
        bd = traced["breakdown"]
        baseline["machine"] = plain["machine"]
        baseline["workloads"][name] = {
            "sizes": plain["sizes"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "failed_frac": (plain["failed"] + traced["failed"])
            / (plain["attempted"] + traced["attempted"]),
            "checks": plain["checks"],
            "end_to_end": {k: {"value": v, "unit": u}
                           for k, (v, u) in plain["metrics"].items()},
            "traj_steps_per_s": plain["traj_steps_per_s"],
            "command_wall_s": plain["command_wall_s"],
            "per_layer": {k: {"value": v, "unit": u}
                          for k, (v, u) in traced["metrics"].items()},
            "traced_wall_s": bd["traced_wall_s"],
            "main_self_sum_s": bd["main_self_sum_s"],
            "pool_wait_s": bd["pool_wait_s"],
            "busy_s_by_layer": bd["busy_s_by_layer"],
            "commands": bd["commands"],
            "spans_per_repeat": bd["spans"],
        }
        print(f"{name}: wall_s {plain['metrics']['wall_s'][0]:.4f} s, "
              f"failed {plain['failed']}/{plain['attempted']}", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True)
                                         + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
