"""Layer spans for the sqzbath package, recorded from outside the package.

``install`` replaces names in the *calling* module's globals with timing
wrappers. ``integrate.py``, ``driver.py``, ``oracle.py`` and ``cli.py``
import their callees by name, so wrapping ``sqzbath.baths.ohmic_forces``
would miss every call: the wrapper has to replace
``sqzbath.integrate.ohmic_forces``. Modules are taken from ``sys.modules``
because ``sqzbath.integrate`` as a package attribute is the re-exported
function, not the submodule.

A span is named ``<defining module>.<function>``; its layer is the module.
Spans are aggregated in memory per name as (calls, total ns, self ns), where
self time is the span minus the part covered by its child spans. Counters
record the work done at the same boundaries (steps, trajectory-steps, bytes
written) so rates are computed where the work happens.

Pool workers are forked and inherit the wrappers. The first chunk a worker
runs resets its copy of the tracer, and every chunk it finishes rewrites the
worker's aggregate to ``<worker_dir>/worker-<id>.json``, because pool
workers exit without running ``atexit`` handlers.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

_now = time.perf_counter_ns


class Tracer:
    """Per-process span and counter aggregates."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.is_worker = False
        self.worker_id = ""
        self.spans = {}     # name -> [calls, total_ns, self_ns]
        self.counts = {}    # name -> number
        self._stack = []    # child-time accumulator of each open span

    def open(self) -> list:
        frame = [0]
        self._stack.append(frame)
        return frame

    def close(self, name: str, frame: list, t0: int) -> None:
        dt = _now() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[0]

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def reset(self, worker_dir: str) -> None:
        """Start the aggregates of a new command."""
        self.worker_dir = worker_dir
        self.spans = {}
        self.counts = {}
        self._stack = []

    def state(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def enter_worker(self) -> None:
        """Drop the state inherited from the forking parent."""
        self.pid = os.getpid()
        self.is_worker = True
        self.worker_id = f"{self.pid}-{time.monotonic_ns()}"
        self.reset(self.worker_dir)

    def dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{self.worker_id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.state(), fh)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Hooks run after the span closes (their cost lands in the caller's self
# time) and only at boundaries crossed a few times per command, never per
# integration step.

def _hook_integrate(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    cfg = a["config"]
    batch = getattr(result.system.q1, "size", 1)
    tracer.count("integrate.steps", cfg.n_steps)
    tracer.count("integrate.traj_steps", batch * cfg.n_steps)
    tracer.count("integrate.traj_obs", batch * (cfg.n_steps // cfg.stride + 1))
    n_modes = getattr(a["bath"], "n_modes", None)
    if n_modes is not None:
        tracer.counts["baths.ohmic_modes"] = n_modes


def _hook_run_ensemble(tracer, fn, args, kwargs, result):
    tracer.count("driver.traj", result.n_traj)
    tracer.count("driver.traj_failed", result.n_failed)


def _hook_add_block(tracer, fn, args, kwargs, result):
    values = _bound(fn, args, kwargs)["values"]
    tracer.count("observables.add_block.traj_obs", values.shape[0] * values.shape[1])


def _hook_file_bytes(key):
    def hook(tracer, fn, args, kwargs, result):
        tracer.count(key, os.path.getsize(_bound(fn, args, kwargs)["path"]))
    return hook


def _hook_stability_map(tracer, fn, args, kwargs, result):
    steps = _bound(fn, args, kwargs)["steps"]
    tracer.count("stability.stability_map.cell_steps", result.abs_trace.size * steps)


def _hook_monodromy(tracer, fn, args, kwargs, result):
    tracer.count("stability.monodromy.steps", _bound(fn, args, kwargs)["steps"])


def _hook_fundamental(tracer, fn, args, kwargs, result):
    tracer.count("oracle.fundamental_solution.steps", len(result.times) - 1)


# (calling module, name in its globals, span name, hook)
WRAPS = (
    ("cli", "read_config_file", "config.read_config_file", None),
    ("cli", "build_run_config", "config.build_run_config", None),
    ("cli", "run_ensemble", "driver.run_ensemble", _hook_run_ensemble),
    ("cli", "temperature_sweep", "driver.temperature_sweep", None),
    ("cli", "write_variance_csv", "observables.write_variance_csv",
     _hook_file_bytes("observables.write_variance_csv.bytes")),
    ("cli", "fundamental_solution", "oracle.fundamental_solution", _hook_fundamental),
    ("cli", "isolated_variance_series", "oracle.isolated_variance_series", None),
    ("cli", "mode2_variance_exact", "oracle.mode2_variance_exact", None),
    ("cli", "threshold_temperature", "oracle.threshold_temperature", None),
    ("cli", "monodromy", "stability.monodromy", _hook_monodromy),
    ("cli", "stability_map", "stability.stability_map", _hook_stability_map),
    ("cli", "write_stability_csv", "stability.write_stability_csv",
     _hook_file_bytes("stability.write_stability_csv.bytes")),
    ("config", "build_ohmic_bath", "baths.build_ohmic_bath", None),
    ("config", "nhc_matched_to_ohmic", "baths.nhc_matched_to_ohmic", None),
    ("driver", "run_ensemble", "driver.run_ensemble", _hook_run_ensemble),
    ("driver", "_sample_chunk", "driver._sample_chunk", None),
    ("driver", "integrate", "integrate.integrate", _hook_integrate),
    ("driver", "trajectory_rng", "sampling.trajectory_rng", None),
    ("driver", "sample_system", "sampling.sample_system", None),
    ("driver", "sample_ohmic_bath", "sampling.sample_ohmic_bath", None),
    ("driver", "init_nhc_bath", "sampling.init_nhc_bath", None),
    ("driver", "to_normal_modes", "system.to_normal_modes", None),
    ("driver", "squeeze_report", "observables.squeeze_report", None),
    ("driver", "fundamental_solution", "oracle.fundamental_solution", _hook_fundamental),
    ("driver", "mode2_variance_exact", "oracle.mode2_variance_exact", None),
    ("driver", "threshold_temperature", "oracle.threshold_temperature", None),
    ("driver", "_oracle_threshold_auto", "driver._oracle_threshold_auto", None),
    ("integrate", "step_hamiltonian", "integrate.step_hamiltonian", None),
    ("integrate", "step_nhc", "integrate.step_nhc", None),
    ("integrate", "system_force", "system.system_force", None),
    ("integrate", "ohmic_forces", "baths.ohmic_forces", None),
    ("integrate", "nhc_bath_forces", "baths.nhc_bath_forces", None),
    ("oracle", "integrate", "integrate.integrate", _hook_integrate),
    ("oracle", "to_normal_modes", "system.to_normal_modes", None),
    ("oracle", "mode2_variance_exact", "oracle.mode2_variance_exact", None),
)

# methods wrapped on the class itself: (module, class, method, span name, hook)
METHOD_WRAPS = (
    ("observables", "VarianceAccumulator", "add_block",
     "observables.VarianceAccumulator.add_block", _hook_add_block),
    ("observables", "VarianceAccumulator", "merge",
     "observables.VarianceAccumulator.merge", None),
)

# every span name the wrappers can record, for the "stopped being called" check
SPAN_NAMES = sorted({w[2] for w in WRAPS} | {w[3] for w in METHOD_WRAPS}
                    | {"cli.main", "driver._run_chunk", "driver.pool"})


def _module(name: str):
    return sys.modules[f"sqzbath.{name}"]


def _traced(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open()
        t0 = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(name, frame, t0)
        if hook is not None:
            hook(tracer, fn, args, kwargs, result)
        return result
    return traced


def _lookup(owner, attr: str, where: str):
    if not hasattr(owner, attr):
        raise RuntimeError(f"traced name {where} no longer exists; update "
                           f"bench/tracer.py")
    return getattr(owner, attr)


def install(worker_dir: str) -> Tracer:
    """Wrap every boundary in WRAPS and METHOD_WRAPS; returns the tracer.

    Raises RuntimeError when a wrapped name has disappeared from the package.
    """
    import sqzbath.cli  # noqa: F401  (loads every submodule)

    tracer = Tracer(worker_dir)
    for mod_name, attr, span, hook in WRAPS:
        mod = _module(mod_name)
        fn = _lookup(mod, attr, f"sqzbath.{mod_name}.{attr}")
        setattr(mod, attr, _traced(tracer, fn, span, hook))
    for mod_name, cls_name, attr, span, hook in METHOD_WRAPS:
        cls = _lookup(_module(mod_name), cls_name, f"sqzbath.{mod_name}.{cls_name}")
        fn = _lookup(cls, attr, f"sqzbath.{mod_name}.{cls_name}.{attr}")
        setattr(cls, attr, _traced(tracer, fn, span, hook))

    driver = _module("driver")
    run_chunk = _lookup(driver, "_run_chunk", "sqzbath.driver._run_chunk")

    # pickled by reference into pool workers: functools.wraps keeps the
    # module and qualified name, and the forked worker resolves that name to
    # this same wrapper
    @functools.wraps(run_chunk)
    def traced_chunk(*args, **kwargs):
        if os.getpid() != tracer.pid:
            tracer.enter_worker()
        frame = tracer.open()
        t0 = _now()
        try:
            return run_chunk(*args, **kwargs)
        finally:
            tracer.close("driver._run_chunk", frame, t0)
            if tracer.is_worker:
                tracer.dump_worker()

    driver._run_chunk = traced_chunk

    base_pool = _lookup(driver, "ProcessPoolExecutor",
                        "sqzbath.driver.ProcessPoolExecutor")
    if base_pool is not ProcessPoolExecutor:
        raise RuntimeError("sqzbath.driver.ProcessPoolExecutor is no longer the "
                           "standard executor; update bench/tracer.py")

    class TracedPool(ProcessPoolExecutor):
        """Counts pool starts; its lifetime is the span ``driver.pool``."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.count("driver.pool_starts", 1)
            tracer.count("driver.pool_worker_slots", self._max_workers)
            self._span = (tracer.open(), _now())

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close("driver.pool", *self._span)

    driver.ProcessPoolExecutor = TracedPool
    return tracer


def run_traced(tracer: Tracer, fn, *args):
    """Call ``fn`` as the root span ``cli.main``."""
    frame = tracer.open()
    t0 = _now()
    try:
        return fn(*args)
    finally:
        tracer.close("cli.main", frame, t0)
