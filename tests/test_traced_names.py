"""The benchmark's tracer (bench/tracer.py) wraps package names by string,
and its checker (bench/run.py) calls oracle and stability functions by
keyword. A renamed or removed name or argument fails only the benchmark's own
tests, which the package suite does not collect; these tests catch it here.
The tracer is imported, never installed. Every other module-level import of
the package must be used in its module."""

import ast
import concurrent.futures
import importlib.util
import inspect
import sys
from pathlib import Path

import sqzbath.cli  # noqa: F401  (loads every submodule)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "sqzbath"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return sys.modules[f"sqzbath.{name}"]


def test_every_traced_name_resolves():
    tracer = _tracer()
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracer.WRAPS
               if not callable(getattr(_module(mod), attr, None))]
    for mod, cls, attr, _, _ in tracer.METHOD_WRAPS:
        if not callable(getattr(getattr(_module(mod), cls, None), attr, None)):
            missing.append(f"{mod}.{cls}.{attr}")
    # looked up by name when the tracer installs its pool and chunk wrappers
    for attr in ("_run_chunk", "ProcessPoolExecutor"):
        if not callable(getattr(_module("driver"), attr, None)):
            missing.append(f"driver.{attr}")
    assert missing == []
    # the tracer subclasses the pool only when the name is the standard class
    assert _module("driver").ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor


def test_checker_calls_bind():
    # the calls bench/run.py's Checker makes, bound against the signatures
    # they rely on; binding raises TypeError when an argument went away
    from sqzbath import oracle, stability
    calls = [
        (oracle.fundamental_solution, ("system",), dict(dt=0.01, n_steps=100)),
        (oracle.mode2_variance_exact, ("system", 1.0, "sampling"),
         dict(fundamental="fundamental")),
        (stability.MathieuParams.from_axes, (1.0, 2.0), {}),
        (stability.monodromy, ("params",), dict(steps=4096)),
        (stability.stability_map, ((0.0, 40.0), (0.0, 40.0)),
         dict(resolution=100, steps=4096)),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)


def test_integrate_returns_the_final_batch_state():
    # the tracer's integrate hook counts trajectory-steps from the size of
    # the returned state's q1
    import numpy as np
    from sqzbath import (IntegratorConfig, SystemParams, SystemPhase, TrajectoryState,
                         integrate)
    rows = 3
    start = TrajectoryState(0.0, SystemPhase(*np.ones((4, rows))))
    result = integrate(start, SystemParams(), None, IntegratorConfig(n_steps=5, stride=5))
    assert isinstance(result, TrajectoryState) and result is not start
    assert result.t == 5 * 0.01
    assert result.system.q1.size == rows


def test_bath_mode_count_reads_as_the_tracer_reads_it():
    # the tracer's integrate hook counts Ohmic modes with
    # getattr(bath, "n_modes", None), and takes a bath without one (the NHC
    # oscillator, or None) as having no Ohmic modes
    from sqzbath import NHCBathParams, build_ohmic_bath
    ohmic_bath = build_ohmic_bath(12, 0.007, 3.0)
    assert getattr(ohmic_bath, "n_modes", None) == len(ohmic_bath.freqs) == 12
    nhc_bath = NHCBathParams(osc_freq=0.15, coupling=0.01, temperature=1.0)
    assert getattr(nhc_bath, "n_modes", None) is None


def test_run_result_reads_as_the_tracer_reads_it():
    # the tracer's run_ensemble hook counts result.n_traj and result.n_failed
    from sqzbath import IntegratorConfig, RunConfig, SystemParams, run_ensemble
    cfg = RunConfig(system=SystemParams(), temperature=1.0, n_traj=6, seed=3,
                    integrator=IntegratorConfig(n_steps=20, stride=10))
    result = run_ensemble(cfg)
    assert type(result.n_traj) is int and result.n_traj == cfg.n_traj
    assert result.n_failed == 0


def test_every_module_import_is_used():
    # a module-level import that its module never reads is dead code, unless
    # the tracer wraps that name in that module; those bench-only imports
    # are listed here, so that a new one shows
    wrapped = {(mod, attr) for mod, attr, _, _ in _tracer().WRAPS}
    unused, bench_only = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    where = (path.stem, name)
                    (bench_only if where in wrapped else unused).append(".".join(where))
    assert unused == []
    assert bench_only == ["oracle.integrate", "oracle.to_normal_modes"]
