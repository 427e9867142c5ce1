"""The benchmark's tracer (bench/tracer.py) wraps package names by string.
A renamed or removed name fails only the benchmark's own tests, which the
package suite does not collect; this test catches it here. The tracer is
imported, never installed."""

import importlib.util
import sys
from pathlib import Path

import sqzbath.cli  # noqa: F401  (loads every submodule)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
