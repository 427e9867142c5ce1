"""Command host and set-up probe for the benchmark; ``src`` must be on
``PYTHONPATH``.

    python3 bench/clirun.py serve [--trace]
    python3 bench/clirun.py setup [CONFIG]

``serve`` imports ``sqzbath.cli`` once, writes ``{"import_s": ...}`` as its
first line, then reads one JSON request per line from standard input,
``{"args": [...], "worker_dir": ...}``, and calls ``sqzbath.cli.main`` with
those arguments, exactly as ``python -m sqzbath.cli`` does. For each request
it writes one JSON line: the exit code, the wall time of the call (start-up
is paid once per host and never timed), the command's console output, and
the peak resident set of the host and of its largest reaped pool worker in
kB. With ``--trace`` the layer wrappers of ``tracer.py`` are installed first
and each reply carries the span aggregates of that command; pool workers
write theirs to ``worker_dir``.

``setup`` is the set-up probe: it imports ``sqzbath.cli`` and runs
``read_config_file`` + ``build_run_config`` (which builds the bath tables),
then exits. The caller times the whole process.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _peak_rss_kb() -> dict:
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def serve(traced: bool) -> int:
    t0 = time.perf_counter()
    import sqzbath.cli as cli
    reply = sys.stdout
    reply.write(json.dumps({"import_s": time.perf_counter() - t0}) + "\n")
    reply.flush()

    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.install("")
    for line in sys.stdin:
        request = json.loads(line)
        console = io.StringIO()
        if tracer is not None:
            tracer.reset(request["worker_dir"])
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(console):
                if tracer is None:
                    code = cli.main(request["args"])
                else:
                    code = tracing.run_traced(tracer, cli.main, request["args"])
        except SystemExit as exc:       # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a host failure
            traceback.print_exc()
            code = 1
        report = {"exit_code": code, "wall_s": time.perf_counter() - t1,
                  "stdout": console.getvalue(), "peak_rss_kb": _peak_rss_kb()}
        if tracer is not None:
            report["trace"] = tracer.state()
        reply.write(json.dumps(report) + "\n")
        reply.flush()
    return 0


def setup(config) -> int:
    import sqzbath.cli  # noqa: F401  (the import a command pays)
    from sqzbath.config import build_run_config, read_config_file

    build_run_config(read_config_file(config))
    return 0


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv[:1] == ["serve"]:
        raise SystemExit(serve(argv[1:] == ["--trace"]))
    if argv[:1] == ["setup"]:
        raise SystemExit(setup(argv[1] if len(argv) > 1 else None))
    raise SystemExit("usage: clirun.py serve [--trace] | clirun.py setup [CONFIG]")
