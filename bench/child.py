"""One workload process: import the package, run one operation, report as JSON.

    python3 bench/child.py MODE RESULT_JSON TRACE [ARGS...]
    python3 bench/child.py serve

MODE is ``setup`` (import plus config load of the config in ARGS) or ``cli``
(``regime_risk.cli.main(ARGS)``).  TRACE is 0 or 1.  The result file
holds the timings, the peak RSS of this process and, when traced, the spans.

``serve`` imports the package once and then reads one JSON request a line
from standard input, ``[MODE, RESULT_JSON, ARGS]``.  It runs each in a child
forked from itself, which starts in the state of a fresh process that has just
imported the package, and answers with a line once that child has exited.
Untraced passes use it, so that a pass does not pay the interpreter start and
the import for every operation; those are measured as ``setup_s``.
"""

import time

T_ORIGIN = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _import_package(tracer):
    span = tracer.open("regime_risk.import") if tracer else None
    t0 = time.perf_counter()
    import regime_risk.cli  # noqa: F401
    import regime_risk.entropic_risk  # noqa: F401

    import_s = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    return sys.modules["regime_risk.cli"], sys.modules["regime_risk.entropic_risk"], import_s


def run_setup(args, result, tracer):
    cli, _, result["import_s"] = _import_package(tracer)
    t0 = time.perf_counter()
    cli.load_config(args[0])
    result["load_s"] = time.perf_counter() - t0


def run_cli(args, result, tracer):
    cli, er, result["import_s"] = _import_package(tracer)
    t0 = time.perf_counter()
    if tracer:
        tracer.install(cli, er)
        with tracer.span("cli.main"):
            rc = cli.main(args)
    else:
        rc = cli.main(args)
    result["op_ms"] = [(time.perf_counter() - t0) * 1e3]
    result["rc"] = rc


def serve() -> int:
    _import_package(None)
    while line := sys.stdin.readline():
        mode, result_path, args = json.loads(line)
        pid = os.fork()
        if pid == 0:
            rc = 1
            try:
                sys.stdout = open(os.devnull, "w")
                rc = run_one(mode, Path(result_path), False, args)
            finally:
                os._exit(rc)
        os.waitpid(pid, 0)
        print("done", flush=True)
    return 0


def main() -> int:
    if sys.argv[1] == "serve":
        return serve()
    return run_one(sys.argv[1], Path(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:])


def run_one(mode: str, result_path: Path, trace: bool, args: list[str]) -> int:
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer(T_ORIGIN)
    result: dict = {"mode": mode, "rc": 0}
    try:
        {"setup": run_setup, "cli": run_cli}[mode](args, result, tracer)
    except Exception:  # reported to the orchestrator, which counts the operation as failed
        result["rc"] = 1
        result["error"] = traceback.format_exc()
    if tracer:
        while len(tracer.stack) > 1:
            tracer.close(tracer.stack[-1])
        result["trace"] = tracer.finish()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(result))
    return 0 if result.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
