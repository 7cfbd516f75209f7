"""regime-risk benchmark: one workload, measured from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are generated from ``--seed``
into ``.bench_run/``; every operation runs in a child process of its own
(``bench/child.py``) with ``PYTHONPATH=src``, one BLAS thread and the CLI's
default ``--workers 1``, on one CPU.  Passes over the workload's operations
repeat until ``--seconds`` have elapsed and the workload's minimum number of
passes has run.  Outputs are checked against references on the first pass and
must be byte-identical on every later pass.

``--trace 0`` prints the end-to-end metrics, with times scaled to the host
probe's reference speed (see ``HostProbe``); ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones.  The last line of standard output is the JSON result; the run record,
with the environment block, the raw times and the spans, goes to
``.bench_run/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

SETUP_REPS = 9          # setup_s is the median of this many fresh processes
CHILD_TIMEOUT_S = 170   # one child may not outlive the 180 s a run is allowed
DEADLINE_S = 165        # no pass starts if the last one would end past this


class HostProbe:
    """A fixed job, timed in this process around every child, that reads the
    host's speed.

    The host's speed swings by up to 1.7x, between phases that last seconds
    and spells that last minutes, separately on each vCPU.  The benchmark runs
    on one CPU; each child is bracketed by two readings on it, and its times
    are scaled by their mean to what they would be at ``REF_MS``.  The job's
    work resembles the package's: numpy draws and selects on 1e4-element
    arrays, as in the regime kernel, and an interpreter loop, as in the CLI's
    own code.  It shares nothing with the
    package, so no change to the package moves it.
    """

    REF_MS = 3.5  # the job's time in the fast phases of 2 vCPUs of an Intel Xeon under KVM
    REPS = 5

    def __init__(self) -> None:
        import numpy

        self.np = numpy
        self.last: float | None = None
        self.samples_ms: list[float] = []

    def read(self) -> float:
        """Runs the job ``REPS`` times; the fastest, in ms."""
        np = self.np
        best = math.inf
        for _ in range(self.REPS):
            rng = np.random.default_rng(0)
            t0 = time.perf_counter()
            x = np.zeros(10_000)
            for _ in range(20):
                e = rng.exponential(size=x.size)
                u = rng.random(x.size)
                x = np.where(u < 0.5, x + e, 0.5 * x)
            acc = 0
            for i in range(20_000):
                acc += i & 7
            ms = (time.perf_counter() - t0) * 1e3
            self.samples_ms.append(ms)
            best = min(best, ms)
        return best

    def around(self, fn):
        """``fn()`` bracketed by readings: (its result, the readings' mean).
        The reading after one child is the reading before the next."""
        before = self.read() if self.last is None else self.last
        out = fn()
        self.last = self.read()
        return out, (before + self.last) / 2


def scaled(times: list[float], readings: list[float]) -> list[float]:
    return [t * HostProbe.REF_MS / r for t, r in zip(times, readings)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, args: list[str], result_path: Path, trace: bool) -> tuple[float, dict]:
    """Run one child process to completion; returns (wall seconds, result)."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(result_path), "1" if trace else "0", *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, {"rc": -1, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    wall = time.perf_counter() - t0
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    if proc.returncode != 0:
        result["rc"] = proc.returncode
        result.setdefault("error", proc.stderr[-4000:])
    return wall, result


class Server:
    """``child.py serve``: runs each operation in a child forked from a process
    that has already imported the package."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "serve"], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def run(self, mode: str, args: list[str], result_path: Path) -> tuple[float, dict]:
        """Like ``run_child`` for an untraced operation; the wall time leaves
        out the interpreter start and the import."""
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps([mode, str(result_path), args]) + "\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
            done = bool(ready) and self.proc.stdout.readline() == "done\n"
        except (OSError, ValueError):  # the server has exited
            done = False
        if not done:
            self.kill()
            return time.perf_counter() - t0, {"rc": -1, "error": "the forking server stopped or timed out"}
        wall = time.perf_counter() - t0
        result = json.loads(result_path.read_text()) if result_path.exists() else {"rc": -1, "error": "no result"}
        return wall, result

    def kill(self) -> None:
        """Ends the server and the operation it runs, which share its session."""
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()

    def close(self) -> None:
        """Ends the server once it has finished the operation it runs, if any."""
        if self.proc.poll() is None:
            with contextlib.suppress(OSError):
                self.proc.stdin.close()
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT_S // 10)
            except subprocess.TimeoutExpired:
                self.kill()


def output_digest(op, out: Path) -> str:
    h = hashlib.sha256()
    for name in op.outputs:
        h.update(name.encode())
        h.update((out / name).read_bytes())
    return h.hexdigest()


class Run:
    def __init__(self, workload, work: Path, probe: HostProbe, server: Server | None):
        self.wl = workload
        self.work = work
        self.probe = probe
        self.server = server
        self.attempted = 0
        self.failures: list[str] = []
        self.n_failed = 0
        self.z_abs: list[float] = []
        # per operation label: the first pass's output digest and whether it
        # failed; later passes must reproduce the digest and inherit the verdict
        self.first_pass: dict[str, tuple[str, bool]] = {}

    def _failed(self, op, messages) -> None:
        self.n_failed += 1
        self.failures.extend(f"{op.label}: {m}" for m in list(messages)[:5])

    def run_pass(self, k: int, trace: bool) -> dict:
        out = self.work / f"pass{k}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        record = {
            "trace": trace, "wall_s": 0.0, "child_s": [], "probe_ms": [], "rss_kb": [], "op_ms": [], "children": [],
        }
        for i, op in enumerate(self.wl.ops(out)):
            result_path = self.work / f"result{k}-{i}.json"
            if trace or self.server is None:
                (wall, result), reading = self.probe.around(lambda: run_child(op.mode, op.args, result_path, trace))
            else:
                (wall, result), reading = self.probe.around(lambda: self.server.run(op.mode, op.args, result_path))
            record["wall_s"] += wall
            record["child_s"].append(wall)
            record["probe_ms"].append(reading)
            record["rss_kb"].append(result.get("maxrss_kb", 0))
            record["op_ms"] += result.get("op_ms", [])
            record["children"].append(result)
            self.attempted += 1
            self._judge(op, out, result)
        shutil.rmtree(out, ignore_errors=True)
        return record

    def _judge(self, op, out: Path, result: dict) -> None:
        if result.get("rc") != 0:
            self._failed(op, [f"exit {result.get('rc')}: {result.get('error', '')}"])
            return
        missing = [name for name in op.outputs if not (out / name).is_file()]
        if missing:
            self._failed(op, [f"missing outputs {missing}"])
            return
        digest = output_digest(op, out)
        if op.label in self.first_pass:
            first_digest, bad = self.first_pass[op.label]
            if digest != first_digest:
                self._failed(op, ["outputs differ from the first pass"])
            elif bad:
                self._failed(op, ["same outputs as the first pass"])
            return
        try:
            chk = self.wl.check(op, out)
        except Exception as exc:  # a malformed output is a failed operation, not a crash
            self.first_pass[op.label] = (digest, True)
            self._failed(op, [f"check raised {type(exc).__name__}: {exc}"])
            return
        self.z_abs += chk.z
        self.first_pass[op.label] = (digest, bool(chk.failures))
        if chk.failures:
            self._failed(op, chk.failures.values())


def quantile(values: list[float], p: int) -> float:
    """The p-th percentile (inclusive method); a single sample is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment(records: list[dict]) -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "peak_rss_mb_per_process": [[round(kb / 1024, 1) for kb in r["rss_kb"]] for r in records],
    }


def end_to_end(records: list[dict], setup: list[tuple[float, float]], scale: bool = True) -> dict:
    """The end-to-end metrics; with ``scale``, times are scaled to the host
    probe's reference speed (see ``HostProbe``).

    Each operation and each child is timed on every pass, and its time is
    the first quartile of those passes: a pass that a slow phase hit is
    dropped, while the quartile still rests on a quarter of the passes.  The
    percentiles then run over the distinct operations.  A failed child leaves
    no timings, and then the run is not correct anyway.
    """

    def per_child(key: str) -> list[float]:
        out = []
        for j, times in enumerate(zip(*(r[key] for r in records))):
            readings = [r["probe_ms"][j] for r in records]
            out.append(quantile(scaled(times, readings) if scale else list(times), 25))
        return out

    op_ms = per_child("op_ms") or [0.0]
    setup_s = scaled(*zip(*setup)) if scale else [t for t, _ in setup]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(per_child("child_s")), "s"),
        "peak_rss_mb": (statistics.median(max(r["rss_kb"]) / 1024 for r in records), "MB"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p95_ms": (quantile(op_ms, 95), "ms"),
    }


def per_layer(traced: dict, untraced_wall: float, traced_wall: float, z_abs: list[float]) -> dict:
    from tracer import layer_times

    layers: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    useful, ess, roots = 0, [], 0.0
    for child in traced["children"]:
        tr = child.get("trace")
        if tr is None:
            continue
        for name, agg in layer_times(tr["spans"]).items():
            acc = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
        for key, v in tr["counts"].items():
            counts[key] = counts.get(key, 0) + v
        useful += tr["sims_useful"]
        ess += tr["ess"]
        roots += sum(end - start for _, start, end, parent, _ in tr["spans"] if parent < 0)

    def lay(name: str, key: str = "total_s") -> float:
        return layers.get(name, {}).get(key, 0)

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    sims = lay("entropic_risk.sim", "calls")
    rounds = counts.get("rng.exponential.calls", 0)
    wall = traced["wall_s"]
    cli_self = sum(lay(n, "self_s") for n in layers if n.startswith("cli."))
    return {
        "regime_risk.import_s": (lay("regime_risk.import"), "s"),
        "config.load_s": (lay("config.load"), "s"),
        "config.write_s": (lay("config.write"), "s"),
        "config.bytes_written": (counts.get("config.bytes_written", 0), "B"),
        "regime_chain.matrix_exp_calls": (lay("regime_chain.matrix_exp", "calls"), "count"),
        "regime_chain.matrix_exp_s": (lay("regime_chain.matrix_exp"), "s"),
        "entropic_risk.closed_calls": (lay("entropic_risk.closed", "calls"), "count"),
        "entropic_risk.closed_self_s": (lay("entropic_risk.closed", "self_s"), "s"),
        "entropic_risk.mc_calls": (lay("entropic_risk.mc", "calls"), "count"),
        "entropic_risk.sims": (sims, "count"),
        "entropic_risk.sims_useful": (useful, "count"),
        "entropic_risk.sim_useful_ratio": (ratio(useful, sims), "ratio"),
        "entropic_risk.sim_self_s": (lay("entropic_risk.sim", "self_s"), "s"),
        "entropic_risk.advance_calls": (lay("entropic_risk.advance", "calls"), "count"),
        "entropic_risk.advance_rounds": (rounds, "count"),
        "entropic_risk.advance_draws": (
            counts.get("rng.exponential.elems", 0) + counts.get("rng.random.elems", 0), "count"),
        "entropic_risk.advance_s": (lay("entropic_risk.advance"), "s"),
        "entropic_risk.advance_ms_per_round": (ratio(lay("entropic_risk.advance") * 1e3, rounds), "ms"),
        "entropic_risk.gauss_draws": (counts.get("rng.standard_normal.elems", 0), "count"),
        "entropic_risk.gauss_s": (lay("entropic_risk.gauss"), "s"),
        "entropic_risk.reduce_s": (lay("entropic_risk.reduce"), "s"),
        "entropic_risk.payoff_eval_s": (lay("entropic_risk.payoff_eval"), "s"),
        "instruments.swap_value_s": (lay("instruments.swap_value"), "s"),
        "cli.risk_s": (lay("cli.risk"), "s"),
        "cli.sweep_s": (lay("cli.sweep"), "s"),
        "cli.yield_sweep_s": (lay("cli.yield_sweep"), "s"),
        "cli.simulate_s": (lay("cli.simulate"), "s"),
        "cli.calibrate_s": (lay("cli.calibrate"), "s"),
        "cli.self_s": (cli_self, "s"),
        "entropic_risk.ess_min": (min((e for e, _ in ess), default=0.0), "paths"),
        "entropic_risk.ess_frac_min": (min((e / n for e, n in ess), default=0.0), "ratio"),
        "entropic_risk.z_abs_max": (max(z_abs, default=0.0), "z"),
        "tracing_overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.process_self_s": (lay("process", "self_s"), "s"),
        "trace.bookkeeping_s": (lay("trace.bookkeeping"), "s"),
        "trace.unattributed_s": (wall - roots, "s"),
        "trace.unattributed_frac": (ratio(wall - roots, wall), "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    missing = [p for p in ("src/regime_risk/cli.py", "configs/crude_oil.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a regime-risk source checkout ({ROOT}): missing {missing}", file=sys.stderr)
        return 2

    # Each vCPU of the host has its own slow and fast spells, independent of
    # the other's, and a process that migrates changes speed.  Pinning this
    # process and its children to one CPU keeps the host readings and the
    # operations they bracket on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t_run = time.perf_counter()
    runs_dir = ROOT / ".bench_run"
    work = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload]()
    wl.prepare(ROOT, work, args.seed)
    probe = HostProbe()
    server = None if args.trace else Server()
    run = Run(wl, work, probe, server)

    def measure_setup(reps: int, tag: str) -> list[tuple[float, float]]:
        """(set-up seconds, host reading) of ``reps`` fresh processes."""
        out = []
        for k in range(reps):
            path = work / f"setup{tag}{k}.json"
            (_, res), reading = probe.around(lambda: run_child("setup", [str(wl.setup_config())], path, False))
            if res.get("rc") != 0:
                raise RuntimeError(f"set-up failed: {res.get('error')}")
            out.append((res["import_s"] + res["load_s"], reading))
        return out

    # The first child compiles the package's bytecode and is not timed.  The
    # timed set-ups are split between the start and the end of the run, so
    # their median spans the run's window rather than a few seconds of it.
    measure_setup(1, "warm")
    setup = [] if args.trace else measure_setup(SETUP_REPS // 2 + 1, "a")

    records: list[dict] = []
    t0 = time.perf_counter()
    cycles = 0
    try:
        while True:
            for trace in ((False, True) if args.trace else (False,)):
                records.append(run.run_pass(len(records), trace))
            cycles += 1
            elapsed = time.perf_counter() - t0
            done = elapsed >= args.seconds and (args.trace or cycles >= wl.min_passes)
            if done or time.perf_counter() - t_run + elapsed / cycles > DEADLINE_S:
                break
    finally:
        if server is not None:
            server.close()
    if not args.trace:
        setup += measure_setup(SETUP_REPS // 2, "b")

    untraced = [r for r in records if not r["trace"]]
    if args.trace:
        traced = sorted((r for r in records if r["trace"]), key=lambda r: r["wall_s"])
        pick = traced[(len(traced) - 1) // 2]
        metrics = per_layer(
            pick,
            statistics.median(r["wall_s"] for r in untraced),
            statistics.median(r["wall_s"] for r in traced),
            run.z_abs,
        )
    else:
        metrics = end_to_end(untraced, setup)
        unscaled = end_to_end(untraced, setup, scale=False)

    env = environment(records)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced pass(es), {len(records) - len(untraced)} traced, "
          f"{len(untraced[0]['op_ms'])} timed operations a pass")
    print("environment " + json.dumps(env))
    print(f"failed_frac {run.n_failed / max(run.attempted, 1):.6g} ({run.n_failed} of {run.attempted} operations)")
    print(f"z_abs_max {max(run.z_abs, default=0.0):.3g} over {len(run.z_abs)} MC cells checked")
    for msg in run.failures[:20]:
        print("FAILED " + " | ".join(msg.strip().splitlines()[-2:]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + ("" if args.trace else f" (unscaled {unscaled[name][0]:.6g})"))

    (runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "args": vars(args),
        "environment": env,
        "attempted": run.attempted,
        "failed": run.n_failed,
        "failures": run.failures,
        "setup_s": setup,
        "probe_ms": probe.samples_ms,
        "metrics": reported,
        "unscaled": None if args.trace else {k: v for k, (v, _) in unscaled.items()},
        "passes": [
            {key: r[key] for key in ("trace", "wall_s", "child_s", "probe_ms", "rss_kb", "op_ms")}
            | {"spans": [c.get("trace", {}).get("spans") for c in r["children"]] if r["trace"] else None}
            for r in records
        ],
    }))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": run.n_failed == 0,
        "attempted": run.attempted,
        "failed": run.n_failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
