"""Outside-in tracer: spans and counters recorded at the package's layer boundaries.

Nothing in ``src/`` is edited.  Each boundary is a module attribute that a
caller looks up at call time (``cli.load_config``, ``entropic_risk.matrix_exp``,
``entropic_risk._advance_regimes``, ...), so replacing the attribute with a
timing wrapper intercepts every call.  The per-state random stream is wrapped
in a forwarding proxy that counts draws, which gives the regime kernel's round
and draw counts without touching the kernel.  Wrappers return what the wrapped
function returned, unchanged, so traced outputs are byte-identical to untraced
ones.

The module imports nothing heavy, so the package import is timed on its own.
Spans are kept in memory as (name, start, end, parent, op) and handed to the
caller at the end of the process; self time is computed from them afterwards.
Bookkeeping the tracer does after a call returns (ESS, file sizes) runs inside
its own ``trace.bookkeeping`` span, so it is charged to the tracer and not to
the layer that made the call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import os
import time
from collections import Counter

# (module attribute, span name) pairs, by the module whose attribute is replaced.
# Names are replaced where the caller looks them up: ``cli`` imported its
# collaborators by name, so ``cli.write_csv`` is a different attribute from
# ``config.write_csv``.
CLI_BOUNDARIES = [
    ("cmd_calibrate", "cli.calibrate"),
    ("cmd_simulate", "cli.simulate"),
    ("cmd_risk", "cli.risk"),
    ("cmd_sweep", "cli.sweep"),
    ("cmd_yield_sweep", "cli.yield_sweep"),
    ("load_config", "config.load"),
    ("write_csv", "config.write"),
    ("write_json", "config.write"),
    ("spot_risk_closed", "entropic_risk.closed"),
    ("future_risk_closed", "entropic_risk.closed"),
    ("claim_risk_mc", "entropic_risk.mc"),
]
RISK_BOUNDARIES = [
    ("spot_risk_closed", "entropic_risk.closed"),
    ("future_risk_closed", "entropic_risk.closed"),
    ("claim_risk_mc", "entropic_risk.mc"),
    ("matrix_exp", "regime_chain.matrix_exp"),
    ("_payoffs_for_state", "entropic_risk.sim"),
    ("_advance_regimes", "entropic_risk.advance"),
    ("entropic_mc", "entropic_risk.reduce"),
    ("_blockwise", "entropic_risk.payoff_eval"),
    ("swap_value", "instruments.swap_value"),
]


class Tracer:
    def __init__(self, t_origin: float):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.useful: set = set()
        self.ess: list[tuple[float, int]] = []
        self.op = None
        self.root = self.open("process", start=t_origin)

    def open(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a span-recording forwarder.

        ``after(bound_args, result)`` runs once the span has closed and may
        return a replacement result; it must not change the value seen by the
        caller, only observe or proxy it.
        """
        fn = getattr(module, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                with self.span("trace.bookkeeping"):
                    out = after(sig.bind(*args, **kwargs).arguments, out)
            return out

        setattr(module, attr, traced)

    def install(self, cli_module, risk_module) -> None:
        after = {
            "write_csv": self._after_write,
            "write_json": self._after_write,
            "claim_risk_mc": self._after_mc,
            "entropic_mc": self._after_reduce,
        }
        for attr, name in CLI_BOUNDARIES:
            self.wrap(cli_module, attr, name, after.get(attr))
        for attr, name in RISK_BOUNDARIES:
            self.wrap(risk_module, attr, name, after.get(attr))
        state_rng = risk_module._state_rng

        @functools.wraps(state_rng)
        def counting_state_rng(seed, state):
            return _CountingRng(state_rng(seed, state), self)

        risk_module._state_rng = counting_state_rng

    def _after_write(self, args, out):
        self.counts["config.bytes_written"] += os.path.getsize(args["path"])
        return out

    def _after_mc(self, args, out):
        base = (
            args["seed"],
            args["n_paths"],
            _claim_key(args["claim"]),
            args["q"].s,
            args["q"].T,
            args["q"].x_s,
        )
        return _UsageList(out, [(state,) + base for state in range(len(out))], self.useful)

    def _after_reduce(self, args, out):
        import numpy as np

        psi = np.asarray(args["samples"], dtype=float).ravel()
        logw = -psi / args["gamma"]
        w = np.exp(logw - logw.max())
        self.ess.append((float(w.sum() ** 2 / (w * w).sum()), int(psi.size)))
        return out

    def finish(self) -> dict:
        self.close(self.root)
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "sims_useful": len(self.useful),
            "ess": self.ess,
        }


def _claim_key(claim) -> tuple:
    """Hashable identity of a claim's contents (two equal claims share streams)."""
    parts = [type(claim).__name__]
    for f in dataclasses.fields(claim):
        v = getattr(claim, f.name)
        parts.append(v.tobytes() if hasattr(v, "tobytes") else repr(v))
    return tuple(parts)


class _UsageList(list):
    """The per-state estimate list; records which states' estimates are read.

    A stream counts as useful when its estimate is read by the caller, the
    only way it can reach an output.
    """

    def __init__(self, items, keys, useful: set):
        super().__init__(items)
        self._keys = keys
        self._useful = useful

    def __getitem__(self, i):
        out = super().__getitem__(i)
        keys = self._keys[i]
        self._useful.update(keys if isinstance(i, slice) else [keys])
        return out

    def __iter__(self):
        self._useful.update(self._keys)
        return super().__iter__()


class _CountingRng:
    """Forwards to a numpy Generator and counts calls and elements per draw kind.

    The regime kernel draws one exponential and one uniform array per round,
    so the exponential call count is its round count.
    """

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def _count(self, kind: str, out) -> None:
        self._tracer.counts[f"rng.{kind}.calls"] += 1
        self._tracer.counts[f"rng.{kind}.elems"] += int(getattr(out, "size", 1))

    def exponential(self, *args, **kwargs):
        out = self._rng.exponential(*args, **kwargs)
        self._count("exponential", out)
        return out

    def random(self, *args, **kwargs):
        out = self._rng.random(*args, **kwargs)
        self._count("random", out)
        return out

    def standard_normal(self, *args, **kwargs):
        with self._tracer.span("entropic_risk.gauss"):
            out = self._rng.standard_normal(*args, **kwargs)
        self._count("standard_normal", out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds, and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the program is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[k]
    return out
