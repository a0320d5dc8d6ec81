"""Measurement plumbing shared by every workload: spans, counters,
percentiles and the per-layer roll-up.

Spans are recorded by the benchmark itself around its calls into each
layer's public function; nothing inside the program is instrumented.
They stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict
from statistics import median

#: Layers the traced run attributes host time to, in pipeline order.
LAYERS = ("tune", "lower", "opt", "vexec", "machine", "apps", "stream")
#: Name of the per-operation root span; its self time is benchmark glue.
ROOT = "bench"
#: Median seconds of one :func:`calibration_kernel` run on the reference
#: host, a 2-CPU x86-64 container with Python 3.11.
CALIB_REF_S = 0.008
#: Share of a run's measured time spent sampling the kernel.
CALIB_SHARE = 0.1


class CheckFailed(Exception):
    """A reference check or a path assertion failed: the run is wrong."""


def require(cond: bool, what: str) -> None:
    """Raise :class:`CheckFailed` unless ``cond`` holds."""
    if not cond:
        raise CheckFailed(what)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples, beyond: int = 10) -> tuple[float, float] | None:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``, or ``None`` when there are too few
    samples for any percentile to have ``beyond`` samples past it.
    """
    n = len(samples)
    if n <= beyond:
        return None
    k = n - beyond                      # 1-based rank of the tail sample
    return 100.0 * k / n, sorted(samples)[k - 1]


def calibration_kernel() -> int:
    """Fixed interpreter work that calls nothing in the program and
    builds no data: a linear congruential generator, stepped."""
    x = 1
    for _ in range(60000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


class HostSpeed:
    """Samples :func:`calibration_kernel` between a run's operations.

    Host time on a shared machine drifts with the load of its other
    tenants; the kernel, sampled across the whole run, drifts with it.
    A run's seconds divided by :meth:`slowdown` are seconds on the
    reference host (``CALIB_REF_S``).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, seconds: float) -> None:
        """Run the kernel for about ``seconds``, at least three times."""
        spent = 0.0
        while spent < seconds or len(self.samples) % 3:
            t = time.perf_counter()
            calibration_kernel()
            self.samples.append(time.perf_counter() - t)
            spent += self.samples[-1]

    def slowdown(self) -> float:
        """This run's seconds per reference-host second (>1: this host
        ran slower than the reference)."""
        return median(self.samples) / CALIB_REF_S


class Tracer:
    """In-memory span recorder: {name, start, end, parent, op}.

    ``op`` is the id of the operation (iteration or request) the span
    belongs to; every operation has one :data:`ROOT` span whose children
    are the layer calls made for it.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = -1

    @contextlib.contextmanager
    def op(self):
        """Open the root span of one new operation."""
        self._op += 1
        with self.span(ROOT):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self._op}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per operation, the summed self time of every span name.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for i, rec in enumerate(self.spans):
            out[rec["op"]][rec["name"]] += rec["end"] - rec["start"] - child[i]
        return out

    def op_walls(self) -> dict[int, float]:
        """Wall time of each operation's root span."""
        return {r["op"]: r["end"] - r["start"] for r in self.spans
                if r["parent"] is None}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class Counters:
    """Per-operation layer counters, summed over the traced run."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.ops = 0

    def add(self, name: str, value: float = 1) -> None:
        self.totals[name] += value

    def per_op(self, name: str) -> float:
        return self.totals.get(name, 0) / self.ops if self.ops else 0.0


def layer_metrics(tracer: Tracer, counters: Counters,
                  untraced_walls: list[float]) -> dict[str, float]:
    """Roll the traced run up into ``<layer>.<metric>`` values.

    Busy times are the median per operation of each layer's self time;
    counts are means per operation.  ``bench.trace_overhead`` is the
    traced median operation time over the untraced median, and
    ``bench.span_coverage`` is how much of the untraced median the
    layers' self times account for.
    """
    per_op = tracer.self_times()
    ops = sorted(per_op)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = median(
            [per_op[o].get(layer, 0.0) for o in ops]) if ops else 0.0
    layered = [sum(v for k, v in per_op[o].items() if k != ROOT)
               for o in ops]
    traced = list(tracer.op_walls().values())
    base = median(untraced_walls) if untraced_walls else 0.0
    out["bench.trace_overhead"] = median(traced) / base if base else 0.0
    out["bench.span_coverage"] = median(layered) / base if base else 0.0
    c = counters
    lookups = c.totals.get("lower.hits", 0) + c.totals.get("lower.misses", 0)
    out["lower.cache_hit_ratio"] = (c.totals.get("lower.hits", 0) / lookups
                                    if lookups else 0.0)
    for name in ("tune.calls", "tune.candidates",
                 "lower.instrs", "opt.rewrites", "opt.instrs",
                 "vexec.calls", "vexec.requests", "vexec.declined",
                 "machine.events", "machine.messages", "machine.bytes",
                 "machine.batch_runs", "machine.event_runs",
                 "machine.batch_fallbacks"):
        out[name] = c.per_op(name)
    busy = sum(per_op[o].get("machine", 0.0) for o in ops)
    out["machine.events_per_s"] = (c.totals.get("machine.events", 0) / busy
                                   if busy else 0.0)
    return out
