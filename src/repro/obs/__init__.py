"""repro.obs — observability: span-attributed tracing, sinks, analysis.

The simulator records :class:`~repro.machine.trace.TraceEvent` s; the
plan executors attribute each one to a span stack
(``skeleton → [i] instruction → iter k``).  This package consumes those
traces:

* :mod:`repro.obs.sinks` — streaming exporters (JSONL, Chrome
  trace-event / Perfetto) and the :class:`TraceSink` protocol the
  machine accepts via ``Machine(..., trace_sink=...)``,
* :mod:`repro.obs.analyze` — critical path, per-span rollups, idle
  attribution,
* :mod:`repro.obs.report` — the analyses as aligned text tables,
* :mod:`repro.obs.latency` — request-latency quantiles and p50/p99/
  throughput rollups (shared by :mod:`repro.serve` and its CLI),
* :mod:`repro.obs.metrics` — the *live* metrics plane: lock-cheap
  Counter/Gauge/Histogram registry, periodic snapshots (JSONL +
  Prometheus text exposition + ``repro.obs.metrics/v1`` artifact), and
  :class:`SloMonitor` for latency-aware admission in :mod:`repro.serve`,
* :mod:`repro.obs.cli` — ``python -m repro trace <app>``.
"""

from repro.obs.analyze import (
    CriticalPath,
    PathStep,
    Rollup,
    by_instruction,
    by_iteration,
    by_skeleton,
    critical_path,
    idle_attribution,
)
from repro.obs.latency import (
    quantile,
    render_latency_table,
    rollup_by,
    summarize_latencies,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    METRICS_SCHEMA,
    MetricsRegistry,
    MetricsSnapshot,
    PeriodicSnapshotter,
    SloMonitor,
    exponential_buckets,
    metrics_artifact,
    observe_fault_counters,
    register_plan_cache_gauges,
    render_prometheus,
)
from repro.obs.sinks import (
    ChromeTraceSink,
    JsonlSink,
    MemorySink,
    TraceSink,
    event_to_dict,
    span_to_list,
)

__all__ = [
    "CriticalPath",
    "PathStep",
    "Rollup",
    "by_instruction",
    "by_iteration",
    "by_skeleton",
    "critical_path",
    "idle_attribution",
    "ChromeTraceSink",
    "JsonlSink",
    "MemorySink",
    "TraceSink",
    "event_to_dict",
    "span_to_list",
    "quantile",
    "summarize_latencies",
    "rollup_by",
    "render_latency_table",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PeriodicSnapshotter",
    "SloMonitor",
    "exponential_buckets",
    "metrics_artifact",
    "observe_fault_counters",
    "register_plan_cache_gauges",
    "render_prometheus",
]
