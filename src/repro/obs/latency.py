"""Latency rollups: quantiles and throughput tables for request streams.

The skeleton service (:mod:`repro.serve`) records one completion record
per request through the :class:`~repro.obs.sinks.TraceSink` protocol;
this module turns lists of such records into the p50/p99/throughput
summaries the service report and the ``repro serve`` JSON artifact
share.

Quantiles use the *nearest-rank* method (no interpolation): ``p99`` of
``n`` samples is the ``ceil(0.99 · n)``-th smallest — the conventional
definition for latency SLOs, and exact for small samples.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

from repro.util.tables import render_table

__all__ = ["quantile", "summarize_latencies", "rollup_by",
           "render_latency_table"]


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``0 < q <= 1``).

    ``quantile(xs, 0.5)`` is the median-by-rank, ``quantile(xs, 1.0)``
    the maximum.  Raises ``ValueError`` on an empty sample or a ``q``
    outside ``(0, 1]``.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0 < q <= 1:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


def summarize_latencies(latencies_s: Sequence[float], *,
                        duration_s: float | None = None) -> dict[str, Any]:
    """The standard latency summary of one sample set.

    Latencies come in seconds; the summary reports milliseconds (the
    scale requests actually live at) plus ``throughput_rps`` when the
    observation window ``duration_s`` is given.
    """
    if not latencies_s:
        summary: dict[str, Any] = {"count": 0}
        if duration_s is not None:
            summary["throughput_rps"] = 0.0
        return summary
    ms = [lat * 1e3 for lat in latencies_s]
    summary = {
        "count": len(ms),
        "mean_ms": round(sum(ms) / len(ms), 3),
        "p50_ms": round(quantile(ms, 0.50), 3),
        "p90_ms": round(quantile(ms, 0.90), 3),
        "p99_ms": round(quantile(ms, 0.99), 3),
        "max_ms": round(max(ms), 3),
    }
    if duration_s is not None and duration_s > 0:
        summary["throughput_rps"] = round(len(ms) / duration_s, 1)
    return summary


def rollup_by(records: Iterable[Mapping[str, Any]], key: str, *,
              latency_field: str = "latency_s",
              duration_s: float | None = None) -> dict[str, dict[str, Any]]:
    """Group completion records by ``record[key]`` and summarize each group.

    Records missing ``key`` or the latency field are skipped (a
    rejection record has no latency).  Group names are sorted in the
    returned dict.
    """
    groups: dict[str, list[float]] = {}
    for rec in records:
        name = rec.get(key)
        lat = rec.get(latency_field)
        if name is None or lat is None:
            continue
        groups.setdefault(str(name), []).append(float(lat))
    return {name: summarize_latencies(groups[name], duration_s=duration_s)
            for name in sorted(groups)}


def render_latency_table(title: str,
                         rollups: Mapping[str, Mapping[str, Any]],
                         notes: str = "") -> str:
    """Aligned text table of per-group latency summaries."""
    rows = []
    for name, summary in rollups.items():
        rows.append([
            name,
            summary.get("count", 0),
            _fmt(summary.get("p50_ms")),
            _fmt(summary.get("p90_ms")),
            _fmt(summary.get("p99_ms")),
            _fmt(summary.get("max_ms")),
            _fmt(summary.get("throughput_rps")),
        ])
    return render_table(title,
                        ["group", "requests", "p50 (ms)", "p90 (ms)",
                         "p99 (ms)", "max (ms)", "rps"],
                        rows, notes=notes)


def _fmt(value: Any) -> str:
    return "-" if value is None else f"{value:.1f}"
