"""Tests for the live metrics plane (:mod:`repro.obs.metrics`).

:func:`validate_metrics_artifact` is the schema check the CI
``metrics-smoke`` job runs against the ``--metrics-out`` artifact of
``python -m repro serve``; keeping it here means the
``repro.obs.metrics/v1`` schema and its validator evolve together.
"""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    METRICS_SCHEMA,
    MetricsError,
    MetricsRegistry,
    MetricsSnapshot,
    PeriodicSnapshotter,
    SloMonitor,
    exponential_buckets,
    iter_snapshot_dicts,
    metrics_artifact,
    observe_fault_counters,
    register_plan_cache_gauges,
    render_prometheus,
)


def validate_metrics_artifact(doc: dict, *,
                              expect_slo_shed: bool = False) -> None:
    """Assert a ``repro.obs.metrics/v1`` artifact has the right shape.

    With ``expect_slo_shed`` the artifact must come from a run whose
    overload phase engaged latency-aware shedding: the final snapshot
    carries a positive ``serve_rejections_total{reason="slo-shed"}``
    total and the SLO gauges.
    """
    assert doc["schema"] == METRICS_SCHEMA == "repro.obs.metrics/v1"
    assert doc["generated_by"]
    assert doc["snapshot_count"] == len(doc["snapshots"]) >= 1
    assert doc["final"] == doc["snapshots"][-1]
    last_t = float("-inf")
    for snap in doc["snapshots"]:
        assert snap["t"] >= last_t, "snapshots must be time-ordered"
        last_t = snap["t"]
        for s in snap["series"]:
            assert s["type"] in ("counter", "gauge", "histogram"), s
            assert isinstance(s["labels"], dict)
            if s["type"] == "histogram":
                assert s["count"] >= 0 and "+Inf" in s["buckets"]
                cum = list(s["buckets"].values())
                assert cum == sorted(cum), "bucket counts must be cumulative"
                assert cum[-1] == s["count"]
            else:
                assert isinstance(s["value"], (int, float))
    if expect_slo_shed:
        final = iter_snapshot_dicts([doc["final"]])[0]
        shed = sum(s["value"] for s in final.series
                   if s["name"] == "serve_rejections_total"
                   and s["labels"].get("reason") == "slo-shed")
        assert shed > 0, "expected slo-shed rejections in the final snapshot"
        assert final.value("serve_slo_p99_target_ms") is not None
        assert final.value("serve_slo_rolling_p99_ms") is not None


class TestInstruments:
    def test_counter_accumulates_per_label_child(self):
        reg = MetricsRegistry()
        reqs = reg.counter("reqs_total", "requests", ("endpoint", "tenant"))
        reqs.labels("scan", "pro").inc()
        reqs.labels("scan", "pro").inc(2.5)
        reqs.labels("scan", "free").inc()
        assert reqs.labels("scan", "pro").value == 3.5
        assert reqs.labels("scan", "free").value == 1.0
        assert reqs.labels(endpoint="scan", tenant="pro").value == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.counter("c_total").inc(-1)

    def test_gauge_set_inc_dec_and_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        g.inc(3)
        g.dec()
        assert g.labels().value == 9.0
        backing = {"v": 0.0}
        g2 = reg.gauge("live")
        g2.set_function(lambda: backing["v"])
        backing["v"] = 42.0
        assert reg.snapshot().value("live") == 42.0

    def test_labels_arity_and_kind_conflicts_raise(self):
        reg = MetricsRegistry()
        fam = reg.counter("c_total", "", ("a", "b"))
        with pytest.raises(MetricsError):
            fam.labels("only-one")
        with pytest.raises(MetricsError):
            fam.labels(a="x", wrong="y")
        # Re-registration is idempotent for the same shape...
        assert reg.counter("c_total", "", ("a", "b")) is fam
        # ...and raises on a kind or label mismatch.
        with pytest.raises(MetricsError):
            reg.gauge("c_total", "", ("a", "b"))
        with pytest.raises(MetricsError):
            reg.counter("c_total", "", ("a",))

    def test_histogram_buckets_and_quantile_estimate(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.002, 0.003, 0.05, 5.0):
            h.observe(v)
        child = h.labels()
        assert child.count == 5
        assert child.sum == pytest.approx(5.0555)
        assert child.bucket_counts() == [1, 2, 1, 1]  # +Inf last
        assert child.quantile(0.5) == 0.01
        # +Inf observations report the last finite bound.
        assert child.quantile(1.0) == 0.1
        with pytest.raises(MetricsError):
            child.quantile(0.0)

    def test_histogram_empty_quantile_is_none(self):
        reg = MetricsRegistry()
        assert reg.histogram("h_seconds").labels().quantile(0.99) is None

    def test_bad_buckets_raise(self):
        with pytest.raises(MetricsError):
            exponential_buckets(0.0, 2.0, 4)
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.histogram("h", buckets=(0.1, 0.1))

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BUCKETS[-1] > 5.0
        assert list(DEFAULT_LATENCY_BUCKETS) == \
            sorted(DEFAULT_LATENCY_BUCKETS)


class TestSnapshotAndExposition:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("reqs_total", "completed requests",
                    ("endpoint",)).labels("scan").inc(3)
        reg.gauge("depth", "queue depth").set(2)
        h = reg.histogram("lat_seconds", "latency", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        return reg

    def test_snapshot_series_shapes(self):
        snap = self._registry().snapshot(t=1.5)
        assert snap.t == 1.5
        assert snap.value("reqs_total", {"endpoint": "scan"}) == 3.0
        assert snap.value("depth") == 2.0
        assert snap.value("missing") is None
        hist = next(s for s in snap.series if s["name"] == "lat_seconds")
        assert hist["count"] == 2
        assert hist["buckets"] == {"0.01": 1, "0.1": 2, "+Inf": 2}
        assert hist["p50_est"] == 0.01

    def test_snapshot_roundtrips_through_dicts(self):
        snap = self._registry().snapshot(t=1.0)
        clone = iter_snapshot_dicts([json.loads(
            json.dumps(snap.to_dict()))])[0]
        assert isinstance(clone, MetricsSnapshot)
        assert clone.t == snap.t
        assert clone.value("depth") == 2.0

    def test_prometheus_exposition_format(self):
        text = self._registry().render_prometheus()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{endpoint="scan"} 3.0' in text
        assert "# HELP depth queue depth" in text
        assert 'lat_seconds_bucket{le="0.01"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 0.055" in text
        assert "lat_seconds_count 2" in text

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "", ("who",)).labels('a"b\\c').inc()
        assert 'who="a\\"b\\\\c"' in render_prometheus(reg.snapshot())

    def test_collector_runs_at_snapshot_time(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("pulled")
        state = {"v": 1.0}
        reg.add_collector(lambda r: gauge.set(state["v"]))
        assert reg.snapshot().value("pulled") == 1.0
        state["v"] = 9.0
        assert reg.snapshot().value("pulled") == 9.0


class TestPeriodicSnapshotter:
    def test_collects_and_streams_jsonl(self):
        reg = MetricsRegistry()
        c = reg.counter("ticks_total")
        buf = io.StringIO()
        with PeriodicSnapshotter(reg, interval_s=0.02, jsonl=buf) as snapper:
            c.inc()
            time.sleep(0.08)
        # At least one interval snapshot plus the final one on stop.
        assert len(snapper.snapshots) >= 2
        assert snapper.snapshots[-1].value("ticks_total") == 1.0
        lines = [json.loads(ln) for ln in
                 buf.getvalue().splitlines() if ln]
        assert len(lines) == len(snapper.snapshots)
        assert iter_snapshot_dicts(lines)[-1].value("ticks_total") == 1.0

    def test_artifact_shape(self):
        reg = MetricsRegistry()
        reg.counter("ticks_total").inc(3)
        doc = metrics_artifact([reg.snapshot(t=0.0), reg.snapshot(t=0.1)],
                               generated_by="test", interval_s=0.1)
        validate_metrics_artifact(doc)
        assert doc["interval_s"] == 0.1

    def test_empty_artifact_raises(self):
        with pytest.raises(MetricsError):
            metrics_artifact([], generated_by="test")

    def test_bad_interval_raises(self):
        with pytest.raises(MetricsError):
            PeriodicSnapshotter(MetricsRegistry(), interval_s=0.0)


class TestSloMonitor:
    def test_breach_needs_min_samples(self):
        slo = SloMonitor(0.010, window_s=1.0, min_samples=5)
        for i in range(4):
            slo.observe(0.100, now=0.1 * i)
        assert slo.breached(0.4) is False, "thin window never sheds"
        slo.observe(0.100, now=0.5)
        assert slo.breached(0.5) is True
        assert slo.breach_verdicts == 1
        assert slo.observed == 5

    def test_breach_clears_as_window_ages_out(self):
        slo = SloMonitor(0.010, window_s=1.0, min_samples=3)
        for i in range(6):
            slo.observe(0.050, now=0.01 * i)
        assert slo.breached(0.1) is True
        # A quiet second later every slow sample has aged out.
        assert slo.breached(1.2) is False
        assert slo.rolling(1.2)["samples"] == 0

    def test_fast_traffic_never_breaches(self):
        slo = SloMonitor(0.010, window_s=1.0, min_samples=3)
        for i in range(50):
            slo.observe(0.001, now=0.01 * i)
        assert slo.breached(0.5) is False
        state = slo.rolling(0.5)
        assert state["p99_ms"] <= state["p99_target_ms"]
        assert state["breached"] is False

    def test_bind_gauges_exports_rolling_state(self):
        reg = MetricsRegistry()
        clock = {"t": 0.0}
        slo = SloMonitor(0.010, window_s=1.0, min_samples=2)
        slo.bind_gauges(reg, lambda: clock["t"])
        for i in range(5):
            slo.observe(0.080, now=0.01 * i)
        clock["t"] = 0.1
        snap = reg.snapshot()
        assert snap.value("serve_slo_p99_target_ms") == 10.0
        assert snap.value("serve_slo_rolling_p99_ms") == 80.0
        assert snap.value("serve_slo_breached") == 1.0
        clock["t"] = 5.0  # window empty -> breach cleared
        assert reg.snapshot().value("serve_slo_breached") == 0.0

    def test_bad_config_raises(self):
        with pytest.raises(MetricsError):
            SloMonitor(0.0)
        with pytest.raises(MetricsError):
            SloMonitor(0.01, window_s=-1.0)
        with pytest.raises(MetricsError):
            SloMonitor(0.01, min_samples=0)


class TestDashboardCli:
    def _doc(self) -> dict:
        reg = MetricsRegistry()
        reqs = reg.counter("serve_requests_total", "",
                           ("endpoint", "tenant", "status"))
        snaps = []
        for i in range(3):
            reqs.labels("scan", "pro", "ok").inc(10)
            snaps.append(reg.snapshot(t=0.1 * (i + 1)))
        return metrics_artifact(snaps, generated_by="test")

    def test_dashboard_renders_rates(self):
        from repro.obs.metrics_cli import dashboard

        text = dashboard(iter_snapshot_dicts(self._doc()["snapshots"]))
        assert "3/3 snapshots" in text
        # 10 completions per 0.1 s interval -> 100 rps in delta rows.
        assert "100" in text
        assert dashboard([]) == "(no snapshots)"

    def test_load_snapshots_artifact_and_jsonl(self, tmp_path):
        from repro.obs.metrics_cli import load_snapshots

        doc = self._doc()
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert len(load_snapshots(str(path))) == 3
        jsonl = tmp_path / "m.jsonl"
        jsonl.write_text("\n".join(json.dumps(s)
                                   for s in doc["snapshots"]))
        assert len(load_snapshots(str(jsonl))) == 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope/v0", "snapshots": []}))
        with pytest.raises(SystemExit):
            load_snapshots(str(bad))

    def test_main_from_artifact(self, tmp_path, capsys):
        from repro.obs.metrics_cli import main

        path = tmp_path / "m.json"
        path.write_text(json.dumps(self._doc()))
        assert main(["--from", str(path), "--prom"]) == 0
        out = capsys.readouterr().out
        assert "metrics dashboard" in out
        assert "# TYPE serve_requests_total counter" in out


class TestDisabledPath:
    def test_metrics_off_makes_no_registry_call(self, monkeypatch):
        """Metrics off costs nothing: with ``Service(metrics=None)`` no
        instrument, label child, registry or SLO window is touched while
        the default mix is served, nor by a chunked stream run."""
        import operator

        import numpy as np

        from repro.obs import metrics as m
        from repro.scl.nodes import Scan
        from repro.serve.cli import build_service, default_mix
        from repro.serve.loadgen import closed_loop
        from repro.stream.plan import StreamRunStats, stream_plan

        calls = []

        def tripwire(name):
            def boom(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called with metrics off")
            return boom

        for cls, names in [
                (m.Counter, ("inc",)),
                (m.Gauge, ("set", "inc", "dec", "set_function")),
                (m.Histogram, ("observe",)),
                (m._Family, ("labels",)),
                (m.MetricsRegistry, ("counter", "gauge", "histogram")),
                (m.SloMonitor, ("observe",))]:
            for name in names:
                monkeypatch.setattr(cls, name,
                                    tripwire(f"{cls.__name__}.{name}"))

        with build_service(metrics=None) as svc:
            report = closed_loop(svc, default_mix(), requests=50,
                                 concurrency=4, timeout=30.0)
        assert report["ok"] == 50
        assert {r["endpoint"] for r in svc.completions} >= {"stream-scan"}

        xs = [float(v) for v in range(1, 65)]
        stats = StreamRunStats()
        out = list(stream_plan(xs).chunk(8).map_plan(Scan(operator.add))
                   .unchunk().run(stats=stats))
        assert np.allclose(out, np.concatenate(
            [np.cumsum(xs[i:i + 8]) for i in range(0, 64, 8)]))
        assert stats.plan_runs == stats.chunks == 8
        assert calls == []


class TestIntegrations:
    def test_live_metrics_serve_the_identical_workload(self):
        """A live registry and an SLO monitor that never sheds change no
        simulated work: the seeded closed loop runs the same events with
        metrics on as off, and the registry counts every request."""
        from repro.serve.cli import build_service, default_mix
        from repro.serve.loadgen import closed_loop

        def serve(**kw):
            with build_service(nprocs=16, **kw) as svc:
                report = closed_loop(svc, default_mix(), requests=60,
                                     concurrency=8)
            assert report["ok"] == 60
            return sum(r["events"] for r in svc.completions)

        reg = MetricsRegistry()
        on = serve(metrics=reg, slo=SloMonitor(1e6, min_samples=8))
        assert on == serve()
        assert sum(s["value"] for s in reg.snapshot().series
                   if s["name"] == "serve_requests_total") == 60

    def test_plan_cache_gauges_track_stats(self):
        from repro.plan.lower import plan_cache_stats

        reg = MetricsRegistry()
        register_plan_cache_gauges(reg)
        register_plan_cache_gauges(reg)  # idempotent: no duplicate series
        snap = reg.snapshot()
        stats = plan_cache_stats()
        for key, value in stats.items():
            matches = [s for s in snap.series
                       if s["name"] == f"plan_cache_{key}"]
            assert len(matches) == 1
            assert matches[0]["value"] == value

    def test_fault_counters_become_labelled_series(self):
        reg = MetricsRegistry()
        observe_fault_counters(
            reg, {"retransmits": 3, "timeouts": 1, "dropped": 3,
                  "crashed": 0},
            labels={"app": "hyperquicksort", "drop_rate": "0.01"})
        snap = reg.snapshot()
        assert snap.value("machine_faults_total",
                          {"kind": "retransmits", "app": "hyperquicksort",
                           "drop_rate": "0.01"}) == 3.0
        assert snap.value("machine_faults_total",
                          {"kind": "crashed", "app": "hyperquicksort",
                           "drop_rate": "0.01"}) == 0.0
