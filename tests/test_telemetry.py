"""Unit tests for the telemetry subsystem (registry, tracer, exporters)."""

import json

import pytest

from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.kernels import DEFAULT_KERNEL
from repro.core.patterns import Pattern
from repro.core.scanner import MiddleboxProfile
from repro.net.simulator import Simulator
from repro.telemetry import (
    MetricsRegistry,
    TelemetryHub,
    Tracer,
)
from repro.telemetry.export import export_jsonl, iter_events, prometheus_text
from repro.telemetry.report import render_report

CHAIN = 100


def make_instance(telemetry=None, scan_cache_size=0):
    config = InstanceConfig(
        pattern_sets={1: [Pattern(0, b"needle-alpha"), Pattern(1, b"needle-beta")]},
        profiles={1: MiddleboxProfile(middlebox_id=1, name="ids", stateful=True)},
        chain_map={CHAIN: (1,)},
        scan_cache_size=scan_cache_size,
    )
    return DPIServiceInstance(config, name="dpi-t", telemetry=telemetry)


class TestMetricsRegistry:
    def test_counter_is_monotonic_and_labeled(self):
        registry = MetricsRegistry()
        registry.counter("pkts", instance="a").inc()
        registry.counter("pkts", instance="a").inc(4)
        registry.counter("pkts", instance="b").inc()
        assert registry.value("pkts", instance="a") == 5
        assert registry.value("pkts", instance="b") == 1
        assert registry.value("pkts", instance="missing", default=None) is None

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge("x")

    def test_callback_gauge_reads_lazily(self):
        registry = MetricsRegistry()
        box = {"n": 1}
        registry.gauge_callback("depth", lambda: box["n"])
        assert registry.value("depth") == 1
        box["n"] = 7
        assert registry.value("depth") == 7

    def test_histogram_buckets_and_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(5.55 / 3)
        assert hist.cumulative_buckets() == [
            (0.1, 1), (1.0, 2), (float("inf"), 3)
        ]

    def test_window_delta_is_incremental(self):
        registry = MetricsRegistry()
        counter = registry.counter("bytes", instance="a")
        counter.inc(10)
        window = registry.window(("bytes",))
        assert window.delta().value("bytes", instance="a") == 0
        counter.inc(5)
        assert window.delta().value("bytes", instance="a") == 5
        assert window.delta().value("bytes", instance="a") == 0

    def test_window_zero_baseline_covers_history(self):
        registry = MetricsRegistry()
        registry.counter("bytes", instance="a").inc(10)
        window = registry.window(("bytes",), zero_baseline=True)
        assert window.delta().value("bytes", instance="a") == 10

    def test_windows_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("bytes")
        first = registry.window(("bytes",))
        second = registry.window(("bytes",))
        counter.inc(3)
        assert first.delta().value("bytes") == 3
        counter.inc(2)
        assert first.delta().value("bytes") == 2
        assert second.delta().value("bytes") == 5

    def test_drop_removes_labeled_metrics(self):
        registry = MetricsRegistry()
        registry.counter("pkts", instance="a").inc()
        registry.counter("pkts", instance="b").inc()
        registry.gauge("flows", instance="a")
        assert registry.drop(instance="a") == 2
        assert registry.get("pkts", instance="a") is None
        assert registry.value("pkts", instance="b") == 1

    def test_simulator_clock_timestamps(self):
        simulator = Simulator()
        hub = TelemetryHub.for_simulator(simulator)
        simulator.schedule(1.5, lambda: None)
        simulator.run()
        assert hub.now() == pytest.approx(1.5)
        assert hub.registry.snapshot()["ts"] == pytest.approx(1.5)
        assert simulator.telemetry is hub
        assert hub.registry.value("sim_events_processed") == 1


class TestTracer:
    def test_root_and_children(self):
        tracer = Tracer(clock=lambda: 2.0)
        root = tracer.start_span("steer", host="h1")
        assert root.trace_id == root.span_id
        assert root.parent_id is None
        child = tracer.record("hop", parent=root, switch="s1")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.duration == 0.0
        assert tracer.children_of(root) == [child]

    def test_parent_as_context_tuple(self):
        tracer = Tracer(clock=lambda: 0.0)
        root = tracer.start_span("steer")
        child = tracer.record("inspect", parent=root.context)
        assert (child.trace_id, child.parent_id) == root.context

    def test_tree_nesting(self):
        tracer = Tracer(clock=lambda: 0.0)
        root = tracer.start_span("steer")
        tracer.record("hop", parent=root)
        tracer.record("deliver", parent=root)
        tree = tracer.tree(root.trace_id)
        assert tree["span"] is root
        assert [node["span"].name for node in tree["children"]] == [
            "hop", "deliver"
        ]

    def test_span_retention_bound(self):
        tracer = Tracer(clock=lambda: 0.0, max_spans=5)
        for index in range(9):
            tracer.start_span(f"s{index}")
        assert len(tracer.spans) == 5
        assert tracer.spans[0].name == "s4"

    def test_span_ids_are_deterministic(self):
        spans_a = Tracer(clock=lambda: 0.0)
        spans_b = Tracer(clock=lambda: 0.0)
        for tracer in (spans_a, spans_b):
            root = tracer.start_span("steer")
            tracer.record("hop", parent=root)
        assert [s.span_id for s in spans_a.spans] == [
            s.span_id for s in spans_b.spans
        ]


class TestExporters:
    def _hub(self):
        hub = TelemetryHub(clock=lambda: 3.0)
        hub.registry.counter("pkts", instance="a").inc(2)
        hub.registry.histogram("lat", buckets=(0.1,), instance="a").observe(0.05)
        root = hub.tracer.start_span("steer", host="h1")
        hub.tracer.record("hop", parent=root, switch="s1")
        return hub

    def test_prometheus_text_format(self):
        text = prometheus_text(self._hub().registry)
        assert "# TYPE pkts counter" in text
        assert 'pkts{instance="a"} 2' in text
        assert 'lat_bucket{instance="a",le="0.1"} 1' in text
        assert 'lat_bucket{instance="a",le="+Inf"} 1' in text
        assert 'lat_count{instance="a"} 1' in text

    def test_jsonl_export_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        count = export_jsonl(self._hub(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == count == 4  # 2 metrics + 2 spans
        events = [json.loads(line) for line in lines]
        kinds = [event["type"] for event in events]
        assert kinds == ["metric", "metric", "span", "span"]
        metric = events[0]
        assert metric["ts"] == 3.0
        span = events[2]
        assert span["name"] == "steer"
        assert span["attributes"] == {"host": "h1"}

    def test_iter_events_without_tracer(self):
        hub = TelemetryHub(tracing=False)
        hub.registry.counter("pkts").inc()
        events = list(iter_events(hub))
        assert [event["type"] for event in events] == ["metric"]

    def test_report_renders_instance_table(self):
        hub = TelemetryHub(clock=lambda: 0.0)
        instance = make_instance(telemetry=hub, scan_cache_size=4)
        instance.inspect(b"has a needle-alpha inside", chain_id=CHAIN, flow_key="f")
        text = render_report(hub)
        assert "dpi-t" in text
        assert "DPI instances" in text
        assert "% hit" in text  # the cache column is live

    def test_report_empty_hub(self):
        assert render_report(TelemetryHub()) == "no telemetry recorded\n"


class TestInstanceTelemetry:
    def test_registry_counters_match_legacy_telemetry(self):
        hub = TelemetryHub()
        instance = make_instance(telemetry=hub)
        payloads = [b"clean data", b"with needle-alpha", b"and needle-beta!"]
        for index, payload in enumerate(payloads):
            instance.inspect(payload, chain_id=CHAIN, flow_key=f"f{index}")
        registry = hub.registry
        legacy = instance.telemetry
        assert registry.value("dpi_packets_scanned_total", instance="dpi-t") == \
            legacy.packets_scanned == 3
        assert registry.value("dpi_bytes_scanned_total", instance="dpi-t") == \
            legacy.bytes_scanned
        assert registry.value("dpi_matches_total", instance="dpi-t") == \
            legacy.total_matches == 2
        assert registry.value(
            "dpi_scan_seconds_total", instance="dpi-t"
        ) == pytest.approx(legacy.scan_seconds)
        hist = registry.get("dpi_scan_latency_seconds", instance="dpi-t")
        assert hist.count == 3
        assert registry.value("dpi_active_flows", instance="dpi-t") == 3
        assert registry.value(
            "dpi_chain_packets_total", instance="dpi-t", chain=CHAIN
        ) == 3

    def test_cache_stats_surfaced_as_gauges(self):
        hub = TelemetryHub()
        instance = make_instance(telemetry=hub, scan_cache_size=2)
        instance.inspect(b"payload-one", chain_id=CHAIN)
        instance.inspect(b"payload-one", chain_id=CHAIN)
        registry = hub.registry
        stats = instance.scan_cache_stats()
        assert registry.value("dpi_scan_cache_hits", instance="dpi-t") == \
            stats["hits"] >= 1
        assert registry.value("dpi_scan_cache_misses", instance="dpi-t") == \
            stats["misses"]
        assert registry.value("dpi_scan_cache_evictions", instance="dpi-t") == \
            stats["evictions"]

    def test_inspect_results_identical_with_and_without_telemetry(self):
        plain = make_instance()
        traced = make_instance(telemetry=TelemetryHub())
        payloads = [
            b"nothing here",
            b"a needle-alpha match",
            b"needle-beta and needle-alpha",
            b"trailing needle-al",  # cross-packet prefix
            b"pha continuation",
        ]
        for index, payload in enumerate(payloads):
            flow = "shared-flow" if index >= 3 else f"f{index}"
            a = plain.inspect(payload, chain_id=CHAIN, flow_key=flow)
            b = traced.inspect(payload, chain_id=CHAIN, flow_key=flow)
            assert a.matches == b.matches
            assert a.bytes_scanned == b.bytes_scanned
            assert a.report.encode() == b.report.encode()

    def test_inspect_span_recorded_only_with_trace_parent(self):
        hub = TelemetryHub()
        instance = make_instance(telemetry=hub)
        instance.inspect(b"no parent", chain_id=CHAIN)
        assert hub.tracer.spans_named("inspect") == []
        root = hub.tracer.start_span("steer")
        instance.inspect(b"with needle-alpha", chain_id=CHAIN, trace_parent=root.context)
        spans = hub.tracer.spans_named("inspect")
        assert len(spans) == 1
        attrs = spans[0].attributes
        assert attrs["instance"] == "dpi-t"
        assert attrs["chain"] == CHAIN
        assert attrs["kernel"] == DEFAULT_KERNEL
        assert attrs["matches"] == 1
        assert attrs["bytes"] == len(b"with needle-alpha")

    def test_reconfigure_rebinds_metrics(self):
        hub = TelemetryHub()
        instance = make_instance(telemetry=hub)
        instance.inspect(b"needle-alpha", chain_id=CHAIN, flow_key="f")
        instance.reconfigure(instance.config)
        # The flow gauge must read the *new* scanner's (empty) flow table.
        assert hub.registry.value("dpi_active_flows", instance="dpi-t") == 0
        instance.inspect(b"needle-beta", chain_id=CHAIN, flow_key="g")
        assert hub.registry.value(
            "dpi_packets_scanned_total", instance="dpi-t"
        ) == 2


class TestPercentiles:
    def test_from_counts_interpolates_within_bucket(self):
        from repro.telemetry import percentile_from_counts

        bounds = (10.0, 20.0, 30.0)
        # 10 observations in (10, 20]: the median sits mid-bucket.
        counts = [0, 10, 0, 0]
        assert percentile_from_counts(bounds, counts, 0.50) == pytest.approx(
            15.0
        )
        assert percentile_from_counts(bounds, counts, 1.0) == pytest.approx(
            20.0
        )

    def test_from_counts_overflow_clamps_to_top_bound(self):
        from repro.telemetry import percentile_from_counts

        bounds = (10.0, 20.0)
        counts = [0, 0, 5]  # everything beyond the last finite bound
        assert percentile_from_counts(bounds, counts, 0.99) == 20.0

    def test_from_counts_empty_is_zero(self):
        from repro.telemetry import percentile_from_counts

        assert percentile_from_counts((1.0, 2.0), [0, 0, 0], 0.99) == 0.0

    def test_from_counts_validation(self):
        from repro.telemetry import percentile_from_counts

        with pytest.raises(ValueError, match="quantile"):
            percentile_from_counts((1.0,), [1, 1], 0.0)
        with pytest.raises(ValueError, match="quantile"):
            percentile_from_counts((1.0,), [1, 1], 1.5)
        with pytest.raises(ValueError, match="counts"):
            percentile_from_counts((1.0, 2.0), [1, 1], 0.5)

    def test_histogram_percentile_methods(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for _ in range(99):
            hist.observe(0.05)
        hist.observe(5.0)  # one overflow outlier
        assert hist.percentile(0.50) <= 0.1
        assert hist.percentile(0.99) <= 1.0
        tail = hist.percentiles((0.50, 0.95, 0.99))
        assert sorted(tail) == [0.50, 0.95, 0.99]
        assert tail[0.50] <= tail[0.95] <= tail[0.99]

    def test_report_surfaces_tail_latency_columns(self):
        hub = TelemetryHub()
        instance = make_instance(telemetry=hub)
        for _ in range(10):
            instance.inspect(b"some needle-alpha traffic", chain_id=CHAIN, flow_key="f")
        rendered = render_report(hub)
        header = rendered.splitlines()
        header = [line for line in header if "p99 us" in line]
        assert header, rendered
        assert "p50 us" in header[0] and "p95 us" in header[0]
