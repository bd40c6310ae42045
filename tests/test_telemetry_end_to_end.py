"""End-to-end telemetry over the figure-5 scenario.

One policy-chain run through the simulator must produce a complete span
tree per packet (steer -> hop(s) -> inspect -> deliver) and a registry
whose byte counters agree with what the hosts actually sent — and turning
telemetry off must not change the data plane at all.
"""

import json

import pytest

from repro.core.kernels import DEFAULT_KERNEL
from repro.telemetry.export import export_jsonl, prometheus_text
from repro.telemetry.report import render_report
from repro.telemetry.scenario import run_figure5_scenario

PACKETS = 30


@pytest.fixture(scope="module")
def scenario():
    return run_figure5_scenario(packets=PACKETS, seed=7)


class TestSpanTree:
    def test_every_packet_has_a_complete_trace(self, scenario):
        tracer = scenario.hub.tracer
        roots = tracer.spans_named("steer")
        assert len(roots) == PACKETS
        for root in roots:
            names = [span.name for span in tracer.children_of(root)]
            # steer -> at least one switch hop -> DPI inspect -> delivery.
            assert "hop" in names
            assert "inspect" in names
            assert "deliver" in names

    def test_inspect_spans_carry_scan_attributes(self, scenario):
        spans = scenario.hub.tracer.spans_named("inspect")
        assert len(spans) == PACKETS
        for span in spans:
            assert span.attributes["instance"] == "dpi3"
            assert span.attributes["kernel"] == DEFAULT_KERNEL
            assert span.attributes["bytes"] > 0
            assert span.attributes["chain"] > 0
            assert span.attributes["elapsed_seconds"] >= 0
        assert sum(
            span.attributes["bytes"] for span in spans
        ) == scenario.payload_bytes_sent

    def test_hop_spans_name_real_switches(self, scenario):
        switches = {
            span.attributes["switch"]
            for span in scenario.hub.tracer.spans_named("hop")
        }
        assert switches <= {"s1", "s2", "s3", "s4"}
        assert "s1" in switches  # both sources attach at s1

    def test_final_delivery_reaches_destination_unless_quarantined(
        self, scenario
    ):
        tracer = scenario.hub.tracer
        reached = 0
        for root in tracer.spans_named("steer"):
            hosts = {
                span.attributes["host"]
                for span in tracer.children_of(root)
                if span.name == "deliver"
            }
            if hosts & {"dst1", "dst2"}:
                reached += 1
            else:
                # The only legitimate early exit: the antivirus dropped it.
                assert "av1" in hosts
        assert reached > PACKETS // 2


class TestCounterConsistency:
    def test_bytes_scanned_equal_bytes_originated(self, scenario):
        registry = scenario.hub.registry
        scanned = sum(
            metric.value
            for metric in registry.collect_named("dpi_bytes_scanned_total")
        )
        originated = sum(
            metric.value
            for metric in registry.collect_named("host_payload_bytes_origin_total")
        )
        assert scanned == originated == scenario.payload_bytes_sent

    def test_packet_counters_agree(self, scenario):
        registry = scenario.hub.registry
        assert registry.value(
            "dpi_packets_scanned_total", instance="dpi3"
        ) == PACKETS
        originated = sum(
            metric.value
            for metric in registry.collect_named("host_packets_origin_total")
        )
        assert originated == PACKETS

    def test_per_chain_counters_sum_to_instance_totals(self, scenario):
        registry = scenario.hub.registry
        chain_packets = registry.collect_named("dpi_chain_packets_total")
        assert len(chain_packets) == 2  # one per policy chain
        assert sum(m.value for m in chain_packets) == registry.value(
            "dpi_packets_scanned_total", instance="dpi3"
        )
        chain_bytes = registry.collect_named("dpi_chain_bytes_total")
        assert sum(m.value for m in chain_bytes) == registry.value(
            "dpi_bytes_scanned_total", instance="dpi3"
        )

    def test_latency_histogram_covers_every_scan(self, scenario):
        hist = scenario.hub.registry.get(
            "dpi_scan_latency_seconds", instance="dpi3"
        )
        assert hist.count == PACKETS
        assert hist.sum == pytest.approx(
            scenario.hub.registry.value(
                "dpi_scan_seconds_total", instance="dpi3"
            )
        )

    def test_link_and_switch_counters_recorded(self, scenario):
        registry = scenario.hub.registry
        link_packets = registry.collect_named("link_packets_total")
        assert link_packets
        assert all(m.value > 0 for m in link_packets)
        switch_packets = registry.collect_named("switch_packets_total")
        assert {m.labels["switch"] for m in switch_packets} == {
            "s1", "s2", "s3", "s4"
        }

    def test_tsa_counters_recorded(self, scenario):
        registry = scenario.hub.registry
        assert registry.value("tsa_rules_installed_total") > 0
        assert registry.value("tsa_chains") == 2

    def test_simulator_gauges_live(self, scenario):
        registry = scenario.hub.registry
        assert registry.value("sim_events_processed") > 0
        assert registry.value("sim_pending_events") == 0
        assert registry.value("sim_clock_seconds") > 0

    def test_middleboxes_saw_the_planted_signatures(self, scenario):
        boxes = scenario.middleboxes
        assert boxes["ids1"].alerts
        assert boxes["ids2"].alerts or boxes["av1"].detections


class TestExports:
    def test_report_renders_all_sections(self, scenario):
        text = render_report(scenario.hub)
        for heading in ("DPI instances", "Policy chains", "Links", "Spans"):
            assert heading in text
        assert "dpi3" in text

    def test_jsonl_export_parses(self, scenario, tmp_path):
        path = tmp_path / "events.jsonl"
        count = export_jsonl(scenario.hub, path)
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(events) == count > 0
        kinds = {event["type"] for event in events}
        assert kinds == {"metric", "span"}

    def test_prometheus_export_contains_core_series(self, scenario):
        text = prometheus_text(scenario.hub.registry)
        assert 'dpi_bytes_scanned_total{instance="dpi3"}' in text
        assert "# TYPE dpi_scan_latency_seconds histogram" in text
        assert "dpi_scan_latency_seconds_bucket" in text


class TestScanCacheSurfacing:
    def test_cache_gauges_match_cache_stats(self):
        result = run_figure5_scenario(packets=12, seed=7, scan_cache_size=64)
        registry = result.hub.registry
        stats = result.instance.scan_cache_stats()
        assert stats is not None
        for stat_name in ("hits", "misses", "evictions"):
            assert registry.value(
                f"dpi_scan_cache_{stat_name}", instance="dpi3"
            ) == stats[stat_name]
        assert stats["misses"] > 0
        assert "hit" in render_report(result.hub)


class TestTelemetryDisabledParity:
    def test_data_plane_identical_with_telemetry_off(self, scenario):
        plain = run_figure5_scenario(packets=PACKETS, seed=7, telemetry=False)
        assert plain.hub is None
        assert plain.topology.simulator.telemetry is None
        assert plain.payload_bytes_sent == scenario.payload_bytes_sent
        # Packet ids are process-global, so compare id *sequences* relative
        # to each run's first alert rather than absolute values.
        for name in ("ids1", "ids2"):
            ours = plain.middleboxes[name].alerts
            theirs = scenario.middleboxes[name].alerts
            assert [a.rule_id for a in ours] == [a.rule_id for a in theirs]
            assert len(ours) == len(theirs)
            if ours:
                base_ours = ours[0].packet_id
                base_theirs = theirs[0].packet_id
                assert [a.packet_id - base_ours for a in ours] == [
                    a.packet_id - base_theirs for a in theirs
                ]
        assert [
            (flow, rule) for (flow, rule) in plain.middleboxes["av1"].detections
        ] == [
            (flow, rule)
            for (flow, rule) in scenario.middleboxes["av1"].detections
        ]
        # scan_seconds is wall-clock timing; the rest must match exactly.
        assert plain.instance.telemetry.packets_scanned == \
            scenario.instance.telemetry.packets_scanned
        assert plain.instance.telemetry.bytes_scanned == \
            scenario.instance.telemetry.bytes_scanned
        assert plain.instance.telemetry.total_matches == \
            scenario.instance.telemetry.total_matches

    def test_tracing_can_be_disabled_alone(self):
        result = run_figure5_scenario(packets=6, seed=7, tracing=False)
        assert result.hub.tracer is None
        registry = result.hub.registry
        assert registry.value(
            "dpi_packets_scanned_total", instance="dpi3"
        ) == 6
        # Origin counters must not double-count on forwarding hops.
        originated = sum(
            metric.value
            for metric in registry.collect_named("host_packets_origin_total")
        )
        assert originated == 6
