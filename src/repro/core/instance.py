"""A DPI service instance (paper Section 5).

An instance is initialized by the DPI controller with an
:class:`InstanceConfig` — the pattern sets and properties of every middlebox
it serves plus the policy-chain -> middlebox mapping.  It builds the combined
automaton (literal patterns plus regex anchors), scans packets once for all
active middleboxes, resolves regex confirmations, and produces the
:class:`~repro.core.reports.MatchReport` that travels to the middleboxes.

:class:`DPIServiceFunction` adapts an instance to the simulated network: it
reads the policy-chain tag off arriving packets, marks matched packets via
the ECN bit, and emits the results in one of the three Section 4.2 modes
(dedicated result packet by default, like the paper's prototype).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Hashable, TypedDict

from repro.core.combined import CombinedAutomaton
from repro.core.flow_table import ExportedFlow
from repro.core.kernels import DEFAULT_KERNEL, KERNEL_NAMES
from repro.core.patterns import Pattern, PatternKind
from repro.core.regex import RegexPreFilter, split_matches
from repro.core.reports import MatchReport
from repro.core.scanner import MiddleboxProfile, VirtualScanner
from repro.core.sharding import SHARDED_KERNEL_NAME, ShardedAutomaton
from repro.core.workers import BACKEND_NAMES
from repro.net.flows import FiveTuple
from repro.net.host import NetworkFunction
from repro.net.nsh import attach_nsh_results, build_result_packet, encode_tag_results
from repro.net.packet import Packet

RESULT_MODES = ("result_packet", "nsh", "tags")

#: Sentinel distinguishing "keyword not passed" from any real value, so the
#: deprecated positional shim can detect positional/keyword conflicts.
_UNSET: object = object()


def _resolve_legacy_call(
    method_name: str,
    legacy: tuple,
    keywords: dict,
    positions: tuple,
) -> None:
    """Map deprecated positional arguments onto their keyword slots.

    The inspection API is keyword-only (``chain_id``/``flow_key``/``now``/
    ``trace_parent``); old positional call shapes still work through this
    shim but emit a :class:`DeprecationWarning` attributed to the caller —
    which the test suite promotes to an error for in-repo callers, and the
    API002 lint rule flags statically.  Mutates *keywords* in place.
    """
    if len(legacy) > len(positions):
        raise TypeError(
            f"{method_name}() takes at most {1 + len(positions)} positional "
            f"arguments ({1 + len(legacy)} given)"
        )
    warnings.warn(
        f"passing {', '.join(positions[: len(legacy)])} to {method_name}() "
        "positionally is deprecated; pass them as keyword arguments",
        DeprecationWarning,
        stacklevel=3,
    )
    for name, value in zip(positions, legacy):
        if keywords[name] is not _UNSET:
            raise TypeError(
                f"{method_name}() got multiple values for argument {name!r}"
            )
        keywords[name] = value

#: Kernels an instance accepts: the single-automaton families plus the
#: sharded fan-out kernel (see repro.core.sharding).
INSTANCE_KERNEL_NAMES = KERNEL_NAMES + (SHARDED_KERNEL_NAME,)


class InstanceUnavailableError(RuntimeError):
    """Raised when an operation reaches a crashed DPI service instance.

    Distinct from ``KeyError`` (unknown instance name) so control-plane
    callers can tell "gone" from "down": a crashed instance still occupies
    its name and may be restarted by the recovery layer.
    """


@dataclass
class InstanceConfig:
    """What the controller passes to an instance at initialization
    (Section 5.1): pattern sets, middlebox properties, chain mapping."""

    pattern_sets: dict[int, list[Pattern]]
    profiles: dict[int, MiddleboxProfile]
    chain_map: dict[int, tuple[int, ...]]
    layout: str = "sparse"
    #: Scan kernel (see repro.core.kernels).  Instances default to the
    #: prefilter kernel; the flat table and the reference loops remain
    #: selectable.
    kernel: str = DEFAULT_KERNEL
    #: LRU scan-cache capacity; 0 disables caching (the default — cached
    #: scans also skip the real per-byte work the MCA^2 stress telemetry
    #: measures, so caching is opt-in).
    scan_cache_size: int = 0
    #: Shard count for ``kernel="sharded"`` (0 means unsharded; any other
    #: kernel requires it to stay 0).
    shards: int = 0
    #: Execution backend for sharded scans (see repro.core.workers).
    shard_backend: str = "serial"
    #: Per-shard kernel family for sharded scans.
    shard_kernel: str = "flat"
    #: Worker-process count for pooled shard backends (0 picks
    #: min(shards, cpu_count); any other kernel requires it to stay 0).
    shard_workers: int = 0
    #: Double-buffer batched sharded scans through two arena regions
    #: (effective on the ``zerocopy`` backend; others ignore it).
    shard_pipelined: bool = False

    def __post_init__(self) -> None:
        for middlebox_id in self.pattern_sets:
            if middlebox_id not in self.profiles:
                raise KeyError(f"pattern set without profile: {middlebox_id}")
        if self.kernel not in INSTANCE_KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {INSTANCE_KERNEL_NAMES}"
            )
        if self.kernel == SHARDED_KERNEL_NAME:
            if self.shards < 1:
                raise ValueError(
                    f"kernel 'sharded' needs shards >= 1, got {self.shards}"
                )
        elif self.shards:
            raise ValueError(
                f"shards={self.shards} requires kernel='sharded', "
                f"not {self.kernel!r}"
            )
        if self.shard_backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown shard backend {self.shard_backend!r}; "
                f"expected one of {BACKEND_NAMES}"
            )
        if self.shard_kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown shard kernel {self.shard_kernel!r}; "
                f"expected one of {KERNEL_NAMES}"
            )
        if self.shard_workers < 0:
            raise ValueError(
                f"negative shard worker count: {self.shard_workers}"
            )
        if self.kernel != SHARDED_KERNEL_NAME:
            if self.shard_workers:
                raise ValueError(
                    f"shard_workers={self.shard_workers} requires "
                    f"kernel='sharded', not {self.kernel!r}"
                )
            if self.shard_pipelined:
                raise ValueError(
                    f"shard_pipelined requires kernel='sharded', "
                    f"not {self.kernel!r}"
                )
        if self.scan_cache_size < 0:
            raise ValueError(f"negative scan cache size: {self.scan_cache_size}")


class InstanceTelemetrySnapshot(TypedDict):
    """The shape of :meth:`InstanceTelemetry.snapshot`."""

    packets_scanned: int
    bytes_scanned: int
    packets_with_matches: int
    total_matches: int
    scan_seconds: float
    regex_confirmations: int
    active_flows: int


@dataclass
class InstanceTelemetry:
    """Counters exported to the controller (the MCA^2 telemetry feed)."""

    packets_scanned: int = 0
    bytes_scanned: int = 0
    packets_with_matches: int = 0
    total_matches: int = 0
    scan_seconds: float = 0.0
    regex_confirmations: int = 0
    active_flows: int = 0
    # Heaviest flows by per-byte work, for the stress monitor.
    flow_work: dict[Hashable, float] = field(default_factory=dict)

    def snapshot(self) -> InstanceTelemetrySnapshot:
        """A plain-dict copy of the counters."""
        return {
            "packets_scanned": self.packets_scanned,
            "bytes_scanned": self.bytes_scanned,
            "packets_with_matches": self.packets_with_matches,
            "total_matches": self.total_matches,
            "scan_seconds": self.scan_seconds,
            "regex_confirmations": self.regex_confirmations,
            "active_flows": self.active_flows,
        }


@dataclass
class InspectionOutput:
    """The outcome of inspecting one packet."""

    #: middlebox id -> [(pattern id, position)], regexes resolved
    matches: dict[int, list[tuple[int, int]]]
    report: MatchReport
    bytes_scanned: int

    @property
    def has_matches(self) -> bool:
        """True when at least one match was found."""
        return not self.report.is_empty


class DPIServiceInstance:
    """The virtual DPI engine serving many middleboxes at once.

    ``telemetry`` is an optional :class:`~repro.telemetry.TelemetryHub`;
    when present, the instance publishes registry counters, a scan-latency
    histogram and per-chain counters, and records ``inspect`` spans for
    packets that carry a trace context.  Without a hub, the scan path pays
    a single attribute check and produces byte-identical results.
    """

    def __init__(
        self, config: InstanceConfig, name: str = "dpi", telemetry=None
    ) -> None:
        self.name = name
        self.telemetry = InstanceTelemetry()
        self.hub = telemetry
        #: False between :meth:`crash` and :meth:`restart`.  A crashed
        #: instance rejects every scan and migration operation with
        #: :class:`InstanceUnavailableError`.
        self.alive = True
        self.crashes = 0
        self.restarts = 0
        self._configure(config)

    def _configure(self, config: InstanceConfig) -> None:
        old = getattr(self, "automaton", None)
        if old is not None and hasattr(old, "shutdown"):
            # Reconfigure/restart replaces the automaton; release any
            # worker pool the old one holds before dropping the reference.
            old.shutdown()
        self.config = config
        self.prefilter = RegexPreFilter()
        literal_sets: dict[int, list[Pattern]] = {}
        for middlebox_id, patterns in config.pattern_sets.items():
            literals = []
            for pattern in patterns:
                if pattern.kind is PatternKind.LITERAL:
                    literals.append(pattern)
                else:
                    literals.extend(self.prefilter.add_regex(middlebox_id, pattern))
            literal_sets[middlebox_id] = literals
        if config.kernel == SHARDED_KERNEL_NAME:
            self.automaton = ShardedAutomaton(
                literal_sets,
                config.shards,
                layout=config.layout,
                shard_kernel=config.shard_kernel,
                backend=config.shard_backend,
                scan_cache_size=config.scan_cache_size,
                workers=config.shard_workers or None,
                pipelined=config.shard_pipelined,
            )
        else:
            self.automaton = CombinedAutomaton(
                literal_sets,
                layout=config.layout,
                kernel=config.kernel,
                scan_cache_size=config.scan_cache_size,
            )
        self.scanner = VirtualScanner(
            self.automaton, config.profiles, config.chain_map
        )
        self._bind_metrics()

    def attach_telemetry(self, hub) -> None:
        """Adopt a telemetry hub after construction and bind the metrics."""
        self.hub = hub
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """(Re)bind the registry metrics; reconfigure rebuilds the scanner
        and the automaton, so the gauges must be rebound to the new
        objects."""
        hub = self.hub
        if hub is None:
            self._m_packets = None
            self._m_bytes = None
            self._m_matches = None
            self._m_seconds = None
            self._h_latency = None
            self._tracer = None
            return
        registry = hub.registry
        name = self.name
        self._m_packets = registry.counter("dpi_packets_scanned_total", instance=name)
        self._m_bytes = registry.counter("dpi_bytes_scanned_total", instance=name)
        self._m_matches = registry.counter("dpi_matches_total", instance=name)
        self._m_seconds = registry.counter("dpi_scan_seconds_total", instance=name)
        self._h_latency = registry.histogram(
            "dpi_scan_latency_seconds", instance=name
        )
        scanner = self.scanner
        registry.gauge_callback(
            "dpi_active_flows", lambda: len(scanner.flow_table), instance=name
        )
        cache = self.automaton.scan_cache
        if cache is not None:
            registry.gauge_callback(
                "dpi_scan_cache_hits", lambda: cache.hits, instance=name
            )
            registry.gauge_callback(
                "dpi_scan_cache_misses", lambda: cache.misses, instance=name
            )
            registry.gauge_callback(
                "dpi_scan_cache_evictions", lambda: cache.evictions, instance=name
            )
        scanner.bind_metrics(registry, name)
        automaton = self.automaton
        # Kernel paths are plain ints on the kernel, read only when the
        # registry is.
        path_counts = getattr(automaton, "kernel_path_counts", None)
        if path_counts is not None:
            for path in path_counts:
                registry.gauge_callback(
                    "dpi_kernel_path_total",
                    lambda path=path: path_counts[path],
                    instance=name,
                    kernel=automaton.kernel_name,
                    path=path,
                )
        if hasattr(automaton, "bind_telemetry"):
            automaton.bind_telemetry(hub, name)
        self._tracer = hub.tracer

    def reconfigure(self, config: InstanceConfig) -> None:
        """Adopt a new configuration.

        The combined DFA is rebuilt, so per-flow DFA states from the old
        automaton are meaningless and the flow table starts empty — the same
        consequence a pattern update has on any AC-based engine.
        """
        self._configure(config)

    # --- failure model (fault injection / recovery) ------------------------

    def _require_alive(self) -> None:
        if not self.alive:
            raise InstanceUnavailableError(
                f"instance {self.name} has crashed and was not restarted"
            )

    def crash(self) -> None:
        """Simulate a process crash: the instance stops serving.

        All in-memory per-flow DFA state is lost; every scan or migration
        operation raises :class:`InstanceUnavailableError` until
        :meth:`restart`.  Idempotent — crashing a crashed instance is a
        no-op (matching a double SIGKILL).
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        if hasattr(self.automaton, "shutdown"):
            # A dead process takes its worker pool with it: drain the pool
            # so no shard worker outlives the crashed instance.
            self.automaton.shutdown()
        if self.hub is not None:
            self.hub.registry.counter(
                "dpi_instance_crashes_total", instance=self.name
            ).inc()

    def restart(self) -> None:
        """Bring a crashed instance back with a cold start.

        The automaton is rebuilt from the last pushed configuration; the
        flow table and the local telemetry counters start empty, exactly as
        a freshly spawned process would (registry counters are cumulative
        and keep their history).
        """
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        self.telemetry = InstanceTelemetry()
        self._configure(self.config)
        if self.hub is not None:
            self.hub.registry.counter(
                "dpi_instance_restarts_total", instance=self.name
            ).inc()

    # --- inspection -------------------------------------------------------------

    def inspect(
        self,
        payload: bytes,
        *legacy,
        chain_id: "int | object" = _UNSET,
        flow_key=_UNSET,
        now=_UNSET,
        trace_parent=_UNSET,
    ) -> InspectionOutput:
        """Scan one packet payload for its policy chain and build the report.

        ``chain_id`` is required and — like ``flow_key``/``now``/
        ``trace_parent`` — keyword-only; the old positional shape still
        works through a :class:`DeprecationWarning` shim (see
        :func:`_resolve_legacy_call`).

        ``trace_parent`` is an optional ``(trace id, span id)`` context; when
        the instance has a tracing telemetry hub, the scan is recorded as an
        ``inspect`` span under it.
        """
        keywords = {
            "chain_id": chain_id,
            "flow_key": flow_key,
            "now": now,
            "trace_parent": trace_parent,
        }
        if legacy:
            _resolve_legacy_call(
                "inspect",
                legacy,
                keywords,
                ("chain_id", "flow_key", "now", "trace_parent"),
            )
        if keywords["chain_id"] is _UNSET:
            raise TypeError(
                "inspect() missing required keyword-only argument: 'chain_id'"
            )
        return self._inspect(
            payload,
            keywords["chain_id"],
            None if keywords["flow_key"] is _UNSET else keywords["flow_key"],
            0.0 if keywords["now"] is _UNSET else keywords["now"],
            None
            if keywords["trace_parent"] is _UNSET
            else keywords["trace_parent"],
        )

    def _inspect(
        self,
        payload: bytes,
        chain_id: int,
        flow_key,
        now: float,
        trace_parent,
    ) -> InspectionOutput:
        self._require_alive()
        telemetry_on = self._m_packets is not None
        cache = self.automaton.scan_cache if telemetry_on else None
        cache_hits_before = cache.hits if cache is not None else 0
        started = time.perf_counter()
        scan = self.scanner.scan_packet(payload, chain_id, flow_key=flow_key, now=now)
        final_matches: dict[int, list[tuple[int, int]]] = {}
        for middlebox_id, raw in scan.matches.items():
            reportable, anchor_ids = split_matches(raw)
            if anchor_ids or self.prefilter.has_regexes(middlebox_id):
                confirmed = self.prefilter.confirm(middlebox_id, payload, anchor_ids)
                if confirmed:
                    self.telemetry.regex_confirmations += len(confirmed)
                    reportable.extend(confirmed)
                reportable.extend(self.prefilter.scan_fallback(middlebox_id, payload))
                # confirm and scan_fallback can both report the same
                # (pattern id, position) when a regex has anchors *and* a
                # fallback expression; report each match once.
                if len(reportable) > 1:
                    reportable = list(dict.fromkeys(reportable))
            final_matches[middlebox_id] = reportable
        report = MatchReport.from_matches(final_matches)
        elapsed = time.perf_counter() - started

        telemetry = self.telemetry
        telemetry.packets_scanned += 1
        telemetry.bytes_scanned += scan.bytes_scanned
        telemetry.scan_seconds += elapsed
        telemetry.active_flows = len(self.scanner.flow_table)
        total = sum(len(v) for v in final_matches.values())
        telemetry.total_matches += total
        if total:
            telemetry.packets_with_matches += 1
        if flow_key is not None:
            work = telemetry.flow_work.get(flow_key, 0.0)
            telemetry.flow_work[flow_key] = work + elapsed
        if telemetry_on:
            self._m_packets.inc()
            self._m_bytes.inc(scan.bytes_scanned)
            self._m_seconds.inc(elapsed)
            self._h_latency.observe(elapsed)
            if total:
                self._m_matches.inc(total)
            tracer = self._tracer
            if tracer is not None and trace_parent is not None and trace_parent[0]:
                at = tracer.now()
                tracer.record(
                    "inspect",
                    parent=trace_parent,
                    start=at,
                    end=at,
                    instance=self.name,
                    chain=chain_id,
                    kernel=self.config.kernel,
                    bytes=scan.bytes_scanned,
                    matches=total,
                    elapsed_seconds=elapsed,
                    cache_hit=(cache is not None and cache.hits > cache_hits_before),
                )
        return InspectionOutput(
            matches=final_matches, report=report, bytes_scanned=scan.bytes_scanned
        )

    def inspect_batch(
        self,
        payloads,
        *legacy,
        chain_id: "int | object" = _UNSET,
        flow_keys=_UNSET,
        now=_UNSET,
        trace_parent=_UNSET,
    ) -> list[InspectionOutput]:
        """Inspect a batch of payloads for one policy chain, in order.

        ``flow_keys`` is an optional parallel sequence (one key per
        payload; ``None`` entries mean flowless).  ``trace_parent`` applies
        to every scan in the batch — one ``inspect`` span per payload under
        the same parent.  Batching amortizes the per-call service overhead
        and keeps repeated payloads hot in the scan cache; results come
        back in submission order.  Keyword-only like :meth:`inspect`, with
        the same deprecated-positional shim (``trace_parent`` never had a
        positional slot).
        """
        keywords = {
            "chain_id": chain_id,
            "flow_keys": flow_keys,
            "now": now,
            "trace_parent": trace_parent,
        }
        if legacy:
            _resolve_legacy_call(
                "inspect_batch",
                legacy,
                keywords,
                ("chain_id", "flow_keys", "now"),
            )
        if keywords["chain_id"] is _UNSET:
            raise TypeError(
                "inspect_batch() missing required keyword-only argument: "
                "'chain_id'"
            )
        resolved_chain = keywords["chain_id"]
        resolved_now = 0.0 if keywords["now"] is _UNSET else keywords["now"]
        resolved_trace = (
            None
            if keywords["trace_parent"] is _UNSET
            else keywords["trace_parent"]
        )
        resolved_keys = (
            None if keywords["flow_keys"] is _UNSET else keywords["flow_keys"]
        )
        payloads = list(payloads)
        if resolved_keys is None:
            resolved_keys = [None] * len(payloads)
        else:
            resolved_keys = list(resolved_keys)
            if len(resolved_keys) != len(payloads):
                raise ValueError(
                    f"flow_keys length {len(resolved_keys)} != payloads "
                    f"length {len(payloads)}"
                )
        return [
            self._inspect(
                payload, resolved_chain, flow_key, resolved_now, resolved_trace
            )
            for payload, flow_key in zip(payloads, resolved_keys)
        ]

    def scan_cache_stats(self) -> "dict[str, int] | None":
        """The automaton's scan-cache counters, or None when disabled."""
        cache = self.automaton.scan_cache
        return cache.stats() if cache is not None else None

    # --- flow migration (Section 4.3) -----------------------------------------

    def export_flow(self, flow_key) -> "ExportedFlow | None":
        """Hand a flow's scan state to the controller for migration."""
        self._require_alive()
        return self.scanner.flow_table.export_flow(flow_key)

    def import_flow(self, flow_key, exported: ExportedFlow) -> None:
        """Install migrated flow scan state."""
        self._require_alive()
        self.scanner.flow_table.import_flow(flow_key, exported)

    def drop_flow(self, flow_key) -> None:
        """Forget one flow's scan state."""
        self.scanner.flow_table.remove(flow_key)

    def heavy_flows(self, top: int = 5) -> list[tuple[Hashable, float]]:
        """Flows ranked by accumulated scan work (for the stress monitor)."""
        ranked = sorted(
            self.telemetry.flow_work.items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:top]

    def reset_telemetry(self) -> None:
        """Zero every counter (start a fresh observation window)."""
        self.telemetry = InstanceTelemetry()


class DPIServiceFunction(NetworkFunction):
    """Adapter: runs a :class:`DPIServiceInstance` on a simulated host.

    ``direct_chains`` activates the read-only optimization (Section 4.2,
    option 3) for the listed policy-chain ids: those chains' middleboxes
    are *off* the data path, so matched packets trigger result packets
    addressed straight to the middlebox hosts (``middlebox_addresses``
    maps middlebox id to ``(mac, ip)``), and matchless packets generate no
    middlebox traffic at all.
    """

    def __init__(
        self,
        instance: DPIServiceInstance,
        result_mode: str = "result_packet",
        direct_chains=None,
        middlebox_addresses=None,
    ) -> None:
        if result_mode not in RESULT_MODES:
            raise ValueError(
                f"unknown result mode {result_mode!r}; expected one of {RESULT_MODES}"
            )
        self.instance = instance
        self.result_mode = result_mode
        self.direct_chains = set(direct_chains or ())
        self.middlebox_addresses = dict(middlebox_addresses or {})
        if self.direct_chains:
            # Sorted: which missing-address chain raises first must not
            # depend on set iteration order.
            for chain_id in sorted(self.direct_chains):
                for middlebox_id in instance.scanner.chain_map.get(chain_id, ()):
                    if middlebox_id not in self.middlebox_addresses:
                        raise KeyError(
                            f"direct chain {chain_id} needs an address for "
                            f"middlebox {middlebox_id}"
                        )
        self.packets_forwarded = 0
        self.packets_skipped = 0
        self.direct_results_sent = 0
        self.packets_blackholed = 0
        #: Fault injection: while set, emitted result packets have their
        #: report payload deterministically corrupted (first byte flipped),
        #: exercising the middlebox fail-open path.
        self.corrupt_results = False
        self.results_corrupted = 0

    def process(self, packet: Packet) -> list[Packet]:
        # Result packets or untagged traffic pass through untouched.
        """Handle one received packet; return the packets to send on."""
        if not self.instance.alive:
            # A crashed instance forwards nothing: packets steered at its
            # host are blackholed until the recovery layer re-steers the
            # chains (the loss the failover-time budget bounds).
            self.packets_blackholed += 1
            return []
        tag = packet.outer_vlan
        if packet.is_result_packet or tag is None:
            self.packets_skipped += 1
            return [packet]
        chain_id = tag.vid
        if chain_id not in self.instance.scanner.chain_map:
            self.packets_skipped += 1
            return [packet]
        flow_key = FiveTuple.of(packet)
        now = self.host.simulator.now if hasattr(self, "host") else 0.0
        output = self.instance.inspect(
            packet.payload,
            chain_id=chain_id,
            flow_key=flow_key,
            now=now,
            trace_parent=packet.trace,
        )
        self.packets_forwarded += 1
        if output.report.is_empty:
            # No matches: forward as is, without any modification.
            return [packet]
        if chain_id in self.direct_chains:
            return self._emit_direct(packet, output)
        packet.mark_matched()
        if self.result_mode == "nsh":
            attach_nsh_results(packet, output.report, service_path=chain_id)
            return [packet]
        if self.result_mode == "tags":
            encode_tag_results(packet, output.report)
            return [packet]
        result = build_result_packet(packet, output.report)
        if self.corrupt_results and result.payload:
            result.payload = (
                bytes([result.payload[0] ^ 0xFF]) + result.payload[1:]
            )
            self.results_corrupted += 1
        return [packet, result]

    def _emit_direct(self, packet: Packet, output: InspectionOutput) -> list[Packet]:
        """Read-only mode: data packet continues; one result packet goes
        straight to every middlebox that has matches."""
        from repro.net.nsh import build_directed_result_packet
        from repro.core.reports import MatchReport

        emitted = [packet]
        for middlebox_id, matches in output.matches.items():
            if not matches:
                continue
            mac, ip = self.middlebox_addresses[middlebox_id]
            per_middlebox = MatchReport.from_matches({middlebox_id: matches})
            emitted.append(
                build_directed_result_packet(packet, per_middlebox, mac, ip)
            )
            self.direct_results_sent += 1
        return emitted
