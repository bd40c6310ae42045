"""The service under test, set up through public APIs only, and the
packet path the benchmark drives.

One data packet is one operation: ``DPIServiceFunction.process`` on the
DPI instance, then every consumer's ``MiddleboxChainFunction.process`` in
chain order, all in this process and on this thread.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field

from workloads import (
    ANOMALY_ID,
    AV_ID,
    FLOOD_CHAIN,
    IDS_ID,
    WEB_CHAIN,
    Workload,
)


def build_middleboxes(workload: Workload, registry) -> list:
    """Fresh middlebox objects for the workload's chain, in chain order."""
    from repro.anomaly import AnomalyDetectorMiddlebox
    from repro.middleboxes.antivirus import AntiVirus
    from repro.middleboxes.ids import IntrusionDetectionSystem

    rules = workload.rules
    middleboxes = []
    for kind in workload.shape.chain:
        if kind == "ids":
            ids = IntrusionDetectionSystem(IDS_ID)
            for rule, data in rules.ids_literals:
                ids.add_signature(rule, data)
            for rule, source, _ in rules.ids_regexes:
                ids.add_regex_signature(rule, source)
            middleboxes.append(ids)
        elif kind == "av":
            av = AntiVirus(AV_ID)
            for rule, data in rules.av_signatures:
                av.add_signature(rule, data)
            middleboxes.append(av)
        else:
            middleboxes.append(
                AnomalyDetectorMiddlebox(ANOMALY_ID, "anomaly", registry=registry))
    return middleboxes


@dataclass
class Service:
    """A provisioned instance and the chain functions in front of it."""

    controller: object
    instance: object
    middleboxes: list
    dpi: object
    consumers: list
    chain_id: int
    register_s: float
    provision_s: float

    @property
    def setup_s(self) -> float:
        return self.register_s + self.provision_s

    @property
    def anomaly(self):
        for middlebox in self.middleboxes:
            if middlebox.middlebox_id == ANOMALY_ID:
                return middlebox
        return None


def set_up(workload: Workload, probe=None) -> Service:
    """Controller creation, registration over JSON messages, policy chains
    and the first instance, timed from controller creation until the
    instance is ready.  *probe*, a context manager, is entered around the
    timed part only."""
    from repro.core.controller import DPIController
    from repro.core.instance import DPIServiceFunction
    from repro.middleboxes.base import MiddleboxChainFunction
    from repro.net.steering import PolicyChain
    from repro.telemetry import TelemetryHub

    hub = TelemetryHub(tracing=False)
    middleboxes = build_middleboxes(workload, hub.registry)
    chain_id = WEB_CHAIN if workload.shape.http else FLOOD_CHAIN
    types = ("dpi",) + tuple(workload.shape.chain)
    with probe or contextlib.nullcontext():
        started = time.perf_counter()
        controller = DPIController(telemetry=hub)
        for middlebox in middleboxes:
            middlebox.register_with(controller)
        registered = time.perf_counter()
        controller.policy_chains_changed({workload.name: PolicyChain(
            workload.name, types, chain_id=chain_id)})
        instance = controller.instances.provision("dpi-1")
        ready = time.perf_counter()
    return Service(
        controller=controller,
        instance=instance,
        middleboxes=middleboxes,
        dpi=DPIServiceFunction(instance),
        consumers=[MiddleboxChainFunction(m) for m in middleboxes],
        chain_id=chain_id,
        register_s=registered - started,
        provision_s=ready - registered,
    )


def scale_out(service: Service, name: str, probe=None) -> float:
    """Seconds for one more ``instances.provision`` on the same chains;
    the extra instance is decommissioned afterwards.  *probe* is entered
    around the timed call only."""
    with probe or contextlib.nullcontext():
        started = time.perf_counter()
        service.controller.instances.provision(name)
        elapsed = time.perf_counter() - started
    service.controller.instances.decommission(name)
    return elapsed


def make_packets(workload: Workload, chain_id: int, start: int = 0,
                 stop: "int | None" = None) -> list:
    """Fresh ``Packet`` objects for data packets ``start:stop``.  Each pass
    needs its own, as the path mutates them; they are built just before
    they are sent, so the benchmark holds no more of them alive than a
    sender would."""
    from repro.net.addresses import IPv4Address, MACAddress
    from repro.net.packet import (
        PROTO_TCP,
        EthernetHeader,
        IPv4Header,
        Packet,
        TCPHeader,
        VlanTag,
    )

    eth = EthernetHeader(src=MACAddress.from_index(1), dst=MACAddress.from_index(2))
    server = IPv4Address("192.168.0.1")
    tag = VlanTag(chain_id)
    headers: dict = {}
    packets = []
    for flow, payload in workload.payloads(start, stop):
        pair = headers.get(flow)
        if pair is None:
            pair = headers[flow] = (
                IPv4Header(src=IPv4Address.from_index(flow), dst=server,
                           protocol=PROTO_TCP),
                TCPHeader(src_port=1024 + flow % 60000, dst_port=80),
            )
        packets.append(Packet(eth=eth, ip=pair[0], l4=pair[1],
                              payload=payload, vlan_stack=[tag]))
    return packets


@dataclass
class PathLog:
    """What the path returned for every data packet, in order.

    Kept to bytes and flat lists: the log must not feed the collector
    long-lived objects the service itself would not create.
    """

    #: per packet: F forwarded, D dropped by a middlebox or lost, R raised
    verdicts: bytearray = field(default_factory=bytearray)
    #: per packet: the result packet's encoded report, or None
    reports: list = field(default_factory=list)
    #: anomaly verdict digests, one per epoch boundary
    epochs: list = field(default_factory=list)
    #: wall-clock seconds of each epoch's verdicts() fold
    folds_s: list = field(default_factory=list)


class Path:
    """Drives packets through the DPI function and the consumers."""

    def __init__(self, service: Service) -> None:
        self.service = service
        self.log = PathLog()
        self.served = 0

    def serve(self, packet) -> None:
        """One operation: the data packet through the whole chain."""
        log = self.log
        report = None
        try:
            out = self.service.dpi.process(packet)
            if len(out) == 2:
                report = out[1].payload
            for function in self.service.consumers:
                if len(out) == 1:
                    out = function.process(out[0])
                else:
                    released = []
                    for item in out:
                        released.extend(function.process(item))
                    out = released
            log.verdicts.append(70 if out and out[0] is packet else 68)
        except Exception:  # a raising packet is a failed operation
            log.verdicts.append(82)
        log.reports.append(report)
        self.served += 1

    def fold(self) -> None:
        """Anomaly verdicts at an epoch boundary (a fold over every
        tracked flow, run in line like the load driver does)."""
        from repro.anomaly import verdict_digest

        started = time.perf_counter()
        verdicts = self.service.anomaly.verdicts()
        self.log.folds_s.append(time.perf_counter() - started)
        self.log.epochs.append(verdict_digest(verdicts))


def digest_and_check(workload: Workload, service: Service,
                     log: PathLog) -> dict:
    """The output digest, the correctness gate and the failure count.

    A data packet fails when it raised, when it left the path without any
    consumer's verdict (neither forwarded nor dropped by a middlebox), or
    when a consumer handled it without its report.
    """
    from repro.core.reports import MatchReport

    digest = hashlib.sha256(bytes(log.verdicts))
    for index, report in enumerate(log.reports):
        if report is not None:
            digest.update(b"%d:" % index)
            digest.update(report)
    for verdicts in log.epochs:
        digest.update(verdicts.encode())
    dropped = log.verdicts.count(68)
    middlebox_drops = sum(m.stats.packets_dropped for m in service.middleboxes)
    lost = max(0, dropped - middlebox_drops)
    without_report = sum(
        f.forced_releases + f.corrupt_reports for f in service.consumers)
    missing = []
    for plant in workload.plants:
        report = log.reports[plant.packet]
        found = report is not None and (plant.rule, plant.position) in (
            MatchReport.decode(report).matches_for(plant.middlebox))
        if not found:
            missing.append(plant)
    data_bytes = workload.payload_bytes()
    result_bytes = sum(len(r) for r in log.reports if r is not None)
    return {
        "digest": digest.hexdigest(),
        "failed": log.verdicts.count(82) + lost + without_report,
        "missing_plants": missing,
        "result_overhead_pct": 100.0 * result_bytes / data_bytes,
        "matched_share": 1 - log.reports.count(None) / len(log.reports),
    }
