"""A self-contained figure-5 simulation wired for telemetry.

``run_figure5_scenario`` builds the paper's Figure 5 system — four switches,
two policy chains sharing one DPI service instance — attaches a simulator-
clocked :class:`~repro.telemetry.TelemetryHub`, pushes a deterministic mix
of clean and signature-bearing traffic through it, and returns everything a
caller needs to inspect the result.  It backs the ``repro-dpi report`` CLI
command, the end-to-end telemetry tests and the CI smoke job.

The traffic shaper from the original figure is deliberately left out: its
stopping condition truncates scans, and the scenario is also used to check
that bytes scanned by the DPI service equal the payload bytes the source
hosts originated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.controller import DPIController
from repro.core.instance import DPIServiceFunction
from repro.core.kernels import DEFAULT_KERNEL
from repro.middleboxes.antivirus import AntiVirus
from repro.middleboxes.base import MiddleboxChainFunction
from repro.middleboxes.firewall import L2L4Firewall, L2L4FirewallFunction
from repro.middleboxes.ids import IntrusionDetectionSystem
from repro.net.controller import SDNController
from repro.net.packet import make_tcp_packet
from repro.net.steering import (
    PolicyChain,
    TrafficAssignment,
    TrafficSteeringApplication,
)
from repro.net.topology import Topology
from repro.telemetry import TelemetryHub

IDS1_SIG = b"chain-one-threat"
IDS2_SIG = b"chain-two-threat"
AV_SIG = b"chain-two-virus!"


@dataclass
class ScenarioResult:
    """Everything the scenario produced, for reporting and assertions."""

    hub: TelemetryHub | None
    topology: Topology
    dpi_controller: DPIController
    tsa: TrafficSteeringApplication
    instance: object
    middleboxes: dict
    packets_sent: int
    payload_bytes_sent: int


@dataclass
class Figure5System:
    """The wired-up Figure 5 system, before any traffic is pushed.

    ``middlebox_functions`` maps host name to the installed
    :class:`~repro.middleboxes.base.MiddleboxChainFunction` (the handles
    the fault-recovery layer uses to degrade/restore middleboxes).
    """

    hub: TelemetryHub | None
    topology: Topology
    dpi_controller: DPIController
    tsa: TrafficSteeringApplication
    instance: object
    dpi_function: object
    middleboxes: dict
    middlebox_functions: dict


def _build_payload(rng: random.Random, chain: str) -> bytes:
    """A deterministic payload; roughly one in four carries a signature."""
    head = rng.randbytes(rng.randint(200, 700))
    tail = rng.randbytes(rng.randint(100, 500))
    roll = rng.random()
    if roll < 0.25:
        if chain == "chain1":
            signature = IDS1_SIG
        else:
            signature = IDS2_SIG if roll < 0.15 else AV_SIG
        return head + signature + tail
    return head + tail


def build_figure5_system(
    kernel: str = DEFAULT_KERNEL,
    scan_cache_size: int = 0,
    telemetry: bool = True,
    tracing: bool = True,
    extra_hosts: "dict[str, str] | None" = None,
    shards: int = 0,
    shard_backend: str = "serial",
    shard_kernel: str = "flat",
    shard_workers: int = 0,
    shard_pipelined: bool = False,
) -> Figure5System:
    """Wire up the Figure 5 system without sending any traffic.

    ``extra_hosts`` maps additional host names to the switch they hang off
    — the chaos harness uses this for standby DPI hosts that failover can
    later provision onto.
    """
    topo = Topology()
    hub = None
    if telemetry:
        hub = TelemetryHub.for_simulator(topo.simulator, tracing=tracing)

    for switch in ("s1", "s2", "s3", "s4"):
        topo.add_switch(switch)
    topo.add_link("s1", "s2")
    topo.add_link("s2", "s3")
    topo.add_link("s3", "s4")
    topo.add_link("s1", "s3")
    placements = {
        "src1": "s1", "dst1": "s4",
        "src2": "s1", "dst2": "s4",
        "l2l4_fw": "s3", "ids1": "s3",
        "ids2": "s4", "av1": "s2",
        "dpi3": "s2",
    }
    placements.update(extra_hosts or {})
    for host, switch in placements.items():
        topo.add_host(host)
        topo.add_link(switch, host)

    sdn = SDNController(topo, learning=False)
    tsa = TrafficSteeringApplication(sdn, topo)

    ids1 = IntrusionDetectionSystem(middlebox_id=1, name="ids1")
    ids1.add_signature(0, IDS1_SIG)
    ids2 = IntrusionDetectionSystem(middlebox_id=2, name="ids2")
    ids2.add_signature(0, IDS2_SIG)
    av1 = AntiVirus(middlebox_id=3, name="av1")
    av1.add_signature(0, AV_SIG)
    firewall = L2L4Firewall()

    dpi_controller = DPIController(telemetry=hub)
    for middlebox in (ids1, ids2, av1):
        middlebox.register_with(dpi_controller)

    tsa.register_middlebox_instance("l2l4_fw", "l2l4_fw")
    tsa.register_middlebox_instance("ids1", "ids1")
    tsa.register_middlebox_instance("ids2", "ids2")
    tsa.register_middlebox_instance("av1", "av1")
    tsa.register_middlebox_instance("dpi", "dpi3")

    tsa.add_policy_chain(PolicyChain("chain1", ("l2l4_fw", "ids1")))
    tsa.add_policy_chain(PolicyChain("chain2", ("ids2", "av1")))
    dpi_controller.attach_tsa(tsa)
    tsa.assign_traffic(TrafficAssignment("src1", "dst1", "chain1"))
    tsa.assign_traffic(TrafficAssignment("src2", "dst2", "chain2"))
    tsa.realize()

    instance = dpi_controller.instances.provision(
        "dpi3",
        kernel=kernel,
        scan_cache_size=scan_cache_size,
        shards=shards,
        shard_backend=shard_backend,
        shard_kernel=shard_kernel,
        shard_workers=shard_workers,
        shard_pipelined=shard_pipelined,
    )
    dpi_function = DPIServiceFunction(instance)
    topo.hosts["dpi3"].set_function(dpi_function)
    topo.hosts["l2l4_fw"].set_function(L2L4FirewallFunction(firewall))
    chain_functions = {
        "ids1": MiddleboxChainFunction(ids1),
        "ids2": MiddleboxChainFunction(ids2),
        "av1": MiddleboxChainFunction(av1),
    }
    for host_name, function in chain_functions.items():
        topo.hosts[host_name].set_function(function)

    return Figure5System(
        hub=hub,
        topology=topo,
        dpi_controller=dpi_controller,
        tsa=tsa,
        instance=instance,
        dpi_function=dpi_function,
        middleboxes={
            "ids1": ids1, "ids2": ids2, "av1": av1, "firewall": firewall
        },
        middlebox_functions=chain_functions,
    )


def run_figure5_scenario(
    packets: int = 40,
    seed: int = 7,
    kernel: str = DEFAULT_KERNEL,
    scan_cache_size: int = 0,
    telemetry: bool = True,
    tracing: bool = True,
    shards: int = 0,
    shard_backend: str = "serial",
    shard_kernel: str = "flat",
    shard_workers: int = 0,
    shard_pipelined: bool = False,
) -> ScenarioResult:
    """Build the Figure 5 system, run *packets* packets, return the result.

    With ``telemetry=False`` no hub is attached to the simulator and the
    DPI controller keeps its default (wall-clocked, trace-free) hub — the
    data-plane behaviour must be identical either way.
    """
    system = build_figure5_system(
        kernel=kernel,
        scan_cache_size=scan_cache_size,
        telemetry=telemetry,
        tracing=tracing,
        shards=shards,
        shard_backend=shard_backend,
        shard_kernel=shard_kernel,
        shard_workers=shard_workers,
        shard_pipelined=shard_pipelined,
    )
    topo = system.topology
    hub = system.hub
    dpi_controller = system.dpi_controller
    tsa = system.tsa
    instance = system.instance

    rng = random.Random(seed)
    payload_bytes_sent = 0
    for index in range(packets):
        chain = "chain1" if index % 2 == 0 else "chain2"
        src = topo.hosts["src1" if chain == "chain1" else "src2"]
        dst = topo.hosts["dst1" if chain == "chain1" else "dst2"]
        payload = _build_payload(rng, chain)
        packet = make_tcp_packet(
            src.mac, dst.mac, src.ip, dst.ip,
            40000 + index % 8, 80, payload=payload,
        )
        payload_bytes_sent += len(payload)
        src.send(packet)
        topo.run()

    return ScenarioResult(
        hub=hub,
        topology=topo,
        dpi_controller=dpi_controller,
        tsa=tsa,
        instance=instance,
        middleboxes=system.middleboxes,
        packets_sent=packets,
        payload_bytes_sent=payload_bytes_sent,
    )
