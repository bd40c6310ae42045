"""Failure detection and recovery: heartbeats, failover, reattachment.

Two cooperating pieces:

* :class:`HeartbeatMonitor` — the controller-side prober.  Every
  ``interval`` seconds it pings each known instance over the
  :class:`~repro.faults.control.ControlChannel`.  An instance is declared
  *down* only when an RPC fails (after the channel's own retries) **and**
  no successful ping has been seen for ``timeout`` seconds — so a control
  impairment window shorter than the heartbeat timeout never triggers a
  spurious failover.  A later successful ping declares it *up* again.

* :class:`FailoverCoordinator` — what to do about it.  When an instance
  goes down, every realized chain steered through its host is re-steered
  (:meth:`~repro.net.steering.TrafficSteeringApplication.resteer_chain`)
  to a surviving shared instance, or to a freshly provisioned one on a
  spare host, or — when no instance is reachable at all — the chain
  *degrades*: the DPI hop is dropped from the path and each middlebox
  falls back to its own legacy scanning twin
  (:meth:`~repro.middleboxes.base.MiddleboxChainFunction.degrade`).
  When the instance comes back, the original paths are reinstalled and
  the middleboxes reattach.

Dedicated MCA² engines are deliberately out of bounds: they are never
picked as failover targets (their pattern sets cover one chain only) and
never decommissioned by recovery.

Every detection and recovery action lands on the telemetry hub as a
:class:`~repro.telemetry.FaultEvent` with phase ``"detect"`` or
``"recover"`` — the chaos harness derives failover times from these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.instance import DPIServiceFunction, InstanceUnavailableError
from repro.core.kernels import DEFAULT_KERNEL

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.faults.control import ControlChannel
    from repro.net.simulator import Simulator


@dataclass(frozen=True)
class HeartbeatConfig:
    """Timing for failure detection.

    ``failover_budget`` is the acceptance bound the chaos harness checks:
    the sim-time between a crash being injected and the last affected
    chain being re-steered must not exceed it.  Detection alone takes up
    to ``timeout`` plus one control-RPC failure (its timeout times the
    retry attempts), so the budget must leave room for both.
    """

    interval: float = 0.05
    timeout: float = 0.15
    failover_budget: float = 1.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.timeout < self.interval:
            raise ValueError("heartbeat timeout must cover >= one interval")
        if self.failover_budget <= 0:
            raise ValueError("failover budget must be positive")


class HeartbeatMonitor:
    """Controller-side liveness probing over the control channel."""

    def __init__(
        self,
        simulator: "Simulator",
        control: "ControlChannel",
        instances: Mapping,
        *,
        config: HeartbeatConfig | None = None,
        telemetry=None,
        on_instance_down: Callable[[str], None] | None = None,
        on_instance_up: Callable[[str], None] | None = None,
    ) -> None:
        self.simulator = simulator
        self.control = control
        #: A *live* mapping (``controller.instances`` works as-is): the
        #: monitor probes whatever it contains at each tick, so instances
        #: provisioned after :meth:`start` are picked up automatically.
        self.instances = instances
        self.config = config or HeartbeatConfig()
        self.telemetry = telemetry
        self.on_instance_down = on_instance_down
        self.on_instance_up = on_instance_up
        self.last_seen: dict[str, float] = {}
        self.down: dict[str, bool] = {}
        self._tick_event = None
        self._running = False

    def start(self) -> None:
        """Begin probing; idempotent."""
        if self._running:
            return
        self._running = True
        self._schedule_tick()

    def stop(self) -> None:
        """Stop probing and disarm the pending tick."""
        self._running = False
        if self._tick_event is not None:
            self.simulator.cancel(self._tick_event)
            self._tick_event = None

    def is_down(self, name: str) -> bool:
        """True while *name* is considered failed."""
        return self.down.get(name, False)

    # --- probing -----------------------------------------------------------

    def _schedule_tick(self) -> None:
        self._tick_event = self.simulator.schedule(
            self.config.interval, self._tick, label="heartbeat:tick"
        )

    def _tick(self) -> None:
        if not self._running:
            return
        for name in list(self.instances):
            self._probe(name)
        self._schedule_tick()

    def _probe(self, name: str) -> None:
        instance = self.instances.get(name)
        if instance is None:
            return
        self.last_seen.setdefault(name, self.simulator.now)

        def ping() -> str:
            if not instance.alive:
                raise InstanceUnavailableError(
                    f"instance {name} missed a heartbeat"
                )
            return name

        self.control.rpc(
            f"heartbeat:{name}",
            ping,
            on_success=lambda _result: self._seen(name),
            on_failure=lambda error: self._missed(name, error),
        )

    def _seen(self, name: str) -> None:
        self.last_seen[name] = self.simulator.now
        if self.down.get(name):
            self.down[name] = False
            if self.telemetry is not None:
                self.telemetry.record_fault(
                    "heartbeat", name, phase="recover", detail="instance back"
                )
            if self.on_instance_up is not None:
                self.on_instance_up(name)

    def _missed(self, name: str, error: Exception) -> None:
        if self.down.get(name):
            return
        if name not in self.instances:
            return  # decommissioned while the RPC was in flight
        silence = self.simulator.now - self.last_seen.get(
            name, self.simulator.now
        )
        if silence < self.config.timeout:
            # A lost probe with recent proof of life: wait for the timeout
            # before declaring failure (no spurious failover on short
            # control impairment windows).
            return
        self.down[name] = True
        if self.telemetry is not None:
            self.telemetry.record_fault(
                "heartbeat_lost",
                name,
                phase="detect",
                detail=f"{type(error).__name__}: {error}",
            )
        if self.on_instance_down is not None:
            self.on_instance_down(name)


@dataclass
class FailoverRecord:
    """What recovery did about one instance failure."""

    instance: str
    host: str
    detected_at: float
    mode: str = ""  # "resteer" | "provision" | "degrade"
    replacement: "str | None" = None
    chains: tuple = ()
    original_hops: dict = field(default_factory=dict)
    degraded_hosts: tuple = ()
    recovered_at: "float | None" = None
    reattached_at: "float | None" = None


class FailoverCoordinator:
    """Re-steers, re-provisions or degrades chains around dead instances."""

    def __init__(
        self,
        controller,
        tsa,
        topology,
        *,
        instance_hosts: dict[str, str],
        dpi_functions: "dict[str, DPIServiceFunction] | None" = None,
        middlebox_functions: "dict[str, object] | None" = None,
        spare_hosts: "list[str] | None" = None,
        kernel: str = DEFAULT_KERNEL,
        shards: int = 0,
        shard_backend: str = "serial",
        shard_kernel: str = "flat",
        shard_workers: int = 0,
        shard_pipelined: bool = False,
        telemetry=None,
    ) -> None:
        self.controller = controller
        self.tsa = tsa
        self.topology = topology
        #: instance name -> host carrying its DPIServiceFunction.
        self.instance_hosts = dict(instance_hosts)
        #: instance name -> its attached DPIServiceFunction.
        self.dpi_functions = dict(dpi_functions or {})
        #: host name -> MiddleboxChainFunction, for degradation.
        self.middlebox_functions = dict(middlebox_functions or {})
        #: Hosts failover may provision fresh instances onto, in order.
        self.spare_hosts = list(spare_hosts or [])
        self.kernel = kernel
        self.shards = shards
        self.shard_backend = shard_backend
        self.shard_kernel = shard_kernel
        self.shard_workers = shard_workers
        self.shard_pipelined = shard_pipelined
        self.telemetry = telemetry
        self.records: dict[str, FailoverRecord] = {}

    def _record_fault(self, kind: str, target: str, phase: str, detail: str = "") -> None:
        if self.telemetry is not None:
            self.telemetry.record_fault(kind, target, phase=phase, detail=detail)

    def _now(self) -> float:
        return self.topology.simulator.now

    # --- failure path -------------------------------------------------------

    def handle_instance_down(self, name: str) -> FailoverRecord:
        """React to a detected instance failure (heartbeat callback)."""
        host = self.instance_hosts.get(name)
        record = FailoverRecord(
            instance=name, host=host or "", detected_at=self._now()
        )
        self.records[name] = record
        if host is None:
            record.mode = "unknown-host"
            return record
        affected = [
            chain_name
            for chain_name, realized in sorted(self.tsa.realized.items())
            if host in realized.hop_hosts
        ]
        record.chains = tuple(affected)
        for chain_name in affected:
            record.original_hops[chain_name] = self.tsa.realized[
                chain_name
            ].hop_hosts
        if not affected:
            record.mode = "no-op"
            record.recovered_at = self._now()
            return record

        replacement = self._pick_replacement(name)
        if replacement is None:
            replacement = self._provision_replacement(name, record)
        if replacement is not None:
            replacement_host = self.instance_hosts[replacement]
            for chain_name in affected:
                self.tsa.resteer_chain(chain_name, {host: replacement_host})
            record.replacement = replacement
            record.mode = record.mode or "resteer"
            record.recovered_at = self._now()
            self._record_fault(
                "failover",
                name,
                "recover",
                detail=(
                    f"{record.mode}: chains {','.join(affected)} -> "
                    f"{replacement}@{replacement_host}"
                ),
            )
        else:
            self._degrade(name, host, affected, record)
        return record

    def _pick_replacement(self, failed: str) -> "str | None":
        """The first surviving shared instance that can take the traffic."""
        instances = self.controller.instances
        for candidate in instances:
            if candidate == failed:
                continue
            if instances.is_dedicated(candidate):
                continue  # dedicated MCA² engines must survive failover
            if candidate not in self.instance_hosts:
                continue  # no data-plane presence
            if candidate not in self.dpi_functions:
                continue
            if not instances[candidate].alive:
                continue
            return candidate
        return None

    def _provision_replacement(
        self, failed: str, record: FailoverRecord
    ) -> "str | None":
        """Spawn a fresh instance on the first spare host, if any."""
        while self.spare_hosts:
            spare = self.spare_hosts.pop(0)
            if spare not in self.topology.hosts:
                continue
            new_name = f"{failed}-failover"
            suffix = 1
            while new_name in self.controller.instances:
                suffix += 1
                new_name = f"{failed}-failover{suffix}"
            instance = self.controller.instances.provision(
                new_name,
                kernel=self.kernel,
                shards=self.shards,
                shard_backend=self.shard_backend,
                shard_kernel=self.shard_kernel,
                shard_workers=self.shard_workers,
                shard_pipelined=self.shard_pipelined,
            )
            function = DPIServiceFunction(instance)
            self.topology.hosts[spare].set_function(function)
            self.tsa.register_middlebox_instance(
                self.controller.dpi_service_type, spare
            )
            self.instance_hosts[new_name] = instance_host = spare
            self.dpi_functions[new_name] = function
            record.mode = "provision"
            self._record_fault(
                "provision",
                new_name,
                "recover",
                detail=f"fresh instance on {instance_host}",
            )
            return new_name
        return None

    def _degrade(
        self, name: str, host: str, affected: list, record: FailoverRecord
    ) -> None:
        """No reachable instance: drop the DPI hop, scan locally."""
        degraded = []
        for chain_name in affected:
            hops = self.tsa.realized[chain_name].hop_hosts
            self.tsa.resteer_chain(chain_name, {host: None})
            for hop in hops:
                function = self.middlebox_functions.get(hop)
                if function is None or hop in degraded:
                    continue
                released = function.degrade()
                degraded.append(hop)
                for packet in released:
                    # Scanned locally; deliver straight to the destination
                    # over the untagged host routes.
                    packet.vlan_stack.clear()
                    function.host.send(packet)
        record.mode = "degrade"
        record.degraded_hosts = tuple(degraded)
        record.recovered_at = self._now()
        self._record_fault(
            "degrade",
            name,
            "recover",
            detail=(
                f"chains {','.join(affected)} fall back to legacy scanning "
                f"on {','.join(degraded) or 'no hosts'}"
            ),
        )

    # --- recovery path ------------------------------------------------------

    def handle_instance_up(self, name: str) -> "FailoverRecord | None":
        """Reattach a recovered instance (heartbeat callback)."""
        record = self.records.get(name)
        if record is None or record.reattached_at is not None:
            return record
        for chain_name in record.chains:
            original = record.original_hops.get(chain_name)
            if original is not None:
                self.tsa.reinstall_chain(chain_name, original)
        for hop in record.degraded_hosts:
            function = self.middlebox_functions.get(hop)
            if function is not None:
                function.restore()
        record.reattached_at = self._now()
        self._record_fault(
            "reattach",
            name,
            "recover",
            detail=f"chains {','.join(record.chains)} restored",
        )
        return record

    # --- reporting ----------------------------------------------------------

    def failover_times(self) -> dict[str, float]:
        """Instance -> seconds from detection to chains recovered."""
        return {
            name: record.recovered_at - record.detected_at
            for name, record in sorted(self.records.items())
            if record.recovered_at is not None
        }
