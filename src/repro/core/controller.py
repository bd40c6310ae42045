"""The logically centralized DPI controller (paper Section 4.1).

Responsibilities implemented here:

* **Registration** — middleboxes register over JSON messages, optionally
  inheriting the pattern set of an already-registered middlebox; they
  declare statefulness, read-only mode and a stopping condition.
* **Pattern-set management** — add/remove messages feed the deduplicated
  :class:`~repro.core.patterns.GlobalPatternRegistry`; a pattern disappears
  only when its last referrer removes it.
* **Policy chains** — received from the traffic steering application; each
  chain id maps to the DPI-using middleboxes on it, which is what instances
  use to decide which pattern sets apply to a packet.
* **TSA negotiation** — rewriting chains to insert the DPI service before
  the first middlebox that needs scan results (Figure 1).
* **Instance lifecycle** — building instance configurations, spawning
  instances (optionally specialized to a subset of chains, Section 4.3) and
  pushing updated configurations after pattern changes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.kernels import DEFAULT_KERNEL
from repro.core.lifecycle import InstanceManager
from repro.core.messages import (
    AckMessage,
    AddPatternsMessage,
    ControlMessage,
    RegisterMiddleboxMessage,
    RemovePatternsMessage,
    UnregisterMiddleboxMessage,
)
from repro.core.patterns import GlobalPatternRegistry, Pattern, PatternSet
from repro.core.scanner import MiddleboxProfile
from repro.telemetry import TelemetryHub


@dataclass
class MiddleboxRecord:
    """Controller-side state for one registered middlebox."""

    profile: MiddleboxProfile
    pattern_set: PatternSet


class DPIController:
    """Manages middlebox registrations, patterns, chains and instances."""

    def __init__(
        self, dpi_service_type: str = "dpi", telemetry: TelemetryHub | None = None
    ) -> None:
        self.dpi_service_type = dpi_service_type
        # Always-present hub: instances publish into its registry, so load
        # sampling and the stress monitor are purely registry-backed.  Pass
        # a simulator-clocked hub (TelemetryHub.for_simulator) to share one
        # timeline with the data plane; the default is wall-clocked and
        # trace-free.
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryHub(tracing=False)
        )
        self._load_window = self.telemetry.registry.window(
            ("dpi_bytes_scanned_total", "dpi_scan_seconds_total"),
            zero_baseline=True,
        )
        self.registry = GlobalPatternRegistry()
        self._middleboxes: dict[int, MiddleboxRecord] = {}
        # chain id -> tuple of middlebox type names (from the TSA)
        self._chains: dict[int, tuple] = {}
        self._chain_names: dict[int, str] = {}
        # Read-only optimization: chains whose middlebox ids are pinned here
        # keep their scanning config even after the TSA drops the (off-path)
        # middlebox types from the routing chain.
        self._chain_overrides: dict[int, tuple] = {}
        #: The unified instance-lifecycle facade: a read-only mapping of
        #: ``name -> DPIServiceInstance`` plus the lifecycle verbs
        #: (``provision`` / ``decommission`` / ``plan_groups`` / ``refresh``).
        self.instances = InstanceManager(self)
        self._tsa = None
        #: The attached MCA² stress monitor, if any (set by StressMonitor);
        #: its calibrated baselines ride along in telemetry snapshots.
        self.stress_monitor = None

    # --- middlebox registration -------------------------------------------

    def handle_message(self, message) -> AckMessage:
        """Process one control message (object or JSON text)."""
        if isinstance(message, str):
            message = ControlMessage.from_json(message)
        try:
            if isinstance(message, RegisterMiddleboxMessage):
                self._register(message)
            elif isinstance(message, UnregisterMiddleboxMessage):
                self._unregister(message.middlebox_id)
            elif isinstance(message, AddPatternsMessage):
                self.add_patterns(message.middlebox_id, message.patterns)
            elif isinstance(message, RemovePatternsMessage):
                self.remove_patterns(message.middlebox_id, message.pattern_ids)
            else:
                return AckMessage(
                    ok=False, detail=f"unsupported message: {type(message).__name__}"
                )
        except (KeyError, ValueError) as error:
            return AckMessage(ok=False, detail=str(error))
        return AckMessage(ok=True)

    def _register(self, message: RegisterMiddleboxMessage) -> None:
        middlebox_id = message.middlebox_id
        if middlebox_id in self._middleboxes:
            raise ValueError(f"middlebox id already registered: {middlebox_id}")
        profile = MiddleboxProfile(
            middlebox_id=middlebox_id,
            name=message.name,
            stateful=message.stateful,
            read_only=message.read_only,
            stopping_condition=message.stopping_condition,
        )
        record = MiddleboxRecord(
            profile=profile, pattern_set=PatternSet(name=message.name)
        )
        self._middleboxes[middlebox_id] = record
        if message.inherit_from is not None:
            parent = self._middleboxes.get(message.inherit_from)
            if parent is None:
                del self._middleboxes[middlebox_id]
                raise KeyError(
                    f"cannot inherit from unknown middlebox {message.inherit_from}"
                )
            self.add_patterns(middlebox_id, list(parent.pattern_set))

    def _unregister(self, middlebox_id: int) -> None:
        if middlebox_id not in self._middleboxes:
            raise KeyError(f"middlebox not registered: {middlebox_id}")
        self.registry.remove_middlebox(middlebox_id)
        del self._middleboxes[middlebox_id]

    @property
    def middlebox_ids(self) -> list[int]:
        """Ids of every registered middlebox, sorted."""
        return sorted(self._middleboxes)

    def profile_of(self, middlebox_id: int) -> MiddleboxProfile:
        """The registration profile of one middlebox."""
        return self._middleboxes[middlebox_id].profile

    def pattern_set_of(self, middlebox_id: int) -> PatternSet:
        """The current pattern set of one middlebox."""
        return self._middleboxes[middlebox_id].pattern_set

    def middlebox_ids_of_type(self, type_name: str) -> list[int]:
        """Ids of registered middleboxes with this type name."""
        return sorted(
            middlebox_id
            for middlebox_id, record in self._middleboxes.items()
            if record.profile.name == type_name
        )

    # --- pattern management -------------------------------------------------

    def add_patterns(self, middlebox_id: int, patterns: list) -> None:
        """Add patterns to a middlebox's set and the global registry."""
        record = self._middleboxes.get(middlebox_id)
        if record is None:
            raise KeyError(f"middlebox not registered: {middlebox_id}")
        for pattern in patterns:
            record.pattern_set.add(pattern)
            self.registry.add(middlebox_id, pattern)

    def remove_patterns(self, middlebox_id: int, pattern_ids: list) -> None:
        """Remove patterns by id; shared content stays until its last referrer leaves."""
        record = self._middleboxes.get(middlebox_id)
        if record is None:
            raise KeyError(f"middlebox not registered: {middlebox_id}")
        for pattern_id in pattern_ids:
            pattern = record.pattern_set.remove(pattern_id)
            self.registry.remove(middlebox_id, pattern)

    # --- policy chains and TSA negotiation ------------------------------------

    def policy_chains_changed(self, chains: dict) -> None:
        """TSA listener callback: chains is ``{name: PolicyChain}``.

        Chains are indexed by the tag a DPI instance actually observes on
        packets: the chain's base id plus the DPI service's hop position
        (the TSA's per-segment tagging; the base id itself for chains that
        do not route through the service).
        """
        self._chains = {}
        self._chain_names = {}
        for name, chain in chains.items():
            if chain.chain_id is None:
                continue
            tag = self._visible_tag(chain)
            self._chains[tag] = tuple(chain.middlebox_types)
            self._chain_names[tag] = name

    def _visible_tag(self, chain) -> int:
        """The VLAN tag packets of *chain* carry when the DPI scans them."""
        types = tuple(chain.middlebox_types)
        if self.dpi_service_type in types:
            return chain.chain_id + types.index(self.dpi_service_type)
        return chain.chain_id

    def attach_tsa(self, tsa) -> None:
        """Subscribe to the TSA's policy chains and negotiate DPI insertion."""
        self._tsa = tsa
        tsa.add_chain_listener(self)
        self.negotiate_chains()

    def negotiate_chains(self) -> list[str]:
        """Rewrite every chain that contains a DPI-using middlebox type so
        the DPI service is visited first (Figure 1(b)).  Returns the names
        of the chains that were rewritten."""
        if self._tsa is None:
            raise RuntimeError("no TSA attached")
        registered_types = {
            record.profile.name for record in self._middleboxes.values()
        }
        rewritten = []
        for name, chain in list(self._tsa.chains.items()):
            if self.dpi_service_type in chain.middlebox_types:
                continue
            dpi_users = [
                t for t in chain.middlebox_types if t in registered_types
            ]
            if not dpi_users:
                continue
            updated = chain.with_service_before(
                self.dpi_service_type, dpi_users[0]
            )
            self._tsa.rewrite_chain(name, updated.middlebox_types)
            rewritten.append(name)
        return rewritten

    def chain_name_of(self, chain_id: int) -> str | None:
        """The TSA chain name behind a (DPI-visible) chain tag."""
        return self._chain_names.get(chain_id)

    def chain_middlebox_ids(self, chain_id: int) -> tuple:
        """The registered (DPI-using) middlebox ids on a policy chain."""
        override = self._chain_overrides.get(chain_id)
        if override is not None:
            return override
        type_names = self._chains.get(chain_id, ())
        ids: list[int] = []
        for type_name in type_names:
            ids.extend(self.middlebox_ids_of_type(type_name))
        return tuple(ids)

    def optimize_read_only_chains(self) -> list[str]:
        """Apply the read-only optimization (Section 4.2, option 3).

        For every chain whose DPI-using middleboxes are *all* read-only,
        the middlebox types are removed from the TSA routing chain (the DPI
        service stays); their scanning configuration is pinned via a chain
        override, and result packets will be sent to the middlebox hosts
        directly.  Returns the names of the optimized chains.
        """
        if self._tsa is None:
            raise RuntimeError("no TSA attached")
        optimized = []
        for name, chain in list(self._tsa.chains.items()):
            if chain.chain_id is None:
                continue
            visible_tag = self._visible_tag(chain)
            middlebox_ids = self.chain_middlebox_ids(visible_tag)
            if not middlebox_ids:
                continue
            if not all(
                self._middleboxes[mb].profile.read_only for mb in middlebox_ids
            ):
                continue
            read_only_types = {
                self._middleboxes[mb].profile.name for mb in middlebox_ids
            }
            if not read_only_types & set(chain.middlebox_types):
                continue  # already off the routing path
            self._chain_overrides[visible_tag] = middlebox_ids
            updated = chain.without_types(read_only_types)
            self._tsa.rewrite_chain(name, updated.middlebox_types)
            optimized.append(name)
        return optimized

    def read_only_chain_ids(self) -> tuple:
        """Chain ids currently running in read-only (direct-result) mode."""
        return tuple(sorted(self._chain_overrides))

    def chain_map(self, chain_ids=None) -> dict:
        """``{chain id: (middlebox ids)}`` for instance configuration."""
        selected = self._chains if chain_ids is None else {
            chain_id: self._chains[chain_id] for chain_id in chain_ids
        }
        return {
            chain_id: self.chain_middlebox_ids(chain_id)
            for chain_id in selected
        }

    # --- instance lifecycle (deprecated shims) -----------------------------
    #
    # The lifecycle API lives on the ``instances`` facade
    # (:class:`~repro.core.lifecycle.InstanceManager`).  The methods below
    # are deprecation shims only; in-repo callers are flagged by lint rule
    # API002.

    @staticmethod
    def _deprecated(old: str, new: str) -> None:
        warnings.warn(
            f"DPIController.{old} is deprecated; use controller.{new}",
            DeprecationWarning,
            stacklevel=3,
        )

    def build_instance_config(
        self,
        chain_ids=None,
        layout: str = "sparse",
        kernel: str = DEFAULT_KERNEL,
        scan_cache_size: int = 0,
    ) -> InstanceConfig:
        """Deprecated: use ``controller.instances.build_config(...)``."""
        self._deprecated("build_instance_config", "instances.build_config")
        return self.instances.build_config(
            chain_ids=chain_ids,
            layout=layout,
            kernel=kernel,
            scan_cache_size=scan_cache_size,
        )

    def create_instance(
        self,
        name: str,
        chain_ids=None,
        layout: str = "sparse",
        kernel: str = DEFAULT_KERNEL,
        scan_cache_size: int = 0,
        validate: bool = True,
    ) -> DPIServiceInstance:
        """Deprecated: use ``controller.instances.provision(name, ...)``."""
        self._deprecated("create_instance", "instances.provision")
        return self.instances.provision(
            name,
            chain_ids=chain_ids,
            layout=layout,
            kernel=kernel,
            scan_cache_size=scan_cache_size,
            validate=validate,
        )

    def remove_instance(self, name: str) -> DPIServiceInstance:
        """Deprecated: use ``controller.instances.decommission(name)``."""
        self._deprecated("remove_instance", "instances.decommission")
        instance = self.instances.decommission(name)
        assert instance is not None  # missing_ok defaults to False
        return instance

    def refresh_instances(self) -> None:
        """Deprecated: use ``controller.instances.refresh()``."""
        self._deprecated("refresh_instances", "instances.refresh")
        self.instances.refresh()

    def deploy_grouped(
        self,
        max_groups: int,
        layout: str = "sparse",
        kernel: str = DEFAULT_KERNEL,
        name_prefix: str = "dpi-group",
    ) -> dict:
        """Deprecated: use ``controller.instances.plan_groups(...)``."""
        self._deprecated("deploy_grouped", "instances.plan_groups")
        return self.instances.plan_groups(
            max_groups=max_groups,
            layout=layout,
            kernel=kernel,
            name_prefix=name_prefix,
        )

    def load_samples(self, window_seconds: float) -> list:
        """Per-instance :class:`~repro.core.deployment.LoadSample` objects
        for the registry counters accumulated since the previous call."""
        from repro.core.deployment import LoadSample

        if window_seconds <= 0:
            raise ValueError(f"window must be positive: {window_seconds}")
        delta = self._load_window.delta()
        return [
            LoadSample(
                instance_name=name,
                bytes_scanned=delta.value(
                    "dpi_bytes_scanned_total", instance=name
                ),
                scan_seconds=delta.value(
                    "dpi_scan_seconds_total", instance=name
                ),
                window_seconds=window_seconds,
            )
            for name in self.instances
        ]

    # --- telemetry and migration ---------------------------------------------

    def telemetry_snapshot(self):
        """The unified, typed telemetry snapshot
        (:class:`~repro.telemetry.snapshot.TelemetrySnapshot`): per-instance
        counters, stress-monitor baselines, the full registry dump and every
        recorded fault event, timestamped by the hub clock."""
        from repro.telemetry.snapshot import build_snapshot

        return build_snapshot(self)

    def collect_telemetry(self) -> dict:
        """Deprecated: use ``controller.telemetry_snapshot().instances``."""
        self._deprecated("collect_telemetry", "telemetry_snapshot().instances")
        return dict(self.telemetry_snapshot().instances)

    def migrate_flow(self, flow_key, source_name: str, target_name: str) -> bool:
        """Move one flow's scan state between instances (Section 4.3).

        Returns False when the source holds no state for the flow (nothing
        to migrate — the target will simply start it fresh).  A missing
        source or target raises ``KeyError(f"no instance named {name}")``
        (the same contract as ``instances.decommission``); a crashed source
        or target raises
        :class:`~repro.core.instance.InstanceUnavailableError` so callers
        can distinguish "gone" from "down".  Both instances must share the
        same configuration for DFA states to be meaningful, which holds for
        instances built from the same config.
        """
        source = self.instances[source_name]
        target = self.instances[target_name]
        exported = source.export_flow(flow_key)
        if exported is None:
            return False
        target.import_flow(flow_key, exported)
        source.drop_flow(flow_key)
        return True
