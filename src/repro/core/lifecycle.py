"""The unified instance-lifecycle API (the controller's ``instances`` facade).

Historically the controller grew five separate lifecycle entry points
(``build_instance_config``, ``create_instance``, ``deploy_grouped``,
``remove_instance``, ``refresh_instances``).  They are now consolidated
behind one object: ``controller.instances`` is an :class:`InstanceManager`
— a read-only mapping of ``name -> DPIServiceInstance`` that also owns
every lifecycle verb:

* :meth:`InstanceManager.provision` — build a validated configuration and
  spawn an instance (optionally specialized to a chain group or flagged as
  a *dedicated* MCA² engine);
* :meth:`InstanceManager.decommission` — tear an instance down and drop
  its registry metrics;
* :meth:`InstanceManager.plan_groups` — group similar policy chains and
  provision one specialized instance per group (Section 4.3);
* :meth:`InstanceManager.refresh` — push updated configurations after
  pattern or chain changes;
* :meth:`InstanceManager.build_config` — the configuration alone, without
  spawning anything.

All verbs are keyword-only past the instance name, so call sites read as
declarations.  The old controller methods survive as thin shims that emit
:class:`DeprecationWarning`; in-repo use of the shims is flagged by lint
rule API002.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, Sequence

from repro.analysis.validators import raise_on_errors, validate_instance_config
from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.kernels import DEFAULT_KERNEL

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.controller import DPIController


class InstanceManager(Mapping[str, DPIServiceInstance]):
    """Owns the controller's DPI service instances and their lifecycle.

    The mapping interface is read-only (``manager["dpi-1"]``, ``len``,
    ``in``, iteration in insertion order); every mutation goes through a
    lifecycle verb so the controller can keep chain filters, telemetry
    labels and dedicated-engine bookkeeping consistent.
    """

    def __init__(self, controller: "DPIController") -> None:
        self._controller = controller
        self._by_name: dict[str, DPIServiceInstance] = {}
        self._chain_filter: dict[str, tuple | None] = {}
        self._dedicated: dict[str, bool] = {}

    # --- mapping interface ------------------------------------------------

    def __getitem__(self, name: str) -> DPIServiceInstance:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no instance named {name}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        # Kept dict-comparable so callers that treated the old attribute as
        # a plain dict (`controller.instances == {}`) keep working.
        if isinstance(other, InstanceManager):
            return self._by_name == other._by_name
        if isinstance(other, Mapping):
            return self._by_name == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<InstanceManager {sorted(self._by_name)}>"

    # --- configuration ----------------------------------------------------

    def build_config(
        self,
        *,
        chain_ids: "Sequence[int] | None" = None,
        layout: str = "sparse",
        kernel: str = DEFAULT_KERNEL,
        scan_cache_size: int = 0,
        shards: int = 0,
        shard_backend: str = "serial",
        shard_kernel: str = "flat",
        shard_workers: int = 0,
        shard_pipelined: bool = False,
    ) -> InstanceConfig:
        """The configuration for an instance serving *chain_ids* (None =
        every chain).  Only middleboxes on the selected chains are included
        (Section 4.3: instances specialized per chain group)."""
        controller = self._controller
        chain_map = controller.chain_map(chain_ids)
        needed: set[int] = set()
        for middlebox_ids in chain_map.values():
            needed.update(middlebox_ids)
        if chain_ids is None and not chain_map:
            # No chains known yet: serve every registered middlebox through
            # an implicit chain per middlebox (useful for direct API use).
            needed = set(controller.middlebox_ids)
        pattern_sets = {
            middlebox_id: list(controller.pattern_set_of(middlebox_id))
            for middlebox_id in sorted(needed)
        }
        profiles = {
            middlebox_id: controller.profile_of(middlebox_id)
            for middlebox_id in sorted(needed)
        }
        return InstanceConfig(
            pattern_sets=pattern_sets,
            profiles=profiles,
            chain_map=chain_map,
            layout=layout,
            kernel=kernel,
            scan_cache_size=scan_cache_size,
            shards=shards,
            shard_backend=shard_backend,
            shard_kernel=shard_kernel,
            shard_workers=shard_workers,
            shard_pipelined=shard_pipelined,
        )

    # --- lifecycle verbs ----------------------------------------------------

    def provision(
        self,
        name: str,
        *,
        chain_ids: "Sequence[int] | None" = None,
        layout: str = "sparse",
        kernel: str = DEFAULT_KERNEL,
        scan_cache_size: int = 0,
        shards: int = 0,
        shard_backend: str = "serial",
        shard_kernel: str = "flat",
        shard_workers: int = 0,
        shard_pipelined: bool = False,
        validate: bool = True,
        dedicated: bool = False,
    ) -> DPIServiceInstance:
        """Spawn a DPI service instance from the current configuration.

        With ``validate=True`` (the default) the built configuration is
        statically checked
        (:func:`repro.analysis.validators.validate_instance_config`) and
        error-grade issues raise
        :class:`~repro.analysis.validators.ValidationError` before the
        instance exists.  ``dedicated=True`` marks the instance as an MCA²
        dedicated engine: the stress monitor skips it during observation
        and failover never selects it for decommissioning.
        """
        if name in self._by_name:
            raise ValueError(f"duplicate instance name: {name}")
        config = self.build_config(
            chain_ids=chain_ids,
            layout=layout,
            kernel=kernel,
            scan_cache_size=scan_cache_size,
            shards=shards,
            shard_backend=shard_backend,
            shard_kernel=shard_kernel,
            shard_workers=shard_workers,
            shard_pipelined=shard_pipelined,
        )
        if validate:
            raise_on_errors(validate_instance_config(config))
        instance = DPIServiceInstance(
            config, name=name, telemetry=self._controller.telemetry
        )
        self._by_name[name] = instance
        self._chain_filter[name] = (
            tuple(chain_ids) if chain_ids is not None else None
        )
        self._dedicated[name] = dedicated
        return instance

    def decommission(
        self, name: str, *, missing_ok: bool = False
    ) -> "DPIServiceInstance | None":
        """Tear down an instance and drop its registry metrics.

        The instance's scan engine is shut down so external resources
        (shared-memory arenas, worker pools) are released immediately
        rather than at garbage collection — churn must not leak.

        Raises ``KeyError(f"no instance named {name}")`` for an unknown
        name unless ``missing_ok=True`` (then returns None) — the same
        contract :meth:`DPIController.migrate_flow` follows for missing
        endpoints.
        """
        instance = self._by_name.pop(name, None)
        if instance is None:
            if missing_ok:
                return None
            raise KeyError(f"no instance named {name}")
        self._chain_filter.pop(name, None)
        self._dedicated.pop(name, None)
        # Shut the engine down before touching telemetry: the instance is
        # already popped from the registry, so if the metric drop raised
        # first there would be no owner left to release the engine's
        # arenas and worker pools.
        automaton = getattr(instance, "automaton", None)
        if automaton is not None and hasattr(automaton, "shutdown"):
            automaton.shutdown()
        self._controller.telemetry.registry.drop(instance=name)
        return instance

    def plan_groups(
        self,
        *,
        max_groups: int,
        layout: str = "sparse",
        kernel: str = DEFAULT_KERNEL,
        name_prefix: str = "dpi-group",
    ) -> dict[str, list[int]]:
        """Provision one instance per group of similar policy chains.

        Chains are grouped by the similarity of their middlebox sets (the
        paper's "group together similar policy chains" deployment choice),
        and each group gets a specialized instance carrying only its own
        pattern sets.  Returns ``{instance name: [chain ids]}``.
        """
        from repro.core.deployment import group_chains_by_similarity

        chain_map = self._controller.chain_map()
        populated = {
            chain_id: middleboxes
            for chain_id, middleboxes in chain_map.items()
            if middleboxes
        }
        if not populated:
            raise ValueError("no policy chains with registered middleboxes")
        groups = group_chains_by_similarity(populated, max_groups=max_groups)
        deployed = {}
        for index, chain_ids in enumerate(groups, start=1):
            name = f"{name_prefix}-{index}"
            self.provision(
                name, chain_ids=chain_ids, layout=layout, kernel=kernel
            )
            deployed[name] = list(chain_ids)
        return deployed

    def refresh(self) -> None:
        """Push updated configurations after pattern or chain changes."""
        for name, instance in self._by_name.items():
            instance.reconfigure(
                self.build_config(
                    chain_ids=self._chain_filter.get(name),
                    layout=instance.config.layout,
                    kernel=instance.config.kernel,
                    scan_cache_size=instance.config.scan_cache_size,
                    shards=instance.config.shards,
                    shard_backend=instance.config.shard_backend,
                    shard_kernel=instance.config.shard_kernel,
                    shard_workers=instance.config.shard_workers,
                    shard_pipelined=instance.config.shard_pipelined,
                )
            )

    # --- metadata -----------------------------------------------------------

    def chain_filter_of(self, name: str) -> "tuple | None":
        """The chain-id filter an instance was provisioned with (None =
        serves every chain)."""
        if name not in self._by_name:
            raise KeyError(f"no instance named {name}")
        return self._chain_filter.get(name)

    def is_dedicated(self, name: str) -> bool:
        """True for MCA² dedicated engines (they must survive failover)."""
        return self._dedicated.get(name, False)

    def dedicated_names(self) -> list[str]:
        """Names of every dedicated instance, in provision order."""
        return [name for name, flag in self._dedicated.items() if flag]
