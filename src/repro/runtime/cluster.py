"""Cluster orchestration: nodes, mode, agent attachment, Taint Map.

A :class:`Cluster` is one deployment of one workload in one tracking
mode — the unit the paper measures (each Table V/VI cell is one cluster
run).  Entering the cluster context:

* flips the process-wide shadow policy to match the mode (re-launching
  under a differently instrumented JRE, in paper terms);
* under :attr:`Mode.DISTA`, boots the Taint Map service on its own node
  and attaches the DisTA agent (JNI wrappers + Taint Map client) to every
  node — the ``-javaagent:DisTA.jar`` step of §V-E.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.config import DisTAConfig
from repro.errors import ReproError
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode
from repro.taint.policy import POLICY

#: Address reserved for the Taint Map service node.
TAINT_MAP_IP = "10.0.255.1"
TAINT_MAP_PORT = 7170


class Cluster:
    """A simulated cluster of JVM nodes running under one tracking mode."""

    def __init__(
        self,
        mode: Mode = Mode.ORIGINAL,
        name: str = "cluster",
        config: Optional[DisTAConfig] = None,
        trace=None,
        extensions: tuple = (),
    ):
        self.mode = mode
        self.name = name
        #: Every DisTA knob; the default ``DisTAConfig()`` reads its
        #: environment variables here, at construction.
        self.config = config if config is not None else DisTAConfig()
        #: Optional :class:`~repro.core.trace.CrossingTrace` and user
        #: :class:`~repro.core.extensions.ExtensionPoint` objects, handed
        #: to every node's agent.
        self.trace = trace
        self.extensions = tuple(extensions)
        #: Flow lineage stitches hop edges from the crossing trace, so
        #: enabling it creates a ``CrossingTrace`` unless one was given.
        self.lineage_store = None
        if self.config.lineage:
            from repro.core.trace import CrossingTrace
            from repro.obs.lineage import LineageStore

            self.lineage_store = LineageStore()
            if self.trace is None:
                self.trace = CrossingTrace()
            self.trace.attach_lineage(self.lineage_store)
        #: Number of Taint Map shards (shard i at TAINT_MAP_PORT + i); the
        #: default single shard is byte-identical to the unsharded
        #: deployment.  :meth:`scale_taint_map` changes it.
        self.taint_map_shards = self.config.taint_map_shards
        self.kernel = SimKernel(name)
        self.fs = SimFileSystem()
        self.nodes: dict[str, SimNode] = {}
        self._ips = (f"10.0.0.{i}" for i in itertools.count(1))
        self._pids = itertools.count(1000)
        self._default_sources: list[str] = []
        self._default_sinks: list[str] = []
        #: The sharded service (all shards); ``taint_map_server`` below
        #: stays the shard-0 server for single-shard compatibility.
        self.taint_map_service = None
        self.taint_map_server = None
        #: The coordinator of the most recent :meth:`scale_taint_map`
        #: (handoff telemetry for benchmarks/tests).
        self.last_scale_coordinator = None
        self._started = False
        self._previous_shadow: Optional[bool] = None

    # -- topology ----------------------------------------------------------- #

    def add_node(self, name: str, ip: Optional[str] = None) -> SimNode:
        if name in self.nodes:
            raise ReproError(f"duplicate node name {name!r}")
        ip = ip or next(self._ips)
        self.kernel.register_node(ip)
        node = SimNode(name, ip, next(self._pids), self.kernel, self.fs, self.mode)
        for pattern in self._default_sources:
            node.registry.add_source(pattern)
        for pattern in self._default_sinks:
            node.registry.add_sink(pattern)
        node.registry.source_fraction = self.config.source_fraction
        node.registry.sample_every = self.config.sample_every
        self.nodes[name] = node
        if self._started:
            self._attach_agent(node)
        return node

    def node(self, name: str) -> SimNode:
        return self.nodes[name]

    # -- source/sink specification (the two spec files of §V-E) ------------- #

    def configure_sources(self, patterns: list[str]) -> None:
        self._default_sources.extend(patterns)
        for node in self.nodes.values():
            for pattern in patterns:
                node.registry.add_source(pattern)

    def configure_sinks(self, patterns: list[str]) -> None:
        self._default_sinks.extend(patterns)
        for node in self.nodes.values():
            for pattern in patterns:
                node.registry.add_sink(pattern)

    # -- lifecycle ------------------------------------------------------------ #

    def start(self) -> "Cluster":
        if self._started:
            return self
        self._previous_shadow = POLICY.shadow_enabled
        if self.mode.shadows:
            POLICY.enable_shadows()
        else:
            POLICY.disable_shadows()
        if self.mode is Mode.DISTA:
            self._start_taint_map()
        for node in self.nodes.values():
            self._attach_agent(node)
        if self.trace is not None and hasattr(self.trace, "telemetry_samples"):
            # The trace is cluster-wide, so its gauges live on the kernel
            # registry (one fragment, not one per node).
            self.kernel.metrics.register_collector(self.trace.telemetry_samples)
        if self.lineage_store is not None:
            # The store is cluster-wide too: its telemetry joins the
            # kernel registry beside the trace fragment.
            self.kernel.metrics.register_collector(
                self.lineage_store.telemetry_samples
            )
        self._started = True
        return self

    @property
    def taint_map_addresses(self) -> list:
        """Every shard slot's address (one entry for a single-shard map).

        Derived from the live service ring when one exists, so retired
        slots report their forwarding address — the address a lookup for
        the drained shard's GID bits actually dials.
        """
        if self.taint_map_service is not None:
            return list(self.taint_map_service.ring.addresses)
        return [
            (TAINT_MAP_IP, TAINT_MAP_PORT + index)
            for index in range(self.taint_map_shards)
        ]

    def _start_taint_map(self) -> None:
        from repro.core.taintmap import ShardedTaintMapService

        self.kernel.register_node(TAINT_MAP_IP)
        store_factory = None
        if self.config.taint_map_durable:
            from repro.core.durability import FileTaintMapStore

            store_factory = lambda index: FileTaintMapStore(
                self.fs, "/var/dista/taintmap", index
            )
        self.taint_map_service = ShardedTaintMapService(
            self.kernel,
            TAINT_MAP_IP,
            TAINT_MAP_PORT,
            self.taint_map_shards,
            store_factory=store_factory,
            snapshot_every=self.config.taint_map_snapshot_every,
        ).start()
        self.taint_map_server = self.taint_map_service.servers[0]

    def _attach_agent(self, node: SimNode) -> None:
        if self.mode is not Mode.DISTA:
            return
        from repro.core.agent import DisTAAgent

        runtime = DisTAAgent(
            self.taint_map_addresses, self.config, self.trace, self.extensions
        ).attach(node)
        if self.lineage_store is not None:
            from repro.obs.lineage import LineageRecorder

            recorder = LineageRecorder(self.lineage_store, node.name)
            runtime.lineage = node.registry.lineage = recorder
        # A node added after a scale-out starts on an epoch-0 view of
        # the (already widened) address list; hand it the live ring so
        # its first registrations skip the stale-ring discovery hop.
        if self.taint_map_service is not None:
            ring = self.taint_map_service.ring
            if ring.epoch > 0 and node.taintmap is not None:
                node.taintmap.adopt_ring(ring)

    def scale_taint_map(self, new_shard_count: int, standbys=None):
        """Resize the Taint Map to ``new_shard_count`` *active* shards,
        live.

        Growth runs the :class:`~repro.core.elastic.RingCoordinator`
        scale-out (boot, bulk copy, epoch flip, delta copy — no write
        pause, no GID renumbered); a target below the current active
        count runs the scale-**in** instead, draining the highest shards
        into the survivors and leaving their ring slots forwarding, so
        every GID they ever allocated keeps resolving.  Either way the
        new ring is pushed to every attached node's client so
        steady-state traffic never pays the stale-ring retry, and
        drained shard processes stop only *after* that push.
        ``standbys`` optionally maps shard index → replica addresses for
        handoff-delivery failover.  Returns the new
        :class:`~repro.core.taintmap.ShardRing`.
        """
        service = self.taint_map_service
        if service is None:
            raise ReproError(
                "scale_taint_map requires a started cluster in DISTA mode"
            )
        active = len(service.ring.active_shards)
        if new_shard_count == active:
            return service.ring
        from repro.core.elastic import RingCoordinator

        coordinator = RingCoordinator(service, standbys=standbys)
        if new_shard_count < active:
            ring = coordinator.scale_in(new_shard_count)
        else:
            # Retired GID indices are never reused, so growth adds the
            # new active shards on fresh ring slots.
            target = service.ring.shard_count + (new_shard_count - active)
            ceiling = self.config.taint_map_max_shards
            if ceiling is not None and target > ceiling:
                raise ReproError(
                    f"scale-out target {new_shard_count} needs {target} ring "
                    f"slots, exceeding taint_map_max_shards={ceiling}"
                )
            ring = coordinator.scale_to(target)
        self.taint_map_shards = ring.shard_count
        self.last_scale_coordinator = coordinator
        for node in self.nodes.values():
            if node.taintmap is not None:
                node.taintmap.adopt_ring(ring)
        if new_shard_count < active:
            # Every client now routes by the successor ring; the drained
            # processes can go away (their GIDs resolve at the slots'
            # forwarding addresses).
            service.stop_retired()
        return ring

    def shutdown(self) -> None:
        for node in self.nodes.values():
            if node.taintmap is not None:
                node.taintmap.close()
        if self.taint_map_service is not None:
            self.taint_map_service.stop()
            self.taint_map_service = None
            self.taint_map_server = None
        if self._previous_shadow is not None:
            if self._previous_shadow:
                POLICY.enable_shadows()
            else:
                POLICY.disable_shadows()
            self._previous_shadow = None
        self._started = False

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- reporting --------------------------------------------------------- #

    def all_observations(self):
        """Every sink observation across the cluster."""
        out = []
        for node in self.nodes.values():
            out.extend(node.registry.observations)
        return out

    def tainted_observations(self):
        return [o for o in self.all_observations() if o.tainted]

    def generated_tags(self):
        tags = set()
        for node in self.nodes.values():
            tags.update(node.registry.generated_tags())
        return frozenset(tags)

    def global_taint_count(self) -> int:
        """Distinct global taints across every Taint Map shard."""
        if self.taint_map_service is None:
            return 0
        return self.taint_map_service.global_taint_count()

    def wire_bytes(self, exclude_taint_map: bool = True):
        """Total bytes the kernel carried (for the 5× overhead check)."""
        exclude = ()
        if exclude_taint_map:
            # Union of the ring's current slot addresses and the
            # original per-slot addresses — a drained slot forwards to a
            # survivor, but its pre-drain traffic ran on the original.
            exclude = tuple(
                set(self.taint_map_addresses)
                | {
                    (TAINT_MAP_IP, TAINT_MAP_PORT + index)
                    for index in range(self.taint_map_shards)
                }
            )
        return self.kernel.stats.total(exclude)

    # -- telemetry ---------------------------------------------------------- #

    def metrics_registries(self) -> list:
        """Every MetricsRegistry in the cluster: nodes, kernel, shards."""
        registries = [node.metrics for node in self.nodes.values()]
        registries.append(self.kernel.metrics)
        if self.taint_map_service is not None:
            registries.extend(self.taint_map_service.metrics_registries())
        return registries

    def telemetry_snapshot(self) -> dict:
        """One merged snapshot across every registry in the cluster."""
        from repro.obs.registry import merge_snapshots

        return merge_snapshots(
            *(registry.snapshot() for registry in self.metrics_registries())
        )

    def start_metrics_server(
        self, node_name: str, port: int = 9464, cluster_wide: bool = False
    ):
        """Serve ``/metrics`` from ``node_name`` (started, caller stops it).

        With ``cluster_wide=True`` the endpoint aggregates every registry
        in the cluster; otherwise it exposes only that node's registry.
        """
        from repro.obs.http import MetricsServer

        node = self.nodes[node_name]
        registries = self.metrics_registries() if cluster_wide else None
        server = MetricsServer(
            node, port=port, registries=registries, lineage=self.lineage_store
        )
        server.start()
        return server
