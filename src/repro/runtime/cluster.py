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
        extensions: tuple = (),
    ):
        self.mode = mode
        self.name = name
        #: Every DisTA knob; the default ``DisTAConfig()`` reads its
        #: environment variables here, at construction.
        self.config = config if config is not None else DisTAConfig()
        #: User :class:`~repro.core.extensions.ExtensionPoint` objects,
        #: handed to every node's agent.
        self.extensions = tuple(extensions)
        #: The cluster-wide flow record (``DisTAConfig.lineage``), or
        #: ``None``; every attached node's runtime and registry hold it.
        self.lineage_store = None
        if self.config.lineage:
            from repro.obs.lineage import LineageStore

            self.lineage_store = LineageStore()
        self.kernel = SimKernel(name)
        self.fs = SimFileSystem()
        self.nodes: dict[str, SimNode] = {}
        self._ips = (f"10.0.0.{i}" for i in itertools.count(1))
        self._pids = itertools.count(1000)
        self._default_sources: list[str] = []
        self._default_sinks: list[str] = []
        #: The Taint Map server, booted by :meth:`start` in DISTA mode.
        self.taint_map_server = None
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
        if self.lineage_store is not None:
            # The store is cluster-wide, so its telemetry lives on the
            # kernel registry (one fragment, not one per node).
            self.kernel.metrics.register_collector(
                self.lineage_store.telemetry_samples
            )
        self._started = True
        return self

    def _start_taint_map(self) -> None:
        from repro.core.taintmap import TaintMapServer

        self.kernel.register_node(TAINT_MAP_IP)
        store = None
        if self.config.taint_map_durable:
            from repro.core.durability import FileTaintMapStore

            store = FileTaintMapStore(self.fs, "/var/dista/taintmap")
        self.taint_map_server = TaintMapServer(
            self.kernel, TAINT_MAP_IP, TAINT_MAP_PORT, store=store
        ).start()

    def _attach_agent(self, node: SimNode) -> None:
        if self.mode is not Mode.DISTA:
            return
        from repro.core.agent import DisTAAgent

        runtime = DisTAAgent(
            self.taint_map_server.address, self.config, self.extensions
        ).attach(node)
        runtime.lineage = node.registry.lineage = self.lineage_store

    def shutdown(self) -> None:
        for node in self.nodes.values():
            if node.taintmap is not None:
                node.taintmap.close()
        if self.taint_map_server is not None:
            self.taint_map_server.stop()
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
        """Distinct global taints registered with the Taint Map."""
        if self.taint_map_server is None:
            return 0
        return self.taint_map_server.global_taint_count()

    def wire_bytes(self, exclude_taint_map: bool = True):
        """Total bytes the kernel carried (for the 5× overhead check)."""
        exclude = ((TAINT_MAP_IP, TAINT_MAP_PORT),) if exclude_taint_map else ()
        return self.kernel.stats.total(exclude)

    # -- telemetry ---------------------------------------------------------- #

    def metrics_registries(self) -> list:
        """Every MetricsRegistry in the cluster: nodes, kernel, Taint Map."""
        registries = [node.metrics for node in self.nodes.values()]
        registries.append(self.kernel.metrics)
        if self.taint_map_server is not None:
            registries.append(self.taint_map_server.metrics)
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
