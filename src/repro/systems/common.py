"""Shared scaffolding for the five real-world system workloads.

Each system package (Table III) exposes the same surface:

* ``SYSTEM`` — a :class:`SystemInfo` (Table III row),
* ``sdt_spec()`` / ``sim_spec()`` — the Table IV source/sink specs,
* ``run_workload(mode, scenario=None, config=None)`` — deploy, run the
  paper's workload under a :class:`~repro.core.config.DisTAConfig`, and
  return a :class:`WorkloadResult`.

Scenario names follow the paper: **SDT** (specific data trace — a small,
determinate number of taints on a named variable) and **SIM** (system
input/output monitor — file reads as sources, ``LOG.info`` as sink).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import DisTAConfig, TaintSpec
from repro.runtime.cluster import Cluster
from repro.runtime.fs import FILE_READ_DESCRIPTOR
from repro.runtime.logger import LOG_INFO_DESCRIPTOR
from repro.runtime.modes import Mode

SDT = "SDT"
SIM = "SIM"


@dataclass(frozen=True)
class SystemInfo:
    """One row of paper Table III."""

    name: str
    kind: str
    protocols: tuple[str, ...]
    workload: str
    cluster_setting: str


@dataclass
class WorkloadResult:
    """Outcome of one system workload run."""

    system: str
    mode: Mode
    scenario: Optional[str]
    duration: float
    #: All sink observations that carried at least one tag.
    tainted_observations: list = field(default_factory=list)
    #: All tags generated at source points, cluster-wide.
    generated_tags: frozenset = field(default_factory=frozenset)
    #: Tags seen at sink points, cluster-wide.
    observed_tags: frozenset = field(default_factory=frozenset)
    global_taints: int = 0
    wire_bytes: int = 0
    #: Tags observed at a sink on a node other than their origin node —
    #: the inter-node flows only DisTA can see.
    cross_node_tags: frozenset = field(default_factory=frozenset)
    #: node name → ip, for classifying observations by origin.
    node_ips: dict = field(default_factory=dict)
    #: Merged cluster telemetry snapshot (repro.obs format), captured
    #: before shutdown.  Query with snapshot_total / snapshot_quantile.
    telemetry: dict = field(default_factory=dict)
    #: System-specific payload (election winner, job result, …).
    extras: dict = field(default_factory=dict)

    def is_cross_node(self, observation) -> bool:
        """True when the observation saw a tag from another node."""
        node_ip = self.node_ips.get(observation.node)
        return any(tag.local_id.ip != node_ip for tag in observation.tags)


def sim_spec() -> TaintSpec:
    """The uniform SIM scenario of Table IV: file reads → LOG.info."""
    return TaintSpec(sources=[FILE_READ_DESCRIPTOR], sinks=[LOG_INFO_DESCRIPTOR])


def seed_data_files(fs, prefix: str, count: int, size: int) -> None:
    """Write ``count`` data files under ``prefix`` (workload inputs).

    Real workloads read their payloads from disk — jars, data parts,
    message bodies — and every such read is a SIM source.  This is what
    makes SIM taint populations "relatively large and indeterminate"
    (§V-B) compared to SDT's handful."""
    for index in range(count):
        payload = bytes((index * 31 + i * 7 + 1) % 90 + 33 for i in range(size))
        fs.write_file(f"{prefix}/part-{index:04d}", payload)


def read_data_files(node, prefix: str):
    """Concatenate every file under ``prefix`` (fires one SIM source per
    file), returning label-carrying bytes."""
    from repro.taint.values import TBytes

    out = TBytes.empty()
    for path in node.files.list_dir(prefix):
        out = out + node.files.read(path)
    return out


def run_system_workload(
    system: str,
    mode: Mode,
    scenario: Optional[str],
    sdt_spec: Callable[[], TaintSpec],
    deploy_and_run: Callable[[Cluster], dict],
    config: Optional[DisTAConfig] = None,
) -> WorkloadResult:
    """Deploy a cluster for one (mode, scenario) cell and run the workload.

    The scenario picks the spec: ``sdt_spec()`` for SDT, :func:`sim_spec`
    for SIM, none otherwise.  ``deploy_and_run(cluster)`` adds nodes,
    runs the system's workload to completion and returns the ``extras``
    dict.  Timing starts after the cluster context is up (agents
    attached, Taint Map booted) — matching the paper, which measures
    workload execution on a running deployment.

    With ``config.lineage`` the cluster's flow-lineage store is returned
    as ``extras["lineage"]``.
    """
    from repro.obs.registry import diff_snapshots

    cluster = Cluster(
        mode, name=f"{system}-{mode.value}-{scenario or 'plain'}", config=config
    )
    spec = {SDT: sdt_spec, SIM: sim_spec}.get(scenario)
    if spec is not None and mode is not Mode.ORIGINAL:
        spec().apply(cluster)
    with cluster:
        # Telemetry is reported as a delta over the post-attach state so
        # agent-attachment and service-boot counts from this (or any
        # shared) cluster never bleed into the workload's numbers.
        setup_snapshot = cluster.telemetry_snapshot()
        started = time.perf_counter()
        extras = deploy_and_run(cluster)
        duration = time.perf_counter() - started
        tainted = cluster.tainted_observations()
        generated = cluster.generated_tags()
        observed = frozenset(t for o in cluster.all_observations() for t in o.tags)
        node_ips = {name: node.ip for name, node in cluster.nodes.items()}
        cross = frozenset(
            tag
            for obs in tainted
            for tag in obs.tags
            if node_ips.get(obs.node) != tag.local_id.ip
        )
        taints = cluster.global_taint_count()
        wire = cluster.wire_bytes(exclude_taint_map=True)
        telemetry = diff_snapshots(cluster.telemetry_snapshot(), setup_snapshot)
    if cluster.lineage_store is not None:
        extras = dict(extras)
        extras["lineage"] = cluster.lineage_store
    return WorkloadResult(
        system=system,
        mode=mode,
        scenario=scenario,
        duration=duration,
        tainted_observations=tainted,
        generated_tags=generated,
        observed_tags=observed,
        global_taints=taints,
        wire_bytes=wire,
        cross_node_tags=cross,
        node_ips=node_ips,
        telemetry=telemetry,
        extras=extras,
    )
