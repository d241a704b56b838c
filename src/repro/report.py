"""Taint-flow reporting: turn sink observations into readable reports.

DisTA is positioned for "in-house analysis and testing" (paper §IV);
this module is the analysis-side companion: given a cluster or a
:class:`~repro.systems.common.WorkloadResult`, produce a source→sink
flow summary a developer can act on (which data reached which sink, on
which node, and whether the flow crossed machines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class TaintFlow:
    """One observed source→sink flow."""

    tag: object
    origin: str          # "ip:pid" of the generating JVM
    sink: str            # sink descriptor
    sink_node: str
    cross_node: bool
    detail: str = ""

    def describe(self) -> str:
        hop = "CROSS-NODE" if self.cross_node else "local"
        return (
            f"[{hop:10s}] {self.tag!s:40s} {self.origin:18s} "
            f"-> {self.sink} @ {self.sink_node}"
        )


def flows_from_observations(
    observations: Iterable, node_ips: Optional[dict] = None
) -> list[TaintFlow]:
    """Expand sink observations into one flow per (tag, observation)."""
    node_ips = node_ips or {}
    flows = []
    for obs in observations:
        for tag in obs.tags:
            sink_ip = node_ips.get(obs.node)
            flows.append(
                TaintFlow(
                    tag=tag.tag,
                    origin=str(tag.local_id),
                    sink=obs.descriptor,
                    sink_node=obs.node,
                    cross_node=sink_ip is not None and sink_ip != tag.local_id.ip,
                    detail=obs.detail,
                )
            )
    return flows


def flows_from_cluster(cluster) -> list[TaintFlow]:
    node_ips = {name: node.ip for name, node in cluster.nodes.items()}
    return flows_from_observations(cluster.tainted_observations(), node_ips)


def flows_from_result(result) -> list[TaintFlow]:
    """Flows from a :class:`~repro.systems.common.WorkloadResult`."""
    return flows_from_observations(result.tainted_observations, result.node_ips)


def render_flow_report(flows: list[TaintFlow], title: str = "Taint flows") -> str:
    """Human-readable report, cross-node flows first."""
    lines = [f"=== {title} ==="]
    ordered = sorted(flows, key=lambda f: (not f.cross_node, str(f.tag)))
    if not ordered:
        lines.append("(no tainted data reached any sink)")
    for flow in ordered:
        lines.append(flow.describe())
        if flow.detail:
            lines.append(f"             detail: {flow.detail}")
    cross = sum(1 for f in flows if f.cross_node)
    lines.append(f"--- {len(flows)} flow(s), {cross} cross-node ---")
    return "\n".join(lines)
