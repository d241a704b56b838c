"""End-to-end flow lineage: cross-node taint provenance trees.

The crossing trace (:mod:`repro.core.trace`) answers "which boundary did
this taint cross"; this module answers the question operators actually
ask — *show me every hop PII from source X took before it reached sink
Y, with per-hop latency*.  It stitches three existing event streams into
**flow trees**, one per ``(tag value, origin LocalId)`` flow:

* **source registrations** (``SourceSinkRegistry.source``) root the tree;
* **crossing spans** (PR 4's parked-span channel adoption) become child
  edges — a send parents under the frontier node of its sender, the
  receive that adopts the same span id closes the hop with the remote
  timestamp, so per-hop latency and byte counts come for free and **no
  new wire bytes** are needed: lineage context rides the span ids the
  trace already correlates;
* **sink arrivals** (``SourceSinkRegistry.sink``) complete the flow.

Sampling is explicit, never silent: a flow sampled out by
``sample_every`` appears as a *stub* tree whose root disposition is
``sampled_out`` — partial trees are marked partial, not missing.

The cluster-side :class:`LineageStore` is bounded (``max_flows``) with
eviction accounting in the ``CrossingTrace.dropped`` tradition: a store
that forgot flows says so (:attr:`LineageStore.evicted`,
``dista_lineage_flows_evicted_total``).

Hot-path discipline: every recorder hook is reached only *behind* the
``labels is None`` zero-taint fast path — untainted traffic never
constructs an event — and the per-node :class:`LineageRecorder` carries
an ``enabled`` flag callers check first, so the disabled configuration
(:data:`NULL_LINEAGE`) costs one attribute read.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.registry import FragmentHistogram

#: Root dispositions.
TRACKED = "tracked"  # rooted by an admitted source registration
IMPLICIT = "implicit"  # first seen mid-flight (no registry source event)
SAMPLED_OUT = "sampled_out"  # flow-sampling rejected it (stub tree)

#: Hop dispositions.
TRACED = "traced"  # send and receive correlated by span
UNCORRELATED = "uncorrelated"  # receive with no matching send

#: Default bound on retained flows (evictions are counted, not silent).
DEFAULT_MAX_FLOWS = 4096

#: Tree-depth histogram layout: powers of two from depth 1; 16 buckets
#: cover any realistic hop chain.
DEPTH_BUCKETS = 16


@dataclass
class SourceRoot:
    """The root of a flow tree: where (and whether) the flow started."""

    node: Optional[str]
    descriptor: str
    detail: str = ""
    timestamp: float = 0.0
    disposition: str = TRACKED

    def as_dict(self) -> dict:
        return {
            "node": self.node,
            "descriptor": self.descriptor,
            "detail": self.detail,
            "timestamp": self.timestamp,
            "disposition": self.disposition,
        }


@dataclass
class Hop:
    """One cross-process hop: a send and the receive draining its span."""

    span: int
    sender: Optional[str] = None
    send_method: Optional[str] = None
    sent_bytes: int = 0
    send_timestamp: Optional[float] = None
    receiver: Optional[str] = None
    receive_method: Optional[str] = None
    received_bytes: int = 0
    receive_timestamp: Optional[float] = None
    disposition: str = TRACED

    @property
    def complete(self) -> bool:
        return self.sender is not None and self.receiver is not None

    @property
    def latency(self) -> Optional[float]:
        """Receive-side minus send-side monotonic timestamp (one-way)."""
        if self.send_timestamp is None or self.receive_timestamp is None:
            return None
        return max(0.0, self.receive_timestamp - self.send_timestamp)

    def as_dict(self) -> dict:
        return {
            "span": self.span,
            "sender": self.sender,
            "send_method": self.send_method,
            "sent_bytes": self.sent_bytes,
            "send_timestamp": self.send_timestamp,
            "receiver": self.receiver,
            "receive_method": self.receive_method,
            "received_bytes": self.received_bytes,
            "receive_timestamp": self.receive_timestamp,
            "latency": self.latency,
            "disposition": self.disposition,
        }


@dataclass
class SinkArrival:
    """One sink observation that saw this flow's tag."""

    node: str
    descriptor: str
    detail: str = ""
    timestamp: float = 0.0

    def as_dict(self) -> dict:
        return {
            "node": self.node,
            "descriptor": self.descriptor,
            "detail": self.detail,
            "timestamp": self.timestamp,
        }


class TreeNode:
    """One node of a flow tree: the root, or one hop's landing point."""

    __slots__ = ("node", "hop", "depth", "children")

    def __init__(self, node: Optional[str], hop: Optional[Hop], depth: int):
        #: The cluster node this tree position lives on (the receiver
        #: for a completed hop; the sender while the hop is in flight).
        self.node = node
        self.hop = hop
        self.depth = depth
        self.children: list = []


class FlowTree:
    """One flow: a source-rooted tree of cross-process hops.

    Hops attach eagerly: a send parents under its sender's *frontier*
    node (the tree position where the flow last landed on that node —
    the root for the origin), and the receive adopting the same span id
    completes the edge and advances the receiver's frontier.  Split
    reads merge into the existing hop by span instead of forking a
    child, mirroring the trace's byte-budget correlation.
    """

    def __init__(self, key, root: SourceRoot):
        self.key = key
        self.tag_value = key[0] if isinstance(key, tuple) and key else key
        self._gid = 0
        #: Tag instances seen with GID still unassigned (one interned
        #: instance per node tree); re-read lazily by :attr:`gid`
        #: because the Taint Map stamps the sender's tag only *after*
        #: the wrapper boundary recorded the send crossing.
        self._tag_refs: list = []
        self.root = root
        self.root_node = TreeNode(root.node, None, 1)
        self.sinks: list = []
        self.completed = False
        self.max_depth = 1
        #: Hop tree nodes in send order (the hop-ordering ground truth).
        self.hop_nodes: list = []
        self._by_span: dict = {}
        self._frontier: dict = {}
        if root.node is not None:
            self._frontier[root.node] = self.root_node

    @property
    def gid(self) -> int:
        """Taint Map GlobalID of this flow's tag (0 until assigned)."""
        if not self._gid:
            for tag in self._tag_refs:
                if tag.global_id:
                    self._gid = tag.global_id
                    break
            if self._gid:
                self._tag_refs.clear()
        return self._gid

    def note_tag(self, tag) -> None:
        """Remember a tag instance so :attr:`gid` can read its GID once
        the Taint Map assigns one (lazy, on first network crossing)."""
        if self._gid:
            return
        if tag.global_id:
            self._gid = tag.global_id
            self._tag_refs.clear()
        elif not any(existing is tag for existing in self._tag_refs):
            self._tag_refs.append(tag)

    # -- assembly (called by the store, under its lock) -------------------- #

    def record_send(self, crossing) -> None:
        existing = self._by_span.get(crossing.span)
        if existing is not None:
            # Same span sent twice for one flow (chunked writes under a
            # single correlation): fold the bytes into the open hop.
            existing.hop.sent_bytes += crossing.data_bytes
            return
        parent = self._frontier.get(crossing.node, self.root_node)
        hop = Hop(
            span=crossing.span,
            sender=crossing.node,
            send_method=crossing.method,
            sent_bytes=crossing.data_bytes,
            send_timestamp=crossing.timestamp,
        )
        node = TreeNode(crossing.node, hop, parent.depth + 1)
        parent.children.append(node)
        self.hop_nodes.append(node)
        self._by_span[crossing.span] = node
        self.max_depth = max(self.max_depth, node.depth)

    def record_receive(self, crossing) -> Optional[Hop]:
        """Close (or extend) the hop for a receive; returns the hop when
        this receive completed it (for latency telemetry)."""
        node = self._by_span.get(crossing.span)
        if node is None or node.hop is None:
            # No matching send for this flow: an uninstrumented peer or
            # coalesced wire traffic.  Attach under the root, explicitly
            # marked rather than guessed.
            hop = Hop(
                span=crossing.span,
                receiver=crossing.node,
                receive_method=crossing.method,
                received_bytes=crossing.data_bytes,
                receive_timestamp=crossing.timestamp,
                disposition=UNCORRELATED,
            )
            tree_node = TreeNode(crossing.node, hop, self.root_node.depth + 1)
            self.root_node.children.append(tree_node)
            self.hop_nodes.append(tree_node)
            self._by_span[crossing.span] = tree_node
            self.max_depth = max(self.max_depth, tree_node.depth)
            self._frontier[crossing.node] = tree_node
            return hop
        hop = node.hop
        if hop.receiver is None:
            hop.receiver = crossing.node
            hop.receive_method = crossing.method
            hop.received_bytes = crossing.data_bytes
            hop.receive_timestamp = crossing.timestamp
            node.node = crossing.node
            self._frontier[crossing.node] = node
            return hop
        # A split read draining the same span: accumulate bytes, keep
        # the first receive's timestamp (latency = first byte arrival).
        hop.received_bytes += crossing.data_bytes
        return None

    def record_sink(self, arrival: SinkArrival) -> bool:
        """Append a sink arrival; True when it completed the flow."""
        self.sinks.append(arrival)
        if self.completed:
            return False
        self.completed = True
        return True

    # -- introspection ----------------------------------------------------- #

    @property
    def hops(self) -> list:
        """Hops in send order."""
        return [n.hop for n in self.hop_nodes]

    @property
    def sink_depth(self) -> int:
        """Tree depth including the sink level (root = 1)."""
        best = self.root_node.depth
        for arrival in self.sinks:
            landing = self._frontier.get(arrival.node, self.root_node)
            best = max(best, landing.depth + 1)
        return best

    @property
    def partial(self) -> bool:
        """True when this tree is explicitly incomplete: sampled out, or
        carrying uncorrelated/in-flight hops."""
        if self.root.disposition == SAMPLED_OUT:
            return True
        return any(
            h.disposition == UNCORRELATED or not h.complete for h in self.hops
        )

    def as_dict(self) -> dict:
        hops = []
        for node in self.hop_nodes:
            entry = node.hop.as_dict()
            entry["depth"] = node.depth
            hops.append(entry)
        return {
            "tag": str(self.tag_value),
            "gid": self.gid,
            "completed": self.completed,
            "partial": self.partial,
            "depth": self.max_depth,
            "sink_depth": self.sink_depth,
            "root": self.root.as_dict(),
            "hops": hops,
            "sinks": [s.as_dict() for s in self.sinks],
        }

    def render(self) -> str:
        status = "completed" if self.completed else "open"
        flags = []
        if self.partial:
            flags.append("partial")
        gid = f" gid={self.gid}" if self.gid else ""
        lines = [
            f"flow {self.tag_value!r}{gid} [{status}"
            + (", " + ", ".join(flags) if flags else "")
            + "]"
        ]
        root = self.root
        lines.append(
            f"  source {root.node or '?'} {root.descriptor or '(implicit)'} "
            f"[{root.disposition}]"
        )

        def walk(node: TreeNode, indent: str) -> None:
            for child in node.children:
                hop = child.hop
                base = root.timestamp or (hop.send_timestamp or 0.0)
                if hop.disposition == UNCORRELATED:
                    desc = (
                        f"?->{hop.receiver} ?/{hop.receive_method} "
                        f"?/{hop.received_bytes}B [uncorrelated]"
                    )
                elif hop.receiver is None:
                    desc = (
                        f"{hop.sender}->? {hop.send_method}/? "
                        f"{hop.sent_bytes}B/? [in flight]"
                    )
                else:
                    latency = hop.latency
                    lat = f" +{latency * 1e6:.0f}us" if latency is not None else ""
                    desc = (
                        f"{hop.sender}->{hop.receiver} "
                        f"{hop.send_method}/{hop.receive_method} "
                        f"{hop.sent_bytes}B/{hop.received_bytes}B{lat}"
                    )
                offset = ""
                if hop.send_timestamp is not None and root.timestamp:
                    offset = f" t=+{(hop.send_timestamp - base) * 1e6:.0f}us"
                lines.append(f"{indent}└─ s{hop.span} {desc}{offset}")
                walk(child, indent + "   ")

        walk(self.root_node, "  ")
        for arrival in self.sinks:
            lines.append(f"  ✓ sink {arrival.node} {arrival.descriptor}")
        return "\n".join(lines)


class LineageStore:
    """Bounded cluster-side store of flow trees, with a query API.

    One store per cluster; every node's :class:`LineageRecorder` and the
    cluster's :class:`~repro.core.trace.CrossingTrace` feed it.  At
    ``max_flows`` the oldest flow is evicted — completed flows first,
    then open ones — and every eviction is counted
    (:attr:`evicted`, ``dista_lineage_flows_evicted_total``): a store
    that forgot lineage never looks complete.
    """

    def __init__(self, max_flows: int = DEFAULT_MAX_FLOWS):
        if max_flows < 1:
            raise ValueError(f"max_flows must be >= 1, got {max_flows}")
        self.max_flows = max_flows
        self._lock = threading.Lock()
        self._flows: "OrderedDict" = OrderedDict()
        self._stub_counter = 0
        self.evicted = 0
        self.completed_total = 0
        self._depth_hist = FragmentHistogram(lowest=1.0, buckets=DEPTH_BUCKETS)
        self._hop_hists: dict = {}

    # -- ingestion --------------------------------------------------------- #

    def _flow_for(self, tag, origin: Optional[str] = None) -> FlowTree:
        key = tag.key()
        flow = self._flows.get(key)
        if flow is None:
            flow = FlowTree(
                key,
                SourceRoot(
                    node=origin,
                    descriptor="",
                    timestamp=time.monotonic(),
                    disposition=IMPLICIT,
                ),
            )
            self._flows[key] = flow
            self._enforce_bound()
        flow.note_tag(tag)
        return flow

    def record_source(
        self, node: str, descriptor: str, tag, detail: str = "", timestamp=None
    ) -> None:
        """An admitted source registration: the root of a tracked flow."""
        timestamp = time.monotonic() if timestamp is None else timestamp
        with self._lock:
            key = tag.key()
            flow = self._flows.get(key)
            if flow is None:
                flow = FlowTree(
                    key, SourceRoot(node, descriptor, detail, timestamp, TRACKED)
                )
                self._flows[key] = flow
                self._enforce_bound()
            elif flow.root.disposition == IMPLICIT:
                # The crossing beat the source event here; upgrade the
                # implicit root in place.
                flow.root.node = node
                flow.root.descriptor = descriptor
                flow.root.detail = detail
                flow.root.timestamp = timestamp
                flow.root.disposition = TRACKED
                flow.root_node.node = node
                flow._frontier.setdefault(node, flow.root_node)
            flow.note_tag(tag)

    def record_sampled_out(self, node: str, descriptor: str, timestamp=None) -> None:
        """A source firing rejected by flow sampling: a stub tree whose
        root says so — sampled-out flows are marked, never missing."""
        timestamp = time.monotonic() if timestamp is None else timestamp
        with self._lock:
            self._stub_counter += 1
            key = (SAMPLED_OUT, node, descriptor, self._stub_counter)
            self._flows[key] = FlowTree(
                key, SourceRoot(node, descriptor, "", timestamp, SAMPLED_OUT)
            )
            self._enforce_bound()

    def record_crossing(self, crossing) -> None:
        """One tainted boundary crossing (fed by the CrossingTrace,
        inside its record path): becomes a hop edge on every flow whose
        tag the payload carried."""
        is_send = crossing.direction == "send"
        with self._lock:
            for tag in crossing.tags:
                flow = self._flow_for(
                    tag, origin=crossing.node if is_send else None
                )
                if is_send:
                    flow.record_send(crossing)
                else:
                    hop = flow.record_receive(crossing)
                    if hop is not None and hop.latency is not None:
                        site = hop.send_method or hop.receive_method or "?"
                        hist = self._hop_hists.get(site)
                        if hist is None:
                            hist = self._hop_hists[site] = FragmentHistogram()
                        hist.observe(hop.latency)

    def record_sink(
        self, node: str, descriptor: str, tags, detail: str = "", timestamp=None
    ) -> None:
        """A sink observation carrying tags: completes each tag's flow."""
        timestamp = time.monotonic() if timestamp is None else timestamp
        arrival = SinkArrival(node, descriptor, detail, timestamp)
        with self._lock:
            for tag in tags:
                flow = self._flow_for(tag, origin=None)
                if flow.record_sink(arrival):
                    self.completed_total += 1
                    self._depth_hist.observe(flow.sink_depth)

    def _enforce_bound(self) -> None:
        while len(self._flows) > self.max_flows:
            victim_key = None
            for key, flow in self._flows.items():
                if flow.completed:
                    victim_key = key
                    break
            if victim_key is None:
                victim_key = next(iter(self._flows))
            del self._flows[victim_key]
            self.evicted += 1

    # -- queries ----------------------------------------------------------- #

    def flows(self) -> list:
        """Every retained flow, oldest first."""
        with self._lock:
            return list(self._flows.values())

    def completed_flows(self) -> list:
        with self._lock:
            return [f for f in self._flows.values() if f.completed]

    def open_flows(self) -> list:
        with self._lock:
            return [f for f in self._flows.values() if not f.completed]

    def lineage_of(self, gid: int) -> list:
        """Flows whose tag was assigned the given Taint Map GlobalID."""
        with self._lock:
            return [f for f in self._flows.values() if gid and f.gid == gid]

    def flows_between(self, source_node: str, sink_node: str) -> list:
        """Flows rooted on ``source_node`` that reached a sink on
        ``sink_node`` — the "did PII from X reach Y" query."""
        with self._lock:
            return [
                f
                for f in self._flows.values()
                if f.root.node == source_node
                and any(s.node == sink_node for s in f.sinks)
            ]

    def hops(self, tag_value) -> Optional[FlowTree]:
        """The flow tree for a tag value (most recent when reused) —
        the tree-shaped upgrade of ``CrossingTrace.hops``'s node path."""
        with self._lock:
            found = None
            for flow in self._flows.values():
                if flow.tag_value == tag_value:
                    found = flow
            return found

    # -- reporting / export ------------------------------------------------- #

    def describe(self) -> str:
        with self._lock:
            retained = len(self._flows)
            completed = sum(1 for f in self._flows.values() if f.completed)
            evicted = self.evicted
        return (
            f"LineageStore: {retained} flow(s) retained ({completed} completed), "
            f"{evicted} evicted (max {self.max_flows})"
        )

    def render(self) -> str:
        lines = [f"=== Flow lineage ({self.describe()}) ==="]
        for flow in self.flows():
            lines.append(flow.render())
        if self.evicted:
            lines.append(
                f"!!! incomplete: {self.evicted} flow(s) evicted at "
                f"max_flows {self.max_flows}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        with self._lock:
            flows = [f.as_dict() for f in self._flows.values()]
            return {
                "flows": flows,
                "open": sum(1 for f in self._flows.values() if not f.completed),
                "completed_total": self.completed_total,
                "evicted": self.evicted,
                "max_flows": self.max_flows,
            }

    def export_ndjson(self) -> str:
        """Newline-delimited JSON: one flow object per line (offline
        analysis — stream, grep, jq)."""
        return "".join(
            json.dumps(flow.as_dict(), sort_keys=True) + "\n"
            for flow in self.flows()
        )

    def export_chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` format (load in chrome://tracing
        or Perfetto): one *process* track per cluster node, one *thread*
        lane per flow; hops are complete ("X") events on the sender's
        track spanning send→receive, linked across tracks by flow
        ("s"/"f") events keyed on the span id; sources and sinks are
        instant ("i") events.
        """
        flows = self.flows()
        nodes: list = []
        for flow in flows:
            for name in self._flow_node_names(flow):
                if name not in nodes:
                    nodes.append(name)
        pid_of = {name: index + 1 for index, name in enumerate(nodes)}
        timestamps = []
        for flow in flows:
            if flow.root.timestamp:
                timestamps.append(flow.root.timestamp)
            for hop in flow.hops:
                if hop.send_timestamp is not None:
                    timestamps.append(hop.send_timestamp)
                if hop.receive_timestamp is not None:
                    timestamps.append(hop.receive_timestamp)
            timestamps.extend(s.timestamp for s in flow.sinks if s.timestamp)
        base = min(timestamps) if timestamps else 0.0

        def us(timestamp: Optional[float]) -> float:
            if timestamp is None:
                return 0.0
            return round((timestamp - base) * 1e6, 3)

        events: list = []
        for name, pid in pid_of.items():
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        for tid, flow in enumerate(flows, start=1):
            label = str(flow.tag_value)
            for name in self._flow_node_names(flow):
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid_of[name],
                        "tid": tid,
                        "args": {"name": f"flow {label}"},
                    }
                )
            if flow.root.node is not None:
                events.append(
                    {
                        "ph": "i",
                        "s": "p",
                        "name": f"source {flow.root.descriptor or label} "
                        f"[{flow.root.disposition}]",
                        "pid": pid_of[flow.root.node],
                        "tid": tid,
                        "ts": us(flow.root.timestamp),
                        "args": {"gid": flow.gid},
                    }
                )
            for hop in flow.hops:
                anchor = hop.sender if hop.sender is not None else hop.receiver
                if anchor is None:
                    continue
                pid = pid_of[anchor]
                start = (
                    hop.send_timestamp
                    if hop.send_timestamp is not None
                    else hop.receive_timestamp
                )
                duration = hop.latency or 0.0
                events.append(
                    {
                        "ph": "X",
                        "name": f"{hop.send_method or '?'} -> "
                        f"{hop.receive_method or '?'}",
                        "pid": pid,
                        "tid": tid,
                        "ts": us(start),
                        "dur": max(round(duration * 1e6, 3), 1.0),
                        "args": {
                            "span": hop.span,
                            "sent_bytes": hop.sent_bytes,
                            "received_bytes": hop.received_bytes,
                            "disposition": hop.disposition,
                        },
                    }
                )
                if hop.complete:
                    events.append(
                        {
                            "ph": "s",
                            "name": f"span {hop.span}",
                            "id": hop.span,
                            "pid": pid_of[hop.sender],
                            "tid": tid,
                            "ts": us(hop.send_timestamp),
                        }
                    )
                    events.append(
                        {
                            "ph": "f",
                            "bp": "e",
                            "name": f"span {hop.span}",
                            "id": hop.span,
                            "pid": pid_of[hop.receiver],
                            "tid": tid,
                            "ts": us(hop.receive_timestamp),
                        }
                    )
            for arrival in flow.sinks:
                events.append(
                    {
                        "ph": "i",
                        "s": "p",
                        "name": f"sink {arrival.descriptor}",
                        "pid": pid_of[arrival.node],
                        "tid": tid,
                        "ts": us(arrival.timestamp),
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    @staticmethod
    def _flow_node_names(flow: FlowTree) -> list:
        names: list = []
        for name in (
            [flow.root.node]
            + [h.sender for h in flow.hops]
            + [h.receiver for h in flow.hops]
            + [s.node for s in flow.sinks]
        ):
            if name is not None and name not in names:
                names.append(name)
        return names

    # -- telemetry ---------------------------------------------------------- #

    def telemetry_samples(self) -> dict:
        """Snapshot fragment for the kernel registry (registered by
        ``Cluster.start`` when lineage is on)."""
        with self._lock:
            open_count = sum(1 for f in self._flows.values() if not f.completed)
            completed = self.completed_total
            evicted = self.evicted
            depth_sample = self._depth_hist.sample()
            hop_samples = [
                hist.sample({"site": site})
                for site, hist in sorted(self._hop_hists.items())
            ]
        return {
            "dista_lineage_flows_open": {
                "type": "gauge",
                "help": "Flows retained by the lineage store without a sink yet.",
                "samples": [{"labels": {}, "value": open_count}],
            },
            "dista_lineage_flows_completed_total": {
                "type": "counter",
                "help": "Flows whose tag reached a sink point.",
                "samples": [{"labels": {}, "value": completed}],
            },
            "dista_lineage_flows_evicted_total": {
                "type": "counter",
                "help": "Flows evicted after the store reached max_flows.",
                "samples": [{"labels": {}, "value": evicted}],
            },
            "dista_lineage_tree_depth": {
                "type": "histogram",
                "help": "Flow tree depth at completion (root + hops + sink).",
                "samples": [depth_sample],
            },
            "dista_lineage_hop_seconds": {
                "type": "histogram",
                "help": "Per-hop one-way latency by sending site.",
                "samples": hop_samples,
            },
        }


class LineageRecorder:
    """Per-node recorder: forwards source/sink events to the store.

    One per attached node (built by the agent), stamped with the node
    name so cluster-side stitching never guesses origins.  Every hook is
    dispatched *behind* the zero-taint fast path and behind the caller's
    ``recorder.enabled`` check, so the disabled configuration
    (:data:`NULL_LINEAGE`) costs one attribute read on the hot path.
    """

    __slots__ = ("store", "node_name")

    enabled = True

    def __init__(self, store: LineageStore, node_name: str):
        self.store = store
        self.node_name = node_name

    def source_event(self, descriptor: str, tag, detail: str = "") -> None:
        self.store.record_source(self.node_name, descriptor, tag, detail)

    def sampled_out_event(self, descriptor: str) -> None:
        self.store.record_sampled_out(self.node_name, descriptor)

    def sink_event(self, descriptor: str, tags, detail: str = "") -> None:
        if tags:
            self.store.record_sink(self.node_name, descriptor, tags, detail)


class NullLineageRecorder:
    """The no-op recorder: full :class:`LineageRecorder` API parity,
    ``enabled`` False so hot paths skip event construction entirely."""

    __slots__ = ()

    enabled = False

    def source_event(self, descriptor: str, tag, detail: str = "") -> None:
        return None

    def sampled_out_event(self, descriptor: str) -> None:
        return None

    def sink_event(self, descriptor: str, tags, detail: str = "") -> None:
        return None


NULL_LINEAGE = NullLineageRecorder()
