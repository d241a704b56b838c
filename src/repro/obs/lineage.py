"""End-to-end flow lineage: cross-node taint provenance trees.

DisTA is pitched for debugging and in-house analysis (§IV): knowing
*that* a taint reached a sink is often not enough, you want the path.
The :class:`LineageStore` is the one flow record.  It answers *show me
every hop PII from source X took before it reached sink Y, with per-hop
latency* by stitching three event streams into **flow trees**, one per
``(tag value, origin LocalId)`` flow:

* **source registrations** (``SourceSinkRegistry.source``) root the tree;
* **tainted boundary crossings** (``DisTARuntime.record_io``) become
  child edges.  A tainted send allocates a causal span id and parks it,
  with its tainted byte count, on the wire channel it wrote to: the
  shared kernel pipe for TCP, the destination address for UDP.  The
  receive that drains those bytes on the other node adopts the span and
  closes the hop, so per-hop latency and byte counts come for free and
  **no new wire bytes** are needed;
* **sink arrivals** (``SourceSinkRegistry.sink``) complete the flow.

Receives are charged against the pending sends on their channel in send
order, in tainted bytes on both ends: a split read keeps a span until
its bytes are drained, a read that drains several sends closes each of
their hops with the bytes it drained, and untainted bytes never use a
budget up.  Every flow a message carried shares its span and gets the
bytes each read drains from it.  A receive whose flow drained no send
(an uninstrumented peer, a send forgotten at the per-channel bound)
gets a fresh span and an explicit ``uncorrelated`` hop rather than a
guess.

A tree with an uncorrelated or in-flight hop is marked partial, not
passed off as complete.

The store is bounded (``max_flows``) and a store that forgot flows says
so (:attr:`LineageStore.evicted`, ``dista_lineage_flows_evicted_total``).

Hot-path discipline: the cluster hands its store to every node's
``DisTARuntime`` and ``SourceSinkRegistry`` only when
``DisTAConfig.lineage`` is on (``None`` otherwise), and ``record_io``
calls it only for a tainted crossing.  Untainted traffic never reaches
the store, and with lineage off a crossing pays one ``is None`` test.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Optional

from repro.obs.registry import FragmentHistogram

#: Root dispositions.
TRACKED = "tracked"  # rooted by a source registration
IMPLICIT = "implicit"  # first seen mid-flight (no registry source event)

#: Hop dispositions.
TRACED = "traced"  # send and receive correlated by span
UNCORRELATED = "uncorrelated"  # receive with no matching send

#: Default bound on retained flows (evictions are counted, not silent).
DEFAULT_MAX_FLOWS = 4096

#: Per-channel bound on sends no receive has drained (lost datagrams,
#: uninstrumented receivers); beyond it the oldest is forgotten, so the
#: store cannot leak on one-way traffic.  Its hop stays in flight.
MAX_PENDING_PER_CHANNEL = 1024

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
    child.  A hop's byte counts are its message's tainted bytes.
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

    def record_send(
        self, span: int, node: str, method: str, count: int, timestamp: float
    ) -> TreeNode:
        """Open a hop for a send; returns its tree node, which the store
        parks on the wire channel until a receive drains it."""
        parent = self._frontier.get(node, self.root_node)
        hop = Hop(
            span=span,
            sender=node,
            send_method=method,
            sent_bytes=count,
            send_timestamp=timestamp,
        )
        tree_node = TreeNode(node, hop, parent.depth + 1)
        self._attach(parent, tree_node)
        return tree_node

    def record_receive(
        self, tree_node: TreeNode, node: str, method: str, count: int, timestamp: float
    ) -> Optional[Hop]:
        """Close (or extend) a hop this flow sent with ``count`` bytes a
        receive drained from it; returns the hop when this receive
        completed it (for latency telemetry)."""
        hop = tree_node.hop
        if hop.receiver is not None:
            # A split read draining the same span: accumulate bytes,
            # keep the first receive's timestamp (latency = first byte
            # arrival).
            hop.received_bytes += count
            return None
        hop.receiver = node
        hop.receive_method = method
        hop.received_bytes = count
        hop.receive_timestamp = timestamp
        tree_node.node = node
        self._frontier[node] = tree_node
        return hop

    def record_uncorrelated(
        self, span: int, node: str, method: str, count: int, timestamp: float
    ) -> None:
        """A receive that drained no send of this flow: an uninstrumented
        peer or a forgotten send.  Attach under the root, explicitly
        marked rather than guessed."""
        hop = Hop(
            span=span,
            receiver=node,
            receive_method=method,
            received_bytes=count,
            receive_timestamp=timestamp,
            disposition=UNCORRELATED,
        )
        tree_node = TreeNode(node, hop, self.root_node.depth + 1)
        self._attach(self.root_node, tree_node)
        self._frontier[node] = tree_node

    def _attach(self, parent: TreeNode, tree_node: TreeNode) -> None:
        parent.children.append(tree_node)
        self.hop_nodes.append(tree_node)
        self.max_depth = max(self.max_depth, tree_node.depth)

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
        """True when this tree is explicitly incomplete: it carries
        uncorrelated or in-flight hops."""
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

    One store per cluster, fed by every node's ``SourceSinkRegistry``
    (sources, sinks) and ``DisTARuntime`` (crossings).  At
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
        self.evicted = 0
        self.completed_total = 0
        self._depth_hist = FragmentHistogram(lowest=1.0, buckets=DEPTH_BUCKETS)
        self._hop_hists: dict = {}
        self._spans = itertools.count(1)
        #: channel key → FIFO of ``[tainted bytes not yet received,
        #: [(flow, hop tree node), ...]]``, one entry per send no
        #: receive has drained yet.
        self._pending: dict = {}

    # -- ingestion --------------------------------------------------------- #

    def _flow_for(self, tag, origin: Optional[str], timestamp: float) -> FlowTree:
        key = tag.key()
        flow = self._flows.get(key)
        if flow is None:
            # Stamped with the event that created it, so an implicit
            # root is never later than its first hop.
            flow = FlowTree(
                key,
                SourceRoot(
                    node=origin,
                    descriptor="",
                    timestamp=timestamp,
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
        """A source registration: the root of a tracked flow."""
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

    def record_crossing(
        self, node: str, direction: str, method: str, data, tainted: int, channel=None
    ) -> None:
        """One tainted boundary crossing (from ``DisTARuntime.record_io``):
        a hop edge on every flow whose tag ``data`` carries.  ``tainted``
        is its tainted byte count and ``channel`` its wire channel (see
        ``TcpEndpoint.send_channel``), the key that pairs a send with the
        receives draining it."""
        tags: set = set()
        for label in data.labels.unique_labels():
            if label is not None:
                tags.update(label.tags)
        with self._lock:
            # Inside the lock: a span's send must be parked and stamped
            # before any receive draining it, across node threads.
            timestamp = time.monotonic()
            if direction == "send":
                span = next(self._spans)
                sent = []
                for tag in tags:
                    flow = self._flow_for(tag, node, timestamp)
                    sent.append((flow, flow.record_send(span, node, method, tainted, timestamp)))
                if channel is not None:
                    queue = self._pending.setdefault(channel, deque())
                    queue.append([tainted, sent])
                    if len(queue) > MAX_PENDING_PER_CHANNEL:
                        queue.popleft()
                return
            matched = set()
            for count, sent in self._drain(channel, tainted):
                for flow, tree_node in sent:
                    matched.add(flow)
                    hop = flow.record_receive(tree_node, node, method, count, timestamp)
                    if hop is not None:
                        hist = self._hop_hists.get(hop.send_method)
                        if hist is None:
                            hist = self._hop_hists[hop.send_method] = FragmentHistogram()
                        hist.observe(hop.latency)
            span = None
            for tag in tags:
                flow = self._flow_for(tag, None, timestamp)
                if flow not in matched:
                    span = span or next(self._spans)
                    flow.record_uncorrelated(span, node, method, tainted, timestamp)

    def _drain(self, channel, tainted: int) -> list:
        """Charge a receive's ``tainted`` bytes to the oldest pending
        sends on ``channel``: ``[(bytes drained, hops of that send)]`` in
        send order.  What one send does not take carries onto the next,
        so a read spanning two messages closes both hops, and every flow
        a message carried gets the bytes drained from it."""
        queue = self._pending.get(channel)
        if not queue:
            return []
        drained = []
        while queue and tainted > 0:
            head = queue[0]
            count = min(head[0], tainted)
            drained.append((count, head[1]))
            tainted -= count
            head[0] -= count
            if not head[0]:
                queue.popleft()
        if not queue:
            del self._pending[channel]
        return drained

    def record_sink(
        self, node: str, descriptor: str, tags, detail: str = "", timestamp=None
    ) -> None:
        """A sink observation carrying tags: completes each tag's flow."""
        timestamp = time.monotonic() if timestamp is None else timestamp
        arrival = SinkArrival(node, descriptor, detail, timestamp)
        with self._lock:
            for tag in tags:
                flow = self._flow_for(tag, None, timestamp)
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
        """The flow tree for a tag value (most recent when reused)."""
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
