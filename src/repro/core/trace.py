"""Inter-node taint crossing trace with causal spans.

DisTA is pitched for debugging and in-house analysis; knowing *that* a
taint reached a sink is often not enough — you want the path.  This
module records every tainted boundary crossing the wrappers perform
(send or receive, per JNI method) into a cluster-wide
:class:`CrossingTrace`, and renders per-tag timelines.

Crossings are **causal spans**: a tainted send allocates a span id and
parks it (with its byte count) on the wire channel it wrote to — the
shared kernel pipe for TCP, the destination address for UDP.  The
receive that drains those bytes on the other node takes the same span
id, so one span = one message's journey across the boundary, with
monotonic timestamps on both ends.  Split reads decrement the pending
byte budget and keep the span until it is fully consumed; a receive
with no pending send (uninstrumented peer, coalesced wire traffic)
falls back to a fresh span rather than mis-attributing.

Enable per cluster::

    cluster = Cluster(Mode.DISTA, trace=CrossingTrace())

The trace only records *tainted* crossings (untainted traffic would
swamp it), ordered by a global sequence number.  The buffer is a ring:
once ``capacity`` is reached each new crossing evicts the oldest, and
evictions are **counted, never silently lost** — see
:attr:`CrossingTrace.dropped` and :meth:`CrossingTrace.describe`.

Per-tag and per-span indexes are maintained on :meth:`record` (and
trimmed on ring eviction), so :meth:`for_tag`/:meth:`for_span` — the
primitives the timeline render and the lineage store stitch with — cost
O(result), not O(trace).

A :class:`~repro.obs.lineage.LineageStore` attached via
:meth:`attach_lineage` receives every recorded crossing (independent of
ring eviction), which is how flow trees acquire their hop edges without
any new wire bytes: lineage context rides the existing span ids.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

#: Per-channel bound on unmatched pending sends (lost datagrams,
#: uninstrumented receivers); beyond it the oldest correlation is
#: forgotten so the trace cannot leak on one-way traffic.
MAX_PENDING_PER_CHANNEL = 1024


@dataclass(frozen=True)
class Crossing:
    """One tainted message crossing a node boundary."""

    sequence: int
    node: str
    direction: str  # "send" | "receive"
    method: str
    data_bytes: int
    tags: frozenset
    #: Causal span id shared by a send and the receive(s) draining it.
    span: int = 0
    #: ``time.monotonic()`` at record time (orders both ends of a span).
    timestamp: float = 0.0

    def describe(self) -> str:
        arrow = "->" if self.direction == "send" else "<-"
        tag_names = ",".join(sorted(str(t.tag) for t in self.tags))
        return (
            f"#{self.sequence:<4d} s{self.span:<4d} {self.node:12s} {arrow} "
            f"{self.method:22s} {self.data_bytes:6d}B  [{tag_names}]"
        )


class CrossingTrace:
    """Thread-safe recorder shared by every wrapper in a cluster."""

    def __init__(self, capacity: int = 10_000):
        self._capacity = capacity
        self._lock = threading.Lock()
        self._sequence = itertools.count(1)
        self._spans = itertools.count(1)
        #: channel key → FIFO of ``[span_id, bytes_remaining]`` for
        #: sends whose bytes have not been received yet.
        self._pending: dict = {}
        #: Retained crossings, oldest first (ring: evicts at capacity).
        self._ring: deque = deque()
        #: tag value → its crossings (same order as the ring); one entry
        #: per *distinct* tag value per crossing, popped front-first on
        #: eviction so the index mirrors the ring exactly.
        self._by_tag: dict = {}
        #: span id → its crossings (both ends, sequence order).
        self._by_span: dict = {}
        #: Optional LineageStore fed every recorded crossing.
        self._lineage = None
        #: Crossings evicted after ``capacity`` was reached.  Span
        #: bookkeeping continues even while dropping, so correlations
        #: stay correct for whatever the buffer does retain.
        self.dropped = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def crossings(self) -> list:
        """Retained crossings, oldest first (a copy)."""
        with self._lock:
            return list(self._ring)

    def attach_lineage(self, store) -> None:
        """Feed every recorded crossing to ``store.record_crossing``.

        Called by ``Cluster`` when lineage is enabled; the store
        keeps its own (bounded, eviction-counted) flow state, so ring
        eviction here never loses a hop edge there.
        """
        with self._lock:
            self._lineage = store

    def record(
        self, node: str, direction: str, method: str, data, channel=None
    ) -> None:
        tag_set = self._collect_tags(data)
        if tag_set is None:
            return
        data_bytes = len(data)
        with self._lock:
            if direction == "send":
                span = next(self._spans)
                if channel is not None:
                    queue = self._pending.setdefault(channel, deque())
                    queue.append([span, data_bytes])
                    if len(queue) > MAX_PENDING_PER_CHANNEL:
                        queue.popleft()
            else:
                span = self._take_receive_span(channel, data_bytes)
            crossing = Crossing(
                next(self._sequence),
                node,
                direction,
                method,
                data_bytes,
                tag_set,
                span,
                time.monotonic(),
            )
            self._ring.append(crossing)
            self._index(crossing)
            if len(self._ring) > self._capacity:
                self._unindex(self._ring.popleft())
                self.dropped += 1
            # Inside the lock on purpose: stitching must observe a
            # span's send before its receive, and the ring lock is the
            # only thing ordering the two ends across node threads.
            if self._lineage is not None:
                self._lineage.record_crossing(crossing)

    @staticmethod
    def _collect_tags(data) -> Optional[frozenset]:
        """Distinct tags on ``data``, or ``None`` when untainted.

        Run-labelled values skip the ``overall_taint`` union fold: tag
        sets are precomputed per interned taint node, so walking the
        distinct run labels is O(runs) set updates, while the fold would
        build (and intern) a merged taint tree only to read its tag set
        once — the dominant cost of recording multi-source payloads.
        """
        labels = getattr(data, "labels", None)
        if labels is not None and hasattr(labels, "unique_labels"):
            tags: set = set()
            for label in labels.unique_labels():
                if label is not None:
                    tags.update(label.tags)
            return frozenset(tags) if tags else None
        taint = data.overall_taint() if hasattr(data, "overall_taint") else None
        if taint is None or taint.is_empty:
            return None
        return frozenset(taint.tags)

    def _index(self, crossing: Crossing) -> None:
        for value in {t.tag for t in crossing.tags}:
            self._by_tag.setdefault(value, deque()).append(crossing)
        self._by_span.setdefault(crossing.span, deque()).append(crossing)

    def _unindex(self, crossing: Crossing) -> None:
        """Drop the evicted (oldest) crossing from both indexes.  Ring
        and index share append order, so it is always at the front."""
        for value in {t.tag for t in crossing.tags}:
            queue = self._by_tag.get(value)
            if queue:
                queue.popleft()
                if not queue:
                    del self._by_tag[value]
        queue = self._by_span.get(crossing.span)
        if queue:
            queue.popleft()
            if not queue:
                del self._by_span[crossing.span]

    def _take_receive_span(self, channel, data_bytes: int) -> int:
        """Correlate a receive with the oldest pending send on its
        channel, consuming its byte budget (split reads keep the span
        alive until the sent bytes are drained)."""
        queue = self._pending.get(channel) if channel is not None else None
        if not queue:
            return next(self._spans)
        head = queue[0]
        head[1] -= data_bytes
        if head[1] <= 0:
            queue.popleft()
        return head[0]

    # -- queries ---------------------------------------------------------- #

    def for_tag(self, tag_value) -> list:
        """Crossings carrying a tag with the given value, in order."""
        with self._lock:
            return list(self._by_tag.get(tag_value, ()))

    def for_span(self, span: int) -> list:
        """Both ends of one causal span, in sequence order."""
        with self._lock:
            return list(self._by_span.get(span, ()))

    def span_pairs(self, tag_value=None) -> list:
        """Correlated (send, receive) pairs — the end-to-end hops.

        A span whose receive was split across several reads contributes
        one pair per receive (same send side)."""
        crossings = (
            self.for_tag(tag_value) if tag_value is not None else self.crossings
        )
        sends: dict[int, Crossing] = {}
        pairs = []
        for crossing in crossings:
            if crossing.direction == "send":
                sends.setdefault(crossing.span, crossing)
            else:
                send = sends.get(crossing.span)
                if send is not None:
                    pairs.append((send, crossing))
        return pairs

    def hops(self, tag_value) -> list:
        """The node path a tag travelled, deduplicating repeats."""
        path: list[str] = []
        for crossing in self.for_tag(tag_value):
            if not path or path[-1] != crossing.node:
                path.append(crossing.node)
        return path

    def describe(self) -> str:
        """One-line summary, including the (never silent) drop count."""
        with self._lock:
            recorded = len(self._ring)
            dropped = self.dropped
        return (
            f"CrossingTrace: {recorded} crossing(s) recorded, "
            f"{dropped} dropped (capacity {self._capacity})"
        )

    def render(self, tag_value=None, title: str = "Taint crossings") -> str:
        crossings = self.for_tag(tag_value) if tag_value is not None else self.crossings
        lines = [f"=== {title} ==="]
        lines.extend(c.describe() for c in crossings)
        lines.append(f"--- {len(crossings)} crossing(s) ---")
        if self.dropped:
            lines.append(
                f"!!! incomplete: {self.dropped} crossing(s) dropped at "
                f"capacity {self._capacity}"
            )
        return "\n".join(lines)

    # -- telemetry ---------------------------------------------------------- #

    def telemetry_samples(self) -> dict:
        """Snapshot fragment for a :class:`~repro.obs.registry.MetricsRegistry`
        collector (registered by ``Cluster.start`` when tracing is on)."""
        with self._lock:
            recorded = len(self._ring)
            dropped = self.dropped
        return {
            "dista_trace_crossings": {
                "type": "gauge",
                "help": "Tainted boundary crossings retained by the trace.",
                "samples": [{"labels": {}, "value": recorded}],
            },
            "dista_trace_dropped_total": {
                "type": "counter",
                "help": "Crossings dropped after the trace reached capacity.",
                "samples": [{"labels": {}, "value": dropped}],
            },
        }


class NullTrace:
    """Default no-op trace (zero overhead when tracing is off).

    Full API parity with :class:`CrossingTrace` — every public method
    and property exists with the same signature and returns the empty
    answer — so code written against a trace never needs an
    ``isinstance`` check to stay a strict no-op when tracing is off.
    """

    __slots__ = ()

    #: Parity with ``CrossingTrace.dropped`` (nothing is ever recorded,
    #: so nothing is ever dropped).
    dropped = 0

    @property
    def capacity(self) -> int:
        return 0

    @property
    def crossings(self) -> list:
        return []

    def attach_lineage(self, store) -> None:
        return None

    def record(
        self, node: str, direction: str, method: str, data, channel=None
    ) -> None:
        return None

    def for_tag(self, tag_value) -> list:
        return []

    def for_span(self, span: int) -> list:
        return []

    def span_pairs(self, tag_value=None) -> list:
        return []

    def hops(self, tag_value) -> list:
        return []

    def describe(self) -> str:
        return "CrossingTrace: disabled (NullTrace)"

    def render(self, tag_value=None, title: str = "Taint crossings") -> str:
        return f"=== {title} ===\n--- 0 crossing(s) ---"

    def telemetry_samples(self) -> dict:
        return {}


NULL_TRACE = NullTrace()
