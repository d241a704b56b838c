"""The Taint Map client transport: multiplexed connections, requests
sent on the caller's thread, and group commit across messages.

Every :class:`~repro.core.taintmap.TaintMapClient` owns one
:class:`TaintMapTransport`.  A wrapper thread that misses its cache
never pays for a connection of its own, and never hands its request to
another thread to send:

* **One long-lived connection per shard.**  The client upgrades each
  connection with :data:`~repro.core.taintmap.OP_MUX_HELLO`; after the
  acknowledgement every frame carries a 4-byte **correlation id** in
  front of the *unchanged* sync frame bytes, so many requests can be
  in flight at once and replies complete out of order.  The inner
  frames — and every payload encoding: taint serialization, batch
  formats, GID packing — are byte-identical to the sync protocol; the
  server dispatches both through the same ``_handle``.

* **Requests on the caller's thread.**  A caller packs and sends its
  own frame; the connection's reader thread (``taintmap-mux-reader``)
  matches each reply to its request's future and settles the entries
  it answers right there.  One round-trip is three thread hand-offs:
  caller → server → reader → caller.  The reader never sends: a reply
  that needs another frame (failover to the next replica, a stale-ring
  re-route, the rest of a batch after an unknown-GID reply) is handed
  to a caller thread waiting on that batch.  Callers wait at most
  ``request_deadline_s`` — a wedged shard fails the request with
  :class:`~repro.errors.TaintMapDeadlineError` instead of hanging the
  wrapper thread — and one caller leaving at its deadline never
  strands the others in its batch.

* **Group commit.**  Each shard has one open window per kind (register,
  lookup).  Misses from concurrent wrappers join it, identical entries
  sharing one wire entry and one result: registration is idempotent
  (same taint ⇒ same GID) and lookup is read-only.  A caller that finds
  no flush of that kind in flight **leads**: it takes the window and
  sends it at once, split into frames of at most ``max_batch`` entries
  (never past the 16-bit protocol ceiling,
  :data:`~repro.core.taintmap.PROTOCOL_MAX_BATCH`).  Callers arriving
  while a flush is in flight queue into the next window, and one of
  them sends it when the reply lands.  An idle caller waits for nobody;
  under load, *k* concurrent misses share one ``OP_REGISTER_MANY`` /
  ``OP_LOOKUP_MANY`` round-trip per shard.

* **Backpressure.**  Each shard's pending entries (queued in windows
  plus in flight) are bounded by ``max_pending``; past the high-water
  mark new entries **block** until the shard drains, counted in
  ``dista_coalesce_backpressure_total``.

* **Failover with in-flight requests.**  Replica rotation is per shard:
  a connection that dies fails every request in flight on it, and each
  affected frame is re-sent on the shard's next replica (idempotency
  makes the retry safe).  Semantic errors (``STATUS_*``) never fail
  over.
"""

from __future__ import annotations

import itertools
import struct
import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import Optional, Sequence

from repro.core.taintmap import (
    OP_LOOKUP,
    OP_LOOKUP_MANY,
    OP_MUX_HELLO,
    OP_REGISTER,
    OP_REGISTER_MANY,
    PROTOCOL_MAX_BATCH,
    STATUS_GID_EXHAUSTED,
    STATUS_OK,
    STATUS_STALE_RING,
    STATUS_UNKNOWN_GID,
    TRANSPORT_ERRORS,
    TaintMapClient,
    _pack_batch_lookup,
    _pack_batch_register,
    _recv_exact,
    _send_frame,
    _split_batch_lookup_response,
    _split_batch_register,
    deserialize_tags,
    op_name,
    taint_key,
)
from repro.errors import (
    TaintMapDeadlineError,
    TaintMapError,
    TaintMapExhaustedError,
    TaintMapTransportError,
)
from repro.runtime.kernel import Address, TcpEndpoint

#: Entries per frame: a larger window is sent as several frames.
DEFAULT_MAX_BATCH = 512

#: Per-shard pending-entry high-water mark (queued in windows plus
#: carried by in-flight flushes) before backpressure engages.
DEFAULT_MAX_PENDING = 8192

#: Default wall-clock deadline for one ``submit``/``submit_many`` (s).
#: Generous next to any healthy round-trip; bounds how long a wrapper
#: thread can hang on a wedged shard.
DEFAULT_DEADLINE_S = 30.0

#: Why a frame was flushed: ``idle`` — no flush of its kind was in
#: flight, so the window went at once; ``drain`` — sent when the previous
#: flush completed; ``size`` — a further frame of a window split at
#: ``max_batch``.
_FLUSH_REASONS = ("idle", "drain", "size")

#: Mask keeping correlation ids within their 4-byte wire field; the
#: counter itself is unbounded (``itertools.count``) and would
#: eventually overflow ``>I`` without it.
_CORR_MASK = 0xFFFFFFFF

#: A reply frame's head: correlation id, status, payload length.
_REPLY_HEAD = struct.Struct(">IBI")

_REGISTER = 0
_LOOKUP = 1
#: The wire op carrying each kind's frames.
_BATCH_OPS = (OP_REGISTER_MANY, OP_LOOKUP_MANY)


def mux_frame(corr: int, op: int, payload: bytes) -> bytes:
    """One multiplexed request frame: a correlation-id prefix followed
    by the **unchanged** sync frame bytes (``op | len | payload``)."""
    return (
        struct.pack(">I", corr)
        + bytes([op])
        + struct.pack(">I", len(payload))
        + payload
    )


def _closed_error() -> TaintMapError:
    return TaintMapError("taint map transport is closed")


def _status_error(status: int) -> TaintMapError:
    if status == STATUS_UNKNOWN_GID:
        return TaintMapError("unknown Global ID")
    if status == STATUS_STALE_RING:
        # Register frames re-home before this point; any other op
        # seeing it is a protocol violation.
        return TaintMapError("taint map rejected request routed on a stale ring")
    if status == STATUS_GID_EXHAUSTED:
        # Structured and never retried: the shard is healthy but has no
        # sequence numbers left — rotating to a standby (which
        # replicates the same exhausted counter) cannot help.
        return TaintMapExhaustedError(
            "taint map shard has exhausted its Global-ID sequence space"
        )
    return TaintMapError(f"taint map rejected request (status {status})")


def _request_keys(op: int, payload: bytes) -> tuple[int, list]:
    """A sync-protocol request as (kind, entry keys)."""
    if op == OP_REGISTER:
        return _REGISTER, [bytes(payload)]
    if op == OP_REGISTER_MANY:
        return _REGISTER, _split_batch_register(payload)
    if op == OP_LOOKUP:
        return _LOOKUP, list(struct.unpack(">I", payload))
    if op == OP_LOOKUP_MANY:
        (count,) = struct.unpack(">H", payload[:2])
        return _LOOKUP, list(struct.unpack(f">{count}I", payload[2:]))
    raise TaintMapError(f"the taint map transport does not carry {op_name(op)}")


def _response(op: int, values: list) -> bytes:
    """Per-entry results in the sync protocol's response format."""
    if op == OP_REGISTER:
        return struct.pack(">I", values[0])
    if op == OP_REGISTER_MANY:
        return struct.pack(f">{len(values)}I", *values)
    if op == OP_LOOKUP:
        return values[0]
    return b"".join(struct.pack(">I", len(value)) + value for value in values)


class _MuxConnection:
    """One upgraded connection: correlated frames, out-of-order replies.

    Callers send on their own threads, one frame at a time under a send
    lock (interleaved partial writes would desynchronize framing).  The
    reader thread completes each request's future when its correlated
    reply arrives, running the future's callbacks right there.
    """

    def __init__(self, endpoint: TcpEndpoint, inflight=None):
        self._endpoint = endpoint
        self._pending: dict[int, Future] = {}
        self._corr = itertools.count(1)
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._broken: Optional[Exception] = None
        #: Optional gauge child tracking in-flight request depth.
        self._inflight = inflight
        self._reader = threading.Thread(
            target=self._read_loop, name="taintmap-mux-reader", daemon=True
        )
        self._reader.start()

    @property
    def broken(self) -> bool:
        return self._broken is not None

    def request(self, op: int, payload: bytes) -> Future:
        """Send one frame on the calling thread.  The future completes
        with ``(status, response)`` when the correlated reply arrives
        (in any order), or fails if the connection dies first."""
        future: Future = Future()
        with self._lock:
            if self._broken is not None:
                # A fresh exception per caller: re-raising the one cached
                # instance would cross-contaminate tracebacks between
                # unrelated requests (and mutate the original's context).
                raise TaintMapTransportError(
                    f"taint map mux connection is broken: {self._broken}"
                ) from self._broken
            corr = next(self._corr) & _CORR_MASK
            # After a 32-bit wrap a fresh id can collide with one still in
            # flight; overwriting its future would leave that caller hanging.
            while corr in self._pending:
                corr = next(self._corr) & _CORR_MASK
            self._pending[corr] = future
            if self._inflight is not None:
                self._inflight.inc()
        try:
            with self._send_lock:
                self._endpoint.send_all(mux_frame(corr, op, payload))
        except BaseException:
            with self._lock:
                dropped = self._pending.pop(corr, None) is not None
            if dropped and self._inflight is not None:
                self._inflight.dec()
            raise
        return future

    def _read_loop(self) -> None:
        endpoint = self._endpoint
        try:
            while True:
                corr, status, length = _REPLY_HEAD.unpack(_recv_exact(endpoint, 9))
                response = _recv_exact(endpoint, length) if length else b""
                with self._lock:
                    future = self._pending.pop(corr, None)
                    if future is not None and self._inflight is not None:
                        self._inflight.dec()
                if future is not None:
                    future.set_result((status, response))
        except Exception as exc:
            self._fail_pending(exc)
            endpoint.close()

    def _fail_pending(self, exc: Exception) -> None:
        """Connection death: every in-flight future gets the transport
        error, so its request can fail over to the next replica."""
        with self._lock:
            self._broken = exc
            pending = list(self._pending.values())
            self._pending.clear()
            if pending and self._inflight is not None:
                self._inflight.dec(len(pending))
        for future in pending:
            future.set_exception(exc)

    def close(self) -> None:
        """Close the endpoint and wait for the reader thread to stop."""
        self._endpoint.close()
        if self._reader is not threading.current_thread():
            self._reader.join(timeout=5)


class _ShardChannel:
    """One shard's mux connection plus replica failover.

    The replica list and active index live on the owning client, so HA
    widening (:class:`~repro.core.ha.FailoverTaintMapClient`) and
    ``active_address_for`` introspection see the live choice.
    """

    def __init__(self, transport: "TaintMapTransport", shard: int):
        self._transport = transport
        self._shard = shard
        self._connection: Optional[_MuxConnection] = None
        self._lock = threading.Lock()

    def request(self, op: int, payload: bytes) -> Future:
        connection = self._connection
        if connection is None or connection.broken:
            connection = self._connected()
        return connection.request(op, payload)

    def _connected(self) -> _MuxConnection:
        with self._lock:
            transport = self._transport
            # A send racing close() must not re-dial the endpoint the
            # shutdown just tore down (TaintMapError: no replica rotation).
            if transport._closed:
                raise _closed_error()
            connection = self._connection
            if connection is None or connection.broken:
                client = transport.client
                address = client._shard_replicas[self._shard][
                    client._active[self._shard]
                ]
                connection = self._connection = _MuxConnection(
                    transport._dial(address), transport._inflight
                )
            return connection

    def rotate(self, observed_active: int) -> None:
        """Fail over to the shard's next replica (no-op if a concurrent
        request already rotated past ``observed_active``); always drop
        the current connection."""
        client = self._transport.client
        with self._lock:
            stale, self._connection = self._connection, None
            if client._active[self._shard] == observed_active:
                client._active[self._shard] = (observed_active + 1) % len(
                    client._shard_replicas[self._shard]
                )
        if stale is not None:
            self._close_quietly(stale)

    def drop(self) -> None:
        """Forget the connection *without closing it*: requests in
        flight finish on it, new ones dial the current address."""
        with self._lock:
            self._connection = None

    def close(self) -> None:
        with self._lock:
            connection, self._connection = self._connection, None
        if connection is not None:
            self._close_quietly(connection)

    def _close_quietly(self, connection: _MuxConnection) -> None:
        try:
            connection.close()
        except Exception:
            self._transport.client.stats.bump("close_errors")


class _Batch:
    """One window of one kind on one shard.

    Open while callers join it; once taken — by a leader, or when the
    previous flush of its kind completes — it flies as one or more
    frames until every key has a result.
    """

    __slots__ = ("shard", "kind", "keys", "results", "actions", "wakers", "done")

    def __init__(self, shard: int, kind: int):
        self.shard = shard
        self.kind = kind
        #: Entry key (serialized taint bytes, or int GID), in arrival order.
        self.keys: dict = {}
        #: Entry key → GID / serialized taint, or the exception it failed with.
        self.results: dict = {}
        #: Work only a caller thread may do: ``(handler, *args)``.
        self.actions: list = []
        #: The waker of every caller still waiting on this batch.
        self.wakers: list[threading.Event] = []
        self.done = False


class _Flight:
    """One frame of a batch, sent to one shard."""

    __slots__ = ("batch", "shard", "keys", "failures", "reroutes", "observed_active", "started")

    def __init__(self, batch: _Batch, shard: int, keys: list, reroutes: int = 0):
        self.batch = batch
        self.shard = shard
        self.keys = keys
        #: Transport failures so far (one per replica tried).
        self.failures = 0
        #: Stale-ring re-routes that led to this frame.
        self.reroutes = reroutes
        self.observed_active = 0
        self.started = 0.0


class _Shard:
    """One shard's group-commit state, guarded by its lock."""

    __slots__ = ("lock", "windows", "flying", "pending", "blocked")

    def __init__(self, shard: int):
        self.lock = threading.Lock()
        #: The open window of each kind, which arriving callers join.
        self.windows = [_Batch(shard, _REGISTER), _Batch(shard, _LOOKUP)]
        #: The batch of each kind in flight, or None.
        self.flying: list[Optional[_Batch]] = [None, None]
        #: Entries queued in windows plus carried by in-flight batches.
        self.pending = 0
        #: Wakers of callers parked at the high-water mark.
        self.blocked: list[threading.Event] = []


class _Call:
    """One ``submit_many``: the caller's waker, its deadline, and the
    batches it joined (in order, without repeats)."""

    __slots__ = ("waker", "deadline", "batches")

    def __init__(self, deadline_s: Optional[float]):
        self.waker = threading.Event()
        self.deadline = None if deadline_s is None else time.monotonic() + deadline_s
        self.batches: dict[_Batch, None] = {}

    def remaining(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.0)


class TaintMapTransport:
    """The request half of :class:`~repro.core.taintmap.TaintMapClient`.

    ``submit``/``submit_many`` accept ``(shard, op, payload)`` requests
    for the four map ops, carry them through group commit, and return
    response payloads in exactly the sync protocol's formats — so the
    client's caching and batching logic sits on top unchanged.
    """

    def __init__(
        self,
        client: TaintMapClient,
        max_batch: int = DEFAULT_MAX_BATCH,
        request_deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        if max_batch < 1:
            raise TaintMapError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise TaintMapError(f"max_pending must be >= 1, got {max_pending}")
        self.client = client
        #: A frame's entry count is wire-encoded in 16 bits; larger
        #: thresholds would build unencodable frames.
        self.max_batch = min(max_batch, PROTOCOL_MAX_BATCH)
        self.request_deadline_s = (
            None
            if request_deadline_s is None or request_deadline_s <= 0
            else float(request_deadline_s)
        )
        self.max_pending = max_pending
        # Group-commit telemetry on the owning node's registry (None for
        # bare test nodes).  Label children are pre-declared so /metrics
        # always exposes them.
        self._flushes = None
        self._window_entries = None
        self._blocked_total = None
        self._inflight = None
        metrics = getattr(client, "_metrics", None)
        if metrics is not None:
            flushes = metrics.counter(
                "dista_coalesce_flush_total",
                "Frames flushed from coalescing windows, by trigger (idle/drain/size).",
                ("reason",),
            )
            self._flushes = {reason: flushes.labels(reason=reason) for reason in _FLUSH_REASONS}
            self._window_entries = metrics.histogram(
                "dista_coalesce_window_entries",
                "Entries per flushed frame.",
                (),
                lowest=1.0,
                buckets=16,
            )
            self._blocked_total = metrics.counter(
                "dista_coalesce_backpressure_total",
                "Entries gated at a shard's pending-window high-water mark.",
                ("action",),
            ).labels(action="block")
            self._inflight = metrics.gauge(
                "dista_taintmap_inflight_requests",
                "Requests in flight on the multiplexed Taint Map connections.",
            ).labels()
        self._lock = threading.Lock()
        self._closed = False
        self._shards: list[_Shard] = []
        self._channels: list[_ShardChannel] = []
        self.grow_to(len(client._shard_replicas))

    # -- lifecycle ---------------------------------------------------------- #

    def grow_to(self, shard_count: int) -> None:
        """Ring adoption hook: give every per-shard structure a slot for
        ``shard_count`` shards before the client's router can return a
        new index (never shrinks).  Channels dial lazily, so a shard that
        appears mid-flight costs nothing until its first request."""
        with self._lock:
            while len(self._shards) < shard_count:
                index = len(self._shards)
                self._channels.append(_ShardChannel(self, index))
                self._shards.append(_Shard(index))

    def readdress(self, indices: Sequence[int]) -> None:
        """Drain adoption hook: the listed shard slots now forward to a
        surviving shard's address.  Their cached connections are dropped
        without closing — requests in flight finish on the old
        connection (the drained process keeps serving until the cluster
        stops it), while every new request dials the forwarding address."""
        for index in indices:
            if index < len(self._channels):
                self._channels[index].drop()

    def close(self) -> None:
        """Fail every queued and in-flight entry (waking their callers),
        then close the connections, which stops their reader threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for state in self._shards:
            with state.lock:
                for kind in (_REGISTER, _LOOKUP):
                    for batch in (state.flying[kind], state.windows[kind]):
                        if batch is not None:
                            self._fail_batch(batch, _closed_error())
                self._wake(state.blocked)
                state.blocked.clear()
        for channel in self._channels:
            channel.close()

    def _dial(self, address: Address) -> TcpEndpoint:
        """Blocking connect + OP_MUX_HELLO upgrade."""
        node = self.client._node
        endpoint = node.kernel.connect(node.ip, address)
        try:
            _send_frame(endpoint, bytes([OP_MUX_HELLO]), b"")
            status = _recv_exact(endpoint, 1)[0]
            (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
            if length:
                _recv_exact(endpoint, length)
            if status != STATUS_OK:
                raise TaintMapError(
                    f"taint map refused multiplexed upgrade (status {status})"
                )
        except BaseException:
            endpoint.close()
            raise
        return endpoint

    # -- sync entry points --------------------------------------------------- #

    def submit(self, shard: int, op: int, payload: bytes) -> bytes:
        return self.submit_many(((shard, op, payload),))[0]

    def submit_many(self, calls: Sequence[tuple[int, int, bytes]]) -> list[bytes]:
        """Join every request's entries to its shard's window (leading
        any window with no flush in flight), then wait for all of them."""
        call = _Call(self.request_deadline_s)
        requests = []
        try:
            for shard, op, payload in calls:
                kind, keys = _request_keys(op, payload)
                requests.append((op, self._join(call, shard, kind, keys)))
            self._wait(call)
        except BaseException:
            self._leave(call)
            raise
        out = []
        for op, slots in requests:
            values = []
            for batch, key in slots:
                value = batch.results[key]
                if isinstance(value, BaseException):
                    raise value
                values.append(value)
            out.append(_response(op, values))
        return out

    def _join(self, call: _Call, shard: int, kind: int, keys: list) -> list:
        """Add ``keys`` to the shard's open window of ``kind`` and lead
        it when no flush of that kind is in flight; returns a
        ``(batch, key)`` slot per key."""
        state = self._shards[shard]
        slots = []
        index = 0
        while True:
            call.waker.clear()
            with state.lock:
                if self._closed:
                    raise _closed_error()
                window = state.windows[kind]
                start = index
                while index < len(keys):
                    key = keys[index]
                    if key not in window.keys:
                        if state.pending >= self.max_pending:
                            break
                        window.keys[key] = None
                        state.pending += 1
                    slots.append((window, key))
                    index += 1
                if index > start and window not in call.batches:
                    call.batches[window] = None
                    window.wakers.append(call.waker)
                if index == len(keys):
                    leading = self._take(state, kind)
                    break
                # At the high-water mark.  Send any window with no flush
                # in flight first: nothing else would drain it.
                taken = [self._take(state, _REGISTER), self._take(state, _LOOKUP)]
                if self._blocked_total is not None:
                    self._blocked_total.inc()
                state.blocked.append(call.waker)
            for batch in taken:
                if batch is not None:
                    self._send_window(batch, "idle")
            self._park(call)
        if leading is not None:
            self._send_window(leading, "idle")
        return slots

    def _wait(self, call: _Call) -> None:
        """Wait until every batch the call joined is done, doing any
        work a batch hands this thread on the way."""
        while True:
            call.waker.clear()
            waiting = [batch for batch in call.batches if not batch.done]
            if not waiting:
                return
            self._park(call, waiting)

    def _park(self, call: _Call, batches=None) -> None:
        """Do the pending work of the call's batches, or else sleep until
        woken: a batch settled or needs this thread, or a parked caller's
        shard drained."""
        for batch in call.batches if batches is None else batches:
            if batch.actions and self._act(batch):
                return
        if not call.waker.wait(call.remaining()):
            raise TaintMapDeadlineError(
                f"taint map request exceeded its {self.request_deadline_s}s deadline"
            )

    def _leave(self, call: _Call) -> None:
        """The caller stops waiting (deadline or error).  A batch left
        with work but no waiter is failed, so its lane moves on."""
        for batch in call.batches:
            with self._shards[batch.shard].lock:
                if call.waker in batch.wakers:
                    batch.wakers.remove(call.waker)
                if batch.actions and not batch.wakers:
                    batch.actions = []
                    self._fail_batch(batch, self._abandoned_error())

    # -- group commit (callers hold the shard lock) --------------------------- #

    @staticmethod
    def _take(state: _Shard, kind: int) -> Optional[_Batch]:
        """Move a non-empty window to the in-flight slot if it is free."""
        window = state.windows[kind]
        if state.flying[kind] is not None or not window.keys:
            return None
        state.flying[kind] = window
        state.windows[kind] = _Batch(window.shard, kind)
        return window

    def _settle(self, batch: _Batch, results) -> None:
        """Record ``(key, value or exception)`` results (the first one
        for a key wins); finish the batch when its last key settles."""
        if batch.done:
            return
        for key, value in results:
            batch.results.setdefault(key, value)
        if len(batch.results) == len(batch.keys):
            self._finish(batch)

    def _fail_batch(self, batch: _Batch, error: Exception) -> None:
        self._settle(batch, ((key, error) for key in batch.keys))

    def _finish(self, batch: _Batch) -> None:
        """Release the batch's pending budget, wake its callers and any
        parked ones, and hand the next window of its kind to a caller."""
        batch.done = True
        state = self._shards[batch.shard]
        state.pending -= len(batch.keys)
        self._wake(batch.wakers)
        # Parked callers re-register if they are still over the mark.
        self._wake(state.blocked)
        state.blocked.clear()
        if state.flying[batch.kind] is batch:
            state.flying[batch.kind] = None
            queued = self._take(state, batch.kind)
            if queued is not None:
                self._post(queued, (self._send_window, queued, "drain"))

    def _post(self, batch: _Batch, action: tuple) -> None:
        """Hand work to a caller thread waiting on ``batch``.  With the
        transport closed, or no caller left waiting, the batch's
        unsettled entries fail instead."""
        if batch.done:
            return
        if self._closed:
            self._fail_batch(batch, _closed_error())
        elif not batch.wakers:
            self._fail_batch(batch, self._abandoned_error())
        else:
            batch.actions.append(action)
            self._wake(batch.wakers)

    @staticmethod
    def _wake(wakers: list) -> None:
        for waker in wakers:
            waker.set()

    @staticmethod
    def _abandoned_error() -> TaintMapError:
        return TaintMapError(
            "taint map request abandoned: every caller waiting on it left"
        )

    # -- sending (caller threads only) ----------------------------------------- #

    def _act(self, batch: _Batch) -> bool:
        """Claim and run the batch's pending work on this thread."""
        state = self._shards[batch.shard]
        with state.lock:
            actions, batch.actions = batch.actions, []
        for handler, *args in actions:
            try:
                handler(*args)
            except Exception as exc:
                with state.lock:
                    self._fail_batch(batch, exc)
        return bool(actions)

    def _send_window(self, batch: _Batch, reason: str) -> None:
        keys = list(batch.keys)
        for start in range(0, len(keys), self.max_batch):
            chunk = keys[start : start + self.max_batch]
            if self._flushes is not None:
                self._flushes[reason].inc()
                self._window_entries.observe(len(chunk))
            reason = "size"
            self._send(_Flight(batch, batch.shard, chunk))

    def _send(self, flight: _Flight) -> None:
        """Send one frame on this thread, failing over on transport
        errors; the reply is handled by :meth:`_landed`."""
        kind = flight.batch.kind
        pack = _pack_batch_register if kind == _REGISTER else _pack_batch_lookup
        payload = pack(flight.keys)
        while True:
            flight.observed_active = self.client._active[flight.shard]
            flight.started = time.perf_counter()
            try:
                future = self._channels[flight.shard].request(_BATCH_OPS[kind], payload)
            except TRANSPORT_ERRORS as exc:
                if self._failover(flight, exc):
                    continue
                return
            except TaintMapError as exc:
                self._fail(flight, exc)
                return
            future.add_done_callback(partial(self._landed, flight))
            return

    def _failover(self, flight: _Flight, exc: Exception) -> bool:
        """Rotate the shard to its next replica after a transport error;
        True if the frame should be sent again."""
        replicas = len(self.client._shard_replicas[flight.shard])
        self._channels[flight.shard].rotate(flight.observed_active)
        flight.failures += 1
        if self._closed:
            self._fail(flight, _closed_error())
        elif flight.failures < replicas:
            return True
        elif replicas == 1:
            self._fail(flight, exc)  # single replica: surface the error itself
        else:
            self._fail(flight, TaintMapError(f"all taint map replicas unreachable: {exc}"))
        return False

    def _resend_after_failure(self, flight: _Flight, exc: Exception) -> None:
        if self._failover(flight, exc):
            self._send(flight)

    def _fail(self, flight: _Flight, error: Exception) -> None:
        batch = flight.batch
        with self._shards[batch.shard].lock:
            self._settle(batch, ((key, error) for key in flight.keys))

    def _reroute(self, flight: _Flight, response: bytes) -> None:
        """Re-home a register frame the server stale-rung.

        The reply's ring is adopted (which grows this transport's
        per-shard state), the frame's keys regroup under the new router,
        and each group is sent to its new shard.  Callers waiting on the
        batch never observe the epoch flip.
        """
        client = self.client
        error = client._stale_ring_error(flight.shard, response)
        if error.ring is None:
            self._fail(flight, error)
            return
        if flight.reroutes + 1 >= client.RING_RETRY_LIMIT:
            persistent = TaintMapError(
                f"registration still stale-rung after {client.RING_RETRY_LIMIT} "
                "re-routes; client and server rings disagree persistently"
            )
            persistent.__cause__ = error
            self._fail(flight, persistent)
            return
        if flight.reroutes > 0:
            time.sleep(min(0.001 * (1 << flight.reroutes), 0.05))
        router = client._router
        groups: dict[int, list] = {}
        for key in flight.keys:
            target = router.shard_for_key(taint_key(frozenset(deserialize_tags(key))))
            groups.setdefault(target, []).append(key)
        for target, keys in groups.items():
            self._send(_Flight(flight.batch, target, keys, flight.reroutes + 1))

    # -- replies (reader threads) ------------------------------------------------ #

    def _landed(self, flight: _Flight, future: Future) -> None:
        """Settle what one reply answers; anything that needs another
        frame becomes work for a caller thread waiting on the batch."""
        batch = flight.batch
        keys = flight.keys
        results = ()
        action = None
        try:
            status, response = future.result()
        except Exception as exc:
            action = (self._resend_after_failure, flight, exc)
        else:
            client = self.client
            with client.stats._lock:
                client.requests_sent += 1
            client._observe_rpc(_BATCH_OPS[batch.kind], time.perf_counter() - flight.started)
            try:
                if status == STATUS_OK:
                    if batch.kind == _REGISTER:
                        values = struct.unpack(f">{len(keys)}I", response)
                    else:
                        values = _split_batch_lookup_response(response, len(keys))
                    results = zip(keys, values)
                elif status == STATUS_STALE_RING and batch.kind == _REGISTER:
                    action = (self._reroute, flight, response)
                elif (
                    status == STATUS_UNKNOWN_GID
                    and len(response) == 4
                    and struct.unpack(">I", response)[0] in keys
                ):
                    # The server names the offending GID: fail that entry
                    # alone and re-send the rest (one extra round-trip)
                    # instead of failing the whole frame.
                    (bad,) = struct.unpack(">I", response)
                    flight.keys = [key for key in keys if key != bad]
                    results = ((bad, TaintMapError("unknown Global ID")),)
                    if flight.keys:
                        action = (self._send, flight)
                else:
                    error = _status_error(status)
                    results = [(key, error) for key in keys]
            except Exception as exc:  # a malformed reply
                results = [(key, exc) for key in keys]
        with self._shards[batch.shard].lock:
            self._settle(batch, results)
            if action is not None:
                self._post(batch, action)
