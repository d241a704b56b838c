"""The Taint Map client transport: a multiplexed connection, requests
sent and replies read on the caller's thread, and group commit across
messages.

Every :class:`~repro.core.taintmap.TaintMapClient` owns one
:class:`TaintMapTransport` and no thread:

* **One long-lived connection.**  From its first byte every frame is
  ``corr | op | len | payload`` (:data:`~repro.core.taintmap.MUX_HEAD`):
  a 4-byte **correlation id** lets many requests be in flight at once
  and replies complete out of order.

* **The read turn.**  A caller sends its own frame and waits; one
  waiting caller at a time holds the read turn, reads the connection and
  settles every reply frame it finds, its own or another caller's.  A
  round-trip is two thread hand-offs (caller → server → caller).  Three
  rules keep replies draining: (1) nobody sends while holding the turn —
  the holder releases it and wakes the parked callers first, so full
  request and reply pipes never wait on each other; (2) a window larger
  than ``max_batch`` goes out one frame at a time, the next when the
  previous one's reply lands; (3) a connection found dead at send time
  (an idle drop is found no earlier) is redialed once, on the same
  replica, before a replica failure is counted.  Work a reply calls for
  — the next frame, the window queued behind a finished flush, failover,
  the rest of a batch after an unknown-GID reply — runs on the thread
  that read it.  A partial reply frame stays buffered for the next
  holder, so a caller leaving at ``request_deadline_s``
  (:class:`~repro.errors.TaintMapDeadlineError`) never desynchronizes
  the framing or strands the others in its batch.

* **Group commit.**  One open window per kind (register, lookup);
  identical entries share one wire entry and one result (registration
  is idempotent, lookup read-only).  A caller that finds no flush of
  that kind in flight **leads**: it sends the window at once, in frames
  of at most ``max_batch`` entries.  Callers arriving while a flush is
  in flight queue into the next window, sent when that flush completes,
  so *k* concurrent misses share one round-trip.

* **Backpressure.**  Pending entries (queued plus in flight) are bounded
  by ``max_pending``; past it callers **block**, still reading replies
  when the turn is free (``dista_coalesce_backpressure_total``).

* **Failover.**  A connection that dies fails every request in flight
  on it, and each frame is re-sent on the next replica (idempotency
  makes the retry safe).  ``STATUS_*`` errors and deadlines never fail
  over.
"""

from __future__ import annotations

import itertools
import struct
import threading
import time
from typing import Callable, Optional, Sequence

from repro.core.taintmap import (
    KIND_LOOKUP,
    KIND_REGISTER,
    MUX_READ_SIZE,
    OP_LOOKUP_MANY,
    OP_REGISTER_MANY,
    STATUS_GID_EXHAUSTED,
    STATUS_OK,
    STATUS_UNKNOWN_GID,
    TRANSPORT_ERRORS,
    TaintMapClient,
    _pack_batch_lookup,
    _pack_batch_register,
    _split_batch_lookup_response,
    mux_frame,
    take_frames,
)
from repro.errors import (
    PipeClosed,
    SimTimeout,
    TaintMapDeadlineError,
    TaintMapError,
    TaintMapExhaustedError,
    TaintMapTransportError,
)
from repro.runtime.kernel import TcpEndpoint

#: Entries per frame: a larger window is sent as several frames.  Below
#: the 16-bit :data:`~repro.core.taintmap.PROTOCOL_MAX_BATCH`.
DEFAULT_MAX_BATCH = 512

#: Pending-entry high-water mark (queued in windows plus carried by
#: in-flight flushes) before backpressure engages.
DEFAULT_MAX_PENDING = 8192

#: Why a frame was flushed: ``idle`` — no flush of its kind was in
#: flight, so the window went at once; ``drain`` — sent when the previous
#: flush completed; ``size`` — a further frame of a window split at
#: ``max_batch``.
_FLUSH_REASONS = ("idle", "drain", "size")

#: Mask keeping correlation ids within their 4-byte wire field; the
#: counter itself is unbounded (``itertools.count``) and would
#: eventually overflow ``>I`` without it.
_CORR_MASK = 0xFFFFFFFF

#: The wire op carrying each kind's frames.
_BATCH_OPS = (OP_REGISTER_MANY, OP_LOOKUP_MANY)


def _closed_error() -> TaintMapError:
    return TaintMapError("taint map transport is closed")


def _status_error(status: int) -> TaintMapError:
    if status == STATUS_UNKNOWN_GID:
        return TaintMapError("unknown Global ID")
    if status == STATUS_GID_EXHAUSTED:
        # Structured and never retried: the server is healthy but has no
        # Global IDs left — rotating to a standby (which replicates the
        # same exhausted counter) cannot help.
        return TaintMapExhaustedError(
            "taint map has exhausted its Global-ID space"
        )
    return TaintMapError(f"taint map rejected request (status {status})")


class _MuxConnection:
    """One connection: correlated frames, out-of-order replies.

    The transport's lock guards the request table, the broken flag and
    the read turn.  Frames go out whole under a send lock; only the turn
    holder reads, keeping a partial reply frame in ``_buffer``.
    """

    def __init__(self, endpoint: TcpEndpoint, inflight=None):
        self._endpoint = endpoint
        #: Correlation id → the flight waiting for that reply.
        self._pending: dict[int, _Flight] = {}
        self._corr = itertools.count(1)
        self._send_lock = threading.Lock()
        self._broken: Optional[Exception] = None
        #: Optional gauge child tracking in-flight request depth.
        self._inflight = inflight
        #: True while a caller holds the read turn.
        self.reading = False
        self._buffer = bytearray()

    @property
    def broken(self) -> bool:
        return self._broken is not None

    # -- the request table (callers hold the transport's lock) -------------- #

    def enlist(self, flight: "_Flight") -> int:
        """Allocate the correlation id ``flight``'s reply will carry."""
        if self._broken is not None:
            # A fresh exception per caller: re-raising the one cached
            # instance would cross-contaminate tracebacks between
            # unrelated requests (and mutate the original's context).
            raise TaintMapTransportError(
                f"taint map mux connection is broken: {self._broken}"
            ) from self._broken
        corr = next(self._corr) & _CORR_MASK
        # After a 32-bit wrap a fresh id can collide with one still in
        # flight; overwriting its entry would leave that caller hanging.
        while corr in self._pending:
            corr = next(self._corr) & _CORR_MASK
        self._pending[corr] = flight
        if self._inflight is not None:
            self._inflight.inc()
        return corr

    def take(self, corr: int) -> Optional["_Flight"]:
        """The flight a reply answers, or None if it is no longer here."""
        flight = self._pending.pop(corr, None)
        if flight is not None and self._inflight is not None:
            self._inflight.dec()
        return flight

    def fail(self, exc: Exception) -> list:
        """Connection death: mark it broken and hand back every flight
        it will never answer, so each can fail over."""
        if self._broken is None:
            self._broken = exc
        flights = list(self._pending.values())
        self._pending.clear()
        if flights and self._inflight is not None:
            self._inflight.dec(len(flights))
        return flights

    # -- I/O (no lock held) --------------------------------------------------- #

    def write(self, corr: int, op: int, payload: bytes) -> None:
        with self._send_lock:
            self._endpoint.send_all(mux_frame(corr, op, payload))

    def receive(self, timeout: Optional[float]) -> list:
        """Read once as the turn holder and return every reply frame now
        complete, as ``(corr, status, response)``.  Raises
        :class:`~repro.errors.SimTimeout` past ``timeout`` and
        :class:`~repro.errors.PipeClosed` at EOF."""
        chunk = self._endpoint.recv(MUX_READ_SIZE, timeout)
        if not chunk:
            raise PipeClosed("taint map connection closed")
        self._buffer += chunk
        return take_frames(self._buffer)

    def close(self) -> None:
        """Close the endpoint, which ends a read in progress."""
        self._endpoint.close()


class _Channel:
    """The mux connection plus replica failover.

    The replica list and active index live on the owning client, so HA
    widening (:class:`~repro.core.ha.FailoverTaintMapClient`) and its
    ``active_address`` introspection see the live choice.
    """

    def __init__(self, transport: "TaintMapTransport"):
        self._transport = transport
        self._connection: Optional[_MuxConnection] = None
        self._lock = threading.Lock()

    def connection(self) -> _MuxConnection:
        connection = self._connection
        if connection is not None and not connection.broken:
            return connection
        with self._lock:
            transport = self._transport
            # A send racing close() must not re-dial the endpoint the
            # shutdown just tore down (TaintMapError: no replica rotation).
            if transport._closed:
                raise _closed_error()
            connection = self._connection
            if connection is None or connection.broken:
                client = transport.client
                node = client._node
                endpoint = node.kernel.connect(node.ip, client._replicas[client._active])
                connection = self._connection = _MuxConnection(endpoint, transport._inflight)
            return connection

    def discard(self, connection: _MuxConnection) -> None:
        """Drop and close a dead connection; the next send redials."""
        with self._lock:
            if self._connection is connection:
                self._connection = None
        self._close_quietly(connection)

    def rotate(self, observed_active: int) -> None:
        """Fail over to the next replica (no-op if a concurrent request
        already rotated past ``observed_active``)."""
        client = self._transport.client
        with self._lock:
            if client._active == observed_active:
                client._active = (observed_active + 1) % len(client._replicas)

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
    """One window of one kind: open while callers join it, then — taken
    by a leader, or when the previous flush of its kind completes — sent
    one frame at a time until every key has a result."""

    __slots__ = ("kind", "keys", "results", "unsent", "done")

    def __init__(self, kind: int):
        self.kind = kind
        #: Entry key (serialized taint bytes, or int GID), in arrival order.
        self.keys: dict = {}
        #: Entry key → GID / serialized taint, or the exception it failed with.
        self.results: dict = {}
        #: Once taken, the keys no frame has carried yet.
        self.unsent: list = []
        self.done = False


class _Flight:
    """One frame of a batch."""

    __slots__ = ("batch", "keys", "failures", "redialed", "observed_active", "started")

    def __init__(self, batch: _Batch, keys: list):
        self.batch = batch
        self.keys = keys
        #: Transport failures so far (one per replica tried).
        self.failures = 0
        #: Whether the frame was already re-sent on a redialed connection.
        self.redialed = False
        self.observed_active = 0
        self.started = 0.0


class _Call:
    """One ``submit``: its deadline and the batches it joined (in
    order, without repeats)."""

    __slots__ = ("deadline", "batches")

    def __init__(self, deadline_s: Optional[float]):
        self.deadline = None if deadline_s is None else time.monotonic() + deadline_s
        self.batches: list[_Batch] = []

    def remaining(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.0)


class TaintMapTransport:
    """The request half of :class:`~repro.core.taintmap.TaintMapClient`.

    ``submit(kind, entries)`` returns one value per entry: serialized
    taints in and GIDs out for :data:`~repro.core.taintmap.KIND_REGISTER`,
    GIDs in and serialized taints out for
    :data:`~repro.core.taintmap.KIND_LOOKUP`.  Entries are packed into
    frames only once, when a frame is sent.  ``request_deadline_s``
    bounds each ``submit``; ``None`` or a non-positive value disables it.
    """

    def __init__(self, client: TaintMapClient, request_deadline_s: Optional[float]):
        self.client = client
        self.max_batch = DEFAULT_MAX_BATCH
        self.max_pending = DEFAULT_MAX_PENDING
        self.request_deadline_s = (
            None
            if request_deadline_s is None or request_deadline_s <= 0
            else float(request_deadline_s)
        )
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
                "Entries gated at the pending-window high-water mark.",
                ("action",),
            ).labels(action="block")
            self._inflight = metrics.gauge(
                "dista_taintmap_inflight_requests",
                "Requests in flight on the multiplexed Taint Map connection.",
            ).labels()
        self._closed = False
        #: Guards the group-commit state below and the connection's
        #: request table and read turn.
        self._lock = threading.Lock()
        #: Parked callers sleep here; any change that may let one of
        #: them go on (a batch done, the turn released, a frame sent
        #: with the turn free, pending entries drained) wakes them all.
        self._changed = threading.Condition(self._lock)
        self._parked = 0
        #: The open window of each kind, which arriving callers join.
        self._windows = [_Batch(KIND_REGISTER), _Batch(KIND_LOOKUP)]
        #: The batch of each kind in flight, or None.
        self._flying: list[Optional[_Batch]] = [None, None]
        #: Entries queued in windows plus carried by in-flight batches.
        self._pending = 0
        #: Callers parked at the high-water mark.
        self._blocked = 0
        #: Dials lazily, on the first request.
        self._channel = _Channel(self)

    # -- lifecycle ---------------------------------------------------------- #

    def close(self) -> None:
        """Fail every queued and in-flight entry (waking their callers),
        then close the connection, which ends a caller's read."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for kind in (KIND_REGISTER, KIND_LOOKUP):
                for batch in (self._flying[kind], self._windows[kind]):
                    if batch is not None:
                        error = _closed_error()
                        self._settle(batch, ((key, error) for key in batch.keys))
            self._wake()
        self._channel.close()

    # -- sync entry point ---------------------------------------------------- #

    def submit(self, kind: int, entries: Sequence) -> list:
        """Join ``entries`` to the open window of ``kind`` (leading it
        when no flush of that kind is in flight), wait for them, and
        return one value per entry."""
        call = _Call(self.request_deadline_s)
        slots = self._join(call, kind, entries)
        self._await(call, lambda: all(batch.done for batch in call.batches))
        values = []
        for batch, key in slots:
            value = batch.results[key]
            if isinstance(value, BaseException):
                raise value
            values.append(value)
        return values

    def _join(self, call: _Call, kind: int, keys: Sequence) -> list:
        """Add ``keys`` to the open window of ``kind`` and lead it when
        no flush of that kind is in flight; returns a ``(batch, key)``
        slot per key."""
        slots = []
        index = 0
        while True:
            with self._lock:
                if self._closed:
                    raise _closed_error()
                window = self._windows[kind]
                start = index
                while index < len(keys):
                    key = keys[index]
                    if key not in window.keys:
                        if self._pending >= self.max_pending:
                            break
                        window.keys[key] = None
                        self._pending += 1
                    slots.append((window, key))
                    index += 1
                if index > start and window not in call.batches:
                    call.batches.append(window)
                if index == len(keys):
                    leading = self._lead(kind)
                    break
                # At the high-water mark.  Send any window with no flush
                # in flight first: nothing else would drain it.
                taken = [self._lead(KIND_REGISTER), self._lead(KIND_LOOKUP)]
                if self._blocked_total is not None:
                    self._blocked_total.inc()
                self._blocked += 1
            try:
                self._send(*taken)
                self._await(call, lambda: self._closed or self._pending < self.max_pending)
            finally:
                with self._lock:
                    self._blocked -= 1
        self._send(leading)
        return slots

    def _await(self, call: _Call, ready: Callable[[], bool]) -> None:
        """Return once ``ready()`` holds.  Meanwhile read replies while
        the read turn is free and a reply is due, or else sleep until
        woken or the call's deadline."""
        while True:
            with self._lock:
                if ready():
                    return
                connection = self._channel._connection
                if connection is None or connection.reading or not connection._pending:
                    self._parked += 1
                    try:
                        woken = self._changed.wait(call.remaining())
                    finally:
                        self._parked -= 1
                    if not woken and not ready():
                        raise self._deadline_error()
                    continue
                connection.reading = True
            self._send(*self._read_turn(connection, call, ready))

    def _deadline_error(self) -> TaintMapDeadlineError:
        return TaintMapDeadlineError(
            f"taint map request exceeded its {self.request_deadline_s}s deadline"
        )

    # -- group commit (callers hold the lock) --------------------------------- #

    def _wake(self) -> None:
        if self._parked:
            self._changed.notify_all()

    def _lead(self, kind: int, reason: str = "idle") -> Optional[_Flight]:
        """Take a non-empty window of ``kind`` in flight if no flush of
        its kind is, and return its first frame."""
        window = self._windows[kind]
        if self._flying[kind] is not None or not window.keys:
            return None
        self._flying[kind] = window
        self._windows[kind] = _Batch(kind)
        window.unsent = list(window.keys)
        return self._frame(window, reason)

    def _frame(self, batch: _Batch, reason: str) -> Optional[_Flight]:
        """The batch's next frame, or None once every key went out."""
        if batch.done or not batch.unsent:
            return None
        keys, batch.unsent = batch.unsent[: self.max_batch], batch.unsent[self.max_batch :]
        if self._flushes is not None:
            self._flushes[reason].inc()
            self._window_entries.observe(len(keys))
        return _Flight(batch, keys)

    def _settle(self, batch: _Batch, results) -> Optional[_Flight]:
        """Record ``(key, value or exception)`` results (the first one
        for a key wins) and return the frame to send next: the batch's
        next frame, or — when its last key settled — the first frame of
        the window queued behind it."""
        if batch.done:
            return None
        for key, value in results:
            batch.results.setdefault(key, value)
        if len(batch.results) < len(batch.keys):
            return self._frame(batch, "size")
        batch.done = True
        self._pending -= len(batch.keys)
        self._wake()
        if self._flying[batch.kind] is batch:
            self._flying[batch.kind] = None
            if not self._closed:
                return self._lead(batch.kind, "drain")
        return None

    def _landed(self, flight: _Flight, status: int, response: bytes) -> Optional[_Flight]:
        """Settle what one reply answers; returns the frame it calls
        for next, if any."""
        batch = flight.batch
        keys = flight.keys
        client = self.client
        client.requests_sent += 1
        client._observe_rpc(_BATCH_OPS[batch.kind], time.perf_counter() - flight.started)
        try:
            if status == STATUS_OK:
                if batch.kind == KIND_REGISTER:
                    values = struct.unpack(f">{len(keys)}I", response)
                else:
                    values = _split_batch_lookup_response(response, len(keys))
                return self._settle(batch, zip(keys, values))
            if (
                status == STATUS_UNKNOWN_GID
                and len(response) == 4
                and struct.unpack(">I", response)[0] in keys
            ):
                # The server names the offending GID: fail that entry
                # alone and re-send the rest (one extra round-trip)
                # instead of failing the whole frame.
                (bad,) = struct.unpack(">I", response)
                flight.keys = [key for key in keys if key != bad]
                error = TaintMapError("unknown Global ID")
                if flight.keys and not batch.done:
                    batch.results.setdefault(bad, error)
                    return flight
                return self._settle(batch, ((bad, error),))
            error = _status_error(status)
        except Exception as exc:  # a malformed reply
            error = exc
        return self._settle(batch, ((key, error) for key in keys))

    # -- sending (never while holding the read turn) --------------------------- #

    def _send(self, *flights: Optional[_Flight]) -> None:
        """Send frames on this thread until none is left: the given
        ones, their re-sends, and the frames settling a failed one
        calls for."""
        queue = list(flights)
        while queue:
            flight = queue.pop()
            if flight is not None:
                try:
                    queue.extend(self._transmit(flight))
                except Exception as exc:  # never leave a batch half sent
                    queue.append(self._fail(flight, exc))

    def _transmit(self, flight: _Flight) -> list:
        """Send one frame; returns what its failure calls for."""
        kind = flight.batch.kind
        pack = _pack_batch_register if kind == KIND_REGISTER else _pack_batch_lookup
        payload = pack(flight.keys)
        flight.observed_active = self.client._active
        flight.started = time.perf_counter()
        try:
            connection = self._channel.connection()
        except TRANSPORT_ERRORS as exc:
            return [self._retry(flight, exc)]
        corr = None
        try:
            with self._lock:
                corr = connection.enlist(flight)
                if not connection.reading:
                    self._wake()
            connection.write(corr, _BATCH_OPS[kind], payload)
            return []
        except TRANSPORT_ERRORS as exc:
            with self._lock:
                if corr is not None and connection.take(corr) is None:
                    return []  # a reader already failed it over
                orphans = connection.fail(exc)
            # Found dead at send time (rule 3): redial the same replica
            # once before counting a replica failure.
            self._channel.discard(connection)
            return [self._retry(each, exc, redial=True) for each in (flight, *orphans)]

    def _retry(self, flight: _Flight, exc: Exception, redial: bool = False) -> Optional[_Flight]:
        """A transport error took ``flight``'s frame.  Returns the frame
        to send again — on a redialed connection once when ``redial``,
        else on the next replica — or whatever failing it calls for."""
        if redial and not flight.redialed:
            flight.redialed = True
            return flight
        replicas = len(self.client._replicas)
        self._channel.rotate(flight.observed_active)
        flight.failures += 1
        if self._closed:
            return self._fail(flight, _closed_error())
        if flight.failures < replicas:
            return flight
        if replicas == 1:
            return self._fail(flight, exc)  # single replica: surface the error itself
        return self._fail(flight, TaintMapError(f"all taint map replicas unreachable: {exc}"))

    def _fail(self, flight: _Flight, error: Exception) -> Optional[_Flight]:
        with self._lock:
            return self._settle(flight.batch, ((key, error) for key in flight.keys))

    # -- replies (the read turn) ---------------------------------------------- #

    def _read_turn(self, connection: _MuxConnection, call: _Call, ready) -> list:
        """Read as the turn holder, settling every reply frame found,
        until ``ready()`` holds, a reply calls for a send, or nothing is
        left in flight.  Releases the turn and returns the frames to
        send."""
        try:
            while True:
                frames = connection.receive(call.remaining())
                with self._lock:
                    sends = []
                    for corr, status, response in frames:
                        flight = connection.take(corr)
                        if flight is not None:
                            sends.append(self._landed(flight, status, response))
                    if any(sends) or ready() or not connection._pending:
                        self._release(connection)
                        return sends
        except SimTimeout:
            with self._lock:
                self._release(connection)
            raise self._deadline_error() from None
        except TRANSPORT_ERRORS as exc:
            with self._lock:
                orphans = connection.fail(exc)
                self._release(connection)
            self._channel.discard(connection)
            return [self._retry(flight, exc) for flight in orphans]
        except BaseException:
            with self._lock:
                self._release(connection)
            raise

    def _release(self, connection: _MuxConnection) -> None:
        connection.reading = False
        self._wake()
