"""The Taint Map client transport: a multiplexed connection, and each
call's frames sent and its replies read on the caller's thread.

Every :class:`~repro.core.taintmap.TaintMapClient` owns one
:class:`TaintMapTransport` and no thread:

* **One long-lived connection.**  From its first byte every frame is
  ``corr | op | len | payload`` (:data:`~repro.core.taintmap.MUX_HEAD`):
  a 4-byte **correlation id** lets many requests be in flight at once
  and replies complete out of order.

* **One frame per call.**  Each ``submit`` sends its entries as its own
  frame, whatever else is in flight, of either kind.  Concurrent calls
  are never merged into one frame: when an earlier transport offered
  that, no call on any benchmark workload found another of its kind
  waiting to share one (DESIGN.md has the counts).

* **The read turn.**  A caller sends its own frame and waits; one
  waiting caller at a time holds the read turn, reads the connection and
  settles every reply frame it finds, its own or another caller's.  A
  round-trip is two thread hand-offs (caller → server → caller).  Three
  rules keep replies draining: (1) nobody sends while holding the turn —
  the holder releases it and wakes the parked callers first, so full
  request and reply pipes never wait on each other; (2) a call larger
  than ``max_batch`` goes out one frame at a time, the next when the
  previous one's reply lands; (3) a connection found dead at send time
  (an idle drop is found no earlier) is redialed once, on the same
  replica, before a replica failure is counted.  A re-send runs on the
  caller that owns the frame.  A partial reply frame stays buffered for
  the next holder, so a caller leaving at ``request_deadline_s``
  (:class:`~repro.errors.TaintMapDeadlineError`) never desynchronizes
  the framing or strands the others waiting on the connection.

* **Failover.**  A connection that dies fails every request in flight
  on it, and each caller re-sends its own frame on the next replica
  (idempotency makes the retry safe).  ``STATUS_*`` errors and
  deadlines never fail over.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Optional, Sequence

from repro.core.taintmap import (
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
    _split_batch_register_response,
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

#: Entries per frame: a larger call is sent as several frames.  Below
#: the 16-bit :data:`~repro.core.taintmap.PROTOCOL_MAX_BATCH`.
DEFAULT_MAX_BATCH = 512

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

    def __init__(self, endpoint: TcpEndpoint, inflight):
        self._endpoint = endpoint
        #: Correlation id → the flight waiting for that reply.
        self._pending: dict[int, _Flight] = {}
        self._corr = itertools.count(1)
        self._send_lock = threading.Lock()
        self._broken: Optional[Exception] = None
        #: The gauge child tracking in-flight request depth.
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
        self._inflight.inc()
        return corr

    def take(self, corr: int) -> Optional["_Flight"]:
        """The flight a reply answers, or None if it is no longer here."""
        flight = self._pending.pop(corr, None)
        if flight is not None:
            self._inflight.dec()
        return flight

    def fail(self, exc: Exception) -> list:
        """Connection death: mark it broken and hand back every flight
        it will never answer, so each can fail over."""
        if self._broken is None:
            self._broken = exc
        flights = list(self._pending.values())
        self._pending.clear()
        if flights:
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
            self._transport.client._close_errors.inc()


class _Flight:
    """One frame of one call, packed once, and what became of it."""

    __slots__ = (
        "op", "payload", "count", "outcome", "lost", "at_send", "observed_active", "started",
    )

    def __init__(self, kind: int, keys: Sequence):
        pack = _pack_batch_register if kind == KIND_REGISTER else _pack_batch_lookup
        self.op = _BATCH_OPS[kind]
        self.payload = pack(keys)
        self.count = len(keys)
        #: The reply's values, or the exception the frame failed with.
        self.outcome = None
        #: The transport error that took the frame's connection, until
        #: its owner re-sends it; ``at_send`` when the connection was
        #: found dead at send time (rule 3).
        self.lost: Optional[Exception] = None
        self.at_send = False
        self.observed_active = 0
        self.started = 0.0

    def landed(self) -> bool:
        return self.outcome is not None or self.lost is not None


class _Call:
    """One ``submit``: its deadline."""

    __slots__ = ("deadline",)

    def __init__(self, deadline_s: Optional[float]):
        self.deadline = None if deadline_s is None else time.monotonic() + deadline_s

    def remaining(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.0)


class TaintMapTransport:
    """The request half of :class:`~repro.core.taintmap.TaintMapClient`.

    ``submit(kind, entries)`` returns one value per entry: serialized
    taints in and GIDs out for :data:`~repro.core.taintmap.KIND_REGISTER`,
    GIDs in and serialized taints out for
    :data:`~repro.core.taintmap.KIND_LOOKUP`.  Each frame is packed once
    and re-sent as packed.  ``request_deadline_s`` bounds each
    ``submit``; ``None`` or a non-positive value disables it.
    """

    def __init__(self, client: TaintMapClient, request_deadline_s: Optional[float]):
        self.client = client
        self.max_batch = DEFAULT_MAX_BATCH
        self.request_deadline_s = (
            None
            if request_deadline_s is None or request_deadline_s <= 0
            else float(request_deadline_s)
        )
        # In-flight depth on the owning node's registry, declared now so
        # /metrics always exposes it.
        self._inflight = client._node.metrics.gauge(
            "dista_taintmap_inflight_requests",
            "Requests in flight on the multiplexed Taint Map connection.",
        ).labels()
        self._closed = False
        #: Guards the connection's request table and read turn.
        self._lock = threading.Lock()
        #: Parked callers sleep here; a reply settled, a connection lost
        #: or the turn released wakes them all.
        self._changed = threading.Condition(self._lock)
        self._parked = 0
        #: Dials lazily, on the first request.
        self._channel = _Channel(self)

    # -- lifecycle ---------------------------------------------------------- #

    def close(self) -> None:
        """Close the connection.  A call in flight on it finds it closed
        and fails with the closed error instead of re-sending."""
        self._closed = True
        self._channel.close()

    # -- sync entry point ---------------------------------------------------- #

    def submit(self, kind: int, entries: Sequence) -> list:
        """Send ``entries`` as this call's own frames, at most
        ``max_batch`` entries each and one at a time, and return one
        value per entry."""
        call = _Call(self.request_deadline_s)
        values = []
        for start in range(0, len(entries), self.max_batch):
            values += self._request(call, _Flight(kind, entries[start : start + self.max_batch]))
        return values

    def _request(self, call: _Call, flight: _Flight) -> Sequence:
        """Send one frame and wait for its reply.  After a transport
        failure, send it again: on a redialed connection once when the
        failure was found at send time (rule 3), else on the next
        replica until every replica failed."""
        redialed = False
        failures = 0
        while True:
            connection = self._transmit(flight)
            if connection is not None:
                self._await(call, flight, connection)
            exc, flight.lost = flight.lost, None
            if exc is None:
                break
            if flight.at_send and not redialed:
                redialed = True
                continue
            replicas = len(self.client._replicas)
            self._channel.rotate(flight.observed_active)
            failures += 1
            if self._closed:
                raise _closed_error()
            if failures >= replicas:
                if replicas == 1:
                    raise exc  # single replica: surface the error itself
                raise TaintMapError(f"all taint map replicas unreachable: {exc}")
        if isinstance(flight.outcome, BaseException):
            raise flight.outcome
        return flight.outcome

    def _await(self, call: _Call, flight: _Flight, connection: _MuxConnection) -> None:
        """Return once ``flight`` has landed.  Meanwhile read
        ``connection``, the one it was sent on, while its read turn is
        free, or else sleep until woken or the call's deadline."""
        while True:
            with self._lock:
                if flight.landed():
                    return
                if connection.reading:
                    self._parked += 1
                    try:
                        woken = self._changed.wait(call.remaining())
                    finally:
                        self._parked -= 1
                    if not woken and not flight.landed():
                        raise self._deadline_error()
                    continue
                connection.reading = True
            self._read_turn(connection, call, flight)

    def _deadline_error(self) -> TaintMapDeadlineError:
        return TaintMapDeadlineError(
            f"taint map request exceeded its {self.request_deadline_s}s deadline"
        )

    # -- settling (callers hold the lock) -------------------------------------- #

    def _wake(self) -> None:
        if self._parked:
            self._changed.notify_all()

    def _landed(self, flight: _Flight, status: int, response: bytes) -> None:
        """Settle the flight a reply answers."""
        self.client._observe_rpc(flight.op, time.perf_counter() - flight.started)
        try:
            if status != STATUS_OK:
                flight.outcome = _status_error(status)
            elif flight.op == OP_REGISTER_MANY:
                flight.outcome = _split_batch_register_response(response, flight.count)
            else:
                flight.outcome = _split_batch_lookup_response(response, flight.count)
        except Exception as exc:  # a malformed reply
            flight.outcome = exc

    def _lose(self, flights: list, exc: Exception, at_send: bool) -> None:
        """A transport error took these frames' connection: hand each
        back to its owner to re-send."""
        for flight in flights:
            flight.lost, flight.at_send = exc, at_send
        self._wake()

    # -- sending (never while holding the read turn) --------------------------- #

    def _transmit(self, flight: _Flight) -> Optional[_MuxConnection]:
        """Send one frame and return the connection its reply will come
        on.  A transport failure on the way is recorded instead, on the
        flights it took (``lost``), for their owners to act on."""
        flight.observed_active = self.client._active
        flight.started = time.perf_counter()
        try:
            connection = self._channel.connection()
        except TRANSPORT_ERRORS as exc:
            flight.lost, flight.at_send = exc, False
            return None
        corr = None
        try:
            with self._lock:
                corr = connection.enlist(flight)
            connection.write(corr, flight.op, flight.payload)
            return connection
        except TRANSPORT_ERRORS as exc:
            with self._lock:
                if corr is not None and connection.take(corr) is None:
                    return None  # a reader already failed it over
                self._lose([flight, *connection.fail(exc)], exc, at_send=True)
            self._channel.discard(connection)
            return None

    # -- replies (the read turn) ---------------------------------------------- #

    def _read_turn(self, connection: _MuxConnection, call: _Call, mine: _Flight) -> None:
        """Read as the turn holder, settling every reply frame found,
        until ``mine`` has landed; then release the turn."""
        try:
            while True:
                frames = connection.receive(call.remaining())
                with self._lock:
                    for corr, status, response in frames:
                        flight = connection.take(corr)
                        if flight is not None:
                            self._landed(flight, status, response)
                    if mine.landed():
                        self._release(connection)
                        return
                    if frames:
                        self._wake()  # a parked caller's reply may be in
        except SimTimeout:
            with self._lock:
                self._release(connection)
            raise self._deadline_error() from None
        except TRANSPORT_ERRORS as exc:
            with self._lock:
                self._lose(connection.fail(exc), exc, at_send=False)
                self._release(connection)
            self._channel.discard(connection)
        except BaseException:
            with self._lock:
                self._release(connection)
            raise

    def _release(self, connection: _MuxConnection) -> None:
        connection.reading = False
        self._wake()
