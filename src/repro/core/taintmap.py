"""The Taint Map service (paper §III-D, Fig. 9).

An independent process that every node can reach, keeping the bijection
*global taint ⇄ Global ID*.  It exists to solve two problems:

* **bandwidth** — a serialized taint is 200+ bytes and grows with its tag
  count; nodes transfer the fixed 4-byte Global ID instead and consult
  the map once per distinct taint (client-side caches make repeats free —
  Fig. 9's note that b2 needs no second request);
* **mismatched length** — fixed-width IDs let the receiver size its
  enlarged buffer exactly (see :mod:`repro.core.wire`).

The server runs on its own simulated node and speaks a tiny
request/response protocol over a **raw** kernel TCP connection — its own
traffic must not pass through instrumented JNI methods, both to avoid
recursion and to keep it out of the workload's overhead accounting.

As in the paper, this is the "simplest implementation" (202 LOC there):
one single-point map, replaceable by ZooKeeper/etcd in production.  It
allocates GIDs 1, 2, 3, … over the whole 4-byte field.  A durability
store (:mod:`repro.core.durability`) lets a restarted server resume that
sequence, and §VI's standby lives in :mod:`repro.core.ha`.
"""

from __future__ import annotations

import struct
import threading
import time
from typing import Optional, Sequence

from repro.core import durability
from repro.errors import PipeClosed, TaintMapError
from repro.obs.registry import MetricsRegistry
from repro.runtime.kernel import Address, SimKernel, TcpEndpoint
from repro.taint.tags import LocalId, TaintTag
from repro.taint.tree import Taint, TaintTree

# Ops 1 and 2 (single register and lookup) and 6 (the old framing
# upgrade) are retired and never reused: the fallthrough answers them
# STATUS_BAD_REQUEST.  3 is OP_SYNC (repro.core.ha) — the HA
# replication op shares this opcode namespace through the Standby's
# ``_handle`` fallthrough.
OP_REGISTER_MANY = 4
OP_LOOKUP_MANY = 5

STATUS_OK = 0
STATUS_UNKNOWN_GID = 1
STATUS_BAD_REQUEST = 2
# Status 3 is retired and never reused.
#: The server ran out of Global IDs.  Semantic, never a failover
#: trigger: the replica is healthy and its standby replicates the same
#: exhausted counter, so rotating or retrying cannot help.  Clients
#: surface it as :class:`~repro.errors.TaintMapExhaustedError`; the
#: ``dista_gid_headroom`` gauge is the advance warning.
STATUS_GID_EXHAUSTED = 4

#: Human-readable op names for telemetry labels (op 3 is OP_SYNC in
#: :mod:`repro.core.ha`, which shares this opcode namespace).
OP_NAMES = {
    3: "sync",
    OP_REGISTER_MANY: "register_many",
    OP_LOOKUP_MANY: "lookup_many",
}


def op_name(op: int) -> str:
    return OP_NAMES.get(op, f"op{op}")

_KIND_STR = ord("s")
_KIND_INT = ord("i")
_KIND_BYTES = ord("b")

#: The last Global ID the 4-byte wire field can carry.  GID 0 is the
#: empty taint, so a server allocates 1 … ``MAX_GID``.
MAX_GID = 0xFFFFFFFF

#: Transport-level failures (vs protocol-level STATUS_* errors).  HA
#: clients fail over on these; semantic errors must never fail over.
#: :class:`~repro.errors.TaintMapTransportError` is covered through its
#: ``ConnectionError`` base.
TRANSPORT_ERRORS = (ConnectionError, EOFError, OSError, TimeoutError)

#: Hard protocol ceiling on entries per ``OP_REGISTER_MANY`` /
#: ``OP_LOOKUP_MANY`` frame: both batch payloads wire-encode their entry
#: count as an unsigned 16-bit integer (``>H``).  Larger logical batches
#: are chunked into multiple frames, never packed into one oversized
#: frame.
PROTOCOL_MAX_BATCH = 0xFFFF

#: Default wall-clock deadline for one client request (s).  Generous
#: next to any healthy round-trip; bounds how long a wrapper thread can
#: hang on a wedged server.
DEFAULT_DEADLINE_S = 30.0

#: Entry kinds of a transport request
#: (:meth:`~repro.core.transport.TaintMapTransport.submit`): a
#: registration entry is a serialized taint and answers its GID; a
#: lookup entry is a GID and answers its serialized taint.
KIND_REGISTER = 0
KIND_LOOKUP = 1


# --------------------------------------------------------------------- #
# Taint (tag set) serialization
# --------------------------------------------------------------------- #


def _encode_tag_value(value) -> tuple[int, bytes]:
    if isinstance(value, str):
        return _KIND_STR, value.encode("utf-8")
    if isinstance(value, bool):
        raise TaintMapError("boolean tag values are not supported")
    if isinstance(value, int):
        try:
            return _KIND_INT, struct.pack(">q", value)
        except struct.error as exc:
            raise TaintMapError(f"integer tag {value} exceeds 64 bits") from exc
    if isinstance(value, (bytes, bytearray)):
        return _KIND_BYTES, bytes(value)
    raise TaintMapError(
        f"tag value of type {type(value).__name__} is not wire-serializable"
    )


def _decode_tag_value(kind: int, payload: bytes):
    if kind == _KIND_STR:
        return payload.decode("utf-8")
    if kind == _KIND_INT:
        return struct.unpack(">q", payload)[0]
    if kind == _KIND_BYTES:
        return payload
    raise TaintMapError(f"unknown tag value kind {kind}")


#: A serialized taint's record count, and one record's fields after its
#: ``>B`` IP length and IP: pid, GlobalID, value kind, value length.
_COUNT = struct.Struct(">H")
_RECORD = struct.Struct(">IIBH")
#: A key record's fields after its origin (IP length, IP, pid): value
#: kind, value length.
_KEY_TAIL = struct.Struct(">BI")
#: The empty tag set, serialized.  GID 0 is the empty taint, so no live
#: binding may name it.
_EMPTY_TAINT = _COUNT.pack(0)
#: Malformed bytes surface from the parser as one of these, re-raised
#: as :class:`~repro.errors.TaintMapError`.
_PARSE_ERRORS = (struct.error, IndexError, UnicodeDecodeError)


def _tag_record(tag: TaintTag) -> bytes:
    kind, payload = _encode_tag_value(tag.tag)
    ip = tag.local_id.ip.encode("ascii")
    return (
        bytes((len(ip),))
        + ip
        + _RECORD.pack(tag.local_id.pid, tag.global_id, kind, len(payload))
        + payload
    )


def serialize_tags(tags: frozenset[TaintTag]) -> bytes:
    """Canonical serialization of a tag set (a *global taint*)."""
    records = sorted(map(_tag_record, tags))
    return _COUNT.pack(len(records)) + b"".join(records)


def serialize_taint(taint: Taint) -> bytes:
    """``serialize_tags(taint.tags)``, walking ``taint``'s path once.

    A tree path holds each tag once, so its records need no dedup, and
    a one-tag taint (every fresh tag) needs no sort either."""
    records = []
    node = taint
    while node.tag is not None:
        records.append(_tag_record(node.tag))
        node = node.parent
    if len(records) > 1:
        records.sort()
    return _COUNT.pack(len(records)) + b"".join(records)


def _records(raw: bytes) -> list[tuple]:
    """The one record parser: check a serialized taint and return its
    records as ``(origin, ip, pid, global_id, kind, payload, value)``
    each: ``origin`` is the record's ``>B`` IP length, IP and pid bytes,
    and ``ip`` and ``value`` are decoded.  Raises
    :class:`~repro.errors.TaintMapError` on malformed input."""
    records = []
    try:
        (count,) = _COUNT.unpack_from(raw)
        pos = _COUNT.size
        for _ in range(count):
            ip_end = pos + 1 + raw[pos]
            origin = raw[pos : ip_end + 4]
            pid, global_id, kind, size = _RECORD.unpack_from(raw, ip_end)
            pos = ip_end + _RECORD.size + size
            payload = raw[pos - size : pos]
            ip, value = origin[1:-4].decode("ascii"), _decode_tag_value(kind, payload)
            records.append((origin, ip, pid, global_id, kind, payload, value))
    except _PARSE_ERRORS as exc:
        raise TaintMapError(f"malformed serialized taint: {exc}") from exc
    if pos != len(raw):
        raise TaintMapError(f"trailing bytes in serialized taint ({len(raw) - pos})")
    return records


def serialized_key(raw: bytes) -> bytes:
    """Canonical identity of a serialized taint, ignoring its per-tag
    GlobalID fields: the server's key for the taint.

    Length-prefixed structural encoding, so two distinct tag sets never
    collide, and a value's kind is part of it (bytes, str and int never
    match).  Repeated records count once and the records are sorted, so
    every serialization of one tag set gives one key.  Built from the
    bytes without making a tag; rejects exactly what
    :func:`deserialize_tags` rejects, with
    :class:`~repro.errors.TaintMapError`.
    """
    keys = [
        origin + _KEY_TAIL.pack(kind, len(payload)) + payload
        for origin, _ip, _pid, _global_id, kind, payload, _value in _records(raw)
    ]
    if len(keys) == 1:
        return raw[: _COUNT.size] + keys[0]  # a count of 1, as parsed
    keys = sorted(set(keys))
    return _COUNT.pack(len(keys)) + b"".join(keys)


def deserialize_tags(raw: bytes) -> list[TaintTag]:
    """The tags of a serialized taint.  Raises
    :class:`~repro.errors.TaintMapError` on malformed input."""
    return [
        TaintTag(value, LocalId(ip, pid), global_id=global_id)
        for _origin, ip, pid, global_id, _kind, _payload, value in _records(raw)
    ]


def _taints_from_records(
    tree: TaintTree, gids: Sequence[int], serialized: Sequence[bytes]
) -> list[Taint]:
    """The receiver's path from a lookup reply to its taints.  Every
    entry is parsed, and so checked, before the tree interns any, so a
    malformed reply raises :class:`~repro.errors.TaintMapError` and
    leaves the tree as it was; the tree then interns them all under one
    lock hold.  Paper §III-D.1: a singleton's tag takes the GID it
    crossed under as its GlobalID, if it had none."""
    taints = tree.taints_for_tag_sets([deserialize_tags(raw) for raw in serialized])
    _stamp_global_ids(taints, gids)
    return taints


# --------------------------------------------------------------------- #
# Framing helpers (shared by client and server)
# --------------------------------------------------------------------- #


#: A frame's head: correlation id, op (request) or status (reply),
#: payload length.  Every frame on a Taint Map connection has it, from
#: the connection's first byte.
MUX_HEAD = struct.Struct(">IBI")

#: Bytes one read of a multiplexed connection asks for.
MUX_READ_SIZE = 1 << 16


def mux_frame(corr: int, code: int, payload: bytes) -> bytes:
    """One frame: ``corr | code | len | payload``, where ``code`` is a
    request's op or a reply's status."""
    return MUX_HEAD.pack(corr, code, len(payload)) + payload


def take_frames(buffer: bytearray) -> list[tuple[int, int, bytes]]:
    """Remove every complete multiplexed frame from the front of
    ``buffer`` and return them in order as ``(corr, code, payload)``;
    ``code`` is a request's op or a reply's status.  A partial frame
    stays in ``buffer`` for the next read."""
    frames = []
    pos, head, size = 0, MUX_HEAD.size, len(buffer)
    while size - pos >= head:
        corr, code, length = MUX_HEAD.unpack_from(buffer, pos)
        end = pos + head + length
        if end > size:
            break
        frames.append((corr, code, bytes(buffer[pos + head : end])))
        pos = end
    del buffer[:pos]
    return frames


def round_trip(endpoint: TcpEndpoint, op: int, payload: bytes) -> tuple[int, bytes]:
    """Send one request on a connection that carries no other, block
    until its reply is whole, and return ``(status, payload)``.

    For the §VI replication stream, which sends one ``OP_SYNC`` at a
    time.  Raises :class:`~repro.errors.PipeClosed` at EOF and
    :class:`~repro.errors.SimTimeout` past the kernel's read timeout."""
    endpoint.send_all(mux_frame(0, op, payload))
    buffer = bytearray()
    while True:
        chunk = endpoint.recv(MUX_READ_SIZE)
        if not chunk:
            raise PipeClosed("taint map connection closed mid-frame")
        buffer += chunk
        for _corr, status, response in take_frames(buffer):
            return status, response


#: An entry's length prefix in the batch payloads.
_LENGTH = struct.Struct(">I")


def _pack_batch_register(entries: Sequence[bytes]) -> bytes:
    """``OP_REGISTER_MANY`` payload: count, then length-prefixed taints."""
    if len(entries) > PROTOCOL_MAX_BATCH:
        # A clear error instead of an opaque struct.error: callers are
        # expected to chunk at the protocol limit before packing.
        raise TaintMapError(
            f"batch of {len(entries)} entries exceeds the "
            f"{PROTOCOL_MAX_BATCH}-entry protocol limit (16-bit count)"
        )
    return struct.pack(">H", len(entries)) + b"".join(
        struct.pack(">I", len(entry)) + entry for entry in entries
    )


def _pack_batch_lookup(gids: Sequence[int]) -> bytes:
    """``OP_LOOKUP_MANY`` payload: count, then the 4-byte GIDs."""
    if len(gids) > PROTOCOL_MAX_BATCH:
        raise TaintMapError(
            f"batch of {len(gids)} GIDs exceeds the "
            f"{PROTOCOL_MAX_BATCH}-entry protocol limit (16-bit count)"
        )
    return struct.pack(f">H{len(gids)}I", len(gids), *gids)


def _split_entries(raw: bytes, pos: int, count: int, what: str) -> list[bytes]:
    """``count`` length-prefixed entries from ``raw[pos:]``, which they
    must fill exactly; :class:`~repro.errors.TaintMapError` otherwise."""
    entries = []
    try:
        for _ in range(count):
            (length,) = _LENGTH.unpack_from(raw, pos)
            pos += _LENGTH.size + length
            entries.append(raw[pos - length : pos])
    except struct.error as exc:
        raise TaintMapError(f"truncated entry in {what}: {exc}") from exc
    if pos != len(raw):
        raise TaintMapError(f"trailing bytes in {what} ({len(raw) - pos})")
    return entries


def _split_batch_register(payload: bytes) -> list[bytes]:
    """``OP_REGISTER_MANY`` payload: count, then length-prefixed taints."""
    try:
        (count,) = _COUNT.unpack_from(payload)
    except struct.error as exc:
        raise TaintMapError(f"truncated batch register: {exc}") from exc
    return _split_entries(payload, _COUNT.size, count, "batch register")


def _split_batch_lookup_response(raw: bytes, count: int) -> list[bytes]:
    """``OP_LOOKUP_MANY`` response: one length-prefixed taint per GID."""
    return _split_entries(raw, 0, count, "batch lookup")


def _split_batch_register_response(raw: bytes, count: int) -> tuple[int, ...]:
    """``OP_REGISTER_MANY`` response: one 4-byte GID per entry, which
    must fill it exactly; :class:`~repro.errors.TaintMapError`
    otherwise."""
    try:
        return struct.unpack(f">{count}I", raw)
    except struct.error as exc:
        raise TaintMapError(f"malformed batch register reply: {exc}") from exc


class TaintMapServer:
    """The map service: allocates Global IDs, answers lookups.

    Requests are handled serially — the map is a single-point service
    (paper §V-F), so one request never interleaves with another.

    ``service_time`` sleeps that long inside the serial section of every
    request, modelling a server whose handling cost is not negligible.
    It defaults to 0; tests set it to hold a frame in flight.
    """

    #: Allocations between compacted snapshots (WAL truncates after
    #: each), when a durability store is attached.
    DEFAULT_SNAPSHOT_EVERY = 1024

    def __init__(
        self,
        kernel: SimKernel,
        ip: str,
        port: int,
        service_time: float = 0.0,
        store=None,
    ):
        self._kernel = kernel
        self.address: Address = (ip, port)
        self._service_time = service_time
        self._service_lock = threading.Lock()
        self._listener = None
        self._lock = threading.Lock()
        #: The state: GID → serialized taint, with the key index and the
        #: next GID derived from it.  Only :meth:`_bind` writes them.
        self._by_key: dict[bytes, int] = {}
        self._by_gid: dict[int, bytes] = {}
        self._next_gid = 1
        self._running = False
        self._connections: list[TcpEndpoint] = []
        #: Server telemetry, declared before recovery counts into it.
        #: Every counter child is bound once, here, so a scrape shows
        #: each one from the start, reading 0 before its first event.
        self.metrics = MetricsRegistry({"node": "taintmap"})
        requests = self.metrics.counter(
            "dista_taintmap_server_requests_total",
            "Requests handled by this Taint Map server.",
            ("kind",),
        )
        entries = self.metrics.counter(
            "dista_taintmap_server_entries_total",
            "Batch entries processed by this Taint Map server.",
            ("kind",),
        )
        self._register_requests = requests.labels(kind="register")
        self._lookup_requests = requests.labels(kind="lookup")
        self._register_entries = entries.labels(kind="register")
        self._lookup_entries = entries.labels(kind="lookup")
        self._wal_appends = self.metrics.counter(
            "dista_wal_appends_total",
            "Records appended to this server's write-ahead log.",
        ).labels()
        self._wal_replayed = self.metrics.counter(
            "dista_wal_replayed_total",
            "WAL entries replayed during the last recovery.",
        ).labels()
        self._wal_snapshots = self.metrics.counter(
            "dista_wal_snapshots_total",
            "Compacted snapshots written by this server.",
        ).labels()
        self._wal_torn_records = self.metrics.counter(
            "dista_wal_torn_records_total",
            "Torn WAL tail records dropped during recovery.",
        ).labels()
        self._handle_seconds = self.metrics.histogram(
            "dista_taintmap_server_handle_seconds",
            "Per-request Taint Map handling time (server side) in seconds.",
            ("op",),
        )
        #: op -> bound ``_handle_seconds`` child: every request observes
        #: it, so the labels() lookup is done once per op.
        self._handle_children: dict = {}
        self.metrics.register_collector(self._population_samples)
        #: Durability: WAL + snapshot store (None = in-memory only, the
        #: historical behaviour).  Recovery runs *now*, before the
        #: listener exists, so no request can observe half-replayed
        #: state.
        self._store = store
        self._snapshot_every = self.DEFAULT_SNAPSHOT_EVERY
        self._writes_since_snapshot = 0
        if store is not None:
            self._recover()

    # -- lifecycle ------------------------------------------------------- #

    def start(self) -> "TaintMapServer":
        self._listener = self._kernel.listen(*self.address)
        self._running = True
        thread = threading.Thread(target=self._accept_loop, name="taintmap", daemon=True)
        thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            self._listener.close()
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for endpoint in connections:
            endpoint.close()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                endpoint = self._listener.accept(timeout=3600)
            except Exception:
                return
            with self._lock:
                self._connections.append(endpoint)
            threading.Thread(
                target=self._serve, args=(endpoint,), name="taintmap-conn", daemon=True
            ).start()

    # -- request handling --------------------------------------------------- #

    def _serve(self, endpoint: TcpEndpoint) -> None:
        """Serve loop for one connection.

        Each request is ``corr | op | len | payload`` and each reply
        echoes the correlation id in front of ``status | len | payload``.
        Requests pipeline: the client never waits for one reply before
        sending the next, so thousands of registrations can be in flight
        on this single connection.  Each wake-up takes one read and
        serves every complete frame in it, in order, replying to each as
        it is served; a partial frame waits in the buffer for the next
        read.  EOF (inside a frame or not) ends the loop, and so does a
        connection idle past the kernel's 30 s read timeout.  Handling
        stays serial (the single-point service model) but a batched
        request pays ``service_time`` once for its whole frame.
        """
        buffer = bytearray()
        try:
            while self._running:
                chunk = endpoint.recv(MUX_READ_SIZE)
                if not chunk:
                    return
                buffer += chunk
                for corr, op, payload in take_frames(buffer):
                    status, response = self._service(op, payload)
                    endpoint.send_all(mux_frame(corr, status, response))
        except Exception:
            pass
        finally:
            endpoint.close()
            with self._lock:
                if endpoint in self._connections:
                    self._connections.remove(endpoint)

    def _service(self, op: int, payload: bytes) -> tuple[int, bytes]:
        """Serial handling: the map is one single-point service."""
        with self._service_lock:
            if self._service_time > 0.0:
                time.sleep(self._service_time)
            started = time.perf_counter()
            status, response = self._handle(op, payload)
            elapsed = time.perf_counter() - started
        child = self._handle_children.get(op)
        if child is None:
            child = self._handle_children[op] = self._handle_seconds.labels(op=op_name(op))
        child.observe(elapsed)
        return status, response

    def _handle(self, op: int, payload: bytes) -> tuple[int, bytes]:
        if op == OP_REGISTER_MANY:
            self._register_requests.inc()
            try:
                entries = _split_batch_register(payload)
                keys = [serialized_key(entry) for entry in entries]
            except TaintMapError:
                return STATUS_BAD_REQUEST, b""
            if _EMPTY_TAINT in keys:
                return STATUS_BAD_REQUEST, b""  # GID 0 is the empty taint
            self._register_entries.inc(len(entries))
            # One hold; the GIDs stop short at an exhausted GID space.
            gids, fresh = [], []
            with self._lock:
                for key, entry in zip(keys, entries):
                    gid = self._by_key.get(key)
                    if gid is None:
                        gid = self._next_gid
                        if gid > MAX_GID:
                            break
                        self._bind(gid, key, entry)
                        if self._store is not None:
                            self._persist_locked(gid, entry)
                        fresh.append((gid, entry))
                    gids.append(gid)
            # Outside the lock, before the reply (the HA primary replicates).
            for gid, entry in fresh:
                self._allocated(gid, entry)
            if len(gids) < len(entries):
                return STATUS_GID_EXHAUSTED, b""
            return STATUS_OK, struct.pack(f">{len(gids)}I", *gids)
        if op == OP_LOOKUP_MANY:
            self._lookup_requests.inc()
            try:
                (count,) = struct.unpack(">H", payload[:2])
                gids = struct.unpack(f">{count}I", payload[2:])
            except Exception:
                return STATUS_BAD_REQUEST, b""
            self._lookup_entries.inc(count)
            out = []
            with self._lock:
                for gid in gids:
                    serialized = self._by_gid.get(gid)
                    if serialized is None:
                        return STATUS_UNKNOWN_GID, struct.pack(">I", gid)
                    out.append(struct.pack(">I", len(serialized)) + serialized)
            return STATUS_OK, b"".join(out)
        return STATUS_BAD_REQUEST, b""

    # -- durability (WAL + snapshots) ------------------------------------- #

    def _recover(self) -> None:
        """Rebuild state from snapshot + WAL replay (ctor-time, pre-listen).

        The snapshot's entries, then the WAL's, each take one step
        (:meth:`_recover_entry`): a GID already bound is skipped, so a
        WAL retained past its snapshot (a crash between snapshot write
        and log truncate) replays as a no-op; any other is re-keyed and
        bound, so the allocator resumes past the highest GID ever made
        durable — **no GID is ever renumbered**.  A torn tail record (a
        crash mid-append) is counted and dropped — its allocation was
        never acknowledged durably, so dropping it is the correct
        recovery.
        """
        raw_snapshot = self._store.read_snapshot()
        snapshot_entries = []
        if raw_snapshot:
            try:
                snapshot_entries = durability.decode_snapshot(raw_snapshot)
            except (ValueError, struct.error) as exc:
                raise TaintMapError(
                    f"corrupt taint map snapshot: {exc!r}"
                ) from exc
        for gid, serialized in snapshot_entries:
            self._recover_entry(gid, serialized)
        records, torn = durability.iter_records(self._store.read_log())
        replayed = 0
        for kind, payload in records:
            if kind == durability.WAL_ENTRY and len(payload) >= 4:
                (gid,) = struct.unpack_from(">I", payload)
                replayed += self._recover_entry(gid, payload[4:])
        self._wal_replayed.inc(replayed)
        self._wal_torn_records.inc(torn)
        if torn:
            # New records must not land behind the torn bytes: replay
            # stops at the tear, so they would be lost on the next
            # recovery.  Compacting drops the tail; a crash before the
            # truncate recovers the same state again.
            self._snapshot_locked()

    def _recover_entry(self, gid: int, serialized: bytes) -> bool:
        """Bind one recovered entry unless its GID is bound already;
        True if it was bound.  The taint is keyed with the function the
        live server keys with, and a key already bound keeps its GID,
        as the live server's dedup decided in log order."""
        if gid in self._by_gid:
            return False
        try:
            key = serialized_key(serialized)
        except TaintMapError:
            key = None
        self._bind(gid, None if key in self._by_key else key, serialized)
        return True

    def _persist_locked(self, gid: int, serialized: bytes) -> None:
        """Make the live binding of ``gid`` durable: append it to the
        WAL, then compact once ``_snapshot_every`` appends have piled
        up.  Caller holds ``_lock``, so the append lands before the
        response that acknowledges the GID can leave the server."""
        self._store.append_log(
            durability.pack_record(
                durability.WAL_ENTRY, struct.pack(">I", gid) + serialized
            )
        )
        self._wal_appends.inc()
        self._writes_since_snapshot += 1
        if self._writes_since_snapshot >= self._snapshot_every:
            self._snapshot_locked()

    def snapshot_now(self) -> None:
        """Force a compacted snapshot + WAL truncate (tests, shutdown)."""
        if self._store is None:
            return
        with self._lock:
            self._snapshot_locked()

    def _snapshot_locked(self) -> None:
        data = durability.encode_snapshot(self._by_gid.items())
        # Write-then-truncate under the allocation lock: no append can
        # race between the state capture and the truncate, so the worst
        # crash outcome is a fresh snapshot plus a stale WAL, whose
        # replay skips every GID the snapshot bound.
        self._store.write_snapshot(data)
        self._store.truncate_log()
        self._writes_since_snapshot = 0
        self._wal_snapshots.inc()

    # -- the one binding path ------------------------------------------------- #

    def _bind(self, gid: int, key: Optional[bytes], serialized: bytes) -> None:
        """Bind ``gid`` to the taint ``serialized``, whose
        :func:`serialized_key` is ``key``, and move the allocator past it.
        ``key`` is None for a recovered taint that fails to key: its GID
        stays bound and resolvable, with no key.  The only writer of
        ``_by_key``, ``_by_gid`` and ``_next_gid`` after ``__init__``;
        the caller holds ``_lock`` or runs before the listener exists."""
        if key is not None:
            self._by_key[key] = gid
        self._by_gid[gid] = serialized
        if gid >= self._next_gid:
            self._next_gid = gid + 1

    def _allocated(self, gid: int, serialized: bytes) -> None:
        """Hook: ``gid`` was just allocated to ``serialized``.  Runs
        outside ``_lock``, once per allocation, before the reply that
        acknowledges it is sent (the HA primary replicates here)."""

    @property
    def gid_headroom(self) -> int:
        """Global IDs left before this server exhausts the 4-byte field."""
        with self._lock:
            return max(0, MAX_GID - self._next_gid + 1)

    # -- introspection -------------------------------------------------------- #

    def global_taint_count(self) -> int:
        """Distinct global taints bound on this server: its one
        population number, which ``dista_taintmap_global_taints``
        reports too."""
        with self._lock:
            return len(self._by_gid)

    def _population_samples(self) -> dict:
        """The population and headroom gauges, read from the maps at
        scrape time, so no allocation path keeps a count."""
        population = self.global_taint_count()
        return {
            "dista_taintmap_global_taints": {
                "type": "gauge",
                "help": "Distinct global taints registered on this server.",
                "samples": [{"labels": {}, "value": population}],
            },
            "dista_gid_headroom": {
                "type": "gauge",
                "help": (
                    "Global IDs left before this server exhausts its "
                    "allocation space."
                ),
                "samples": [{"labels": {}, "value": self.gid_headroom}],
            },
        }


def _stamp_global_ids(taints: Sequence[Taint], gids: Sequence[int]) -> None:
    """Paper §III-D.1: a tag's GlobalID is set when it first crosses the
    network, on the sender and the receiver alike, from the GID of its
    singleton taint."""
    for taint, gid in zip(taints, gids):
        if taint.parent is taint.tree.root and taint.tag.global_id == 0:
            taint.tag.global_id = gid


class TaintMapClient:
    """Per-node connection to the Taint Map, with both-direction caches.

    ``address`` is the server's ``(ip, port)``.  Requests travel over one
    :class:`~repro.core.transport.TaintMapTransport`: a multiplexed
    connection whose requests are sent and replies read on the calling
    threads, each call's cache misses as its own batched frame, in
    flight alongside any other call's.  ``request_deadline_s`` bounds
    each request (``None`` or a non-positive value disables it).  The
    client owns no thread, but its connection stays open until
    :meth:`close`, so every client must be released with it.

    ``cache_enabled=False`` exists only for the ablation benchmark — it
    re-registers every byte's taint, demonstrating why Fig. 9's step ②
    ("does not need to request a Global ID again") matters.
    """

    def __init__(
        self,
        node,
        address: Address,
        cache_enabled: bool = True,
        request_deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
    ):
        # Imported here: the transport module imports this one.
        from repro.core.transport import TaintMapTransport

        self._node = node
        self._cache_enabled = cache_enabled
        #: Guards both caches.  A call reads them under one hold and
        #: records what it resolved under one more.  Nothing is ever
        #: evicted: a taint that has crossed the network once never
        #: costs another Taint Map request (Fig. 9's "does not need to
        #: request a Global ID again").
        self._cache_lock = threading.Lock()
        #: Taint → Global ID.  A taint is its tree node, hashed by
        #: identity, and the key keeps it alive while cached.
        self._gid_cache: dict[Taint, int] = {}
        #: Global ID → local taint.
        self._taint_cache: dict[int, Taint] = {}
        #: Node telemetry.  The node's registry owns these counters, so
        #: they outlive the client, and every client of one node adds
        #: into the same children.
        metrics = node.metrics
        self._batch_entries = metrics.histogram(
            "dista_taintmap_batch_entries",
            "Entries per batched Taint Map request.",
            ("op",),
            lowest=1.0,
            buckets=16,
        )
        cache_events = metrics.counter(
            "dista_cache_events_total",
            "GID/taint cache events on this node's Taint Map client.",
            ("event",),
        )
        self._cache_hits = cache_events.labels(event="hit")
        self._cache_misses = cache_events.labels(event="miss")
        #: op -> its bound batch-entries child, bound on first use.
        self._batch_children: dict = {}
        self.transport = TaintMapTransport(node, [address], request_deadline_s)

    def _observe_batch(self, op: int, entries: int) -> None:
        child = self._batch_children.get(op)
        if child is None:
            child = self._batch_children[op] = self._batch_entries.labels(op=op_name(op))
        child.observe(entries)

    def _cached(self, cache: dict, keys: Sequence, empty) -> tuple[list, dict]:
        """Read ``cache`` under one lock hold, in one pass, for every key
        that does not name the empty taint (``None``, GID 0 or an empty
        :class:`Taint`), and count the call's hits and misses, each only
        when there is one.  Returns the cached values by position
        (``empty`` where the key names the empty taint), and each missed
        key with the positions it fills."""
        values = [empty] * len(keys)
        misses: dict = {}
        looked = 0
        with self._cache_lock:
            for i, key in enumerate(keys):
                if not key or type(key) is Taint and key.tag is None:
                    continue
                looked += 1
                value = values[i] = cache.get(key)
                if value is None:
                    misses.setdefault(key, []).append(i)
        if self._cache_enabled:
            missed = sum(map(len, misses.values()))
            if looked > missed:
                self._cache_hits.inc(looked - missed)
            if missed:
                self._cache_misses.inc(missed)
        return values, misses

    # -- sender side (Fig. 9 steps 1-2) ---------------------------------- #

    def gid_for(self, taint: Optional[Taint]) -> int:
        """Global ID for a taint; 0 for the empty taint."""
        return self.gids_for([taint])[0]

    def gids_for(self, taints: Sequence[Optional[Taint]]) -> list[int]:
        """Global IDs for a batch of taints, resolving all cache misses
        in one ``OP_REGISTER_MANY`` round-trip.

        A message whose shadow forms *k* label runs therefore costs at
        most one request on first send, and zero on resend (Fig. 9's
        "does not need to request a Global ID again", batched).
        """
        gids, misses = self._cached(self._gid_cache, taints, 0)
        if misses:
            fresh = [taints[positions[0]] for positions in misses.values()]
            self._observe_batch(OP_REGISTER_MANY, len(fresh))
            new_gids = self.transport.submit(
                KIND_REGISTER, [serialize_taint(taint) for taint in fresh]
            )
            self._record_registered(fresh, new_gids)
            for positions, gid in zip(misses.values(), new_gids):
                for i in positions:
                    gids[i] = gid
        return gids

    def _record_registered(self, taints: Sequence[Taint], gids: Sequence[int]) -> None:
        if self._cache_enabled:
            with self._cache_lock:
                for taint, gid in zip(taints, gids):
                    self._gid_cache[taint] = gid
                    self._taint_cache.setdefault(gid, taint)
        _stamp_global_ids(taints, gids)

    # -- receiver side (Fig. 9 steps 4-5) ---------------------------------- #

    def taint_for(self, gid: int) -> Optional[Taint]:
        """Resolve a received Global ID into a taint in *this* node's tree."""
        return self.taints_for([gid])[0]

    def taints_for(self, gids: Sequence[int]) -> list[Optional[Taint]]:
        """Local taints for a batch of Global IDs, resolving all cache
        misses in one ``OP_LOOKUP_MANY`` round-trip."""
        taints, misses = self._cached(self._taint_cache, gids, None)
        if misses:
            pending = list(misses)
            self._observe_batch(OP_LOOKUP_MANY, len(pending))
            serialized_taints = self.transport.submit(KIND_LOOKUP, pending)
            resolved = self._record_resolved(pending, serialized_taints)
            for positions, taint in zip(misses.values(), resolved):
                for i in positions:
                    taints[i] = taint
        return taints

    def _record_resolved(self, gids: Sequence[int], serialized: Sequence[bytes]) -> list[Taint]:
        taints = _taints_from_records(self._node.tree, gids, serialized)
        if self._cache_enabled:
            with self._cache_lock:
                for gid, taint in zip(gids, taints):
                    self._taint_cache[gid] = taint
                    self._gid_cache.setdefault(taint, gid)
        return taints

    def close(self) -> None:
        self.transport.close()
