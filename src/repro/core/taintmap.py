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
a single-point map, replaceable by ZooKeeper/etcd in production.  The
paper concedes (§V-F, §VI) that a single point bounds cluster
throughput; this module therefore also supports **sharding**: N servers,
each owning a partition of the taint-key space (consistent hash) and a
partition of the Global-ID namespace (the shard index lives in the high
:data:`GID_SHARD_BITS` bits of the 4-byte GID).  A one-shard deployment
is bit-for-bit identical to the unsharded protocol — shard 0 allocates
GIDs 1, 2, 3, … and the wire format never changes.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
import threading
import time
from typing import Optional, Sequence, Union

from repro.core import durability
from repro.errors import (
    TaintMapError,
    TaintMapExhaustedError,
    TaintMapStaleRingError,
)
from repro.obs.registry import MetricsRegistry
from repro.runtime.kernel import Address, SimKernel, TcpEndpoint
from repro.taint.tags import LocalId, TaintTag
from repro.taint.tree import Taint, TaintTree

OP_REGISTER = 1
OP_LOOKUP = 2
# 3 is OP_SYNC (repro.core.ha) — the HA replication op shares this
# opcode namespace through the Standby's ``_handle`` fallthrough.
OP_REGISTER_MANY = 4
OP_LOOKUP_MANY = 5
#: Connection upgrade: the first frame of a multiplexed client
#: (:mod:`repro.core.transport`).  After the server acknowledges
#: with ``STATUS_OK``, every subsequent frame on the connection carries
#: a 4-byte correlation-id prefix in front of the *unchanged* sync frame
#: bytes, and responses may be delivered out of order.
OP_MUX_HELLO = 6
#: Elastic resharding control plane (:mod:`repro.core.elastic`).  A
#: ``RING_UPDATE`` carries an encoded :class:`ShardRing`; the receiving
#: shard atomically flips to the new epoch.  ``HANDOFF_BEGIN/CHUNK/END``
#: stream reverse-lookup/dedup state (``(gid, serialized taint)`` pairs)
#: from an old shard to the key's new owner — the GID itself is never
#: rewritten, so migration is invisible on the data-plane wire.
OP_RING_UPDATE = 7
OP_HANDOFF_BEGIN = 8
OP_HANDOFF_CHUNK = 9
OP_HANDOFF_END = 10

STATUS_OK = 0
STATUS_UNKNOWN_GID = 1
STATUS_BAD_REQUEST = 2
#: The registration was routed with a superseded hash ring.  The reply
#: payload carries the server's current encoded :class:`ShardRing` (or
#: is empty when a standalone server has no ring to share); the client
#: adopts it and re-routes.  Semantic, never a failover trigger.
STATUS_STALE_RING = 3
#: The shard ran out of Global-ID sequence numbers.  Semantic, never a
#: failover trigger: the replica is healthy and its standby replicates
#: the same exhausted counter, so rotating or retrying cannot help.
#: Clients surface it as
#: :class:`~repro.errors.TaintMapExhaustedError`; the per-shard
#: ``dista_gid_headroom`` gauge is the advance warning.
STATUS_GID_EXHAUSTED = 4

#: Human-readable op names for telemetry labels (op 3 is OP_SYNC in
#: :mod:`repro.core.ha`, which shares this opcode namespace).
OP_NAMES = {
    OP_REGISTER: "register",
    OP_LOOKUP: "lookup",
    3: "sync",
    OP_REGISTER_MANY: "register_many",
    OP_LOOKUP_MANY: "lookup_many",
    OP_MUX_HELLO: "mux_hello",
    OP_RING_UPDATE: "ring_update",
    OP_HANDOFF_BEGIN: "handoff_begin",
    OP_HANDOFF_CHUNK: "handoff_chunk",
    OP_HANDOFF_END: "handoff_end",
}


def op_name(op: int) -> str:
    return OP_NAMES.get(op, f"op{op}")

_KIND_STR = ord("s")
_KIND_INT = ord("i")
_KIND_BYTES = ord("b")

# --------------------------------------------------------------------- #
# Global-ID namespace partitioning
# --------------------------------------------------------------------- #

#: High bits of the 4-byte Global ID naming the owning shard.  Shard 0's
#: IDs are plain 1, 2, 3, … — a single-shard map emits exactly the bytes
#: the unsharded protocol did, and GID 0 (the empty taint) never belongs
#: to any shard.
GID_SHARD_BITS = 4
GID_SHARD_SHIFT = 32 - GID_SHARD_BITS
GID_SEQ_MASK = (1 << GID_SHARD_SHIFT) - 1
MAX_SHARDS = 1 << GID_SHARD_BITS

#: Transport-level failures (vs protocol-level STATUS_* errors).  HA
#: clients fail over on these; semantic errors must never fail over.
#: :class:`~repro.errors.TaintMapTransportError` is covered through its
#: ``ConnectionError`` base.
TRANSPORT_ERRORS = (ConnectionError, EOFError, OSError, TimeoutError)

#: Hard protocol ceiling on entries per ``OP_REGISTER_MANY`` /
#: ``OP_LOOKUP_MANY`` frame: both batch payloads wire-encode their entry
#: count as an unsigned 16-bit integer (``>H``).  Larger logical batches
#: must be chunked into multiple frames — each frame byte-identical to
#: the classic protocol — never packed into one oversized frame.
PROTOCOL_MAX_BATCH = 0xFFFF


def make_gid(shard: int, seq: int) -> int:
    """Compose a Global ID from a shard index and a per-shard sequence."""
    return (shard << GID_SHARD_SHIFT) | seq


def gid_shard(gid: int) -> int:
    """The shard that allocated (and can resolve) ``gid``."""
    return gid >> GID_SHARD_SHIFT


class ShardRouter:
    """Consistent-hash routing of taint keys onto shard indices.

    Every client and every server build the identical ring (SHA-256 over
    ``shard:<index>:<vnode>`` labels), so a taint registers on the same
    shard no matter which node first sees it — the property that keeps
    registration idempotent cluster-wide.  Lookups never consult the
    ring: a received GID carries its shard in its high bits.

    Rings are **versioned**: each scale-out bumps the ring ``epoch``,
    and epochs > 0 salt the vnode labels with the epoch so a scaled ring
    rebalances keys rather than replaying the day-one layout.  Epoch 0
    uses the original unsalted labels — a never-scaled deployment routes
    (and therefore frames) byte-identically to the pre-elastic protocol.
    """

    VNODES = 64

    #: Ring points are a pure function of (shard count, epoch, retired
    #: set), and every client/agent attach builds a router — memoize so the
    #: 64-vnode SHA-256 ring is hashed once per distinct ring, not once
    #: per client.  Keying on the count alone would serve a stale ring
    #: after a scale-out: a fresh epoch-0 4-shard cluster and a cluster
    #: scaled 1→4 (epoch 1) share a shard count but not a key layout.
    _RING_CACHE: dict = {}
    _RING_LOCK = threading.Lock()

    def __init__(self, shard_count: int, epoch: int = 0, retired=()):
        if not 1 <= shard_count <= MAX_SHARDS:
            raise TaintMapError(
                f"shard count {shard_count} outside 1..{MAX_SHARDS}"
            )
        if epoch < 0:
            raise TaintMapError(f"ring epoch must be >= 0, got {epoch}")
        retired = frozenset(int(index) for index in retired)
        if any(not 0 <= index < shard_count for index in retired):
            raise TaintMapError(
                f"retired shard indices {sorted(retired)} outside "
                f"0..{shard_count - 1}"
            )
        active = [index for index in range(shard_count) if index not in retired]
        if not active:
            raise TaintMapError("a ring needs at least one active shard")
        self.shard_count = shard_count
        self.epoch = epoch
        self.retired = retired
        # Retired (drained) shards keep their GID-namespace index — a
        # received GID still self-routes to the slot's forwarding
        # address — but own no keys: new registrations only ever land
        # on active shards.
        self._single = active[0] if len(active) == 1 else None
        # Never-drained rings keep the historical two-field cache key;
        # the retired set only joins the key when non-empty.
        cache_key = (
            (shard_count, epoch) if not retired
            else (shard_count, epoch, retired)
        )
        with self._RING_LOCK:
            cached = self._RING_CACHE.get(cache_key)
            if cached is None:
                points = []
                for shard in active:
                    for vnode in range(self.VNODES):
                        label = (
                            f"shard:{shard}:{vnode}"
                            if epoch == 0
                            else f"epoch:{epoch}:shard:{shard}:{vnode}"
                        )
                        digest = hashlib.sha256(label.encode()).digest()
                        points.append((int.from_bytes(digest[:8], "big"), shard))
                points.sort()
                cached = (
                    tuple(h for h, _ in points),
                    tuple(s for _, s in points),
                )
                self._RING_CACHE[cache_key] = cached
        self._hashes, self._shards = cached

    def shard_for_key(self, key: bytes) -> int:
        """Owning shard of a canonical :func:`taint_key`."""
        if self._single is not None:
            return self._single
        point = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        index = bisect.bisect_right(self._hashes, point) % len(self._hashes)
        return self._shards[index]


class ShardRing:
    """A versioned shard layout: ring epoch plus shard addresses.

    Shard *i*'s address is ``addresses[i]`` — the GID namespace index and
    the address-list index are the same thing, which is what keeps GID
    lookups self-routing across scale-outs (a GID allocated under any
    epoch resolves at ``addresses[gid_shard(gid)]`` forever; scale-out
    only ever *appends* addresses).  Instances are immutable; adopting a
    new ring is a pointer swap.
    """

    __slots__ = ("epoch", "addresses", "retired")

    def __init__(self, epoch: int, addresses: Sequence[Address], retired=()):
        if epoch < 0:
            raise TaintMapError(f"ring epoch must be >= 0, got {epoch}")
        if not 1 <= len(addresses) <= MAX_SHARDS:
            raise TaintMapError(
                f"ring with {len(addresses)} shards outside 1..{MAX_SHARDS}"
            )
        self.epoch = epoch
        self.addresses: tuple[Address, ...] = tuple(
            (str(ip), int(port)) for ip, port in addresses
        )
        #: GID-namespace indices drained by a scale-in.  A retired
        #: slot's address is its **forwarding address** (a surviving
        #: shard that adopted every GID the drained shard could
        #: resolve), so lookups self-routing by shard bits keep being
        #: answerable forever.  Retired indices are never reused —
        #: growth only ever appends fresh indices.
        self.retired = frozenset(int(index) for index in retired)
        if any(not 0 <= index < len(self.addresses) for index in self.retired):
            raise TaintMapError(
                f"retired shard indices {sorted(self.retired)} outside "
                f"0..{len(self.addresses) - 1}"
            )
        if len(self.retired) >= len(self.addresses):
            raise TaintMapError("a ring needs at least one active shard")

    @property
    def shard_count(self) -> int:
        return len(self.addresses)

    @property
    def active_shards(self) -> list[int]:
        return [
            index
            for index in range(len(self.addresses))
            if index not in self.retired
        ]

    def router(self) -> ShardRouter:
        return ShardRouter(len(self.addresses), self.epoch, self.retired)

    def grow(self, addresses: Sequence[Address]) -> "ShardRing":
        """The successor ring: epoch + 1, with ``addresses`` appended."""
        return ShardRing(
            self.epoch + 1, self.addresses + tuple(addresses), self.retired
        )

    def drain(self, index: int, forward: Optional[int] = None) -> "ShardRing":
        """The successor ring with shard ``index`` retired.

        ``forward`` names the surviving shard whose address takes over
        the drained slot (default: the lowest active index), so GIDs
        carrying the drained shard's bits keep resolving there.  Any
        previously retired slot that forwarded to the now-draining
        shard is re-pointed too — forwarding chains collapse to one hop.
        """
        if not 0 <= index < len(self.addresses) or index in self.retired:
            raise TaintMapError(f"shard {index} is not an active shard")
        active = [i for i in self.active_shards if i != index]
        if not active:
            raise TaintMapError("cannot drain the last active shard")
        if forward is None:
            forward = active[0]
        if forward not in active:
            raise TaintMapError(
                f"forwarding shard {forward} is not a surviving active shard"
            )
        drained_address = self.addresses[index]
        addresses = list(self.addresses)
        addresses[index] = self.addresses[forward]
        for slot in self.retired:
            if addresses[slot] == drained_address:
                addresses[slot] = self.addresses[forward]
        return ShardRing(self.epoch + 1, addresses, self.retired | {index})

    def encode(self) -> bytes:
        """``epoch:4 | count:2`` then per shard ``ip_len:1 | ip | port:2``.

        A ring with retired shards appends ``retired_count:2`` plus one
        index byte per retired shard; a never-drained ring appends
        nothing, staying byte-identical to the pre-drain encoding.
        """
        out = [struct.pack(">IH", self.epoch, len(self.addresses))]
        for ip, port in self.addresses:
            raw_ip = ip.encode("ascii")
            out.append(struct.pack(">B", len(raw_ip)) + raw_ip + struct.pack(">H", port))
        if self.retired:
            out.append(struct.pack(">H", len(self.retired)))
            out.append(bytes(sorted(self.retired)))
        return b"".join(out)

    @classmethod
    def decode(cls, raw: bytes) -> "ShardRing":
        try:
            epoch, count = struct.unpack(">IH", raw[:6])
            pos = 6
            addresses = []
            for _ in range(count):
                ip_len = raw[pos]
                pos += 1
                ip = raw[pos : pos + ip_len].decode("ascii")
                pos += ip_len
                (port,) = struct.unpack(">H", raw[pos : pos + 2])
                pos += 2
                addresses.append((ip, port))
            retired: frozenset[int] = frozenset()
            # A retired section is at least count:2 + one index byte;
            # anything shorter is trailing garbage, not a section.
            if len(raw) - pos >= 3:
                (retired_count,) = struct.unpack(">H", raw[pos : pos + 2])
                pos += 2
                retired = frozenset(raw[pos : pos + retired_count])
                if len(retired) != retired_count:
                    raise TaintMapError("truncated retired-shard section")
                pos += retired_count
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise TaintMapError(f"malformed ring encoding: {exc!r}") from exc
        if pos != len(raw):
            raise TaintMapError(f"trailing bytes in ring encoding ({len(raw) - pos})")
        return cls(epoch, addresses, retired)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ShardRing)
            and self.epoch == other.epoch
            and self.addresses == other.addresses
            and self.retired == other.retired
        )

    def __repr__(self) -> str:
        drained = f", retired={sorted(self.retired)}" if self.retired else ""
        return f"ShardRing(epoch={self.epoch}, shards={len(self.addresses)}{drained})"


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


def serialize_tags(tags: frozenset[TaintTag]) -> bytes:
    """Canonical serialization of a tag set (a *global taint*)."""
    records = []
    for tag in tags:
        kind, payload = _encode_tag_value(tag.tag)
        ip = tag.local_id.ip.encode("ascii")
        records.append(
            struct.pack(">B", len(ip))
            + ip
            + struct.pack(">IIB H", tag.local_id.pid, tag.global_id, kind, len(payload))
            + payload
        )
    records.sort()
    return struct.pack(">H", len(records)) + b"".join(records)


def taint_key(tags: frozenset[TaintTag]) -> bytes:
    """Canonical identity of a taint, ignoring per-node GlobalID fields.

    Length-prefixed structural encoding — two distinct tag sets can never
    collide, and the key does not depend on ``repr`` formatting of the
    tag values (bytes vs str vs int all encode through their wire kinds).
    """
    records = []
    for tag in tags:
        kind, payload = _encode_tag_value(tag.tag)
        ip = tag.local_id.ip.encode("ascii")
        records.append(
            struct.pack(">B", len(ip))
            + ip
            + struct.pack(">IBI", tag.local_id.pid, kind, len(payload))
            + payload
        )
    records.sort()
    return struct.pack(">H", len(records)) + b"".join(records)


def deserialize_tags(raw: bytes) -> list[TaintTag]:
    (count,) = struct.unpack(">H", raw[:2])
    pos = 2
    tags = []
    for _ in range(count):
        ip_len = raw[pos]
        pos += 1
        ip = raw[pos : pos + ip_len].decode("ascii")
        pos += ip_len
        pid, global_id, kind, payload_len = struct.unpack(">IIB H", raw[pos : pos + 11])
        pos += 11
        payload = raw[pos : pos + payload_len]
        pos += payload_len
        tags.append(
            TaintTag(_decode_tag_value(kind, payload), LocalId(ip, pid), global_id=global_id)
        )
    if pos != len(raw):
        raise TaintMapError(f"trailing bytes in serialized taint ({len(raw) - pos})")
    return tags


# --------------------------------------------------------------------- #
# Framing helpers (shared by client and server)
# --------------------------------------------------------------------- #


def _send_frame(endpoint: TcpEndpoint, head: bytes, payload: bytes) -> None:
    endpoint.send_all(head + struct.pack(">I", len(payload)) + payload)


def _recv_exact(endpoint: TcpEndpoint, n: int) -> bytes:
    out = bytearray()
    while len(out) < n:
        chunk = endpoint.recv(n - len(out))
        if not chunk:
            # Transport-level failure (distinct from protocol errors, so
            # HA clients know the replica itself is gone).
            from repro.errors import PipeClosed

            raise PipeClosed("taint map connection closed mid-frame")
        out.extend(chunk)
    return bytes(out)


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


def _protocol_chunks(items: Sequence) -> list:
    """Split a logical batch at the 16-bit wire-count ceiling."""
    if len(items) <= PROTOCOL_MAX_BATCH:
        return [items]
    return [
        items[start : start + PROTOCOL_MAX_BATCH]
        for start in range(0, len(items), PROTOCOL_MAX_BATCH)
    ]


def _pack_handoff_chunk(entries: Sequence[tuple[int, bytes]]) -> bytes:
    """``OP_HANDOFF_CHUNK`` payload: count, then ``gid:4 | len:4 | taint``."""
    if len(entries) > PROTOCOL_MAX_BATCH:
        raise TaintMapError(
            f"handoff chunk of {len(entries)} entries exceeds the "
            f"{PROTOCOL_MAX_BATCH}-entry protocol limit (16-bit count)"
        )
    return struct.pack(">H", len(entries)) + b"".join(
        struct.pack(">II", gid, len(serialized)) + serialized
        for gid, serialized in entries
    )


def _split_handoff_chunk(payload: bytes) -> list[tuple[int, bytes]]:
    (count,) = struct.unpack(">H", payload[:2])
    pos = 2
    entries = []
    for _ in range(count):
        gid, length = struct.unpack(">II", payload[pos : pos + 8])
        pos += 8
        entries.append((gid, payload[pos : pos + length]))
        pos += length
    if pos != len(payload):
        raise TaintMapError(f"trailing bytes in handoff chunk ({len(payload) - pos})")
    return entries


def _split_batch_register(payload: bytes) -> list[bytes]:
    (count,) = struct.unpack(">H", payload[:2])
    pos = 2
    entries = []
    for _ in range(count):
        (length,) = struct.unpack(">I", payload[pos : pos + 4])
        pos += 4
        entries.append(payload[pos : pos + length])
        pos += length
    if pos != len(payload):
        raise TaintMapError(f"trailing bytes in batch register ({len(payload) - pos})")
    return entries


def _split_batch_lookup_response(raw: bytes, count: int) -> list[bytes]:
    """``OP_LOOKUP_MANY`` response: one length-prefixed taint per GID."""
    pos = 0
    out = []
    for _ in range(count):
        (length,) = struct.unpack(">I", raw[pos : pos + 4])
        pos += 4
        out.append(raw[pos : pos + length])
        pos += length
    if pos != len(raw):
        raise TaintMapError(f"trailing bytes in batch lookup ({len(raw) - pos})")
    return out


class TaintMapStats:
    """Taint Map counters (feed the §V-F scalability analysis).

    Servers fill the request/population counters; clients fill the
    cache counters (hits/misses of ``_gid_cache`` /
    ``_taint_cache``).  One snapshot shape for both keeps aggregation
    across shards trivial.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.register_requests = 0
        self.lookup_requests = 0
        self.register_entries = 0
        self.lookup_entries = 0
        self.global_taints = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.close_errors = 0
        self.stale_ring_retries = 0
        self.handoff_entries = 0
        self.wal_appends = 0
        self.wal_replayed = 0
        self.wal_snapshots = 0
        self.wal_torn_records = 0
        self.drain_entries = 0

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "register_requests": self.register_requests,
                "lookup_requests": self.lookup_requests,
                "register_entries": self.register_entries,
                "lookup_entries": self.lookup_entries,
                "global_taints": self.global_taints,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "close_errors": self.close_errors,
                "stale_ring_retries": self.stale_ring_retries,
                "handoff_entries": self.handoff_entries,
                "wal_appends": self.wal_appends,
                "wal_replayed": self.wal_replayed,
                "wal_snapshots": self.wal_snapshots,
                "wal_torn_records": self.wal_torn_records,
                "drain_entries": self.drain_entries,
            }

    @staticmethod
    def merge(*snapshots: dict) -> dict:
        """Key-wise sum of snapshot dicts — the multi-shard rollup
        callers used to hand-assemble in tests and benchmarks."""
        totals: dict = {}
        for snapshot in snapshots:
            for key, value in snapshot.items():
                totals[key] = totals.get(key, 0) + value
        return totals


class _Cache:
    """Thread-safe, unbounded GID/taint mapping with hit/miss counting.

    Nothing is ever evicted: a taint that has crossed the network once
    never costs another Taint Map request (Fig. 9's "does not need to
    request a Global ID again").
    """

    def __init__(self, stats: TaintMapStats):
        self._stats = stats
        self._lock = threading.Lock()
        self._entries: dict = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
        self._stats.bump("cache_misses" if value is None else "cache_hits")
        return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value

    def setdefault(self, key, value) -> None:
        """Insert without touching hit/miss accounting (secondary fills)."""
        with self._lock:
            self._entries.setdefault(key, value)


class TaintMapServer:
    """The map service: allocates Global IDs, answers lookups.

    One server is one **shard** of the Global-ID space.  ``shard_index``
    is embedded in the high :data:`GID_SHARD_BITS` bits of every GID it
    allocates; with the defaults (``shard_index=0, shard_count=1``) the
    allocated IDs and the wire bytes are identical to the unsharded
    protocol.  Requests are handled serially per shard — the map is a
    single-point service per partition (paper §V-F); horizontal scale
    comes from adding shards, not from threading one shard.

    ``service_time`` models the per-request processing cost of a
    production deployment where each shard runs on its own node (the
    paper boots the map on a dedicated machine).  It defaults to 0 —
    purely in-process tests pay nothing — and exists so the sharding
    benchmark can measure queueing behaviour rather than the GIL.
    """

    #: Default allocations between compacted snapshots (WAL truncates
    #: after each), when a durability store is attached.
    DEFAULT_SNAPSHOT_EVERY = 1024

    def __init__(
        self,
        kernel: SimKernel,
        ip: str,
        port: int,
        shard_index: int = 0,
        shard_count: int = 1,
        service_time: float = 0.0,
        ring: Optional[ShardRing] = None,
        store=None,
        snapshot_every: Optional[int] = None,
    ):
        if ring is not None:
            if ring.shard_count != shard_count:
                raise TaintMapError(
                    f"ring has {ring.shard_count} shards but server was "
                    f"given shard_count={shard_count}"
                )
        if not 0 <= shard_index < shard_count:
            raise TaintMapError(
                f"shard index {shard_index} outside 0..{shard_count - 1}"
            )
        self._kernel = kernel
        self.address: Address = (ip, port)
        self.shard_index = shard_index
        self.shard_count = shard_count
        #: The shard layout this server currently routes ownership by.
        #: ``None`` for standalone servers booted without address
        #: knowledge — they still detect misroutes but reply with an
        #: empty STALE_RING payload (nothing to re-route with).
        self._ring = ring
        self.ring_epoch = ring.epoch if ring is not None else 0
        self._router = (
            ring.router() if ring is not None
            else ShardRouter(shard_count, self.ring_epoch)
        )
        #: True once this shard was drained by a scale-in: it keeps
        #: answering lookups for already-forwarded state but refuses new
        #: registrations (STALE_RING with the successor ring).
        self.retired = ring is not None and shard_index in ring.retired
        self._service_time = service_time
        self._service_lock = threading.Lock()
        self._listener = None
        self._lock = threading.Lock()
        self._by_key: dict[bytes, int] = {}
        self._by_gid: dict[int, bytes] = {}
        self._next_gid = 1
        self._running = False
        self._connections: list[TcpEndpoint] = []
        self.stats = TaintMapStats()
        #: Durability: WAL + snapshot store (None = in-memory only, the
        #: historical behaviour).  Recovery runs *now*, before the
        #: listener exists, so no request can observe half-replayed
        #: state.
        self._store = store
        self._snapshot_every = (
            self.DEFAULT_SNAPSHOT_EVERY if snapshot_every is None
            else max(1, int(snapshot_every))
        )
        self._writes_since_snapshot = 0
        if store is not None:
            self._recover()
        #: Per-shard telemetry: request-handling latency plus the
        #: TaintMapStats counters folded in at scrape time.
        self.metrics = MetricsRegistry({"node": f"taintmap-shard{shard_index}"})
        self._handle_seconds = self.metrics.histogram(
            "dista_taintmap_server_handle_seconds",
            "Per-request Taint Map handling time (server side) in seconds.",
            ("op",),
        )
        self.metrics.register_collector(self._stats_samples)

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
        try:
            while self._running:
                head = endpoint.recv(1)
                if not head:
                    return
                (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
                payload = _recv_exact(endpoint, length) if length else b""
                if head[0] == OP_MUX_HELLO:
                    # Upgrade: the rest of this connection speaks the
                    # correlation-id multiplexed framing.
                    _send_frame(endpoint, bytes([STATUS_OK]), b"")
                    self._serve_mux(endpoint)
                    return
                # Serial per-shard handling: one shard is one single-point
                # service; concurrency comes from running more shards.
                with self._service_lock:
                    if self._service_time > 0.0:
                        time.sleep(self._service_time)
                    started = time.perf_counter()
                    status, response = self._handle(head[0], payload)
                    self._handle_seconds.labels(op=op_name(head[0])).observe(
                        time.perf_counter() - started
                    )
                _send_frame(endpoint, bytes([status]), response)
        except Exception:
            pass
        finally:
            endpoint.close()

    def _serve_mux(self, endpoint: TcpEndpoint) -> None:
        """Accept loop for one upgraded (multiplexed) connection.

        Each frame is ``corr:4`` + the unchanged sync request frame
        (``op:1 | len:4 | payload``); each response echoes the
        correlation id in front of the unchanged sync response frame.
        Requests pipeline: the client never waits for one response
        before sending the next, so thousands of registrations can be
        in flight on this single connection.  Handling stays serial per
        shard (the single-point service model) but a batched request
        pays ``service_time`` once for its whole window.
        """
        while self._running:
            first = endpoint.recv(1)
            if not first:
                return
            (corr,) = struct.unpack(">I", first + _recv_exact(endpoint, 3))
            op = _recv_exact(endpoint, 1)[0]
            (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
            payload = _recv_exact(endpoint, length) if length else b""
            with self._service_lock:
                if self._service_time > 0.0:
                    time.sleep(self._service_time)
                started = time.perf_counter()
                status, response = self._handle(op, payload)
                self._handle_seconds.labels(op=op_name(op)).observe(
                    time.perf_counter() - started
                )
            endpoint.send_all(
                struct.pack(">I", corr)
                + bytes([status])
                + struct.pack(">I", len(response))
                + response
            )

    def _handle(self, op: int, payload: bytes) -> tuple[int, bytes]:
        if op == OP_REGISTER:
            with self.stats._lock:
                self.stats.register_requests += 1
                self.stats.register_entries += 1
            try:
                tags = frozenset(deserialize_tags(payload))
            except Exception:
                return STATUS_BAD_REQUEST, b""
            if self._misrouted(tags):
                return self._stale_ring_reply()
            try:
                gid = self._register(tags, payload)
            except TaintMapExhaustedError:
                # Structured, non-retried: the connection stays open, so
                # the client surfaces this instead of burning a failover.
                return STATUS_GID_EXHAUSTED, b""
            return STATUS_OK, struct.pack(">I", gid)
        if op == OP_LOOKUP:
            with self.stats._lock:
                self.stats.lookup_requests += 1
                self.stats.lookup_entries += 1
            if len(payload) != 4:
                return STATUS_BAD_REQUEST, b""
            (gid,) = struct.unpack(">I", payload)
            with self._lock:
                serialized = self._by_gid.get(gid)
            if serialized is None:
                return STATUS_UNKNOWN_GID, b""
            return STATUS_OK, serialized
        if op == OP_REGISTER_MANY:
            with self.stats._lock:
                self.stats.register_requests += 1
            try:
                entries = _split_batch_register(payload)
                taint_sets = [frozenset(deserialize_tags(entry)) for entry in entries]
            except Exception:
                return STATUS_BAD_REQUEST, b""
            with self.stats._lock:
                self.stats.register_entries += len(entries)
            if any(self._misrouted(tags) for tags in taint_sets):
                return self._stale_ring_reply()
            # One _register per entry so subclass hooks (HA replication)
            # see every registration individually.
            try:
                gids = [
                    self._register(tags, entry)
                    for tags, entry in zip(taint_sets, entries)
                ]
            except TaintMapExhaustedError:
                return STATUS_GID_EXHAUSTED, b""
            return STATUS_OK, struct.pack(f">{len(gids)}I", *gids)
        if op == OP_LOOKUP_MANY:
            with self.stats._lock:
                self.stats.lookup_requests += 1
            try:
                (count,) = struct.unpack(">H", payload[:2])
                gids = struct.unpack(f">{count}I", payload[2:])
            except Exception:
                return STATUS_BAD_REQUEST, b""
            with self.stats._lock:
                self.stats.lookup_entries += count
            out = []
            with self._lock:
                for gid in gids:
                    serialized = self._by_gid.get(gid)
                    if serialized is None:
                        return STATUS_UNKNOWN_GID, struct.pack(">I", gid)
                    out.append(struct.pack(">I", len(serialized)) + serialized)
            return STATUS_OK, b"".join(out)
        if op == OP_RING_UPDATE:
            try:
                ring = ShardRing.decode(payload)
            except TaintMapError:
                return STATUS_BAD_REQUEST, b""
            self._adopt_ring(ring)
            return STATUS_OK, struct.pack(">I", self.ring_epoch)
        if op == OP_HANDOFF_BEGIN:
            if len(payload) != 4:
                return STATUS_BAD_REQUEST, b""
            (epoch,) = struct.unpack(">I", payload)
            # Handoff always streams under the *successor* ring; a shard
            # already past that epoch would be re-migrating stale state.
            if epoch < self.ring_epoch:
                return STATUS_BAD_REQUEST, b""
            return STATUS_OK, b""
        if op == OP_HANDOFF_CHUNK:
            try:
                entries = _split_handoff_chunk(payload)
            except Exception:
                return STATUS_BAD_REQUEST, b""
            adopted = 0
            for gid, serialized in entries:
                if self._adopt_entry(gid, serialized):
                    adopted += 1
            if adopted:
                with self.stats._lock:
                    self.stats.handoff_entries += adopted
            return STATUS_OK, struct.pack(">I", adopted)
        if op == OP_HANDOFF_END:
            if len(payload) != 4:
                return STATUS_BAD_REQUEST, b""
            with self.stats._lock:
                total = self.stats.handoff_entries
            return STATUS_OK, struct.pack(">I", total)
        return STATUS_BAD_REQUEST, b""

    def _misrouted(self, tags: frozenset[TaintTag]) -> bool:
        """A register that the consistent-hash ring owns elsewhere.

        A retired (drained) shard owns nothing: it keeps answering
        lookups for state it forwarded but bounces every registration
        to the successor ring.
        """
        if self.retired:
            return True
        if self.shard_count == 1:
            return False
        return self._router.shard_for_key(taint_key(tags)) != self.shard_index

    def _stale_ring_reply(self) -> tuple[int, bytes]:
        """Misroute reply: the client's ring is behind (or it guessed) —
        hand back the ring we route by so it can re-route, or an empty
        payload for standalone servers that were never given addresses."""
        encoded = self._ring.encode() if self._ring is not None else b""
        return STATUS_STALE_RING, encoded

    # -- durability (WAL + snapshots) ------------------------------------- #

    def _recover(self) -> None:
        """Rebuild state from snapshot + WAL replay (ctor-time, pre-listen).

        The allocator resumes past the high-water mark of every
        own-shard GID ever made durable — **no GID is ever renumbered**.
        Replay is setdefault-idempotent, so a WAL retained past its
        snapshot (a crash between snapshot write and log truncate)
        replays as a no-op; a torn tail record (a crash mid-append) is
        counted and dropped — its allocation was never acknowledged
        durably, so dropping it is the correct recovery.
        """
        raw_snapshot = self._store.read_snapshot()
        recovered_ring: Optional[ShardRing] = None
        if raw_snapshot:
            try:
                next_gid, ring_bytes, gid_entries, key_entries = (
                    durability.decode_snapshot(raw_snapshot)
                )
            except (ValueError, struct.error) as exc:
                raise TaintMapError(
                    f"corrupt taint map snapshot: {exc!r}"
                ) from exc
            self._next_gid = max(self._next_gid, next_gid)
            for gid, serialized in gid_entries:
                self._by_gid[gid] = serialized
            for key, gid in key_entries:
                self._by_key[key] = gid
            if ring_bytes:
                recovered_ring = ShardRing.decode(ring_bytes)
        records, torn = durability.iter_records(self._store.read_log())
        replayed = 0
        for kind, payload in records:
            if kind == durability.WAL_ENTRY:
                if len(payload) < 4:
                    continue
                (gid,) = struct.unpack(">I", payload[:4])
                serialized = payload[4:]
                if gid not in self._by_gid:
                    self._by_gid[gid] = serialized
                    replayed += 1
                try:
                    key = taint_key(frozenset(deserialize_tags(serialized)))
                except Exception:
                    continue
                # Log order *is* arrival order, so setdefault rebuilds
                # exactly the dedup decisions the live shard made.
                self._by_key.setdefault(key, gid)
            elif kind == durability.WAL_RING:
                try:
                    ring = ShardRing.decode(payload)
                except TaintMapError:
                    continue
                if recovered_ring is None or ring.epoch > recovered_ring.epoch:
                    recovered_ring = ring
        for gid in self._by_gid:
            if gid_shard(gid) == self.shard_index:
                self._next_gid = max(self._next_gid, (gid & GID_SEQ_MASK) + 1)
        if recovered_ring is not None and (
            self._ring is None or recovered_ring.epoch > self.ring_epoch
        ):
            # Already durable — adopt without re-logging.  Restoring the
            # epoch is what lets a shard that crashed mid-migration
            # re-serve OP_HANDOFF_* (BEGIN checks the epoch) when the
            # coordinator resumes.
            if recovered_ring.shard_count > self.shard_index:
                self._router = recovered_ring.router()
                self._ring = recovered_ring
                self.ring_epoch = recovered_ring.epoch
                self.shard_count = recovered_ring.shard_count
                self.retired = self.shard_index in recovered_ring.retired
        self.stats.global_taints = len(self._by_gid)
        self.stats.wal_replayed = replayed
        self.stats.wal_torn_records = torn

    def _persist_entry_locked(self, gid: int, serialized: bytes) -> None:
        """Append one allocation/adoption to the WAL.  Caller holds
        ``_lock``, so the append lands before the response that
        acknowledges the GID can leave the shard."""
        if self._store is None:
            return
        self._store.append_log(
            durability.pack_record(
                durability.WAL_ENTRY, struct.pack(">I", gid) + serialized
            )
        )
        self._writes_since_snapshot += 1
        self.stats.bump("wal_appends")

    def _maybe_snapshot(self) -> None:
        if self._store is None:
            return
        with self._lock:
            if self._writes_since_snapshot >= self._snapshot_every:
                self._snapshot_locked()

    def snapshot_now(self) -> None:
        """Force a compacted snapshot + WAL truncate (tests, shutdown)."""
        if self._store is None:
            return
        with self._lock:
            self._snapshot_locked()

    def _snapshot_locked(self) -> None:
        data = durability.encode_snapshot(
            self._next_gid,
            self._ring.encode() if self._ring is not None else b"",
            list(self._by_gid.items()),
            list(self._by_key.items()),
        )
        # Write-then-truncate under the allocation lock: no append can
        # race between the state capture and the truncate, so the worst
        # crash outcome is a fresh snapshot plus a stale WAL — whose
        # replay is setdefault-idempotent.
        self._store.write_snapshot(data)
        self._store.truncate_log()
        self._writes_since_snapshot = 0
        self.stats.bump("wal_snapshots")

    # -- elastic resharding (control plane) ------------------------------- #

    def _adopt_ring(self, ring: ShardRing) -> bool:
        """Atomically flip to a newer ring (no-op for older epochs).

        Called from ``_handle``, which runs under ``_service_lock`` — no
        register can interleave with the flip, so every registration is
        judged under exactly one ring.
        """
        if ring.epoch <= self.ring_epoch:
            return False
        if ring.shard_count <= self.shard_index:
            raise TaintMapError(
                f"ring epoch {ring.epoch} has {ring.shard_count} shards; "
                f"shard {self.shard_index} is not in it"
            )
        self._router = ring.router()
        self._ring = ring
        self.ring_epoch = ring.epoch
        self.shard_count = ring.shard_count
        self.retired = self.shard_index in ring.retired
        if self._store is not None:
            # Persisted so a restarted shard resumes judging requests
            # (and serving handoffs) under the epoch it had adopted.
            self._store.append_log(
                durability.pack_record(durability.WAL_RING, ring.encode())
            )
            self.stats.bump("wal_appends")
        return True

    def _adopt_entry(self, gid: int, serialized: bytes) -> bool:
        """Install one migrated ``(gid, taint)`` pair.

        Setdefault semantics on *both* maps: if this shard already has
        the key (it allocated its own GID for it mid-handoff, or an
        earlier chunk was replayed after a coordinator retry), the
        existing dedup entry wins — but the incoming GID is still
        installed in ``_by_gid`` so it resolves here (drain forwarding
        depends on that).  ``global_taints`` counts the resolvable-GID
        population, so it bumps exactly when a *new* GID lands: a
        replayed chunk whose key was since re-registered locally is a
        stats no-op, never a double count.
        """
        try:
            key = taint_key(frozenset(deserialize_tags(serialized)))
        except Exception:
            return False
        with self._lock:
            new_gid = gid not in self._by_gid
            if new_gid:
                self._by_gid[gid] = serialized
            new_key = key not in self._by_key
            if new_key:
                self._by_key[key] = gid
            if new_gid:
                self._persist_entry_locked(gid, serialized)
        if new_gid:
            with self.stats._lock:
                self.stats.global_taints += 1
            self._maybe_snapshot()
        return new_gid or new_key

    def handoff_plan(
        self, ring: ShardRing, min_seq: int = 1, max_seq: Optional[int] = None
    ) -> dict[int, list[tuple[int, bytes]]]:
        """Entries this shard must hand to new owners under ``ring``.

        Only GIDs *this shard allocated* are considered (adopted foreign
        entries are re-handed-off by their allocating shard, which also
        kept them), filtered to the ``[min_seq, max_seq)`` sequence
        window so the coordinator can do a bulk pass and then a small
        delta pass for registrations that raced the bulk copy.
        """
        router = ring.router()
        plan: dict[int, list[tuple[int, bytes]]] = {}
        with self._lock:
            if max_seq is None:
                max_seq = self._next_gid
            for key, gid in self._by_key.items():
                if gid_shard(gid) != self.shard_index:
                    continue
                seq = gid & GID_SEQ_MASK
                if not min_seq <= seq < max_seq:
                    continue
                owner = router.shard_for_key(key)
                if owner == self.shard_index:
                    continue
                plan.setdefault(owner, []).append((gid, self._by_gid[gid]))
        return plan

    def drain_plan(
        self,
        ring: ShardRing,
        forward_shard: int,
        min_seq: int = 1,
        max_seq: Optional[int] = None,
    ) -> dict[int, list[tuple[int, bytes]]]:
        """Everything this shard must push out before retiring under
        ``ring`` (the successor ring in which it is retired).

        Two obligations:

        * every ``_by_gid`` entry — own *and* adopted foreign — goes to
          ``forward_shard``, the surviving shard whose address takes
          over the retired slot, so lookups self-routing by the drained
          shard's GID bits stay answerable forever (GID tombstone
          forwarding);
        * every ``_by_key`` dedup entry goes to that key's owner under
          the successor ring (the epoch bump re-salts every vnode, so
          ownership moves for *all* keys, not just this shard's), so
          future registrations keep deduplicating to the original GID.

        Own-shard GIDs are filtered to the ``[min_seq, max_seq)`` window
        for the coordinator's bulk/delta split; adopted foreign entries
        carry no position in this shard's sequence space and ship in the
        bulk pass only (``min_seq <= 1``).  Duplicates across the two
        obligations are fine — adoption is idempotent.
        """
        router = ring.router()
        plan: dict[int, list[tuple[int, bytes]]] = {}
        with self._lock:
            if max_seq is None:
                max_seq = self._next_gid

            def in_window(gid: int) -> bool:
                if gid_shard(gid) != self.shard_index:
                    return min_seq <= 1
                return min_seq <= (gid & GID_SEQ_MASK) < max_seq

            for gid, serialized in self._by_gid.items():
                if in_window(gid):
                    plan.setdefault(forward_shard, []).append((gid, serialized))
            for key, gid in self._by_key.items():
                if not in_window(gid):
                    continue
                owner = router.shard_for_key(key)
                if owner not in (forward_shard, self.shard_index):
                    plan.setdefault(owner, []).append((gid, self._by_gid[gid]))
        return plan

    @property
    def next_seq(self) -> int:
        """Watermark for the coordinator's bulk/delta handoff split."""
        with self._lock:
            return self._next_gid

    def _register(self, tags: frozenset[TaintTag], serialized: bytes) -> int:
        key = taint_key(tags)
        with self._lock:
            gid = self._by_key.get(key)
            if gid is not None:
                return gid
            seq = self._next_gid
            if seq > GID_SEQ_MASK:
                raise TaintMapExhaustedError(
                    f"shard {self.shard_index} exhausted its {GID_SHARD_SHIFT}-bit "
                    "Global-ID sequence space"
                )
            self._next_gid += 1
            gid = make_gid(self.shard_index, seq)
            self._by_key[key] = gid
            self._by_gid[gid] = serialized
            self._persist_entry_locked(gid, serialized)
        with self.stats._lock:
            self.stats.global_taints += 1
        self._maybe_snapshot()
        return gid

    @property
    def gid_headroom(self) -> int:
        """Sequence numbers left before this shard exhausts its GID space."""
        with self._lock:
            return max(0, GID_SEQ_MASK - self._next_gid + 1)

    # -- introspection -------------------------------------------------------- #

    def global_taint_count(self) -> int:
        with self._lock:
            return len(self._by_key)

    def _stats_samples(self) -> dict:
        """Scrape-time fold of :class:`TaintMapStats` into the registry."""
        snap = self.stats.snapshot()
        return {
            "dista_taintmap_server_requests_total": {
                "type": "counter",
                "help": "Requests handled by this Taint Map shard.",
                "samples": [
                    {"labels": {"kind": "register"}, "value": snap["register_requests"]},
                    {"labels": {"kind": "lookup"}, "value": snap["lookup_requests"]},
                ],
            },
            "dista_taintmap_server_entries_total": {
                "type": "counter",
                "help": "Batch entries processed by this Taint Map shard.",
                "samples": [
                    {"labels": {"kind": "register"}, "value": snap["register_entries"]},
                    {"labels": {"kind": "lookup"}, "value": snap["lookup_entries"]},
                ],
            },
            "dista_taintmap_global_taints": {
                "type": "gauge",
                "help": "Distinct global taints registered on this shard.",
                "samples": [{"labels": {}, "value": snap["global_taints"]}],
            },
            "dista_ring_epoch": {
                "type": "gauge",
                "help": "Hash-ring epoch this participant currently routes by.",
                "samples": [{"labels": {}, "value": self.ring_epoch}],
            },
            "dista_handoff_entries_total": {
                "type": "counter",
                "help": "Migrated (GID, taint) entries adopted by this shard.",
                "samples": [{"labels": {}, "value": snap["handoff_entries"]}],
            },
            "dista_gid_headroom": {
                "type": "gauge",
                "help": (
                    "Sequence numbers left before this shard exhausts its "
                    "Global-ID allocation space."
                ),
                "samples": [{"labels": {}, "value": self.gid_headroom}],
            },
            "dista_wal_appends_total": {
                "type": "counter",
                "help": "Records appended to this shard's write-ahead log.",
                "samples": [{"labels": {}, "value": snap["wal_appends"]}],
            },
            "dista_wal_replayed_total": {
                "type": "counter",
                "help": "WAL entries replayed during the last recovery.",
                "samples": [{"labels": {}, "value": snap["wal_replayed"]}],
            },
            "dista_wal_snapshots_total": {
                "type": "counter",
                "help": "Compacted snapshots written by this shard.",
                "samples": [{"labels": {}, "value": snap["wal_snapshots"]}],
            },
            "dista_wal_torn_records_total": {
                "type": "counter",
                "help": "Torn WAL tail records dropped during recovery.",
                "samples": [{"labels": {}, "value": snap["wal_torn_records"]}],
            },
            "dista_drain_entries_total": {
                "type": "counter",
                "help": "Entries this shard pushed out while being drained.",
                "samples": [{"labels": {}, "value": snap["drain_entries"]}],
            },
            "dista_drain_retired": {
                "type": "gauge",
                "help": "1 once this shard has been drained (retired), else 0.",
                "samples": [{"labels": {}, "value": 1 if self.retired else 0}],
            },
        }


class ShardedTaintMapService:
    """Boots and owns N Taint Map shards on one service node.

    Shard *i* listens on ``base_port + i``.  The single-shard default
    (``shard_count=1``) is exactly one classic :class:`TaintMapServer`.
    """

    def __init__(
        self,
        kernel: SimKernel,
        ip: str,
        base_port: int,
        shard_count: int = 1,
        service_time: float = 0.0,
        store_factory=None,
        snapshot_every: Optional[int] = None,
    ):
        self._kernel = kernel
        self.ip = ip
        self.base_port = base_port
        self._service_time = service_time
        #: ``store_factory(shard_index)`` → durability store for that
        #: shard (None = in-memory shards, the historical behaviour).
        #: Kept so :meth:`restart_shard` can re-attach the same store.
        self._store_factory = store_factory
        self._snapshot_every = snapshot_every
        self._stores: dict[int, object] = {}
        ring = ShardRing(
            0, [(ip, base_port + index) for index in range(shard_count)]
        )
        self._ring = ring
        self.servers = [
            TaintMapServer(
                kernel,
                ip,
                base_port + index,
                shard_index=index,
                shard_count=shard_count,
                service_time=service_time,
                ring=ring,
                store=self._store_for(index),
                snapshot_every=snapshot_every,
            )
            for index in range(shard_count)
        ]

    def _store_for(self, shard_index: int):
        if self._store_factory is None:
            return None
        store = self._stores.get(shard_index)
        if store is None:
            store = self._store_factory(shard_index)
            self._stores[shard_index] = store
        return store

    @property
    def addresses(self) -> list[Address]:
        return [server.address for server in self.servers]

    @property
    def ring(self) -> ShardRing:
        """The newest ring this service knows (bumped by scale-outs)."""
        return self._ring

    def add_shards(self, ring: ShardRing, server_factory=None) -> list[TaintMapServer]:
        """Boot (and start) the shards that ``ring`` adds over the
        current layout.  New servers are born on the successor ring —
        they judge every registration under the new epoch from their
        first request.  The service's advertised ring flips only after
        the coordinator finishes migration (:meth:`adopt_ring`)."""
        if ring.shard_count <= len(self.servers):
            raise TaintMapError(
                f"ring has {ring.shard_count} shards; service already runs "
                f"{len(self.servers)}"
            )
        # Compare against the *ring's* addresses, not the server
        # objects' — after a drain, a retired slot advertises its
        # forwarding address while the (stopped) server object keeps
        # the original one.
        if ring.addresses[: len(self.servers)] != self._ring.addresses:
            raise TaintMapError("scale-out ring must preserve existing shard addresses")
        factory = server_factory or TaintMapServer
        added = []
        for index in range(len(self.servers), ring.shard_count):
            ip, port = ring.addresses[index]
            server = factory(
                self._kernel,
                ip,
                port,
                shard_index=index,
                shard_count=ring.shard_count,
                service_time=self._service_time,
                ring=ring,
                store=self._store_for(index),
                snapshot_every=self._snapshot_every,
            )
            server.start()
            added.append(server)
        self.servers.extend(added)
        return added

    def adopt_ring(self, ring: ShardRing) -> None:
        if ring.epoch > self._ring.epoch:
            self._ring = ring

    @property
    def retired(self) -> frozenset[int]:
        """Shard indices drained by a completed scale-in."""
        return self._ring.retired

    def restart_shard(self, shard_index: int, server_factory=None) -> TaintMapServer:
        """Crash-restart shard ``shard_index``: stop it (if running) and
        boot a replacement on the same address that recovers from the
        shard's durability store.  Only meaningful with a
        ``store_factory`` — an in-memory shard cannot restart without
        renumbering GIDs, which is exactly the bug durability removes.
        """
        if self._store_factory is None:
            raise TaintMapError(
                "restart_shard requires a durable service (store_factory)"
            )
        old = self.servers[shard_index]
        old.stop()
        factory = server_factory or TaintMapServer
        ip, port = old.address
        server = factory(
            self._kernel,
            ip,
            port,
            shard_index=shard_index,
            shard_count=self._ring.shard_count,
            service_time=self._service_time,
            ring=self._ring,
            store=self._store_for(shard_index),
            snapshot_every=self._snapshot_every,
        )
        server.start()
        self.servers[shard_index] = server
        return server

    def stop_retired(self) -> list[int]:
        """Stop the servers of retired shards.

        Call only after every client routes by the successor ring — the
        retired slots' GIDs then resolve at their forwarding shard, so
        nothing is lost by taking the drained processes down.
        """
        stopped = []
        for index in sorted(self._ring.retired):
            server = self.servers[index]
            if server._running:
                server.stop()
                stopped.append(index)
        return stopped

    def start(self) -> "ShardedTaintMapService":
        for server in self.servers:
            server.start()
        return self

    def stop(self) -> None:
        for server in self.servers:
            server.stop()

    def global_taint_count(self) -> int:
        return sum(server.global_taint_count() for server in self.servers)

    def stats_snapshot(self) -> dict:
        """Counter totals across every shard (one §V-F aggregate)."""
        return TaintMapStats.merge(
            *(server.stats.snapshot() for server in self.servers)
        )

    def metrics_registries(self) -> list:
        return [server.metrics for server in self.servers]


def _normalize_addresses(address) -> list[Address]:
    """Accept one ``(ip, port)`` or a sequence of them (one per shard)."""
    if (
        isinstance(address, tuple)
        and len(address) == 2
        and isinstance(address[0], str)
    ):
        return [address]
    addresses = [tuple(entry) for entry in address]
    if not addresses:
        raise TaintMapError("taint map address list is empty")
    if len(addresses) > MAX_SHARDS:
        raise TaintMapError(
            f"{len(addresses)} shard addresses exceed the {MAX_SHARDS}-shard "
            f"GID namespace ({GID_SHARD_BITS} shard bits)"
        )
    return addresses


class TaintMapClient:
    """Per-node connection to the Taint Map, with both-direction caches.

    ``address`` is either a single ``(ip, port)`` — the classic
    single-point deployment — or a sequence of shard addresses in shard
    order.  Registrations route by consistent hash of the canonical
    taint key; lookups route by the shard bits of the received GID.

    Requests travel over one
    :class:`~repro.core.transport.TaintMapTransport`: a multiplexed
    connection per shard, sent on the calling thread, with concurrent
    cache misses group-committed into one batched round-trip per shard.
    ``transport_options`` tune it (``max_batch``, ``request_deadline_s``,
    ``max_pending``).  The client owns one reader
    thread per connected shard, so every client must be released with
    :meth:`close`.

    ``cache_enabled=False`` exists only for the ablation benchmark — it
    re-registers every byte's taint, demonstrating why Fig. 9's step ②
    ("does not need to request a Global ID again") matters.
    """

    #: Consecutive ``STATUS_STALE_RING`` replies tolerated on one
    #: logical registration before giving up.  A live scale-out settles
    #: in one or two hops (adopt the reply's ring, re-route); a genuine
    #: misconfiguration keeps answering stale and must surface.
    RING_RETRY_LIMIT = 8

    def __init__(
        self,
        node,
        address: Union[Address, Sequence[Address]],
        cache_enabled: bool = True,
        **transport_options,
    ):
        # Imported here: the transport module imports this one.
        from repro.core.transport import TaintMapTransport

        self._node = node
        #: Replica candidates per shard; the base client has exactly one
        #: per shard, :class:`~repro.core.ha.FailoverTaintMapClient`
        #: appends a standby to each.
        self._shard_replicas: list[list[Address]] = [
            [addr] for addr in _normalize_addresses(address)
        ]
        self._active = [0] * len(self._shard_replicas)
        self._ring = ShardRing(0, [replicas[0] for replicas in self._shard_replicas])
        self._router = self._ring.router()
        self._cache_enabled = cache_enabled
        self._ring_lock = threading.Lock()
        #: Client-side counters: cache hits/misses.
        self.stats = TaintMapStats()
        #: taint node identity → (Global ID, taint handle).  Keyed by
        #: ``id(node)`` (not the per-tree rank, which collides between
        #: different trees when a foreign taint handle is registered).
        #: The entry holds a strong reference to the taint so its node
        #: can never be garbage-collected while cached — otherwise a
        #: reused ``id()`` could alias a dead node's Global ID.
        self._gid_cache = _Cache(self.stats)
        #: Global ID → local Taint handle.
        self._taint_cache = _Cache(self.stats)
        self.requests_sent = 0
        #: Node telemetry (None for bare test nodes without a registry).
        self._metrics = getattr(node, "metrics", None)
        self._rpc_seconds = None
        self._requests_total = None
        self._batch_entries = None
        if self._metrics is not None:
            self._rpc_seconds = self._metrics.histogram(
                "dista_taintmap_rpc_seconds",
                "Client-observed Taint Map RPC latency in seconds.",
                ("op",),
            )
            self._requests_total = self._metrics.counter(
                "dista_taintmap_requests_total",
                "Taint Map requests issued by this node.",
                ("op",),
            )
            self._batch_entries = self._metrics.histogram(
                "dista_taintmap_batch_entries",
                "Entries per batched Taint Map request (per-shard sub-batch).",
                ("op",),
                lowest=1.0,
                buckets=16,
            )
        self.transport = TaintMapTransport(self, **transport_options)
        if self._metrics is not None:
            self._metrics.register_collector(self._cache_samples)

    def _cache_samples(self) -> dict:
        """Scrape-time fold of the client-side cache counters."""
        snap = self.stats.snapshot()
        return {
            "dista_cache_events_total": {
                "type": "counter",
                "help": "GID/taint cache events on this node's Taint Map client.",
                "samples": [
                    {"labels": {"event": "hit"}, "value": snap["cache_hits"]},
                    {"labels": {"event": "miss"}, "value": snap["cache_misses"]},
                ],
            },
            "dista_taintmap_close_errors_total": {
                "type": "counter",
                "help": "Socket errors suppressed while closing Taint Map connections.",
                "samples": [{"labels": {}, "value": snap["close_errors"]}],
            },
            "dista_ring_epoch": {
                "type": "gauge",
                "help": "Hash-ring epoch this participant currently routes by.",
                "samples": [{"labels": {}, "value": self._ring.epoch}],
            },
            "dista_stale_ring_retries_total": {
                "type": "counter",
                "help": "Registrations re-routed after a STALE_RING reply.",
                "samples": [{"labels": {}, "value": snap["stale_ring_retries"]}],
            },
        }

    def _observe_rpc(self, op: int, elapsed: float) -> None:
        if self._rpc_seconds is not None:
            name = op_name(op)
            self._rpc_seconds.labels(op=name).observe(elapsed)
            self._requests_total.labels(op=name).inc()

    def _observe_batch(self, op: int, entries: int) -> None:
        if self._batch_entries is not None:
            self._batch_entries.labels(op=op_name(op)).observe(entries)

    @property
    def shard_count(self) -> int:
        return len(self._shard_replicas)

    @property
    def ring(self) -> ShardRing:
        return self._ring

    # -- elastic resharding ---------------------------------------------- #

    def adopt_ring(self, ring: ShardRing) -> bool:
        """Move to a newer ring: grow per-shard transport state first,
        then swap the router.  Ordering matters — once the router can
        return a new shard index, every per-shard list must already have
        that slot, so concurrent requests never index past the end.
        Older/equal epochs are ignored (monotone adoption: two racing
        STALE_RING replies can arrive out of order).

        Retired slots **readdress** rather than grow: the drained
        shard's slot takes the forwarding (successor) address, the
        transport drops its cached connection to the drained process,
        and lookups for the drained shard's GID bits transparently dial
        the forward shard.  Readdressed slots are exempt from the
        address-preservation check — moving is their whole point.
        """
        with self._ring_lock:
            if ring.epoch <= self._ring.epoch:
                return False
            for index, replicas in enumerate(self._shard_replicas):
                if index >= ring.shard_count:
                    break
                if ring.addresses[index] == replicas[0]:
                    continue
                if index not in ring.retired:
                    raise TaintMapError(
                        "adopted ring does not preserve existing shard addresses"
                    )
            readdressed = []
            for index in sorted(ring.retired):
                if index >= len(self._shard_replicas):
                    continue
                if self._shard_replicas[index][0] == ring.addresses[index]:
                    continue
                self._shard_replicas[index] = list(
                    self._replicas_for_new_shard(index, ring.addresses[index])
                )
                self._active[index] = 0
                readdressed.append(index)
            for index in range(len(self._shard_replicas), ring.shard_count):
                self._shard_replicas.append(
                    list(self._replicas_for_new_shard(index, ring.addresses[index]))
                )
                self._active.append(0)
            grown = len(self._shard_replicas)
        # Outside the ring lock: the transport takes its own locks.
        self.transport.grow_to(grown)
        if readdressed:
            self.transport.readdress(readdressed)
        with self._ring_lock:
            if ring.epoch <= self._ring.epoch:
                return False  # a racing adopter moved us even further
            self._ring = ring
            self._router = ring.router()
        return True

    def _replicas_for_new_shard(self, index: int, address: Address) -> list[Address]:
        """Replica candidates for a shard that appeared via scale-out.
        The base client has exactly the primary; HA clients override to
        grow their per-shard standby lists with the ring."""
        return [address]

    def _stale_ring_error(self, shard: int, response: bytes) -> TaintMapStaleRingError:
        """Decode a STALE_RING reply, adopt its ring, build the retryable
        error.  The transport calls this before it re-routes a register
        frame under the adopted ring."""
        self.stats.bump("stale_ring_retries")
        ring = ShardRing.decode(response) if response else None
        adopted = self.adopt_ring(ring) if ring is not None else False
        return TaintMapStaleRingError(
            f"shard {shard} rejected a registration routed on a stale ring "
            f"(epoch {self._ring.epoch})",
            ring=ring,
            adopted=adopted,
        )

    def _shard_for_taint(self, taint: Taint) -> int:
        return self._router.shard_for_key(taint_key(taint.tags))

    def _shard_for_gid(self, gid: int) -> int:
        shard = gid_shard(gid)
        if shard >= len(self._shard_replicas):
            raise TaintMapError(
                f"Global ID {gid} names shard {shard}, but only "
                f"{len(self._shard_replicas)} shard(s) are configured"
            )
        return shard

    # -- sender side (Fig. 9 steps 1-2) ---------------------------------- #

    def gid_for(self, taint: Optional[Taint]) -> int:
        """Global ID for a taint; 0 for the empty taint."""
        if taint is None or taint.is_empty:
            return 0
        key = id(taint.node)
        if self._cache_enabled:
            cached = self._gid_cache.get(key)
            if cached is not None:
                return cached[0]
        # A STALE_RING reply is re-routed inside the transport, at most
        # RING_RETRY_LIMIT times, before this raises.
        response = self.transport.submit(
            self._shard_for_taint(taint), OP_REGISTER, serialize_tags(taint.tags)
        )
        (gid,) = struct.unpack(">I", response)
        self._record_registered(taint, gid)
        return gid

    def gids_for(self, taints: Sequence[Optional[Taint]]) -> list[int]:
        """Global IDs for a batch of taints, resolving all cache misses
        in one ``OP_REGISTER_MANY`` round-trip **per shard**, with the
        per-shard sub-batches issued concurrently.

        A message whose shadow forms *k* label runs therefore costs at
        most one request per shard on first send, and zero on resend
        (Fig. 9's "does not need to request a Global ID again", batched).
        """
        gids: list[Optional[int]] = [None] * len(taints)
        misses: dict[int, tuple[Taint, list[int]]] = {}
        for i, taint in enumerate(taints):
            if taint is None or taint.is_empty:
                gids[i] = 0
                continue
            key = id(taint.node)
            if self._cache_enabled:
                cached = self._gid_cache.get(key)
                if cached is not None:
                    gids[i] = cached[0]
                    continue
            if key in misses:
                misses[key][1].append(i)
            else:
                misses[key] = (taint, [i])
        if misses:
            self._register_misses(misses, gids)
        return gids  # type: ignore[return-value]

    def _register_misses(
        self,
        misses: dict[int, tuple[Taint, list[int]]],
        gids: list[Optional[int]],
    ) -> None:
        """One routed OP_REGISTER_MANY volley for a batch's cache misses."""
        by_shard: dict[int, list[tuple[Taint, list[int]]]] = {}
        for taint, positions in misses.values():
            by_shard.setdefault(self._shard_for_taint(taint), []).append(
                (taint, positions)
            )
        # A sub-batch beyond the 16-bit wire count is chunked into
        # several frames (each entry count fits ``>H``); the chunks
        # still fire concurrently with every other call.
        calls, chunks = [], []
        for shard, entries in by_shard.items():
            for chunk in _protocol_chunks(entries):
                calls.append(
                    (
                        shard,
                        OP_REGISTER_MANY,
                        _pack_batch_register(
                            [serialize_tags(taint.tags) for taint, _ in chunk]
                        ),
                    )
                )
                chunks.append(chunk)
                self._observe_batch(OP_REGISTER_MANY, len(chunk))
        responses = self.transport.submit_many(calls)
        for chunk, response in zip(chunks, responses):
            new_gids = struct.unpack(f">{len(chunk)}I", response)
            for (taint, positions), gid in zip(chunk, new_gids):
                self._record_registered(taint, gid)
                for i in positions:
                    gids[i] = gid

    def _record_registered(self, taint: Taint, gid: int) -> None:
        if self._cache_enabled:
            self._gid_cache.put(id(taint.node), (gid, taint))
            self._taint_cache.setdefault(gid, taint)
        # Paper §III-D.1: a tag's GlobalID field is set when it first
        # crosses the network (meaningful for singleton taints).
        if len(taint.tags) == 1:
            tag = next(iter(taint.tags))
            if tag.global_id == 0:
                tag.global_id = gid

    # -- receiver side (Fig. 9 steps 4-5) ---------------------------------- #

    def taint_for(self, gid: int) -> Optional[Taint]:
        """Resolve a received Global ID into a taint in *this* node's tree."""
        if gid == 0:
            return None
        if self._cache_enabled:
            cached = self._taint_cache.get(gid)
            if cached is not None:
                return cached
        serialized = self.transport.submit(
            self._shard_for_gid(gid), OP_LOOKUP, struct.pack(">I", gid)
        )
        return self._record_resolved(gid, serialized)

    def taints_for(self, gids: Sequence[int]) -> list[Optional[Taint]]:
        """Local taints for a batch of Global IDs, resolving all cache
        misses in one ``OP_LOOKUP_MANY`` round-trip per shard (sub-batches
        issued concurrently — receivers route by the GID's shard bits)."""
        taints: list[Optional[Taint]] = [None] * len(gids)
        misses: dict[int, list[int]] = {}
        for i, gid in enumerate(gids):
            if gid == 0:
                continue
            if self._cache_enabled:
                cached = self._taint_cache.get(gid)
                if cached is not None:
                    taints[i] = cached
                    continue
            misses.setdefault(gid, []).append(i)
        if misses:
            by_shard: dict[int, list[int]] = {}
            for gid in misses:
                by_shard.setdefault(self._shard_for_gid(gid), []).append(gid)
            calls, chunks = [], []
            for shard, pending in by_shard.items():
                for chunk in _protocol_chunks(pending):
                    calls.append((shard, OP_LOOKUP_MANY, _pack_batch_lookup(chunk)))
                    chunks.append(chunk)
                    self._observe_batch(OP_LOOKUP_MANY, len(chunk))
            responses = self.transport.submit_many(calls)
            for chunk, response in zip(chunks, responses):
                for gid, serialized in zip(
                    chunk, _split_batch_lookup_response(response, len(chunk))
                ):
                    taint = self._record_resolved(gid, serialized)
                    for i in misses[gid]:
                        taints[i] = taint
        return taints

    def _record_resolved(self, gid: int, serialized: bytes) -> Taint:
        tags = deserialize_tags(serialized)
        taint = self._node.tree.taint_for_tags(tags)
        if self._cache_enabled:
            self._taint_cache.put(gid, taint)
            self._gid_cache.setdefault(id(taint.node), (gid, taint))
        return taint

    def close(self) -> None:
        self.transport.close()
        # Detach the cache collector: a detached client must not keep
        # reporting (or keep itself alive) through the node's registry.
        if self._metrics is not None:
            self._metrics.unregister_collector(self._cache_samples)
