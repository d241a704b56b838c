"""Durable Taint Map storage: write-ahead log + compacted snapshots.

The Taint Map is the cluster-wide source of truth for taint tags, and
its one hard invariant is that **no Global ID is ever renumbered** —
every GID put on the wire must resolve forever.  A purely in-memory
server breaks that invariant on its first restart: ``_next_gid`` resets
to 1 and every tag already on the wire silently aliases a future
allocation.  This module supplies the persistence the invariant needs:

* an **append-only write-ahead log** of ``(gid, serialized_tags)``
  allocations, appended *before* a registration's response can leave
  the server, so a crash never acknowledges a GID it cannot replay;
* **periodic compacted snapshots** of the GID map, after which the log
  truncates — recovery cost stays proportional to the write rate since
  the last snapshot, not to the server's lifetime.  A snapshot holds the
  log's ``(gid, serialized_tags)`` entries and nothing derived from
  them: recovery rebuilds the key index and the next GID.

Both live behind a tiny pluggable store interface.  The default store
writes through the in-sim filesystem (:class:`FileTaintMapStore`) —
deliberately via :class:`~repro.runtime.fs.SimFileSystem` directly, not
the per-node ``NodeFiles`` facade, because WAL traffic must never fire
the file-read taint *source point* (the map's own bookkeeping cannot be
allowed to mint taints).  :class:`MemoryTaintMapStore` backs unit tests
that need to corrupt or replay logs surgically.

Record framing is self-delimiting and checksummed::

    kind:1 | len:4 | payload | crc32:4        (crc over kind + payload)

so a crash mid-append leaves a detectable **torn tail**: replay applies
every intact record and stops at the first incomplete or corrupt one
(counted, not fatal).  The torn record's allocation was by definition
never acknowledged durably, so dropping it is the correct recovery.

This module is intentionally below :mod:`repro.core.taintmap` in the
import graph: payloads are opaque bytes here, and the server owns their
semantics — no circular import.
"""

from __future__ import annotations

import struct
import threading
import zlib
from typing import Optional

#: The WAL record kind: payload ``gid:4 | serialized tag set``.
WAL_ENTRY = 1

#: Snapshot format version (first byte of every snapshot).
SNAPSHOT_VERSION = 3

_RECORD_HEAD = struct.Struct(">BI")
_CRC = struct.Struct(">I")


def pack_record(kind: int, payload: bytes) -> bytes:
    """One framed, checksummed WAL record."""
    return (
        _RECORD_HEAD.pack(kind, len(payload))
        + payload
        + _CRC.pack(zlib.crc32(bytes([kind]) + payload))
    )


def iter_records(raw: bytes) -> tuple[list[tuple[int, bytes]], int]:
    """Decode a log into ``(records, torn)``.

    ``records`` are the intact ``(kind, payload)`` prefix; ``torn`` is 1
    if the log ends in an incomplete or checksum-failing record (a crash
    mid-append), else 0.  Nothing after a torn record is trusted —
    framing downstream of a tear is unrecoverable by construction.
    """
    records: list[tuple[int, bytes]] = []
    pos = 0
    size = len(raw)
    while pos < size:
        if size - pos < _RECORD_HEAD.size:
            return records, 1
        kind, length = _RECORD_HEAD.unpack_from(raw, pos)
        body_end = pos + _RECORD_HEAD.size + length
        if body_end + _CRC.size > size:
            return records, 1
        payload = raw[pos + _RECORD_HEAD.size : body_end]
        (crc,) = _CRC.unpack_from(raw, body_end)
        if crc != zlib.crc32(bytes([kind]) + payload):
            return records, 1
        records.append((kind, payload))
        pos = body_end + _CRC.size
    return records, 0


# --------------------------------------------------------------------- #
# Snapshot codec
# --------------------------------------------------------------------- #

#: A snapshot's head (version, entry count) and one entry's head (GID,
#: taint length).
_SNAPSHOT_HEAD = struct.Struct(">BI")
_ENTRY_HEAD = struct.Struct(">II")


def encode_snapshot(entries) -> bytes:
    """``version:1 | count:4 | (gid:4 | length:4 | taint)*`` for the
    sized iterable ``entries`` of ``(gid, serialized taint)``."""
    out = [_SNAPSHOT_HEAD.pack(SNAPSHOT_VERSION, len(entries))]
    pack = _ENTRY_HEAD.pack
    for gid, serialized in entries:
        out.append(pack(gid, len(serialized)))
        out.append(serialized)
    return b"".join(out)


def decode_snapshot(raw: bytes) -> list[tuple[int, bytes]]:
    """Inverse of :func:`encode_snapshot`: the ``(gid, serialized
    taint)`` entries.  Raises ``ValueError`` or ``struct.error`` on
    anything else, an unknown version included."""
    version, count = _SNAPSHOT_HEAD.unpack_from(raw)
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unknown taint map snapshot version {version}")
    pos = _SNAPSHOT_HEAD.size
    entries = []
    for _ in range(count):
        gid, length = _ENTRY_HEAD.unpack_from(raw, pos)
        pos += _ENTRY_HEAD.size + length
        entries.append((gid, raw[pos - length : pos]))
    if pos != len(raw):
        raise ValueError(
            f"taint map snapshot of {len(raw)} bytes holds entries to byte {pos}"
        )
    return entries


# --------------------------------------------------------------------- #
# Stores
# --------------------------------------------------------------------- #


class MemoryTaintMapStore:
    """In-process store for tests: a byte log plus one snapshot slot.

    Exposes the raw ``log``/``snapshot`` bytes so recovery edge-case
    tests can tear records, retain a pre-snapshot log, or corrupt
    checksums without a filesystem in the way.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.log = b""
        self.snapshot: Optional[bytes] = None

    def append_log(self, record: bytes) -> None:
        with self._lock:
            self.log += record

    def read_log(self) -> bytes:
        with self._lock:
            return self.log

    def write_snapshot(self, data: bytes) -> None:
        with self._lock:
            self.snapshot = data

    def read_snapshot(self) -> Optional[bytes]:
        with self._lock:
            return self.snapshot

    def truncate_log(self) -> None:
        with self._lock:
            self.log = b""


class FileTaintMapStore:
    """The default store: WAL + snapshot files on the in-sim filesystem.

    The map persists ``{root}/wal`` and ``{root}/snapshot``.  Writes go
    through :class:`~repro.runtime.fs.SimFileSystem` directly — *not* the
    per-node ``NodeFiles`` facade — so the map's own durability traffic
    never fires the file-read taint source point.
    """

    def __init__(self, fs, root: str) -> None:
        self._fs = fs
        base = root.rstrip("/")
        self.wal_path = f"{base}/wal"
        self.snapshot_path = f"{base}/snapshot"

    def append_log(self, record: bytes) -> None:
        self._fs.append_file(self.wal_path, record)

    def read_log(self) -> bytes:
        if not self._fs.exists(self.wal_path):
            return b""
        return self._fs.read_file(self.wal_path).data

    def write_snapshot(self, data: bytes) -> None:
        self._fs.write_file(self.snapshot_path, data)

    def read_snapshot(self) -> Optional[bytes]:
        if not self._fs.exists(self.snapshot_path):
            return None
        return self._fs.read_file(self.snapshot_path).data

    def truncate_log(self) -> None:
        self._fs.write_file(self.wal_path, b"")
