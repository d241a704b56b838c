"""DisTA's wire formats (paper §III-C/D).

Two encodings, matching the instrumentation types:

* **Cell stream** (Type 1 streams and Type 3 TCP dispatchers): every data
  byte is followed by its taint's 4-byte Global ID — the fixed-length
  design that solves the "mismatched serialized taint length" problem
  (§III-D): a receiver can consume any prefix of the stream at 5-byte
  cell granularity, so partially received messages still deserialize.
  It also pins network overhead at exactly 5× (§V-F).

* **Packet envelope** (Type 2 datagrams and the datagram-channel
  methods): datagrams are atomic, so the taints ride in a trailer —
  ``MAGIC | version | data_len | data | gid * data_len``.  A receiver
  whose buffer is smaller than the payload keeps the taints aligned
  because the envelope always arrives whole (UDP preserves boundaries).

Global ID 0 is the empty taint and never touches the Taint Map.

Implementation note: shadows are run-length encoded
(:class:`~repro.taint.values.LabelRuns`), and the codecs work on runs,
so the Python-level cost is O(runs) — the way DisTA's JIT-compiled
instrumentation amortizes it.  Encoding emits each run as one repeated
byte pattern (``b"\\0" + gid`` per cell, or the bare ``gid`` in an
envelope trailer) and scatters the data bytes in with one slice
assignment.  Decoding views the GID column through numpy in native byte
order — equality and zero tests do not depend on it — and converts only
one GID per run back to its big-endian value.

The codecs resolve labels through one ``resolver``: any object with
``gids_for(labels)`` and ``taints_for(gids)``, each mapping a batch in
one call.  The wrappers pass the node's
:class:`~repro.core.taintmap.TaintMapClient`, so all of a message's
distinct labels resolve in a single Taint Map round-trip.
"""

from __future__ import annotations

import struct
from itertools import compress
from operator import attrgetter
from typing import Optional, Union

import numpy as np

from repro.errors import WireFormatError
from repro.taint.values import LabelRuns, TByteArray, TBytes

#: Width of a Global ID on the wire ("4 bytes in default", §V-F).
GID_WIDTH = 4

#: One data byte + one Global ID.
CELL_WIDTH = 1 + GID_WIDTH

#: Envelope magic for packet-oriented methods.
PACKET_MAGIC = b"\xd7\x5a"
PACKET_VERSION = 1
PACKET_HEADER = len(PACKET_MAGIC) + 1 + 4

_GID_BE = np.dtype(">u4")
#: One wire cell as a structured scalar: decoding views the byte stream
#: through this dtype directly — a single contiguous read, no
#: reshape/copy/view dance.  The GID column is read in native byte order
#: (see :func:`_label_runs`).
_CELL_DTYPE = np.dtype([("data", np.uint8), ("gid", np.uint32)])
assert _CELL_DTYPE.itemsize == CELL_WIDTH

#: A taint's tag, ``None`` only for the empty taint.
_TAG = attrgetter("tag")


def _gid_runs(labels: LabelRuns, resolver) -> list:
    """``(Global ID, byte count)`` per run, in order, gaps as GID 0.
    Each distinct run label resolves once, in one batch."""
    unique = labels.unique_labels()
    gid_of = dict(zip(unique, resolver.gids_for(unique)))
    gid_of[None] = 0
    return [(gid_of[label], end - start) for start, end, label in labels.iter_runs()]


def _label_runs(gids: np.ndarray, resolver) -> Optional[LabelRuns]:
    """Shadow runs from a per-byte GID column viewed in native byte order.

    Run boundaries are GID changes, and equality and zero tests do not
    depend on byte order, so only one GID per run is converted back to
    its big-endian value.  Each distinct GID resolves once, in one
    batch.  Returns ``None`` when every GID is 0 (untainted payload).

    The runs are adopted as canonical: non-zero GID runs are sorted and
    never abut one of the same GID, and the Taint Map binds distinct
    GIDs to distinct non-empty taints.  Only a log written before it
    refused the empty tag set can bind a GID to the empty taint: those
    runs are gaps, which the normalising constructor drops.
    """
    n = int(gids.shape[0])
    if n == 0:
        return None
    first = gids[0]
    if gids[-1] == first and not (gids != first).any():
        # One run covers every byte; this one pass also rejects an
        # all-zero column.
        if not first:
            return None
        starts = [0]
    else:
        # Several runs, so some GID is non-zero: no all-zero scan.
        starts = [0] + (np.flatnonzero(gids[1:] != gids[:-1]) + 1).tolist()
    run_gids = gids[starts].view(_GID_BE).tolist()
    ends = starts[1:] + [n]
    if 0 in run_gids:
        # Gaps: keep the non-zero runs only.
        starts, ends = list(compress(starts, run_gids)), list(compress(ends, run_gids))
        run_gids = list(compress(run_gids, run_gids))
    unique = sorted(set(run_gids))
    taints = resolver.taints_for(unique)
    labels = list(map(dict(zip(unique, taints)).__getitem__, run_gids))
    if None in taints or not all(map(_TAG, taints)):
        runs = LabelRuns(n, zip(starts, ends, labels))
        return runs if runs.has_labels() else None
    return LabelRuns._canonical(n, starts, ends, labels)


def encode_cells(data: TBytes, resolver) -> bytes:
    """Serialize data + per-byte labels into a 5-byte cell stream."""
    length = len(data)
    if length == 0:
        return b""
    labels = data.labels
    if labels is None:
        # Zero-taint fast path: every GID is 0, so the frame is just the
        # data column scattered into a zeroed cell grid — no resolver
        # call, no Taint Map round-trip.  The result is byte-identical
        # to the general path below.
        out = np.zeros((length, CELL_WIDTH), dtype=np.uint8)
        out[:, 0] = np.frombuffer(data.data, dtype=np.uint8)
        return out.tobytes()
    out = bytearray().join(
        (b"\0" + gid.to_bytes(GID_WIDTH, "big")) * count
        for gid, count in _gid_runs(labels, resolver)
    )
    out[0::CELL_WIDTH] = data.data
    return bytes(out)


class CellDecoder:
    """Stateful cell-stream decoder: tolerates arbitrary read boundaries.

    The kernel delivers whatever byte counts it likes; whole cells are
    decoded and partial trailing cells are kept as residue for the next
    ``feed`` — this is DisTA's receiver-side answer to partial reads.
    One decoder serves one stream and one reader at a time, so it also
    keeps that stream's :meth:`staging` array.
    """

    def __init__(self) -> None:
        #: Partial-cell bytes pending completion.  A mutable buffer so a
        #: feed with residue appends in amortized O(1) and trims in
        #: place, instead of re-copying ``residue + wire`` into a fresh
        #: bytes object on every call while a partial cell is pending.
        self._buffer = bytearray()
        self._staging = TByteArray.raw(0)

    def staging(self, size: int) -> TByteArray:
        """An array of at least ``size`` bytes to read wire bytes into.

        The same array is returned on every call, grown to the largest
        ``size`` asked for, so a receive allocates nothing the size of
        its wire bytes.  Its contents are only valid until the next read.
        """
        if len(self._staging) < size:
            self._staging = TByteArray.raw(size)
        return self._staging

    def feed(self, wire: Union[bytes, bytearray, memoryview], resolver) -> TBytes:
        """Decode every complete cell in ``residue + wire``.

        ``wire`` may be a view of a reused array (see :meth:`staging`):
        the result never refers to it."""
        buffered = bool(self._buffer)
        if buffered:
            self._buffer += wire
            stream: Union[bytes, bytearray] = self._buffer
        else:
            stream = wire
        cells = len(stream) // CELL_WIDTH
        if cells == 0:
            if not buffered:
                self._buffer += wire
            return TBytes.empty()
        body = np.frombuffer(stream, dtype=_CELL_DTYPE, count=cells)
        data = body["data"].tobytes()
        # All-zero GID columns mean an untainted payload: _label_runs
        # returns None and no taint resolution happens (the decode-side
        # zero-taint fast path).
        labels = _label_runs(body["gid"], resolver)
        consumed = cells * CELL_WIDTH
        # Release the numpy view before resizing: a bytearray refuses to
        # shrink while a buffer export is live.
        del body
        if buffered:
            del self._buffer[:consumed]
        elif consumed < len(wire):
            self._buffer += wire[consumed:]
        return TBytes._of(data, labels)

    @property
    def residue_len(self) -> int:
        return len(self._buffer)

    def check_clean_eof(self) -> None:
        """EOF with a partial cell buffered means a truncated stream."""
        if self._buffer:
            raise WireFormatError(
                f"stream ended inside a cell ({len(self._buffer)} residual bytes)"
            )


def wire_length(data_length: int) -> int:
    """Wire bytes needed to carry ``data_length`` data bytes as cells."""
    return data_length * CELL_WIDTH


def max_data_for_wire(wire_budget: int) -> int:
    """Data bytes representable within ``wire_budget`` wire bytes."""
    return wire_budget // CELL_WIDTH


def encode_packet(data: TBytes, resolver) -> bytes:
    """Serialize one datagram payload + taints into an envelope."""
    length = len(data)
    header = PACKET_MAGIC + bytes([PACKET_VERSION]) + struct.pack(">I", length)
    labels = data.labels
    if labels is None:
        # Zero-taint fast path: the GID trailer is all zeroes — emit it
        # directly, byte-identical to the general path below.
        return header + data.data + bytes(length * GID_WIDTH)
    return header + data.data + b"".join(
        gid.to_bytes(GID_WIDTH, "big") * count
        for gid, count in _gid_runs(labels, resolver)
    )


def is_enveloped(raw: bytes) -> bool:
    return raw[: len(PACKET_MAGIC)] == PACKET_MAGIC


def decode_packet(raw: bytes, resolver) -> TBytes:
    """Parse an envelope back into labelled bytes.

    Raises :class:`WireFormatError` on malformed envelopes; callers that
    want uninstrumented-sender interop should check :func:`is_enveloped`
    first and fall back to treating the payload as plain data.
    """
    if not is_enveloped(raw):
        raise WireFormatError("datagram payload lacks the DisTA envelope magic")
    if len(raw) < PACKET_HEADER:
        raise WireFormatError(
            f"envelope truncated: {len(raw)} bytes, header needs {PACKET_HEADER}"
        )
    version = raw[len(PACKET_MAGIC)]
    if version != PACKET_VERSION:
        raise WireFormatError(f"unsupported envelope version {version}")
    (length,) = struct.unpack(">I", raw[len(PACKET_MAGIC) + 1 : PACKET_HEADER])
    expected = PACKET_HEADER + length * CELL_WIDTH
    if len(raw) < expected:
        raise WireFormatError(
            f"envelope truncated: {len(raw)} bytes, header promises {expected}"
        )
    data = raw[PACKET_HEADER : PACKET_HEADER + length]
    gid_area = raw[PACKET_HEADER + length : expected]
    gids = np.frombuffer(gid_area, dtype=np.uint32)
    labels = _label_runs(gids, resolver)
    if labels is None:
        return TBytes.raw(data)
    return TBytes(data, labels)


def envelope_length(data_length: int) -> int:
    return PACKET_HEADER + data_length * CELL_WIDTH
