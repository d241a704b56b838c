"""The three JNI wrapper types (paper §III-C, Figs. 6–8).

The agent patches a node's :class:`~repro.jre.jni.JniTable` with the
closures built here.  Senders combine message bytes with their taints
(as Global-ID cells or packet envelopes) and push them through the
*original* JNI method; receivers invoke the original method into an
enlarged buffer and split the result back into data and taints.

* **Type 1 — stream oriented** (``socketRead0``/``socketWrite0``): the
  TCP byte stream becomes a stream of 5-byte cells; a per-fd
  :class:`~repro.core.wire.CellDecoder` absorbs arbitrary read
  boundaries and keeps the staging array the enlarged reads land in.
* **Type 2 — packet oriented** (``send``/``receive0``/``peekData``):
  each datagram is re-wrapped in a fresh packet carrying the envelope —
  the original packet object is never mutated on the send path, because
  the application may keep using it (Fig. 7's note).
* **Type 3 — direct buffer oriented** (dispatcher read/write families +
  ``DirectByteBuffer`` get/put): native memory gets a shadow label array
  keyed by block address; get/put move labels between heap and shadow,
  and the dispatchers translate shadow ↔ wire cells.
"""

from __future__ import annotations

import threading
import weakref

from repro.core import wire
from repro.core.taintmap import TaintMapClient
from repro.errors import SimTimeout, WireFormatError
from repro.jre.jni import EOF, UNAVAILABLE
from repro.jre.buffer import NativeMemory
from repro.jre.datagram_api import DatagramPacket
from repro.runtime.kernel import MAX_DATAGRAM
from repro.taint.values import LabelRuns, TByteArray, TBytes


class DisTARuntime:
    """Per-node runtime state shared by all wrappers on one JVM."""

    def __init__(
        self,
        node,
        client: TaintMapClient,
        byte_granularity: bool = True,
    ):
        self.node = node
        #: The codecs resolve labels through the client's batched
        #: ``gids_for``/``taints_for``.
        self.client = client
        #: False only in the granularity ablation: whole-message tainting.
        self.byte_granularity = byte_granularity
        #: The cluster's LineageStore when lineage is on, else ``None``.
        self.lineage = None
        self._lock = threading.Lock()
        self._decoders: dict[int, wire.CellDecoder] = {}
        #: (method, direction) -> bound metric children; record_io runs
        #: on every crossing, so the labels() lookups are done once.
        self._io_children: dict = {}
        #: Wrapper-boundary telemetry, on the node's registry.
        self.metrics = metrics = node.metrics
        self._io_calls = metrics.counter(
            "dista_jni_calls_total",
            "Wrapped JNI method invocations.",
            ("method", "direction"),
        )
        self._io_bytes = metrics.counter(
            "dista_jni_bytes_total",
            "Payload bytes through wrapped JNI methods.",
            ("method", "direction"),
        )
        self._io_tainted = metrics.counter(
            "dista_jni_tainted_bytes_total",
            "Tainted payload bytes through wrapped JNI methods "
            "(divide by dista_jni_bytes_total for the per-method ratio).",
            ("method", "direction"),
        )
        self._crossings = metrics.counter(
            "dista_crossings_total",
            "Tainted boundary crossings observed at the wrappers.",
            ("direction",),
        )
        self._fastpath = metrics.counter(
            "dista_fastpath_total",
            "Crossings by taint-state-specialized codec path: fast = "
            "zero-taint short circuit (no GID array, no resolver "
            "call, no Taint Map round-trip), slow = shadow codec "
            "engaged.",
            ("site", "path"),
        )

    def record_io(self, direction: str, method: str, data, channel=None) -> None:
        """One wrapper-boundary event: telemetry, plus a hop edge in the
        lineage store for a tainted crossing while lineage is on.

        Sends are recorded after :meth:`outgoing`, as they cross the
        wire.  ``channel`` names the wire channel (see
        ``TcpEndpoint.send_channel``) so the store can pair this send
        with its receive into a span.
        """
        tainted = data.tainted_byte_count()
        children = self._io_children.get((method, direction))
        if children is None:
            children = (
                self._io_calls.labels(method=method, direction=direction),
                self._io_bytes.labels(method=method, direction=direction),
                self._io_tainted.labels(method=method, direction=direction),
                self._crossings.labels(direction=direction),
                self._fastpath.labels(site=method, path="fast"),
                self._fastpath.labels(site=method, path="slow"),
            )
            self._io_children[(method, direction)] = children
        calls, io_bytes, io_tainted, crossings, fast, slow = children
        calls.inc()
        io_bytes.inc(len(data))
        io_tainted.inc(tainted)
        if tainted:
            crossings.inc()
        # Which codec path this crossing's payload dispatches to: the
        # wire codecs test the same summary.
        if data.labels is None:
            fast.inc()
        else:
            slow.inc()
        if tainted and self.lineage is not None:
            self.lineage.record_crossing(
                self.node.name, direction, method, data, tainted, channel
            )

    def outgoing(self, data: TBytes) -> TBytes:
        """Apply the configured granularity to outgoing data."""
        # Zero-taint fast path: untainted data is identical under both
        # granularities, so skip the overall-taint fold entirely.
        if data.labels is None:
            return data
        if self.byte_granularity:
            return data
        overall = data.overall_taint()
        if overall is None:
            return data
        return TBytes.tainted(data.data, overall)

    # -- cell-stream state -------------------------------------------------- #

    def decoder_for(self, fd) -> wire.CellDecoder:
        key = id(fd)
        with self._lock:
            decoder = self._decoders.get(key)
            if decoder is not None:
                return decoder
            decoder = wire.CellDecoder()
            self._decoders[key] = decoder
        # Outside the lock: registration may fire the eviction callback
        # immediately when the fd is already closed.
        self._register_eviction(fd, key, decoder)
        return decoder

    def _evict_decoder(self, key: int, decoder: wire.CellDecoder) -> None:
        with self._lock:
            if self._decoders.get(key) is decoder:
                del self._decoders[key]

    def _register_eviction(self, fd, key: int, decoder: wire.CellDecoder) -> None:
        """Evict the per-fd decoder when ``fd`` closes or is collected.

        ``_decoders`` is keyed by ``id(fd)`` and CPython recycles ids: a
        decoder left behind by a dead fd would hand its stale residue to
        an unrelated future connection (the same bug class as the PR 1
        ``_gid_cache`` collision).  The identity check in
        ``_evict_decoder`` keeps a late finalizer from evicting a
        successor fd's decoder after an id is reused.
        """
        add_callback = getattr(fd, "add_close_callback", None)
        if add_callback is not None:
            add_callback(lambda: self._evict_decoder(key, decoder))
        try:
            weakref.finalize(fd, self._evict_decoder, key, decoder)
        except TypeError:
            # Not weak-referenceable: close-callback eviction (if any)
            # still applies; bare test doubles keep the old behaviour.
            pass

    # -- native-memory shadow ------------------------------------------------ #

    def shadow_for(self, mem: NativeMemory) -> LabelRuns:
        shadow = self.node.jni.native_shadow.get(mem.address)
        if shadow is None:
            shadow = LabelRuns(mem.size)
            self.node.jni.native_shadow[mem.address] = shadow
        return shadow

    def native_read(self, mem: NativeMemory, position: int, count: int) -> TBytes:
        """Bytes + shadow labels from native memory."""
        shadow = self.node.jni.native_shadow.get(mem.address)
        if shadow is None or not shadow.has_labels():
            # Zero-taint fast path: clean memory yields untainted bytes
            # without slicing an empty shadow.
            return TBytes.raw(mem.read(position, count))
        return TBytes(mem.read(position, count), shadow.slice(position, position + count))

    def native_write(self, mem: NativeMemory, position: int, data: TBytes) -> None:
        """Bytes into native memory, labels into its shadow."""
        mem.write(position, data.data)
        self.write_shadow(mem, position, data)

    def write_shadow(self, mem: NativeMemory, position: int, data: TBytes) -> None:
        """``data``'s labels into ``mem``'s shadow at ``position``.

        Zero-taint fast path: an untainted write into never-tainted
        memory must not materialize a shadow via shadow_for; it only
        scrubs the range when labelled bytes already live there.
        """
        if data.labels is None:
            shadow = self.node.jni.native_shadow.get(mem.address)
            if shadow is not None and shadow.has_labels():
                shadow[position : position + len(data)] = LabelRuns(len(data))
            return
        self.shadow_for(mem)[position : position + len(data)] = data.labels


# --------------------------------------------------------------------- #
# Type 1: stream oriented
# --------------------------------------------------------------------- #


def make_cell_send(runtime: DisTARuntime, method: str):
    """Type-1 sender for ``original(fd, data, ...)``: data + taints →
    cell stream → original.  ``method`` labels its telemetry."""

    def wrapper(original):
        def cell_send(fd, data: TBytes, *args, **kwargs):
            data = runtime.outgoing(data)
            runtime.record_io("send", method, data, channel=fd.send_channel)
            cells = wire.encode_cells(data, runtime.client)
            return original(fd, TBytes.raw(cells), *args, **kwargs)

        return cell_send

    return wrapper


def make_cell_receive(runtime: DisTARuntime, method: str):
    """Type-1 receiver for ``original(fd, buf, offset, length, ...) ->
    count | EOF``: an enlarged read into the stream's staging array,
    split back into data and taints.  ``method`` labels its telemetry."""

    def wrapper(original):
        def cell_receive(fd, buf: TByteArray, offset: int, length: int, *args, **kwargs) -> int:
            length = min(length, len(buf) - offset)
            if length <= 0:
                # Nothing asked for: 0, not EOF, even with a partial
                # cell buffered (java.io's read(b, off, 0)).
                return 0
            decoder = runtime.decoder_for(fd)
            budget = wire.wire_length(length)
            staging = decoder.staging(budget)
            while True:
                count = original(fd, staging, 0, budget, *args, **kwargs)
                if count == EOF:
                    decoder.check_clean_eof()
                    return EOF
                decoded = decoder.feed(memoryview(staging.data)[:count], runtime.client)
                if decoded:
                    runtime.record_io("receive", method, decoded, channel=fd.receive_channel)
                    buf.write(offset, decoded)
                    return len(decoded)
                # A partial cell arrived; keep blocking until a whole
                # cell (the receiver-side fix for mismatched lengths).

        return cell_receive

    return wrapper


def make_socket_write0(runtime: DisTARuntime):
    return make_cell_send(runtime, "socketWrite0")


def make_socket_read0(runtime: DisTARuntime):
    return make_cell_receive(runtime, "socketRead0")


def make_socket_available(runtime: DisTARuntime):
    def wrapper(original):
        def socket_available(fd) -> int:
            decoder = runtime.decoder_for(fd)
            return (original(fd) + decoder.residue_len) // wire.CELL_WIDTH

        return socket_available

    return wrapper


# --------------------------------------------------------------------- #
# Type 2: packet oriented
# --------------------------------------------------------------------- #


def _check_envelope_fits(data_length: int) -> None:
    if wire.envelope_length(data_length) > MAX_DATAGRAM:
        raise WireFormatError(
            f"datagram payload of {data_length} bytes cannot carry its taint "
            f"envelope within {MAX_DATAGRAM} bytes; send smaller datagrams"
        )


def wrap_datagram(runtime: DisTARuntime, method: str, data: TBytes, destination) -> TBytes:
    """Type-2 send body: record the crossing, then wrap the payload and
    its taints in one envelope.  ``method`` labels its telemetry."""
    payload = runtime.outgoing(data)
    runtime.record_io("send", method, payload, channel=("udp", tuple(destination)))
    _check_envelope_fits(len(payload))
    return TBytes.raw(wire.encode_packet(payload, runtime.client))


def make_datagram_send(runtime: DisTARuntime):
    def wrapper(original):
        def datagram_send(fd, packet: DatagramPacket) -> None:
            address = packet.socket_address()
            # A fresh packet: mutating the caller's packet could change
            # application semantics (paper Fig. 7).
            wrapped = DatagramPacket(
                wrap_datagram(runtime, "datagram.send", packet.payload(), address),
                address=address,
            )
            original(fd, wrapped)

        return datagram_send

    return wrapper


def _decode_incoming_datagram(runtime: DisTARuntime, raw: TBytes) -> TBytes:
    if wire.is_enveloped(raw.data):
        return wire.decode_packet(raw.data, runtime.client)
    # Uninstrumented sender: plain payload, no taints to recover.
    return TBytes(raw.data)


def unwrap_datagram(runtime: DisTARuntime, method: str, raw: TBytes, fd) -> TBytes:
    """Type-2 receive body: split a datagram into data and taints, then
    record the crossing.  ``method`` labels its telemetry."""
    decoded = _decode_incoming_datagram(runtime, raw)
    runtime.record_io("receive", method, decoded, channel=("udp", tuple(fd.address)))
    return decoded


def make_datagram_receive0(runtime: DisTARuntime):
    def wrapper(original):
        def datagram_receive0(fd, packet: DatagramPacket, timeout=None) -> None:
            staging = DatagramPacket(TByteArray.raw(MAX_DATAGRAM))
            kwargs = {} if timeout is None else {"timeout": timeout}
            original(fd, staging, **kwargs)
            decoded = unwrap_datagram(runtime, "datagram.receive0", staging.payload(), fd)
            packet.fill_from_wire(decoded, staging.address)

        return datagram_receive0

    return wrapper


def make_datagram_peek_data(runtime: DisTARuntime):
    def wrapper(original):
        def datagram_peek_data(fd, packet: DatagramPacket, timeout=None) -> int:
            staging = DatagramPacket(TByteArray.raw(MAX_DATAGRAM))
            kwargs = {} if timeout is None else {"timeout": timeout}
            port = original(fd, staging, **kwargs)
            decoded = _decode_incoming_datagram(runtime, staging.payload())
            packet.fill_from_wire(decoded, staging.address)
            return port

        return datagram_peek_data

    return wrapper


# --------------------------------------------------------------------- #
# Type 3: direct buffer oriented
# --------------------------------------------------------------------- #


def make_direct_put(runtime: DisTARuntime):
    def wrapper(original):
        def direct_put(mem: NativeMemory, position: int, src: TBytes) -> None:
            original(mem, position, src)
            runtime.write_shadow(mem, position, src)

        return direct_put

    return wrapper


def make_direct_get(runtime: DisTARuntime):
    def wrapper(original):
        def direct_get(
            mem: NativeMemory, position: int, dst: TByteArray, dst_offset: int, length: int
        ) -> None:
            original(mem, position, dst, dst_offset, length)
            shadow = runtime.node.jni.native_shadow.get(mem.address)
            if shadow is None:
                return
            piece = shadow[position : position + length]
            # A clean piece clears the range only where the array holds
            # labels; a clean array's shadow stays unmaterialized.
            dst.splice_labels(
                dst_offset, dst_offset + length, piece if piece.has_labels() else None
            )

        return direct_get

    return wrapper


def make_disp_write0(runtime: DisTARuntime):
    def wrapper(original):
        def disp_write0(fd, mem, position, count, blocking=True, timeout=None) -> int:
            data = runtime.outgoing(runtime.native_read(mem, position, count))
            runtime.record_io(
                "send", "dispatcher.write0", data, channel=fd.send_channel
            )
            cells = wire.encode_cells(data, runtime.client)
            # The simulated kernel's buffers are sized so a full cell
            # write completes; see DESIGN.md (blocking simplification).
            fd.send_all(cells)
            return count

        return disp_write0

    return wrapper


def make_disp_read0(runtime: DisTARuntime):
    def wrapper(original):
        def disp_read0(fd, mem, position, count, blocking=True, timeout=None) -> int:
            decoder = runtime.decoder_for(fd)
            budget = wire.wire_length(count)
            while True:
                if blocking:
                    kwargs = {} if timeout is None else {"timeout": timeout}
                    raw = fd.recv(budget, **kwargs)
                    if not raw:
                        decoder.check_clean_eof()
                        return EOF
                else:
                    raw = fd.recv_nonblocking(budget)
                    if raw is None:
                        # Nothing ready (possibly mid-cell); the selector
                        # will re-arm when more wire bytes arrive.
                        return UNAVAILABLE
                    if raw == b"":
                        decoder.check_clean_eof()
                        return EOF
                decoded = decoder.feed(raw, runtime.client)
                if decoded:
                    runtime.record_io(
                        "receive",
                        "dispatcher.read0",
                        decoded,
                        channel=fd.receive_channel,
                    )
                    runtime.native_write(mem, position, decoded)
                    return len(decoded)
                if not blocking and not decoder.residue_len:
                    return UNAVAILABLE

        return disp_read0

    return wrapper


def make_dgram_send(runtime: DisTARuntime, method: str):
    """Type-3 datagram sender for ``original(fd, mem, position, count,
    destination) -> count``: native memory and its shadow → one envelope
    → ``sendto``.  ``method`` labels its telemetry."""

    def wrapper(original):
        def dgram_send(fd, mem, position, count, destination) -> int:
            data = runtime.native_read(mem, position, count)
            fd.sendto(wrap_datagram(runtime, method, data, destination).data, destination)
            return count

        return dgram_send

    return wrapper


def make_dgram_receive(runtime: DisTARuntime, method: str, with_source: bool):
    """Type-3 datagram receiver for ``original(fd, mem, position, count,
    blocking, timeout)``: one envelope off the socket → data into native
    memory, taints into its shadow.  Returns the byte count (or
    ``UNAVAILABLE``), paired with the sender's address when
    ``with_source``.  ``method`` labels its telemetry."""

    def wrapper(original):
        def dgram_receive(fd, mem, position, count, blocking=True, timeout=None):
            try:
                raw, source = fd.recvfrom(
                    (timeout if timeout is not None else 30.0) if blocking else 0.001
                )
            except SimTimeout:
                if blocking:
                    raise
                return (UNAVAILABLE, None) if with_source else UNAVAILABLE
            decoded = _decode_incoming_datagram(runtime, TBytes(raw))[:count]
            runtime.record_io(
                "receive", method, decoded, channel=("udp", tuple(fd.address))
            )
            runtime.native_write(mem, position, decoded)
            return (len(decoded), source) if with_source else len(decoded)

        return dgram_receive

    return wrapper
