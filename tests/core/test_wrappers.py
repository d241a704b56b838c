"""Unit tests for the three JNI wrapper types (paper §III-C).

The e2e suite exercises the wrappers through the full JRE stack; these
tests pin down wrapper-level behaviour directly: partial reads at cell
boundaries, the packet-envelope interop fallback, native-memory shadow
bookkeeping, and error paths.
"""

import tracemalloc

import pytest

from repro.core import wire
from repro.core.config import DisTAConfig
from repro.errors import WireFormatError
from repro.jre import (
    ByteBuffer,
    DatagramPacket,
    DatagramSocket,
    ServerSocket,
    ServerSocketChannel,
    Socket,
    SocketChannel,
)
from repro.jre.buffer import NativeMemory
from repro.jre.jni import EOF
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.runtime.pipes import BytePipe
from repro.taint.values import TByteArray, TBytes


@pytest.fixture()
def dista_pair():
    cluster = Cluster(Mode.DISTA)
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    with cluster:
        yield cluster, n1, n2


def _connect(n1, n2, port=9500):
    server = ServerSocket(n2, port)
    client = Socket.connect(n1, (n2.ip, port))
    return server.accept(), client, server


class TestType1StreamWrappers:
    def test_read_with_tiny_kernel_segments(self):
        """Force the kernel to deliver 1-3 bytes at a time: the per-fd
        cell decoder must reassemble across partial cells."""
        cluster = Cluster(Mode.DISTA, name="tiny-segments")
        cluster.kernel._pipe_capacity = 1 << 16
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            server = ServerSocket(n2, 9501)
            client = Socket.connect(n1, (n2.ip, 9501))
            conn = server.accept()
            # Throttle the receiving pipe to 3-byte segments (not a
            # multiple of the 5-byte cell width).
            conn._endpoint._rx._max_segment = 3
            taint = n1.tree.taint_for_tag("frag")
            client.get_output_stream().write(TBytes.tainted(b"fragmented-data", taint))
            received = conn.get_input_stream().read_fully(15)
            assert received == b"fragmented-data"
            assert {t.tag for t in received.overall_taint().tags} == {"frag"}

    def test_available_reports_data_bytes_not_wire_bytes(self, dista_pair):
        cluster, n1, n2 = dista_pair
        conn, client, _ = _connect(n1, n2)
        client.get_output_stream().write(TBytes(b"12345678"))
        ins = conn.get_input_stream()
        ins.read_fully(3)
        assert ins.available() == 5

    def test_eof_mid_cell_raises_wire_format_error(self, dista_pair):
        """A truncated cell at EOF is a protocol violation, not silent
        data loss."""
        cluster, n1, n2 = dista_pair
        conn, client, _ = _connect(n1, n2, 9502)
        # Bypass the instrumented write: push a partial cell raw.
        client._endpoint.send_all(b"\x41\x00\x00")  # 3 of 5 cell bytes
        client._endpoint.shutdown_output()
        buf = TByteArray(8)
        with pytest.raises(WireFormatError, match="residual"):
            n2.jni.socket_read0(conn._endpoint, buf, 0, 8)

    def test_clean_eof_returns_minus_one(self, dista_pair):
        cluster, n1, n2 = dista_pair
        conn, client, _ = _connect(n1, n2, 9503)
        client.get_output_stream().write(TBytes(b"ok"))
        client.shutdown_output()
        buf = TByteArray(8)
        assert n2.jni.socket_read0(conn._endpoint, buf, 0, 8) == 2
        assert n2.jni.socket_read0(conn._endpoint, buf, 0, 8) == EOF

    def test_zero_length_read_mid_cell_returns_zero(self, dista_pair):
        """``read(b, off, 0)`` returns 0 (java.io); with a partial cell
        buffered it is neither EOF nor a stream that ended mid-cell."""
        cluster, n1, n2 = dista_pair
        conn, client, _ = _connect(n1, n2, 9505)
        client._endpoint.send_all(b"A\0\0\0\0" + b"B\0")  # a cell + 2/5 of one
        ins = conn.get_input_stream()
        assert ins.read(8) == b"A"
        buf = TByteArray(8)
        assert ins.read_into(buf, 0, 0) == 0
        assert n2.jni.socket_read0(conn._endpoint, buf, 0, 0) == 0
        client._endpoint.send_all(b"\0\0\0")
        assert ins.read(8) == b"B"

    @pytest.mark.parametrize("mode", [Mode.ORIGINAL, Mode.DISTA])
    def test_zero_length_read_returns_zero_in_every_mode(self, mode):
        cluster = Cluster(mode)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            conn, client, _ = _connect(n1, n2, 9506)
            client.get_output_stream().write(TBytes(b"xy"))
            ins = conn.get_input_stream()
            assert ins.read_into(TByteArray(4), 0, 0) == 0
            assert n2.jni.socket_read0(conn._endpoint, TByteArray(4), 0, 0) == 0
            assert ins.read_fully(2) == b"xy"

    def test_write_counts_both_jni_hits(self, dista_pair):
        """The wrapper calls the *original* method (Fig. 6): one wrapped
        call, and the original puts the 1-byte write's cell on the wire
        (the data byte plus its 4-byte GID)."""
        cluster, n1, n2 = dista_pair
        conn, client, _ = _connect(n1, n2, 9504)
        labels = {"method": "socketWrite0", "direction": "send"}
        server = (n2.ip, 9504)
        calls = snapshot_total(n1.metrics.snapshot(), "dista_jni_calls_total", labels)
        sent = cluster.kernel.stats.tcp_bytes.get(server, 0)
        client.get_output_stream().write(TBytes(b"x"))
        assert snapshot_total(n1.metrics.snapshot(), "dista_jni_calls_total", labels) == calls + 1
        assert cluster.kernel.stats.tcp_bytes[server] == sent + 5


class TestWireCopies:
    """A warm clean read copies each hop once, into buffers that outlive
    it: the pipe hands over the sender's segment, the receive wrapper
    reuses its connection's staging array, and byte arrays copy through
    views.  Counted in bytes with tracemalloc, so it is deterministic."""

    MESSAGE = 32 * 1024

    @pytest.mark.parametrize(
        "mode, bound",
        [
            # Below the message's 160 KiB of cells: no wire-sized
            # temporary at all.
            (Mode.DISTA, wire.wire_length(MESSAGE)),
            # Two message-sized buffers: the array InputStream.read reads
            # into and the TBytes it returns, plus slack for the small
            # objects around them (~0.5 KiB on CPython 3.11), far below
            # the third message-sized copy this guards against.
            (Mode.ORIGINAL, 2 * MESSAGE + 4096),
        ],
    )
    def test_clean_read_fully_peak_stays_below_the_wire_bytes(self, mode, bound):
        cluster = Cluster(mode)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            conn, client, _ = _connect(n1, n2, 9507)
            out, ins = client.get_output_stream(), conn.get_input_stream()
            message = bytes(range(256)) * (self.MESSAGE // 256)
            for _ in range(3):
                out.write(TBytes(message))
                assert ins.read_fully(self.MESSAGE) == message
            out.write(TBytes(message))  # whole in the pipe before tracing
            tracemalloc.start()
            try:
                received = ins.read_fully(self.MESSAGE)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert received == message
            assert peak < bound, f"{mode.value} read peaked at {peak} bytes"


class TestType2PacketWrappers:
    def test_sender_packet_not_mutated(self, dista_pair):
        """Fig. 7: the wrapper wraps a *fresh* packet; the application's
        packet object keeps its original payload."""
        cluster, n1, n2 = dista_pair
        a = DatagramSocket(n1, 5600)
        b = DatagramSocket(n2, 5600)
        taint = n1.tree.taint_for_tag("u")
        packet = DatagramPacket(TBytes.tainted(b"app-payload", taint), address=(n2.ip, 5600))
        a.send(packet)
        assert packet.payload() == b"app-payload"  # unchanged
        incoming = DatagramPacket(64)
        b.receive(incoming)
        assert incoming.payload() == b"app-payload"

    def test_uninstrumented_sender_interop(self, dista_pair):
        """A plain (non-enveloped) datagram from outside the instrumented
        world is delivered as untainted data, not an error."""
        cluster, n1, n2 = dista_pair
        b = DatagramSocket(n2, 5601)
        raw = n1.kernel.udp_bind(n1.ip, 5601)
        raw.sendto(b"legacy-datagram", (n2.ip, 5601))
        incoming = DatagramPacket(64)
        b.receive(incoming)
        assert incoming.payload() == b"legacy-datagram"
        assert incoming.payload().overall_taint() is None

    def test_oversized_payload_rejected_with_clear_error(self, dista_pair):
        cluster, n1, n2 = dista_pair
        a = DatagramSocket(n1, 5602)
        DatagramSocket(n2, 5602)
        big = DatagramPacket(TBytes(b"x" * 20000), address=(n2.ip, 5602))
        with pytest.raises(WireFormatError, match="envelope"):
            a.send(big)

    def test_peek_then_receive_consistent(self, dista_pair):
        cluster, n1, n2 = dista_pair
        a = DatagramSocket(n1, 5603)
        b = DatagramSocket(n2, 5603)
        taint = n1.tree.taint_for_tag("peeked")
        a.send(DatagramPacket(TBytes.tainted(b"dgram", taint), address=(n2.ip, 5603)))
        peeked = DatagramPacket(64)
        b.peek(peeked)
        assert peeked.payload() == b"dgram"
        assert {t.tag for t in peeked.payload().overall_taint().tags} == {"peeked"}
        received = DatagramPacket(64)
        b.receive(received)
        assert received.payload() == b"dgram"


class TestType3DirectBufferWrappers:
    def test_put_populates_native_shadow(self, dista_pair):
        cluster, n1, n2 = dista_pair
        taint = n1.tree.taint_for_tag("native")
        buf = ByteBuffer.allocate_direct(8, n1.jni)
        buf.put(TBytes.tainted(b"abc", taint))
        shadow = n1.jni.native_shadow[buf.native.address]
        assert shadow[0] is taint and shadow[2] is taint
        assert shadow[3] is None

    def test_get_recovers_labels_from_shadow(self, dista_pair):
        cluster, n1, n2 = dista_pair
        taint = n1.tree.taint_for_tag("roundtrip")
        buf = ByteBuffer.allocate_direct(8, n1.jni)
        buf.put(TBytes.tainted(b"xyz", taint))
        buf.flip()
        out = buf.get(3)
        assert out.overall_taint() is taint

    def test_overwrite_updates_shadow(self, dista_pair):
        cluster, n1, n2 = dista_pair
        taint = n1.tree.taint_for_tag("old")
        buf = ByteBuffer.allocate_direct(4, n1.jni)
        buf.put(TBytes.tainted(b"ab", taint))
        buf.rewind()
        buf.put(TBytes(b"cd"))  # untainted overwrite
        buf.flip()
        assert buf.get(2).overall_taint() is None

    def test_uninstrumented_node_has_no_shadow(self):
        cluster = Cluster(Mode.PHOSPHOR)
        node = cluster.add_node("n")
        with cluster:
            taint = node.tree.taint_for_tag("t")
            buf = ByteBuffer.allocate_direct(4, node.jni)
            buf.put(TBytes.tainted(b"ab", taint))
            assert node.jni.native_shadow == {}


class TestRuntimeHelpers:
    def test_decoder_is_per_fd(self, dista_pair):
        from repro.core.wrappers import DisTARuntime

        cluster, n1, n2 = dista_pair
        runtime = DisTARuntime(n1, n1.taintmap)
        fd_a, fd_b = object(), object()
        assert runtime.decoder_for(fd_a) is runtime.decoder_for(fd_a)
        assert runtime.decoder_for(fd_a) is not runtime.decoder_for(fd_b)

    def test_native_read_write_roundtrip(self, dista_pair):
        from repro.core.wrappers import DisTARuntime

        cluster, n1, n2 = dista_pair
        runtime = DisTARuntime(n1, n1.taintmap)
        mem = NativeMemory(16)
        taint = n1.tree.taint_for_tag("nm")
        runtime.native_write(mem, 4, TBytes.tainted(b"data", taint))
        out = runtime.native_read(mem, 4, 4)
        assert out == b"data"
        assert out.overall_taint() is taint
        assert runtime.native_read(mem, 0, 4).overall_taint() is None

    def test_outgoing_granularity_modes(self, dista_pair):
        from repro.core.wrappers import DisTARuntime

        cluster, n1, n2 = dista_pair
        taint = n1.tree.taint_for_tag("g")
        half = TBytes.tainted(b"T", taint) + TBytes(b".")
        precise = DisTARuntime(n1, n1.taintmap, byte_granularity=True)
        coarse = DisTARuntime(n1, n1.taintmap, byte_granularity=False)
        assert precise.outgoing(half).label_at(1) is None
        assert coarse.outgoing(half).label_at(1) is taint


def _exchange_over_socket(n1, n2, data):
    conn, client, _ = _connect(n1, n2, 9560)
    client.get_output_stream().write(data)
    conn.get_input_stream().read_fully(len(data))


def _exchange_over_datagram(n1, n2, data):
    sender = DatagramSocket(n1, 5060)
    receiver = DatagramSocket(n2, 5060)
    sender.send(DatagramPacket(data, address=(n2.ip, 5060)))
    receiver.receive(DatagramPacket(16))


def _exchange_over_channel(n1, n2, data):
    server = ServerSocketChannel.open(n2).bind(9561)
    client = SocketChannel.open(n1).connect((n2.ip, 9561))
    conn = server.accept()
    client.write_fully(ByteBuffer.wrap(data))
    conn.read_fully(ByteBuffer.allocate(len(data)))


class TestSendsRecordWhatCrossesTheWire:
    @pytest.mark.parametrize(
        "exchange, send_method, receive_method",
        [
            (_exchange_over_socket, "socketWrite0", "socketRead0"),
            (_exchange_over_datagram, "datagram.send", "datagram.receive0"),
            (_exchange_over_channel, "dispatcher.write0", "dispatcher.read0"),
        ],
        ids=["type1", "type2", "type3"],
    )
    def test_message_granularity_counts_tainted_bytes_on_the_wire(
        self, exchange, send_method, receive_method
    ):
        """Under granularity=message a "XX.." write with 2 tainted bytes
        puts 4 tainted bytes on the wire; every wrapper type records the
        send after that widening, so both ends count 4."""
        cluster = Cluster(Mode.DISTA, config=DisTAConfig(byte_granularity=False))
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            taint = n1.tree.taint_for_tag("msg")
            exchange(n1, n2, TBytes.tainted(b"XX", taint) + TBytes(b".."))
            snap = cluster.telemetry_snapshot()
        family = "dista_jni_tainted_bytes_total"
        assert snapshot_total(snap, family, {"method": send_method, "direction": "send"}) == 4.0
        assert (
            snapshot_total(snap, family, {"method": receive_method, "direction": "receive"})
            == 4.0
        )
