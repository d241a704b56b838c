"""Zero-taint fast-path regression tests (ISSUE 6).

Three families:

* **Differential codec tests** — the taint-state-specialized encoders
  must produce frames *byte-identical* to a straightforward reference
  implementation (interleave each data byte with its big-endian GID) at
  every taint pattern, and the decoders must recover shadow-equal
  values.  The wire format is the compatibility contract: fast and slow
  receivers must interoperate.
* **Decoder lifecycle** — the per-fd decoder table is keyed by
  ``id(fd)``; decoders must be evicted when the fd closes or is
  collected, and a stale eviction must never remove a successor fd's
  decoder after CPython reuses the id.
* **Incremental residue** — ``CellDecoder.feed`` buffers partial cells
  in place; many tiny feeds must decode identically to one bulk feed
  without quadratic re-copying.
"""

import gc
import itertools
import struct

import pytest

from repro.core import wire
from repro.core.wrappers import DisTARuntime
from repro.jre import ServerSocket, Socket
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint import POLICY, LocalId, TBytes, TaintTree
from repro.taint.values import LabelRuns


class CountingResolver:
    """A local gid<->taint table that counts resolver invocations, so
    tests can assert the fast path never consulted it.  It has only the
    batched pair, so the codecs demonstrably call nothing else."""

    def __init__(self):
        self._gids: dict[int, int] = {}
        self._taints: dict[int, object] = {}
        self.calls = 0

    def _gid(self, label):
        if label is None:
            return 0
        gid = self._gids.get(id(label))
        if gid is None:
            gid = len(self._gids) + 1
            self._gids[id(label)] = gid
            self._taints[gid] = label
        return gid

    def gids_for(self, labels):
        self.calls += 1
        return [self._gid(label) for label in labels]

    def taints_for(self, gids):
        self.calls += 1
        return [self._taints.get(g) for g in gids]


def reference_cells(data: bytes, gids: list) -> bytes:
    """The definitionally-correct slow encoding: one 5-byte cell per
    data byte, GID big-endian."""
    return b"".join(
        bytes([b]) + struct.pack(">I", g) for b, g in zip(data, gids)
    )


def reference_packet(data: bytes, gids: list) -> bytes:
    header = wire.PACKET_MAGIC + bytes([wire.PACKET_VERSION])
    header += struct.pack(">I", len(data))
    return header + data + b"".join(struct.pack(">I", g) for g in gids)


@pytest.fixture()
def tree():
    return TaintTree(LocalId("10.0.0.1", 1))


def _patterns(tree):
    """(name, TBytes, per-byte gid list under CountingResolver order)."""
    ta = tree.taint_for_tag("a")
    tb = tree.taint_for_tag("b")
    payload = b"fastpath"
    untainted = TBytes(payload)
    single = TBytes(payload[:1], LabelRuns.from_list([ta])) + TBytes(payload[1:])
    sparse = (
        TBytes(payload[:2])
        + TBytes(payload[2:3], LabelRuns.from_list([ta]))
        + TBytes(payload[3:6])
        + TBytes(payload[6:7], LabelRuns.from_list([tb]))
        + TBytes(payload[7:])
    )
    full = TBytes.tainted(payload, ta)
    return [
        ("untainted", untainted, [0] * 8),
        ("single", single, [1] + [0] * 7),
        ("sparse", sparse, [0, 0, 1, 0, 0, 0, 2, 0]),
        ("full", full, [1] * 8),
    ]


def _shadow_gids(value: TBytes, resolver: CountingResolver) -> list:
    return [resolver._gid(value.label_at(i)) for i in range(len(value))]


class TestDifferentialEncoding:
    """Fast-path frames must be byte-identical to the reference."""

    def test_cell_stream_matches_reference_at_every_pattern(self, tree):
        with POLICY.shadows(True):
            for name, value, gids in _patterns(tree):
                resolver = CountingResolver()
                # Lock in GID assignment order before encoding.
                expected = reference_cells(value.data, _shadow_gids(value, resolver))
                assert expected == reference_cells(value.data, gids)
                encoded = wire.encode_cells(value, resolver)
                assert encoded == expected, f"pattern {name}: frame differs"

    def test_packet_envelope_matches_reference_at_every_pattern(self, tree):
        with POLICY.shadows(True):
            for name, value, gids in _patterns(tree):
                resolver = CountingResolver()
                expected = reference_packet(value.data, _shadow_gids(value, resolver))
                assert expected == reference_packet(value.data, gids)
                encoded = wire.encode_packet(value, resolver)
                assert encoded == expected, f"pattern {name}: envelope differs"

    def test_untainted_encode_never_calls_resolver(self, tree):
        """The fast path's defining property: no GID array, no resolver,
        no Taint Map round-trip for clean payloads."""
        with POLICY.shadows(True):
            resolver = CountingResolver()
            wire.encode_cells(TBytes(b"clean"), resolver)
            wire.encode_packet(TBytes(b"clean"), resolver)
            assert resolver.calls == 0
            # Sanity: a tainted payload does consult it.
            hot = TBytes.tainted(b"hot", tree.taint_for_tag("hot"))
            wire.encode_cells(hot, resolver)
            assert resolver.calls > 0

    def test_decode_recovers_shadow_equal_values(self, tree):
        with POLICY.shadows(True):
            for name, value, _ in _patterns(tree):
                resolver = CountingResolver()
                cells = wire.encode_cells(value, resolver)
                decoder = wire.CellDecoder()
                out = decoder.feed(cells, resolver)
                assert out.data == value.data, name
                assert [out.label_at(i) for i in range(len(out))] == [
                    value.label_at(i) for i in range(len(value))
                ], name
                envelope = wire.encode_packet(value, resolver)
                out2 = wire.decode_packet(envelope, resolver)
                assert out2.data == value.data, name
                assert [out2.label_at(i) for i in range(len(out2))] == [
                    value.label_at(i) for i in range(len(value))
                ], name

    def test_untainted_decode_keeps_labels_none(self, tree):
        """Decoding all-zero GIDs must not materialize an empty shadow
        or call the taint resolver."""
        with POLICY.shadows(True):
            resolver = CountingResolver()
            cells = wire.encode_cells(TBytes(b"clean"), resolver)
            out = wire.CellDecoder().feed(cells, resolver)
            assert out.labels is None
            envelope = wire.encode_packet(TBytes(b"clean"), resolver)
            out2 = wire.decode_packet(envelope, resolver)
            assert out2.labels is None
            assert resolver.calls == 0


class _PlainFd:
    """A weak-referenceable fd double with no close-callback support."""


@pytest.fixture()
def dista_pair():
    cluster = Cluster(Mode.DISTA)
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    with cluster:
        yield cluster, n1, n2


class TestDecoderEviction:
    """The id-reuse hazard: ``_decoders`` is keyed by ``id(fd)`` and
    CPython recycles ids, so a decoder must not outlive its fd."""

    def test_evicted_on_endpoint_close(self, dista_pair):
        cluster, n1, n2 = dista_pair
        runtime = DisTARuntime(n1, n1.taintmap)
        ServerSocket(n2, 9700)
        client = Socket.connect(n1, (n2.ip, 9700))
        fd = client._endpoint
        decoder = runtime.decoder_for(fd)
        assert runtime._decoders[id(fd)] is decoder
        client.close()
        assert id(fd) not in runtime._decoders

    def test_decoder_for_already_closed_fd_is_not_retained(self, dista_pair):
        """Registration on a closed endpoint fires the callback
        immediately; the table must not keep the entry."""
        cluster, n1, n2 = dista_pair
        runtime = DisTARuntime(n1, n1.taintmap)
        ServerSocket(n2, 9701)
        client = Socket.connect(n1, (n2.ip, 9701))
        fd = client._endpoint
        client.close()
        runtime.decoder_for(fd)
        assert id(fd) not in runtime._decoders

    def test_evicted_when_fd_is_garbage_collected(self, dista_pair):
        cluster, n1, n2 = dista_pair
        runtime = DisTARuntime(n1, n1.taintmap)
        fd = _PlainFd()
        key = id(fd)
        runtime.decoder_for(fd)
        assert key in runtime._decoders
        del fd
        gc.collect()
        assert key not in runtime._decoders

    def test_stale_eviction_spares_successor_decoder(self, dista_pair):
        """After an id is reused, a late finalizer holding the *old*
        decoder must not evict the new fd's decoder."""
        cluster, n1, n2 = dista_pair
        runtime = DisTARuntime(n1, n1.taintmap)
        fd = _PlainFd()
        key = id(fd)
        stale = wire.CellDecoder()
        current = runtime.decoder_for(fd)
        runtime._evict_decoder(key, stale)  # late finalizer, wrong decoder
        assert runtime._decoders[key] is current
        runtime._evict_decoder(key, current)
        assert key not in runtime._decoders


class TestIncrementalResidue:
    """Many small feeds must decode identically to one bulk feed."""

    def test_one_byte_feeds_match_bulk_decode(self, tree):
        with POLICY.shadows(True):
            ta = tree.taint_for_tag("drip")
            value = TBytes(b"xx") + TBytes.tainted(b"hot", ta) + TBytes(b"yy")
            resolver = CountingResolver()
            cells = wire.encode_cells(value, resolver)

            bulk = wire.CellDecoder().feed(cells, resolver)
            decoder = wire.CellDecoder()
            pieces = []
            for i in range(len(cells)):
                out = decoder.feed(cells[i : i + 1], resolver)
                if len(out):
                    pieces.append(out)
                # Residue never reaches a whole cell.
                assert decoder.residue_len < wire.CELL_WIDTH
            dripped = pieces[0]
            for piece in pieces[1:]:
                dripped = dripped + piece
            assert dripped.data == bulk.data == value.data
            assert [dripped.label_at(i) for i in range(len(dripped))] == [
                value.label_at(i) for i in range(len(value))
            ]
            assert decoder.residue_len == 0
            decoder.check_clean_eof()

    def test_ragged_chunk_feeds_match_bulk_decode(self, tree):
        with POLICY.shadows(True):
            ta = tree.taint_for_tag("ragged")
            value = TBytes.tainted(bytes(range(64)), ta)
            resolver = CountingResolver()
            cells = wire.encode_cells(value, resolver)
            decoder = wire.CellDecoder()
            collected = TBytes.empty()
            sizes = itertools.cycle((1, 2, 3, 7, 11, 13, 4, 9))  # no cell multiples
            position = 0
            while position < len(cells):
                chunk = cells[position : position + next(sizes)]
                position += len(chunk)
                out = decoder.feed(chunk, resolver)
                if len(out):
                    collected = collected + out
            assert collected.data == value.data
            assert collected.overall_taint() is ta
            decoder.check_clean_eof()

    def test_partial_cell_residue_then_eof_raises(self):
        decoder = wire.CellDecoder()
        decoder.feed(b"\x41\x00\x00", CountingResolver())
        assert decoder.residue_len == 3
        from repro.errors import WireFormatError

        with pytest.raises(WireFormatError, match="residual"):
            decoder.check_clean_eof()


class TestRuntimeFastPaths:
    """End-to-end fast-path behaviour through a DISTA cluster."""

    def _connect(self, n1, n2, port):
        server = ServerSocket(n2, port)
        client = Socket.connect(n1, (n2.ip, port))
        return server.accept(), client

    def test_untainted_send_counts_fast_path_only(self, dista_pair):
        cluster, n1, n2 = dista_pair
        conn, client = self._connect(n1, n2, 9710)
        client.get_output_stream().write(TBytes(b"plain traffic"))
        received = conn.get_input_stream().read_fully(13)
        assert received == b"plain traffic"
        assert received.labels is None

        from repro.obs.registry import snapshot_total

        snapshot = cluster.telemetry_snapshot()
        fast = snapshot_total(snapshot, "dista_fastpath_total", {"path": "fast"})
        slow = snapshot_total(snapshot, "dista_fastpath_total", {"path": "slow"})
        rpcs = snapshot_total(snapshot, "dista_taintmap_requests_total")
        crossings = snapshot_total(snapshot, "dista_crossings_total")
        assert fast > 0
        assert slow == 0
        assert rpcs == 0
        assert crossings == 0

    def test_tainted_send_counts_slow_path(self, dista_pair):
        cluster, n1, n2 = dista_pair
        conn, client = self._connect(n1, n2, 9711)
        taint = n1.tree.taint_for_tag("slowpath")
        client.get_output_stream().write(TBytes.tainted(b"hot bytes", taint))
        received = conn.get_input_stream().read_fully(9)
        assert {t.tag for t in received.overall_taint().tags} == {"slowpath"}

        from repro.obs.registry import snapshot_total

        snapshot = cluster.telemetry_snapshot()
        slow = snapshot_total(snapshot, "dista_fastpath_total", {"path": "slow"})
        crossings = snapshot_total(snapshot, "dista_crossings_total")
        assert slow > 0
        assert crossings > 0

    def test_untainted_native_write_creates_no_shadow(self, dista_pair):
        """An untainted write must not materialize a native shadow —
        the allocation the fast path exists to avoid."""
        from repro.jre.buffer import NativeMemory

        cluster, n1, n2 = dista_pair
        runtime = DisTARuntime(n1, n1.taintmap)
        mem = NativeMemory(16)
        runtime.native_write(mem, 0, TBytes(b"clean"))
        assert mem.address not in n1.jni.native_shadow
        out = runtime.native_read(mem, 0, 5)
        assert out == b"clean"
        assert out.labels is None
        # Tainting the region does create the shadow; scrubbing it with
        # an untainted overwrite keeps it but empties the labels.
        taint = n1.tree.taint_for_tag("mem")
        runtime.native_write(mem, 0, TBytes.tainted(b"hot", taint))
        assert mem.address in n1.jni.native_shadow
        runtime.native_write(mem, 0, TBytes(b"---"))
        assert not n1.jni.native_shadow[mem.address].has_labels()

    def test_untainted_direct_put_creates_no_shadow(self, dista_pair):
        from repro.jre import ByteBuffer

        cluster, n1, n2 = dista_pair
        buf = ByteBuffer.allocate_direct(8, n1.jni)
        buf.put(TBytes(b"abc"))
        assert buf.native.address not in n1.jni.native_shadow
        buf.flip()
        assert buf.get(3).labels is None
