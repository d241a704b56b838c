"""Unit + property tests for DisTA's wire formats."""

import itertools
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.errors import WireFormatError
from repro.taint import LocalId, TBytes, TaintTree
from repro.taint.values import LabelRuns


@pytest.fixture()
def tree():
    return TaintTree(LocalId("10.0.0.1", 1))


def make_gid_table(tree, names):
    """A deterministic taint↔gid mapping for codec tests (no Taint Map):
    the two batched resolvers the codecs call."""
    taints = {name: tree.taint_for_tag(name) for name in names}
    gid_of = {None: 0}
    taint_of = {0: None}
    for i, (name, taint) in enumerate(sorted(taints.items()), start=1):
        gid_of[taint] = i
        taint_of[i] = taint
    return taints, SimpleNamespace(
        gids_for=lambda labels: [gid_of[t] for t in labels],
        taints_for=lambda gids: [taint_of[g] for g in gids],
    )


class TestCells:
    def test_wire_is_exactly_5x(self, tree):
        _, table = make_gid_table(tree, ["a"])
        cells = wire.encode_cells(TBytes(b"12345678"), table)
        assert len(cells) == 40
        assert wire.wire_length(8) == 40
        assert wire.max_data_for_wire(40) == 8

    def test_roundtrip_single_feed(self, tree):
        taints, table = make_gid_table(tree, ["a", "b"])
        data = TBytes.tainted(b"aa", taints["a"]) + TBytes.tainted(b"b", taints["b"])
        cells = wire.encode_cells(data, table)
        out = wire.CellDecoder().feed(cells, table)
        assert out.data == b"aab"
        assert out.label_at(0) is taints["a"]
        assert out.label_at(2) is taints["b"]

    def test_untainted_bytes_use_gid_zero(self, tree):
        _, table = make_gid_table(tree, [])
        cells = wire.encode_cells(TBytes(b"xy"), table)
        assert cells[1:5] == b"\x00\x00\x00\x00"
        out = wire.CellDecoder().feed(cells, table)
        assert out.overall_taint() is None

    def test_partial_cell_is_buffered(self, tree):
        taints, table = make_gid_table(tree, ["a"])
        cells = wire.encode_cells(TBytes.tainted(b"zz", taints["a"]), table)
        decoder = wire.CellDecoder()
        assert decoder.feed(cells[:3], table) == TBytes.empty()
        assert decoder.residue_len == 3
        out = decoder.feed(cells[3:], table)
        assert out.data == b"zz"
        assert decoder.residue_len == 0

    def test_eof_mid_cell_raises(self, tree):
        _, table = make_gid_table(tree, [])
        decoder = wire.CellDecoder()
        decoder.feed(b"\x01\x00", table)
        with pytest.raises(WireFormatError):
            decoder.check_clean_eof()

    def test_clean_eof_ok(self):
        wire.CellDecoder().check_clean_eof()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=24), st.sampled_from(["a", "b", "c"])),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.integers(min_value=1, max_value=23), min_size=1, max_size=8),
    )
    def test_roundtrip_arbitrary_split_points(self, parts, cut_sizes):
        """Decoding must be invariant to how the kernel chunks the stream."""
        tree = TaintTree(LocalId("10.0.0.9", 9))
        taints, table = make_gid_table(tree, ["a", "b", "c"])
        data = TBytes.empty()
        for raw, name in parts:
            data = data + TBytes.tainted(raw, taints[name])
        cells = wire.encode_cells(data, table)
        decoder = wire.CellDecoder()
        out = TBytes.empty()
        position = 0
        cut_index = 0
        while position < len(cells):
            step = cut_sizes[cut_index % len(cut_sizes)]
            cut_index += 1
            out = out + decoder.feed(cells[position : position + step], table)
            position += step
        assert out.data == data.data
        for i in range(len(data)):
            assert out.label_at(i) is data.label_at(i)
        decoder.check_clean_eof()


class TestPacketEnvelope:
    def test_roundtrip(self, tree):
        taints, table = make_gid_table(tree, ["u"])
        payload = TBytes.tainted(b"datagram", taints["u"])
        envelope = wire.encode_packet(payload, table)
        assert wire.is_enveloped(envelope)
        assert len(envelope) == wire.envelope_length(8)
        out = wire.decode_packet(envelope, table)
        assert out.data == b"datagram"
        assert out.overall_taint() is taints["u"]

    def test_plain_payload_not_enveloped(self):
        assert not wire.is_enveloped(b"plain data")

    def test_truncated_envelope_raises(self, tree):
        _, table = make_gid_table(tree, [])
        envelope = wire.encode_packet(TBytes(b"abcdef"), table)
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_packet(envelope[:-3], table)

    def test_bad_version_raises(self, tree):
        _, table = make_gid_table(tree, [])
        envelope = bytearray(wire.encode_packet(TBytes(b"a"), table))
        envelope[2] = 99
        with pytest.raises(WireFormatError, match="version"):
            wire.decode_packet(bytes(envelope), table)

    def test_truncated_header_raises_wire_format_error(self):
        """A payload that starts with the magic but stops inside the
        7-byte header is a malformed envelope, not an index error."""
        header = wire.PACKET_MAGIC + bytes([wire.PACKET_VERSION]) + b"\x00" * 4
        for size in range(len(wire.PACKET_MAGIC), wire.PACKET_HEADER):
            with pytest.raises(WireFormatError, match="truncated"):
                wire.decode_packet(header[:size], None)

    def test_empty_payload(self, tree):
        _, table = make_gid_table(tree, [])
        envelope = wire.encode_packet(TBytes.empty(), table)
        assert wire.decode_packet(envelope, table) == TBytes.empty()

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=64), st.sampled_from(["a", "b"]))
    def test_envelope_roundtrip_property(self, raw, name):
        tree = TaintTree(LocalId("10.0.0.8", 8))
        taints, table = make_gid_table(tree, ["a", "b"])
        payload = TBytes.tainted(raw, taints[name])
        out = wire.decode_packet(wire.encode_packet(payload, table), table)
        assert out.data == raw
        if raw:
            assert out.overall_taint() is taints[name]


def reference_gids(data, gid_for):
    """One Global ID per data byte, looked up byte by byte."""
    return [gid_for(data.label_at(i)) for i in range(len(data))]


def reference_cells(data, gid_for):
    """The cell stream one byte at a time: the byte, then its big-endian GID."""
    gids = reference_gids(data, gid_for)
    return b"".join(bytes([byte]) + struct.pack(">I", gid) for byte, gid in zip(data.data, gids))


def reference_packet(data, gid_for):
    """The envelope: magic, version 1, big-endian length, data, one GID per byte."""
    gids = reference_gids(data, gid_for)
    header = b"\xd7\x5a\x01" + struct.pack(">I", len(data))
    return header + data.data + b"".join(struct.pack(">I", gid) for gid in gids)


class TestPerByteReference:
    """Both codecs work per run; their frames must equal the per-byte
    format exactly, and decoding must give back every byte's label."""

    @settings(max_examples=80, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=40),
                st.sampled_from(["gap", "empty", "a", "b", "c"]),
            ),
            min_size=1,
            max_size=8,
        ),
        gids=st.tuples(
            st.integers(min_value=1 << 28, max_value=0xFFFFFFFF),  # high byte set
            st.integers(min_value=1, max_value=0xFFFFFFFF),
            st.integers(min_value=1, max_value=0xFFFFFFFF),
        ).filter(lambda gids: len(set(gids)) == 3),
        cut_sizes=st.lists(st.integers(min_value=1, max_value=23), min_size=1, max_size=8),
    )
    def test_codecs_match_per_byte_reference(self, segments, gids, cut_sizes):
        tree = TaintTree(LocalId("10.0.0.7", 7))
        labels = {"gap": None, "empty": tree.empty}
        labels.update({name: tree.taint_for_tag(name) for name in "abc"})
        gid_of = {id(None): 0, id(tree.empty): 0}
        gid_of.update({id(labels[name]): gid for name, gid in zip("abc", gids)})
        taint_of = {gid: labels[name] for name, gid in zip("abc", gids)}
        gid_for = lambda label: gid_of[id(label)]  # noqa: E731
        table = SimpleNamespace(
            gids_for=lambda labels: [gid_for(label) for label in labels],
            taints_for=lambda gids: [taint_of[gid] for gid in gids],
        )

        runs, position = [], 0
        for raw, name in segments:
            runs.append((position, position + len(raw), labels[name]))
            position += len(raw)
        data = TBytes(b"".join(raw for raw, _ in segments), LabelRuns(position, runs))
        expected = [
            None if label is None or label.is_empty else label
            for label in (data.label_at(i) for i in range(len(data)))
        ]

        cells = wire.encode_cells(data, table)
        assert cells == reference_cells(data, gid_for)
        envelope = wire.encode_packet(data, table)
        assert envelope == reference_packet(data, gid_for)

        # A decoded value's ``labels is None`` exactly when no byte of it
        # has a label: the one summary every crossing's fast path reads.
        untainted = lambda labels: all(label is None for label in labels)  # noqa: E731
        decoder = wire.CellDecoder()
        out = TBytes.empty()
        position = 0
        for step in itertools.cycle(cut_sizes):
            if position >= len(cells):
                break
            piece = decoder.feed(cells[position : position + step], table)
            assert (piece.labels is None) == untainted(expected[len(out) : len(out) + len(piece)])
            out = out + piece
            position += step
        decoder.check_clean_eof()
        packet = wire.decode_packet(envelope, table)
        for decoded in (out, packet):
            assert decoded.data == data.data
            assert all(decoded.label_at(i) is label for i, label in enumerate(expected))
            assert (decoded.labels is None) == untainted(expected)
