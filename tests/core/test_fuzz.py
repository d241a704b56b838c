"""Fuzzing the parsers: malformed input must raise typed errors, never
crash with arbitrary exceptions or return corrupted data silently."""

import struct
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.taintmap import (
    _decode_tag_value,
    _encode_tag_value,
    _split_batch_lookup_response,
    _split_batch_register,
    _taints_from_records,
    deserialize_tags,
    serialize_tags,
    serialized_key,
)
from repro.errors import TaintMapError, WireFormatError
from repro.taint import LocalId, TaintTag, TaintTree

#: Resolves every Global ID to no taint.
NO_TAINTS = SimpleNamespace(taints_for=lambda gids: [None] * len(gids))


# --------------------------------------------------------------------- #
# The server's key and parser as they were before the key was built from
# bytes: the references serialized_key and deserialize_tags must match.
# --------------------------------------------------------------------- #


def taint_key(tags: frozenset) -> bytes:
    """Canonical identity of a tag set, ignoring GlobalID fields."""
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


def reference_tags(raw: bytes) -> list:
    """Field-by-field parse of a serialized taint; any exception means
    the input is malformed."""
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


tag_values = st.one_of(
    st.text(max_size=10),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.binary(max_size=8),
)
global_ids = st.integers(min_value=0, max_value=2**32 - 1)
tags = st.builds(
    TaintTag,
    tag_values,
    st.builds(
        LocalId,
        st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.12.34"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    global_id=global_ids,
)


def _record(tag: TaintTag) -> bytes:
    return serialize_tags(frozenset([tag]))[2:]


@st.composite
def serializations(draw) -> bytes:
    """A valid serialization whose records are shuffled, some repeated
    (re-stamped with another GlobalID or not), then maybe one byte
    mutated."""
    drawn = draw(st.lists(tags, max_size=5))
    records = [_record(tag) for tag in drawn]
    if drawn:
        for tag in draw(st.lists(st.sampled_from(drawn), max_size=3)):
            records.append(_record(TaintTag(tag.tag, tag.local_id, global_id=draw(global_ids))))
    records = draw(st.permutations(records))
    raw = struct.pack(">H", len(records)) + b"".join(records)
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw = raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1 :]
    return raw


parser_inputs = st.one_of(st.binary(max_size=64), serializations())


#: The GID the receiver's record-to-tree path resolves in the test below,
#: and a well-formed entry to put before a malformed one in a reply.
_GID = 7
_GOOD_ENTRY = serialize_tags(frozenset({TaintTag("good", LocalId("10.0.0.1", 1))}))


# Input generation can pass Hypothesis' too_slow deadline on a loaded
# machine while the parsers are fine, so only that health check is off.
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(parser_inputs)
def test_parsers_reject_exactly_what_the_reference_rejects(raw):
    """deserialize_tags, serialized_key and the receiver's record-to-tree
    path raise TaintMapError exactly where the reference parser raises
    anything; elsewhere they return its tags, ``taint_key`` of them, and
    the tree's node for them, whose singleton tag takes the GID as its
    GlobalID when its record carried none.  A reply it rejects, even
    after a good entry, leaves the tree as it was."""
    tree = TaintTree(LocalId("10.0.0.9", 9))

    def receive(raw):
        return _taints_from_records(tree, [_GID], [raw])[0]

    try:
        expected = reference_tags(raw)
    except Exception:
        for parse in (deserialize_tags, serialized_key, receive):
            with pytest.raises(TaintMapError):
                parse(raw)
        with pytest.raises(TaintMapError):
            _taints_from_records(tree, [_GID + 1, _GID], [_GOOD_ENTRY, raw])
        assert (tree.tag_count(), tree.node_count()) == (0, 1)
        return
    got = deserialize_tags(raw)
    assert [(t.tag, t.local_id, t.global_id) for t in got] == [
        (t.tag, t.local_id, t.global_id) for t in expected
    ]
    assert serialized_key(raw) == taint_key(frozenset(expected))
    node = receive(raw)
    assert node is tree.taint_for_tags(reference_tags(raw))
    carried: dict = {}
    for tag in expected:
        carried.setdefault(tag.key(), tag.global_id)
    singleton = node.parent is tree.root
    for tag in node.tags:
        want = carried[tag.key()]
        assert tag.global_id == ((want or _GID) if singleton else want)


@settings(max_examples=100)
@given(st.binary(min_size=0, max_size=64))
def test_deserialize_tags_never_crashes_unexpectedly(raw):
    try:
        tags = deserialize_tags(raw)
    except TaintMapError:
        return
    # Anything that parses must re-serialize canonically.
    assert serialize_tags(frozenset(tags)) is not None


@settings(max_examples=100)
@given(st.binary(max_size=48), st.integers(min_value=0, max_value=4))
def test_batch_splitters_raise_only_typed_errors(raw, count):
    for split in (_split_batch_register, lambda b: _split_batch_lookup_response(b, count)):
        try:
            entries = split(raw)
        except TaintMapError:
            continue
        assert sum(4 + len(entry) for entry in entries) <= len(raw)


@settings(max_examples=100)
@given(
    st.one_of(
        st.binary(min_size=0, max_size=64),
        st.binary(min_size=0, max_size=64).map(lambda raw: wire.PACKET_MAGIC + raw),
    )
)
def test_decode_packet_never_crashes_unexpectedly(raw):
    try:
        out = wire.decode_packet(raw, NO_TAINTS)
    except WireFormatError:
        return
    assert len(out) <= len(raw)


@settings(max_examples=60)
@given(st.lists(st.binary(min_size=0, max_size=32), max_size=6))
def test_cell_decoder_accepts_any_chunking_of_garbage(chunks):
    """Garbage bytes decode into *some* data (gids resolve via the stub);
    the decoder itself never raises on byte patterns — framing errors are
    only detectable at EOF (check_clean_eof)."""
    decoder = wire.CellDecoder()
    total = 0
    for chunk in chunks:
        out = decoder.feed(chunk, NO_TAINTS)
        total += len(out)
    assert total == sum(len(c) for c in chunks) // wire.CELL_WIDTH


@settings(max_examples=50)
@given(
    st.frozensets(
        st.tuples(
            st.one_of(
                st.text(max_size=10),
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.binary(max_size=8),
            ),
            st.from_regex(r"10\.0\.[0-9]{1,2}\.[0-9]{1,2}", fullmatch=True),
            st.integers(min_value=0, max_value=2**31 - 1),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_serialize_deserialize_is_identity_on_valid_tags(raw_tags):
    tags = frozenset(
        TaintTag(value, LocalId(ip, pid)) for value, ip, pid in raw_tags
    )
    assert frozenset(deserialize_tags(serialize_tags(tags))) == tags


class TestProtocolEdges:
    def test_empty_tag_set_roundtrips(self):
        assert deserialize_tags(serialize_tags(frozenset())) == []

    def test_trailing_garbage_rejected(self):
        raw = serialize_tags(
            frozenset([TaintTag("t", LocalId("10.0.0.1", 1))])
        )
        with pytest.raises(TaintMapError, match="trailing"):
            deserialize_tags(raw + b"\x00garbage")

    def test_huge_claimed_count_rejected(self):
        with pytest.raises(TaintMapError):
            deserialize_tags(struct.pack(">H", 60000) + b"\x01")

    @pytest.mark.parametrize(
        "raw, cause",
        [
            (b"", struct.error),
            (b"\x00\x01", IndexError),
            (b"\x00\x01\x01\xff" + bytes(11), UnicodeDecodeError),
        ],
    )
    def test_malformed_taint_raises_typed_error(self, raw, cause):
        for parse in (deserialize_tags, serialized_key):
            with pytest.raises(TaintMapError) as raised:
                parse(raw)
            assert isinstance(raised.value.__cause__, cause)

    def test_duplicate_records_count_once_in_the_key(self):
        tag = TaintTag("t", LocalId("10.0.0.1", 1))
        raw = struct.pack(">H", 2) + _record(tag) * 2
        assert serialized_key(raw) == taint_key(frozenset([tag]))

    def test_truncated_batch_entry_raises_typed_error(self):
        entry = serialize_tags(frozenset([TaintTag("t", LocalId("10.0.0.1", 1))]))
        batch = struct.pack(">HI", 1, len(entry)) + entry
        with pytest.raises(TaintMapError) as raised:
            _split_batch_register(batch[:4])
        assert isinstance(raised.value.__cause__, struct.error)
        with pytest.raises(TaintMapError) as raised:
            _split_batch_lookup_response(batch[2:4], 1)
        assert isinstance(raised.value.__cause__, struct.error)
        with pytest.raises(TaintMapError):
            _split_batch_register(b"\x00")

    def test_overwide_int_tag_rejected_with_typed_error(self):
        from repro.taint import LocalId, TaintTag

        tag = TaintTag(2**70, LocalId("10.0.0.1", 1))
        with pytest.raises(TaintMapError, match="64 bits"):
            serialize_tags(frozenset([tag]))
