"""Fuzzing the parsers: malformed input must raise typed errors, never
crash with arbitrary exceptions or return corrupted data silently."""

import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.taintmap import deserialize_tags, serialize_tags
from repro.errors import ReproError, TaintMapError, WireFormatError
from repro.taint import LocalId, TaintTag

ACCEPTABLE = (TaintMapError, WireFormatError, ReproError, struct.error, IndexError,
              UnicodeDecodeError, ValueError)

#: Resolves every Global ID to no taint.
NO_TAINTS = SimpleNamespace(taints_for=lambda gids: [None] * len(gids))


@settings(max_examples=100)
@given(st.binary(min_size=0, max_size=64))
def test_deserialize_tags_never_crashes_unexpectedly(raw):
    try:
        tags = deserialize_tags(raw)
    except ACCEPTABLE:
        return
    # Anything that parses must re-serialize canonically.
    assert serialize_tags(frozenset(tags)) is not None


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
        with pytest.raises(ACCEPTABLE):
            deserialize_tags(struct.pack(">H", 60000) + b"\x01")

    def test_overwide_int_tag_rejected_with_typed_error(self):
        from repro.taint import LocalId, TaintTag

        tag = TaintTag(2**70, LocalId("10.0.0.1", 1))
        with pytest.raises(TaintMapError, match="64 bits"):
            serialize_tags(frozenset([tag]))
