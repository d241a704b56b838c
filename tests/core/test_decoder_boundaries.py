"""CellDecoder across every possible read boundary.

The kernel may deliver a cell stream in arbitrary chunks; splitting at
every offset must reassemble identical data and identical label runs —
the receiver-side guarantee behind the fixed-width cell design (§III-D).
"""

from types import SimpleNamespace

import pytest

from repro.core import wire
from repro.taint.values import LabelRuns, TBytes
from repro.taint.tags import LocalId, TaintTag
from repro.taint.tree import TaintTree


@pytest.fixture()
def tree():
    return TaintTree(LocalId("10.0.0.1", 1))


def _resolvers(tree):
    by_taint: dict[object, int] = {}
    by_gid: dict[int, object] = {}

    def gid_for(taint):
        if taint is None or taint.is_empty:
            return 0
        gid = by_taint.get(taint)
        if gid is None:
            gid = len(by_taint) + 1
            by_taint[taint] = gid
            by_gid[gid] = taint
        return gid

    return SimpleNamespace(
        gids_for=lambda taints: [gid_for(taint) for taint in taints],
        taints_for=lambda gids: [by_gid[gid] for gid in gids],
    )


def _message(tree):
    ta = tree.taint_for_tag("a")
    tb = tree.taint_for_tag("b")
    runs = LabelRuns(12, [(0, 3, ta), (5, 9, tb), (10, 12, ta)])
    return TBytes(bytes(range(12)), runs)


def test_split_at_every_offset(tree):
    data = _message(tree)
    table = _resolvers(tree)
    cells = wire.encode_cells(data, table)
    whole = wire.CellDecoder().feed(cells, table)
    assert whole.data == data.data
    assert whole.labels == data.labels

    for split in range(1, wire.CELL_WIDTH * 3 + 1):
        decoder = wire.CellDecoder()
        pieces = [
            decoder.feed(cells[i : i + split], table)
            for i in range(0, len(cells), split)
        ]
        combined = TBytes.concat(pieces)
        assert combined.data == data.data, f"split={split}"
        assert combined.labels == data.labels, f"split={split}"
        decoder.check_clean_eof()


def test_every_prefix_decodes_whole_cells_only(tree):
    data = _message(tree)
    table = _resolvers(tree)
    cells = wire.encode_cells(data, table)
    for cut in range(len(cells) + 1):
        decoder = wire.CellDecoder()
        decoded = decoder.feed(cells[:cut], table)
        whole_cells = cut // wire.CELL_WIDTH
        assert len(decoded) == whole_cells
        assert decoder.residue_len == cut % wire.CELL_WIDTH
        assert decoded.data == data.data[:whole_cells]
        if decoded.labels is not None:
            assert decoded.labels == data.labels.slice(0, whole_cells)


def test_untainted_stream_stays_labelless(tree):
    table = _resolvers(tree)
    cells = wire.encode_cells(TBytes(b"hello"), table)
    decoder = wire.CellDecoder()
    parts = [decoder.feed(cells[i : i + 2], table) for i in range(0, len(cells), 2)]
    combined = TBytes.concat(parts)
    assert combined.data == b"hello"
    assert combined.overall_taint() is None
