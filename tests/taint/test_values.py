"""Unit tests for shadow-carrying value types."""

from types import SimpleNamespace

import pytest

from repro.core import wire
from repro.taint import (
    POLICY,
    LabelRuns,
    LocalId,
    TBool,
    TByteArray,
    TBytes,
    TDouble,
    TInt,
    TObj,
    TStr,
    TaintTree,
    plain,
    taint_of,
    with_taint,
)


@pytest.fixture()
def tree():
    return TaintTree(LocalId("10.0.0.1", 1))


@pytest.fixture()
def ta(tree):
    return tree.taint_for_tag("a_tag")


@pytest.fixture()
def tb(tree):
    return tree.taint_for_tag("b_tag")


class TestTBytes:
    def test_untainted_roundtrip(self):
        b = TBytes(b"hello")
        assert b.data == b"hello"
        assert not b.is_tainted()
        assert len(b) == 5

    def test_tainted_constructor_taints_every_byte(self, ta):
        b = TBytes.tainted(b"abc", ta)
        assert all(b.label_at(i) is ta for i in range(3))
        assert b.overall_taint() is ta

    def test_label_length_mismatch_rejected(self, ta):
        with pytest.raises(ValueError):
            TBytes(b"ab", LabelRuns.from_list([ta]))

    def test_per_byte_label_list_rejected(self, ta):
        """A shadow has one form: ``None`` or ``LabelRuns``."""
        with pytest.raises(TypeError):
            TBytes(b"ab", [ta, ta])
        with pytest.raises(TypeError):
            TStr("ab", [ta, ta])

    def test_concat_preserves_per_byte_labels(self, ta, tb):
        b = TBytes.tainted(b"aa", ta) + TBytes.tainted(b"bb", tb)
        assert b.data == b"aabb"
        assert b.label_at(0) is ta
        assert b.label_at(3) is tb
        assert {t.tag for t in b.overall_taint().tags} == {"a_tag", "b_tag"}

    def test_slice_preserves_labels(self, ta, tb):
        b = TBytes.tainted(b"aa", ta) + TBytes.tainted(b"bb", tb)
        tail = b[2:]
        assert tail.data == b"bb"
        assert tail.overall_taint() is tb

    def test_index_returns_tainted_int(self, ta):
        b = TBytes.tainted(b"\x07", ta)
        v = b[0]
        assert isinstance(v, TInt)
        assert v.value == 7
        assert v.taint is ta

    def test_negative_index_keeps_the_byte_taint(self, ta, tb):
        b = TBytes(b"x") + TBytes.tainted(b"yz", ta) + TBytes.tainted(b"w", tb)
        assert b[-1].value == ord("w") and b[-1].taint is tb
        assert b[-2].taint is ta
        assert b[-4].taint is None
        assert b.label_at(-1) is tb
        assert b.label_at(-3) is ta
        for index in (4, -5):
            with pytest.raises(IndexError):
                b[index]

    def test_with_taint_unions(self, ta, tb):
        b = TBytes.tainted(b"x", ta).with_taint(tb)
        assert {t.tag for t in b.overall_taint().tags} == {"a_tag", "b_tag"}

    def test_eq_against_raw_bytes(self):
        assert TBytes(b"xy") == b"xy"
        assert TBytes(b"xy") != b"yz"

    def test_decode_multibyte_utf8(self, ta, tb):
        raw = "héllo".encode("utf-8")
        b = TBytes.tainted(raw, ta)
        s = b.decode()
        assert s.value == "héllo"
        assert len(s) == 5
        assert s.overall_taint() is ta
        # Each char takes the union of its bytes' labels: "é" is two
        # bytes, here labelled ``ta`` and ``tb``.
        mixed = TBytes(raw[:1]) + TBytes.tainted(raw[1:2], ta) + TBytes.tainted(raw[2:], tb)
        s = mixed.decode()
        assert s.labels[0] is None
        assert {t.tag for t in s.labels[1].tags} == {"a_tag", "b_tag"}
        assert all(s.labels[i] is tb for i in range(2, 5))
        assert s.labels.run_count == 2

    def test_decode_encode_roundtrip_labels(self, ta, tb):
        s = TStr.tainted("ab", ta) + TStr.tainted("cd", tb)
        b = s.encode()
        s2 = b.decode()
        assert s2.value == "abcd"
        assert s2.labels[0] is ta
        assert s2.labels[3] is tb


class TestTByteArray:
    def test_write_then_read_roundtrips_labels(self, ta):
        buf = TByteArray(8)
        buf.write(2, TBytes.tainted(b"abc", ta))
        out = buf.read(2, 3)
        assert out.data == b"abc"
        assert out.overall_taint() is ta
        assert buf.read(0, 2).overall_taint() is None

    def test_write_overflow_rejected(self):
        buf = TByteArray(2)
        with pytest.raises(IndexError):
            buf.write(1, TBytes(b"ab"))

    def test_overwrite_clears_old_labels(self, ta):
        buf = TByteArray(4)
        buf.write(0, TBytes.tainted(b"aaaa", ta))
        buf.write(1, TBytes(b"__"))
        assert buf.read(1, 2).overall_taint() is None
        assert buf.read(0, 1).overall_taint() is ta

    def test_from_tbytes(self, ta):
        buf = TByteArray(TBytes.tainted(b"zz", ta))
        assert buf.snapshot().overall_taint() is ta


class TestScalars:
    def test_addition_unions_taints(self, ta, tb):
        c = TInt(1, ta) + TInt(2, tb)
        assert c.value == 3
        assert {t.tag for t in c.taint.tags} == {"a_tag", "b_tag"}

    def test_mixed_plain_arithmetic(self, ta):
        c = 10 + TInt(5, ta) * 2
        assert c.value == 20
        assert c.taint is ta

    def test_comparison_returns_plain_bool(self, ta):
        assert (TInt(3, ta) < 4) is True
        assert (TInt(3, ta) == 3) is True

    def test_bit_ops_propagate(self, ta, tb):
        v = (TInt(0xF0, ta) | TInt(0x0F, tb)) & 0xFF
        assert v.value == 0xFF
        assert {t.tag for t in v.taint.tags} == {"a_tag", "b_tag"}

    def test_shift_propagates(self, ta):
        assert (TInt(1, ta) << 4).value == 16
        assert (TInt(1, ta) << 4).taint is ta

    def test_double_division(self, ta):
        d = TDouble(1.0, ta) / 4
        assert d.value == 0.25
        assert d.taint is ta

    def test_bool(self, ta):
        assert bool(TBool(True, ta))
        assert not TBool(False, ta)

    def test_hash_by_value(self, ta):
        assert hash(TInt(7, ta)) == hash(7)


class TestTStr:
    def test_concat_and_slice(self, ta, tb):
        s = TStr.tainted("ab", ta) + TStr.tainted("cd", tb)
        assert s.value == "abcd"
        assert s[0:2].overall_taint() is ta
        assert s[2:].overall_taint() is tb

    def test_radd_plain_prefix(self, ta):
        s = "id=" + TStr.tainted("42", ta)
        assert s.value == "id=42"
        assert s.overall_taint() is ta

    def test_split_preserves_labels(self, ta, tb):
        s = TStr.tainted("aa", ta) + TStr(",") + TStr.tainted("bb", tb)
        left, right = s.split(",")
        assert left.value == "aa" and left.overall_taint() is ta
        assert right.value == "bb" and right.overall_taint() is tb

    def test_split_on_empty_separator_raises_like_str(self, ta):
        with pytest.raises(ValueError, match="empty separator"):
            TStr.tainted("abc", ta).split("")

    def test_index_follows_str_indexing(self, ta, tb):
        s = TStr("a") + TStr.tainted("b", ta) + TStr.tainted("c", tb)
        assert s[-1].value == "c" and s[-1].overall_taint() is tb
        assert s[-2].value == "b" and s[-2].overall_taint() is ta
        assert s[0].value == "a" and s[0].labels is None
        for index in (3, 5, -4):
            with pytest.raises(IndexError):
                s[index]
        with pytest.raises(IndexError):
            TStr("abc")[5]



class TestTObjAndHelpers:
    def test_tobj_overall_taint(self, ta):
        class Vote(TObj):
            def __init__(self, leader, epoch):
                self.leader = leader
                self.epoch = epoch

        v = Vote(TInt(2, ta), TInt(1))
        assert v.overall_taint() is ta
        assert v.is_tainted()

    def test_taint_of_containers(self, ta):
        assert taint_of([TInt(1, ta), 2]) is ta
        assert taint_of({"k": TInt(1, ta)}) is ta
        assert taint_of(7) is None

    def test_with_taint_wraps_plain_values(self, ta):
        assert isinstance(with_taint(1, ta), TInt)
        assert isinstance(with_taint(True, ta), TBool)
        assert isinstance(with_taint("s", ta), TStr)
        assert isinstance(with_taint(b"b", ta), TBytes)
        assert isinstance(with_taint(1.5, ta), TDouble)

    def test_with_taint_rejects_opaque(self, ta):
        with pytest.raises(TypeError):
            with_taint(object(), ta)

    def test_plain_strips_shadows(self, ta):
        assert plain(TInt(3, ta)) == 3
        assert plain(TBytes.tainted(b"x", ta)) == b"x"
        assert plain(TStr.tainted("s", ta)) == "s"


class TestPolicyFastPath:
    def test_original_mode_skips_shadow_materialization(self):
        with POLICY.shadows(False):
            b = TBytes(b"abcd")
            assert b.labels is None
            assert (b + b).labels is None
            assert b[1:3].labels is None
            buf = TByteArray(4)
            assert buf.labels is None
            s = TStr("hi")
            assert s.labels is None
            assert TInt(1).taint is None

    def test_instrumented_mode_keeps_untainted_labels_none(self):
        """Zero-taint invariant: an all-empty shadow is never
        materialized, even under instrumentation — ``labels is None`` is
        the O(1) summary the fast paths dispatch on."""
        with POLICY.shadows(True):
            b = TBytes(b"abcd")
            assert b.labels is None
            assert not b.any_tainted()
            # The invariant survives slice, concat and explicit
            # empty-shadow construction.
            assert (b + b).labels is None
            assert b[1:3].labels is None
            assert TBytes(b"abcd", LabelRuns(4)).labels is None
            assert TStr("hi").labels is None
            assert TByteArray(4).labels is None

    def test_untainted_splice_keeps_labels_none(self, ta):
        with POLICY.shadows(True):
            buf = TByteArray(8)
            buf.write(2, TBytes(b"abc"))
            assert buf.labels is None
            # Tainting then fully overwriting drops back to an empty
            # shadow, and reads of it normalize to None.
            buf.write(0, TBytes.tainted(b"xxxxxxxx", ta))
            buf.write(0, TBytes(b"--------"))
            assert buf.labels is None
            assert buf.read(0, 8).labels is None

    def test_any_tainted_summary(self, ta):
        with POLICY.shadows(True):
            assert not TBytes(b"clean").any_tainted()
            assert TBytes.tainted(b"hot", ta).any_tainted()
            mixed = TBytes(b"..") + TBytes.tainted(b"t", ta)
            assert mixed.any_tainted()
            assert not mixed[0:2].any_tainted()
            assert mixed[2:].any_tainted()

    def test_the_empty_taint_keeps_no_run(self, tree, ta):
        """A shadow never holds the empty taint: a value tainted with it
        is untainted, with ``labels is None``, and so takes every
        crossing's fast path."""
        with POLICY.shadows(True):
            assert LabelRuns.filled(3, tree.empty).run_count == 0
            assert LabelRuns(3, [(0, 2, tree.empty), (2, 3, ta)]).runs == [(2, 3, ta)]
            value = TBytes.tainted(b"abc", tree.empty)
            assert value.labels is None
            assert not value.is_tainted()
            assert not value.any_tainted()
            assert value.tainted_byte_count() == 0
            assert TStr.tainted("abc", tree.empty).labels is None
            assert TBytes(b"abc").with_taint(tree.empty).labels is None
            mixed = TBytes.tainted(b"ab", tree.empty) + TBytes.tainted(b"c", ta)
            assert mixed.tainted_byte_count() == 1
            assert mixed.labels.runs == [(2, 3, ta)]

            def no_map(_):
                raise AssertionError("the fast path resolves no label")

            resolver = SimpleNamespace(gids_for=no_map, taints_for=no_map)
            assert wire.encode_cells(value, resolver) == wire.encode_cells(TBytes(b"abc"), resolver)
