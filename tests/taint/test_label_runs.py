"""Property tests: LabelRuns is observably a per-byte label list.

Every operation (slice, concat, union, splice, lookup) must agree with
the corresponding plain-list computation — the run-length encoding is a
pure representation change, invisible to taint semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.taint.tags import LocalId
from repro.taint.tree import TaintTree
from repro.taint.values import LabelRuns, TBytes, union_labels

_TREE = TaintTree(LocalId("10.0.0.9", 9))
_POOL = [None] + [_TREE.taint_for_tag(f"p{i}") for i in range(3)] + [_TREE.empty]

labels_lists = st.lists(st.sampled_from(_POOL), min_size=0, max_size=24)


def _reference(labels):
    """The per-byte reference of pool labels: a run never holds the
    empty taint, so its bytes read ``None``."""
    return [None if label is _TREE.empty else label for label in labels]


@settings(max_examples=200)
@given(labels_lists)
def test_roundtrip_from_list_to_list(labels):
    runs = LabelRuns.from_list(labels)
    assert runs.to_list() == _reference(labels)
    assert len(runs) == len(labels)
    assert list(runs) == _reference(labels)


@settings(max_examples=200)
@given(labels_lists, st.integers(0, 24), st.integers(0, 24))
def test_slice_matches_list_slice(labels, a, b):
    runs = LabelRuns.from_list(labels)
    assert runs.slice(a, b).to_list() == _reference(labels)[a:b]
    assert runs[a:b].to_list() == _reference(labels)[a:b]


@settings(max_examples=200)
@given(labels_lists)
def test_point_lookup_matches_list_index(labels):
    runs = LabelRuns.from_list(labels)
    for i, expected in enumerate(_reference(labels)):
        assert runs.label_at(i) is expected
        assert runs[i] is expected
        assert runs.label_at(i - len(labels)) is expected


@settings(max_examples=200)
@given(labels_lists, labels_lists)
def test_concat_matches_list_concat(left, right):
    combined = LabelRuns.from_list(left).concat(LabelRuns.from_list(right))
    assert combined.to_list() == _reference(left + right)
    assert combined.length == len(left) + len(right)


@settings(max_examples=200)
@given(labels_lists, st.sampled_from(_POOL))
def test_union_matches_per_byte_union(labels, taint):
    unioned = LabelRuns.from_list(labels).union_taint(taint)
    assert unioned.to_list() == [union_labels(label, taint) for label in labels]


@settings(max_examples=200)
@given(labels_lists, labels_lists, st.integers(0, 24))
def test_splice_matches_list_splice(base, patch, at):
    start = min(at, len(base))
    stop = min(start + len(patch), len(base))
    patch = patch[: stop - start]
    expected = _reference(base)
    expected[start:stop] = _reference(patch)
    runs = LabelRuns.from_list(base)
    runs[start:stop] = LabelRuns.from_list(patch)
    assert runs.to_list() == expected


@settings(max_examples=100)
@given(labels_lists)
def test_run_count_is_minimal(labels):
    """Adjacent equal labels always merge; None and the empty taint
    never store a run."""
    runs = LabelRuns.from_list(labels)
    minimal = 0
    prev = None
    for label in _reference(labels):
        if label is not None and label is not prev:
            minimal += 1
        prev = label
    assert runs.run_count == minimal


@settings(max_examples=100)
@given(labels_lists)
def test_overall_matches_union_of_all(labels):
    runs = LabelRuns.from_list(labels)
    expected = None
    for label in labels:
        expected = union_labels(expected, label)
    assert runs.overall() is expected or runs.overall() == expected


def test_invalid_runs_rejected():
    t = _TREE.taint_for_tag("bad")
    with pytest.raises(ValueError):
        LabelRuns(-1)
    with pytest.raises(ValueError):
        LabelRuns(10, [(0, 5, t), (3, 8, t)])  # overlap
    with pytest.raises(ValueError):
        LabelRuns(10, [(5, 8, t), (0, 3, t)])  # unsorted
    # Inverted or out-of-range runs clip to nothing rather than raise.
    assert LabelRuns(10, [(4, 2, t)]).run_count == 0
    assert LabelRuns(3, [(5, 9, t)]).run_count == 0


def test_single_run_is_constant_space():
    t = _TREE.taint_for_tag("big")
    runs = LabelRuns.filled(1 << 20, t)
    assert runs.run_count == 1
    assert runs.label_at(0) is t
    assert runs.label_at((1 << 20) - 1) is t
    assert runs.slice(12345, 99999).run_count == 1


# --------------------------------------------------------------------- #
# Operations that build their result as canonical runs directly must
# give exactly what the normalising constructor makes of the same runs.
# --------------------------------------------------------------------- #


def assert_canonical(result, length, runs):
    """``result`` has the starts, ends and label identities of
    ``LabelRuns(length, runs)``, and normalising it changes nothing."""
    assert result == LabelRuns(length, runs)
    assert result == LabelRuns(result.length, result.runs)


def _shifted(runs, shift):
    return [(s + shift, e + shift, label) for s, e, label in runs.runs]


@settings(max_examples=100)
@given(st.integers(0, 24), st.sampled_from(_POOL))
def test_filled_is_canonical(length, label):
    assert_canonical(LabelRuns.filled(length, label), length, [(0, length, label)])


def test_filled_rejects_a_negative_length():
    with pytest.raises(ValueError):
        LabelRuns.filled(-1, _POOL[1])
    with pytest.raises(ValueError):
        LabelRuns.filled(-1, None)


@settings(max_examples=200)
@given(labels_lists, st.integers(-2, 26), st.integers(-2, 26))
def test_slice_is_canonical(labels, a, b):
    runs = LabelRuns.from_list(labels)
    start = max(0, min(a, len(labels)))
    stop = max(start, min(b, len(labels)))
    assert_canonical(runs.slice(a, b), stop - start, _shifted(runs, -start))


@settings(max_examples=200)
@given(labels_lists, labels_lists)
def test_concat_is_canonical(left, right):
    a, b = LabelRuns.from_list(left), LabelRuns.from_list(right)
    assert_canonical(a.concat(b), len(left) + len(right), a.runs + _shifted(b, len(left)))


@settings(max_examples=100)
@given(labels_lists)
def test_copy_is_canonical_and_independent(labels):
    runs = LabelRuns.from_list(labels)
    copied = runs.copy()
    assert_canonical(copied, len(labels), runs.runs)
    if labels:
        copied[0:1] = LabelRuns.from_list([_POOL[1]])
        assert runs.to_list() == _reference(labels)


@settings(max_examples=200)
@given(st.lists(labels_lists, max_size=5))
def test_tbytes_concat_is_canonical(parts):
    pieces = [TBytes(bytes(len(labels)), LabelRuns.from_list(labels)) for labels in parts]
    result = TBytes.concat(pieces)
    runs, offset = [], 0
    for piece in pieces:
        runs += _shifted(piece.label_runs(), offset)
        offset += len(piece)
    assert result.data == bytes(offset)
    assert_canonical(result.label_runs(), offset, runs)
    assert (result.labels is None) == (not runs)


@settings(max_examples=200)
@given(labels_lists, st.sampled_from(_POOL))
def test_tbytes_with_taint_matches_a_union_pass(labels, taint):
    value = TBytes(bytes(len(labels)), LabelRuns.from_list(labels))
    result = value.with_taint(taint)
    if taint is None:
        assert result is value
        return
    expected = value.label_runs().union_taint(taint)
    assert_canonical(result.label_runs(), len(labels), expected.runs)
    assert (result.labels is None) == (not expected.has_labels())
