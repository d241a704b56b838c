"""Property-based tests (hypothesis) for the taint core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.taintmap import deserialize_tags, serialize_tags, serialize_taint
from repro.taint import LocalId, TBytes, TStr, TaintTree
from repro.taint.tree import _child_nodes

LOCAL = LocalId("10.0.0.1", 1)
REMOTE = LocalId("10.0.0.2", 2)


def fresh_tree() -> TaintTree:
    return TaintTree(LOCAL)


tag_names = st.sampled_from([f"tag{i}" for i in range(6)])
tag_sets = st.frozensets(tag_names, max_size=6)


@given(tag_sets, tag_sets)
def test_union_tags_is_set_union(sa, sb):
    tree = fresh_tree()
    a = tree.taint_for_tags([tree.new_tag(n) for n in sa])
    b = tree.taint_for_tags([tree.new_tag(n) for n in sb])
    assert {t.tag for t in a.union(b).tags} == sa | sb


@given(tag_sets, tag_sets, tag_sets)
def test_union_associative_and_canonical(sa, sb, sc):
    tree = fresh_tree()
    a = tree.taint_for_tags([tree.new_tag(n) for n in sa])
    b = tree.taint_for_tags([tree.new_tag(n) for n in sb])
    c = tree.taint_for_tags([tree.new_tag(n) for n in sc])
    left = a.union(b).union(c)
    right = a.union(b.union(c))
    # Canonicalization: equal tag sets must be the same node/handle.
    assert left is right


@given(st.lists(tag_sets, min_size=1, max_size=8))
def test_node_count_bounded_by_distinct_sets(sets):
    """The set index stores each distinct tag set at most once; because
    canonical insertion may create intermediate prefix nodes, the node
    count is bounded by distinct-sets x max-set-size, not explosion."""
    tree = fresh_tree()
    for s in sets:
        tree.taint_for_tags([tree.new_tag(n) for n in s])
    distinct = {frozenset(s) for s in sets}
    max_len = max((len(s) for s in sets), default=0)
    assert tree.node_count() <= 1 + len(distinct) * max(1, max_len)


#: One taint to union: its tag names, and whether its tags arrive from
#: another node's tree (serialized, so ranked here in arrival order).
taint_specs = st.lists(
    st.tuples(st.frozensets(tag_names, min_size=1, max_size=4), st.booleans()),
    min_size=1,
    max_size=8,
)


@given(taint_specs, st.randoms(use_true_random=False))
def test_unions_keep_the_tree_canonical(specs, rnd):
    """Unions in any order, mixing local tags with tags interned from
    another tree, reach the canonical handle of their tag set; every
    path ascends by rank; the node-count bound holds."""
    tree = fresh_tree()
    remote = TaintTree(REMOTE)
    taints = []
    for names, foreign in specs:
        if foreign:
            raw = serialize_tags(frozenset(remote.new_tag(n) for n in names))
            taints.append(tree.taint_for_tags(deserialize_tags(raw)))
        else:
            taints.append(tree.taint_for_tags([tree.new_tag(n) for n in names]))
    materialized = {t.tags for t in taints}
    rnd.shuffle(taints)
    result = taints[0]
    for taint in taints[1:]:
        result = result.union(taint) if rnd.random() < 0.5 else taint.union(result)
        materialized.add(result.tags)
    expected = frozenset().union(*materialized)
    assert result.tags == expected
    assert result is tree.taint_for_tags(expected)
    pending = [tree.root]
    denoted = set()
    while pending:
        node = pending.pop()
        assert node.tags not in denoted  # no two nodes denote the same set
        denoted.add(node.tags)
        for child in _child_nodes(node):
            assert node.tag is None or child.tag.tree_id > node.tag.tree_id
            pending.append(child)
    max_len = max(len(s) for s in materialized)
    assert tree.node_count() <= 1 + len(materialized) * max_len


@given(taint_specs, st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_one_pass_serialization_matches_the_tag_set(specs, rnd, gid):
    """``serialize_taint`` walks a taint's path once, yet gives the
    bytes ``serialize_tags`` gives for its tag set, for unions of local
    tags and tags from another tree, stamped with GlobalIDs or not."""
    tree = fresh_tree()
    remote = TaintTree(REMOTE)
    result = tree.empty
    for names, foreign in specs:
        if foreign:
            raw = serialize_tags(frozenset(remote.new_tag(n) for n in names))
            taint = tree.taint_for_tags(deserialize_tags(raw))
        else:
            taint = tree.taint_for_tags([tree.new_tag(n) for n in names])
        if rnd.random() < 0.3:
            taint.tag.global_id = gid
        result = result.union(taint) if rnd.random() < 0.5 else taint.union(result)
        assert serialize_taint(taint) == serialize_tags(taint.tags)
        assert serialize_taint(result) == serialize_tags(result.tags)
    assert serialize_taint(tree.empty) == serialize_tags(frozenset())


@given(st.binary(max_size=64), st.binary(max_size=64), tag_names, tag_names)
def test_tbytes_concat_slice_roundtrip(da, db, na, nb):
    tree = fresh_tree()
    ta = tree.taint_for_tag(na)
    tb = tree.taint_for_tag(nb)
    combined = TBytes.tainted(da, ta) + TBytes.tainted(db, tb)
    assert combined.data == da + db
    front = combined[: len(da)]
    back = combined[len(da) :]
    assert front.data == da and back.data == db
    if da:
        assert front.overall_taint() is ta
    if db:
        assert back.overall_taint() is tb
    # Every byte of each part carries its taint, so a slice's shadow is
    # ``None`` exactly when the slice is empty.
    assert (front.labels is None) == (not da)
    assert (back.labels is None) == (not db)


@given(st.binary(max_size=128), st.integers(min_value=0, max_value=128), st.integers(min_value=0, max_value=128))
def test_tbytes_slice_matches_bytes_slice(data, i, j):
    b = TBytes(data)
    assert b[i:j].data == data[i:j]


@given(st.text(max_size=40), tag_names)
def test_tstr_encode_decode_preserves_taint(text, name):
    tree = fresh_tree()
    t = tree.taint_for_tag(name)
    s = TStr.tainted(text, t)
    round_tripped = s.encode("utf-8").decode("utf-8")
    assert round_tripped.value == text
    if text:
        assert round_tripped.overall_taint() is t


@settings(max_examples=30)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=16), tag_names), min_size=1, max_size=6))
def test_per_byte_labels_survive_arbitrary_concat(parts):
    tree = fresh_tree()
    pieces = [TBytes.tainted(d, tree.taint_for_tag(n)) for d, n in parts]
    combined = TBytes.empty()
    for p in pieces:
        combined = combined + p
    # Walk the combined array and check every byte kept its own label.
    pos = 0
    for (data, name), piece in zip(parts, pieces):
        for k in range(len(data)):
            label = combined.label_at(pos + k)
            assert label is piece.label_at(k)
        pos += len(data)
