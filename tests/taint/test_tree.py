"""Unit tests for the per-JVM taint tree (paper §II-B, Fig. 3)."""

import gc
import sys
import threading
import tracemalloc

import pytest

from repro.taint import LocalId, Taint, TaintTag, TaintTree


@pytest.fixture()
def tree():
    return TaintTree(LocalId("10.0.0.1", 4242))


def tags(taint: Taint) -> set:
    return {t.tag for t in taint.tags}


class TestTagRegistration:
    def test_empty_taint_has_no_tags(self, tree):
        assert tree.empty.is_empty
        assert tree.empty.tags == frozenset()

    def test_new_tag_gets_rank_in_insertion_order(self, tree):
        a = tree.new_tag("a_tag")
        b = tree.new_tag("b_tag")
        assert a.tree_id == 1
        assert b.tree_id == 2

    def test_reregistering_same_tag_returns_same_object(self, tree):
        a1 = tree.new_tag("a_tag")
        a2 = tree.new_tag("a_tag")
        assert a1 is a2
        assert tree.tag_count() == 1

    def test_same_value_different_local_id_are_distinct_tags(self, tree):
        """The tag-conflict scenario of §III-D.1: same code on two nodes."""
        mine = tree.new_tag("a_tag")
        theirs = tree.new_tag("a_tag", LocalId("10.0.0.2", 999))
        assert mine is not theirs
        assert mine != theirs
        assert tree.tag_count() == 2

    def test_global_id_defaults_to_zero(self, tree):
        assert tree.new_tag("a_tag").global_id == 0

    def test_taint_for_tag_is_child_of_root(self, tree):
        t = tree.taint_for_tag("a_tag")
        assert t.parent is tree.root
        assert tags(t) == {"a_tag"}


class TestCombination:
    def test_union_is_tag_set_union(self, tree):
        a = tree.taint_for_tag("a_tag")
        b = tree.taint_for_tag("b_tag")
        c = a.union(b)
        assert tags(c) == {"a_tag", "b_tag"}

    def test_union_with_empty_is_identity(self, tree):
        a = tree.taint_for_tag("a_tag")
        assert a.union(tree.empty) is a
        assert tree.empty.union(a) is a

    def test_union_is_idempotent(self, tree):
        a = tree.taint_for_tag("a_tag")
        assert a.union(a) is a

    def test_equal_tag_sets_share_a_node(self, tree):
        """Fig. 3: equal tag sets refer to the same node (memory sharing)."""
        a = tree.taint_for_tag("a_tag")
        b = tree.taint_for_tag("b_tag")
        ab = a.union(b)
        ba = b.union(a)
        assert ab is ba

    def test_union_of_three_is_associative(self, tree):
        a = tree.taint_for_tag("a")
        b = tree.taint_for_tag("b")
        c = tree.taint_for_tag("c")
        assert a.union(b).union(c) is a.union(b.union(c))

    def test_or_operator(self, tree):
        a = tree.taint_for_tag("a")
        b = tree.taint_for_tag("b")
        assert (a | b).tags == a.union(b).tags

    def test_cross_tree_union_rejected(self, tree):
        other = TaintTree(LocalId("10.0.0.2", 1))
        a = tree.taint_for_tag("a")
        b = other.taint_for_tag("b")
        with pytest.raises(ValueError, match="Taint Map"):
            a.union(b)

    def test_taint_for_tags_with_foreign_tags(self, tree):
        """Tags deserialized from another node are interned locally."""
        foreign = TaintTag("x_tag", LocalId("10.0.0.9", 7), global_id=12)
        t = tree.taint_for_tags([foreign])
        assert tags(t) == {"x_tag"}
        assert tree.tag_count() == 1

    def test_foreign_tags_share_one_local_id_per_origin(self, tree):
        """Tags deserialized from one origin share its ``LocalId``."""
        first = TaintTag("x_tag", LocalId("10.0.0.9", 7))
        second = TaintTag("y_tag", LocalId("10.0.0.9", 7))
        (x,) = tree.taint_for_tags([first]).tags
        (y,) = tree.taint_for_tags([second]).tags
        assert x.local_id is y.local_id

    def test_node_count_bounded_by_distinct_sets(self, tree):
        taints = [tree.taint_for_tag(f"t{i}") for i in range(4)]
        before = tree.node_count()
        for _ in range(10):
            combined = taints[0]
            for t in taints[1:]:
                combined = combined.union(t)
        grown = tree.node_count() - before
        # Only the nodes on the canonical chain t0→t1→t2→t3 may be added.
        assert grown <= 3

    def test_union_adding_a_higher_rank_appends_one_node(self, tree, monkeypatch):
        """Fig. 3: a union appends child nodes.  Adding one tag that
        outranks a 6-tag taint's path interns nothing and adds exactly
        the one node below it."""
        six = tree.empty
        for i in range(6):
            six = six.union(tree.taint_for_tag(f"t{i}"))
        seventh = tree.taint_for_tag("t6")
        interned = []
        intern = tree._intern
        monkeypatch.setattr(tree, "_intern", lambda tag: interned.append(tag) or intern(tag))
        before = tree.node_count()
        seven = six.union(seventh)
        assert interned == []
        assert tree.node_count() == before + 1
        assert seven.parent is six
        assert tags(seven) == {f"t{i}" for i in range(7)}

    def test_tag_ranked_by_another_tree_is_interned_as_a_copy(self, tree):
        """A rank belongs to one tree: interning another tree's tag
        object must not re-rank it there."""
        other = TaintTree(LocalId("10.0.0.2", 1))
        other.new_tag("first")
        theirs = other.new_tag("shared")
        tree.new_tag("a")
        tree.new_tag("b")
        mine = tree.taint_for_tags([theirs])
        (local,) = mine.tags
        assert local == theirs and local is not theirs
        assert (local.tree_id, theirs.tree_id) == (3, 2)


class TestConcurrency:
    def test_parallel_combination_converges(self, tree):
        taints = [tree.taint_for_tag(f"t{i}") for i in range(8)]
        results = []

        def worker(order):
            combined = tree.empty
            for i in order:
                combined = combined.union(taints[i])
            results.append(combined)

        threads = [
            threading.Thread(target=worker, args=(list(range(8))[:: 1 if k % 2 else -1],))
            for k in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert all(r is results[0] for r in results)

    def test_parallel_appends_keep_one_handle_per_set(self, tree):
        """Eight threads grow overlapping chains, each union adding a
        higher-ranked tag (the append path), under a tiny switch
        interval: every tag set still ends up with exactly one handle."""
        singles = [tree.taint_for_tag(f"t{i}") for i in range(10)]
        seen: list[list[Taint]] = [[] for _ in range(8)]

        def worker(k):
            for start in range(k % 4, len(singles)):
                combined = singles[start]
                for single in singles[start + 1 :]:
                    combined = combined.union(single)
                    seen[k].append(combined)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        handles: dict[frozenset, set] = {}
        for taint in (taint for found in seen for taint in found):
            handles.setdefault(taint.tags, set()).add(id(taint))
        assert len(handles) == 45  # every run t_i..t_j with i < j
        assert all(len(ids) == 1 for ids in handles.values())
        for tag_set, (handle_id,) in handles.items():
            assert id(tree.taint_for_tags(tag_set)) == handle_id


class TestMemoryShape:
    """Fig. 3's node is the taint: one object per tag set, whose size
    does not depend on how many tags its path carries."""

    def test_a_fresh_tag_keeps_at_most_three_tracked_objects(self, tree):
        """Per fresh tag chained by union: the tag, its singleton and the
        chain's new node, which its parent holds as its lone child, with
        no dict.  That is exactly 3, so the bound leaves half an object
        per tag for what the rest of the process allocates meanwhile."""
        gc.collect()
        before = len(gc.get_objects())
        chain = tree.empty
        for i in range(2000):
            chain = chain.union(tree.taint_for_tag(f"t{i}"))
        gc.collect()
        assert (len(gc.get_objects()) - before) / 2000 < 3.5

    def test_a_deep_node_costs_what_a_shallow_one_does(self):
        def bytes_per_node(depth):
            tree = TaintTree(LocalId("10.0.0.1", 4242))
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                chain = tree.empty
                for i in range(depth):
                    chain = chain.union(tree.taint_for_tag(f"t{i}"))
                after, _ = tracemalloc.get_traced_memory()
            finally:
                if started:
                    tracemalloc.stop()
            return (after - before) / depth

        assert bytes_per_node(1000) <= 2 * bytes_per_node(10)
