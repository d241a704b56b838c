"""The per-JVM singleton taint tree (paper §II-B, Fig. 3).

Phosphor stores all taint tags of one JVM in a single tree.  A *taint* is
a reference to one tree node; the tag set it denotes is the set of tags on
the path from the root to that node.  Combining two taints (e.g. for
``c = a + b``) appends child nodes so that the resulting node's path
carries the union of both tag sets.  Referring taints to shared nodes
means equal tag sets are stored once.

This module implements the tree plus the :class:`Taint` handle type.
``Taint`` instances are interned per tree node, so two values tainted with
the same tag set hold the *same* ``Taint`` object and identity comparison
is enough for the hot paths (per-byte label arrays).
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Hashable, Iterable, Optional

from repro.taint.tags import LocalId, TaintTag

#: Sort key: a tag's rank in its tree (the paper's ``ID``).
_RANK = attrgetter("tree_id")


class TreeNode:
    """One node of the taint tree: the tuple ``<ID, Tag>`` of Fig. 3.

    The root carries no tag (``tag is None``) and denotes the empty taint.
    """

    __slots__ = ("node_id", "tag", "parent", "children", "tag_set", "taint")

    def __init__(self, node_id: int, tag: Optional[TaintTag], parent: Optional["TreeNode"]):
        self.node_id = node_id
        self.tag = tag
        self.parent = parent
        #: Child lookup by the appended tag.
        self.children: dict[TaintTag, TreeNode] = {}
        parent_tags = parent.tag_set if parent is not None else frozenset()
        #: All tags on the path root → this node (cached; paths are short).
        self.tag_set: frozenset[TaintTag] = (
            parent_tags | {tag} if tag is not None else parent_tags
        )
        #: Interned taint handle referring to this node (set by the tree).
        self.taint: "Taint" = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TreeNode(id={self.node_id}, tags={sorted(str(t.tag) for t in self.tag_set)})"


class Taint:
    """A taint: an immutable handle to one taint-tree node.

    The empty taint refers to the tree root.  Handles are interned per
    node, so ``is`` comparison is valid whenever both handles come from
    the same tree.
    """

    __slots__ = ("node", "tree")

    def __init__(self, node: TreeNode, tree: "TaintTree"):
        self.node = node
        self.tree = tree

    @property
    def tags(self) -> frozenset[TaintTag]:
        """All tags carried by this taint (path from root to node)."""
        return self.node.tag_set

    @property
    def is_empty(self) -> bool:
        return not self.node.tag_set

    def union(self, other: "Taint") -> "Taint":
        """Combine two taints (paper: taint propagation is tag-set union).

        When ``other`` adds only tags ranked above this taint's, the
        cost is one new node per added tag (:meth:`TaintTree.combine`).
        """
        if other is self or other.is_empty:
            return self
        if self.is_empty:
            return other
        if other.tree is not self.tree:
            raise ValueError(
                "cannot combine taints from different JVMs directly; "
                "inter-node taints must pass through the Taint Map"
            )
        return self.tree.combine(self, other)

    def __or__(self, other: "Taint") -> "Taint":
        return self.union(other)

    def __repr__(self) -> str:
        if self.is_empty:
            return "Taint(<empty>)"
        return f"Taint({sorted(str(t.tag) for t in self.tags)})"


class TaintTree:
    """Per-JVM taint storage: the singleton tree of Fig. 3.

    Three rules keep the tree canonical: every root-to-node path ascends
    by tag rank; ``_set_index`` alone decides which node (and so which
    handle) a tag set has; and :meth:`combine` appends to a path only
    above its last rank.

    Thread safe: real distributed-system nodes run many worker threads
    (e.g. ZooKeeper's SendWorker/RecvWorker) that all propagate taints.
    """

    def __init__(self, local_id: LocalId):
        self.local_id = local_id
        self._lock = threading.RLock()
        self._next_id = 0
        self.root = self._new_node(None, None)
        #: Canonical node per tag set, so equal sets share storage.
        self._set_index: dict[frozenset[TaintTag], TreeNode] = {frozenset(): self.root}
        #: Registered tags in insertion order (rank == paper's ``ID``).
        self._tags: dict[TaintTag, TaintTag] = {}

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _new_node(self, tag: Optional[TaintTag], parent: Optional[TreeNode]) -> TreeNode:
        node = TreeNode(self._next_id, tag, parent)
        self._next_id += 1
        node.taint = Taint(node, self)
        return node

    @property
    def empty(self) -> Taint:
        """The empty taint (root node)."""
        return self.root.taint

    def node_count(self) -> int:
        return self._next_id

    def tag_count(self) -> int:
        return len(self._tags)

    # ------------------------------------------------------------------ #
    # Tag registration
    # ------------------------------------------------------------------ #

    def register_tag(self, tag: TaintTag) -> TaintTag:
        """Intern a tag in this tree, assigning its rank on first sight.

        Tags arriving from other nodes (via the Taint Map) keep their
        origin ``LocalID`` but receive a fresh local rank, which is how
        the paper avoids cross-node tag conflicts.  A tag object already
        ranked by another tree is interned as a copy, so ranking it here
        cannot reorder that tree's paths.
        """
        with self._lock:
            existing = self._tags.get(tag)
            if existing is not None:
                return existing
            if tag.tree_id:
                tag = TaintTag(tag.tag, tag.local_id, global_id=tag.global_id)
            tag.tree_id = len(self._tags) + 1
            self._tags[tag] = tag
            return tag

    def new_tag(self, tag_value: Hashable, local_id: Optional[LocalId] = None) -> TaintTag:
        """Create (or reuse) a tag generated on this JVM."""
        return self.register_tag(TaintTag(tag_value, local_id or self.local_id))

    def taint_for_tag(self, tag_value: Hashable, local_id: Optional[LocalId] = None) -> Taint:
        """The taint ``{tag}`` for a source point: a child of the root."""
        tag = self.new_tag(tag_value, local_id)
        with self._lock:
            return self._append(self.root, (tag,)).taint

    # ------------------------------------------------------------------ #
    # Canonical tag-set lookup and combination
    # ------------------------------------------------------------------ #

    def taint_for_tags(self, tags: Iterable[TaintTag]) -> Taint:
        """Canonical taint for an arbitrary tag set.

        A set already in the tree is found without interning anything.
        Otherwise its tags are interned and appended from the root in
        rank order, so equal tag sets always resolve to the same node
        regardless of the order combinations happened in.
        """
        key = frozenset(tags)
        with self._lock:
            node = self._set_index.get(key)
            if node is None:
                interned = [self.register_tag(t) for t in key]
                node = self._append(self.root, sorted(interned, key=_RANK))
            return node.taint

    def combine(self, a: Taint, b: Taint) -> Taint:
        """Union of two taints of this tree.

        Fig. 3's union appends child nodes: when every tag ``b`` adds
        outranks the last tag on ``a``'s path, the result extends that
        path by one node per added tag.  Any other new set is appended
        from the root in rank order.
        """
        base = a.node
        tags = base.tag_set | b.node.tag_set
        with self._lock:
            node = self._set_index.get(tags)
            if node is None:
                added = sorted(tags - base.tag_set, key=_RANK)
                if base.tag is None or added[0].tree_id > base.tag.tree_id:
                    node = self._append(base, added)
                else:
                    node = self._append(self.root, sorted(tags, key=_RANK))
            return node.taint

    def _append(self, node: TreeNode, ranked: Iterable[TaintTag]) -> TreeNode:
        """Walk down from ``node`` along ``ranked`` (interned tags, each
        outranking the last), adding and indexing the missing nodes.
        Caller holds the lock."""
        for tag in ranked:
            child = node.children.get(tag)
            if child is None:
                child = self._new_node(tag, node)
                node.children[tag] = child
                self._set_index.setdefault(child.tag_set, child)
            node = child
        return node
