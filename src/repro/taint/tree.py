"""The per-JVM singleton taint tree (paper §II-B, Fig. 3).

Phosphor stores all taint tags of one JVM in a single tree.  A *taint* is
a reference to one tree node; the tag set it denotes is the set of tags on
the path from the root to that node.  Combining two taints (e.g. for
``c = a + b``) appends child nodes so that the resulting node's path
carries the union of both tag sets.  Referring taints to shared nodes
means equal tag sets are stored once.

Here the node *is* the taint: a :class:`Taint` is one tree node holding
its tag, parent, tree and children, and nothing else.  The tree keeps
one node per tag set, so two values tainted with the same tag set hold
the *same* ``Taint`` object and identity comparison is enough for the
hot paths (per-byte label arrays).  A node holds a lone child directly,
so a chain node (most nodes have one child) costs one object.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Collection, Hashable, Iterable, Iterator, Optional, Union

from repro.taint.tags import LocalId, TaintTag

#: Sort key: a tag's rank in its tree (the paper's ``ID``).
_RANK = attrgetter("tree_id")


class Taint:
    """A taint: one node of the taint tree, the ``<ID, Tag>`` of Fig. 3.

    The root carries no tag (``tag is None``) and is the empty taint.
    A node's tag set is the tags on its path from the root, which
    ascends by rank, and the tree holds one node per tag set, so ``is``
    comparison is valid whenever both taints come from the same tree.
    """

    __slots__ = ("tag", "parent", "tree", "children")

    def __init__(self, tag: Optional[TaintTag], parent: Optional["Taint"], tree: "TaintTree"):
        self.tag = tag
        self.parent = parent
        self.tree = tree
        #: None, the lone child, or from a second child on a dict of child
        #: by rank; only :meth:`TaintTree._walk` writes it.
        self.children: Union[None, Taint, dict[int, Taint]] = None

    @property
    def tags(self) -> frozenset[TaintTag]:
        """All tags carried by this taint, collected by walking up to
        the root: O(depth)."""
        return frozenset(_path(self))

    @property
    def is_empty(self) -> bool:
        return self.tag is None

    def union(self, other: "Taint") -> "Taint":
        """Combine two taints (paper: taint propagation is tag-set union).

        When every tag of ``other`` ranks above this taint's, the cost
        is one ``children`` lookup or new node per tag of ``other``
        (:meth:`TaintTree.combine`).
        """
        if other is self or other.tag is None:
            return self
        if self.tag is None:
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


def _child_nodes(node: Taint) -> Iterator[Taint]:
    """``node``'s children, whichever form ``children`` holds them in."""
    children = node.children
    if type(children) is dict:
        yield from children.values()
    elif children is not None:
        yield children


def _path(node: Taint) -> list[TaintTag]:
    """The tags on ``node``'s path, from ``node`` up to the root (so in
    descending rank)."""
    tags = []
    while node.tag is not None:
        tags.append(node.tag)
        node = node.parent
    return tags


class TaintTree:
    """Per-JVM taint storage: the singleton tree of Fig. 3.

    Every root-to-node path ascends by tag rank and a node's children
    have distinct ranks, so a tag set has exactly one path: its one node
    is found by walking ``children`` from the root in rank order.
    :meth:`combine` appends to a path only above its last rank, which
    keeps paths ascending.

    Thread safe: real distributed-system nodes run many worker threads
    (e.g. ZooKeeper's SendWorker/RecvWorker) that all propagate taints.
    """

    def __init__(self, local_id: LocalId):
        self.local_id = local_id
        self._lock = threading.Lock()
        #: The empty taint.
        self.root = Taint(None, None, self)
        self._nodes = 1
        #: Registered tags in insertion order (rank == paper's ``ID``).
        self._tags: dict[TaintTag, TaintTag] = {}
        #: One ``LocalId`` per origin, shared by all its interned tags.
        self._origins: dict[LocalId, LocalId] = {local_id: local_id}

    @property
    def empty(self) -> Taint:
        """The empty taint (root node)."""
        return self.root

    def node_count(self) -> int:
        return self._nodes

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
            return self._intern(tag)

    def _intern(self, tag: TaintTag) -> TaintTag:
        """:meth:`register_tag`; caller holds the lock.  An unranked
        tag is ranked in place, its ``local_id`` swapped for the equal
        one this tree holds for its origin."""
        existing = self._tags.get(tag)
        if existing is not None:
            return existing
        origin = self._origins.setdefault(tag.local_id, tag.local_id)
        if tag.tree_id:
            tag = TaintTag(tag.tag, origin, global_id=tag.global_id)
        else:
            tag.local_id = origin
        tag.tree_id = len(self._tags) + 1
        self._tags[tag] = tag
        return tag

    def new_tag(self, tag_value: Hashable, local_id: Optional[LocalId] = None) -> TaintTag:
        """Create (or reuse) a tag generated on this JVM."""
        return self.register_tag(TaintTag(tag_value, local_id or self.local_id))

    def taint_for_tag(self, tag_value: Hashable, local_id: Optional[LocalId] = None) -> Taint:
        """The taint ``{tag}`` for a source point: a child of the root."""
        tag = TaintTag(tag_value, local_id or self.local_id)
        with self._lock:
            return self._walk(self.root, (self._intern(tag),))

    # ------------------------------------------------------------------ #
    # Canonical tag-set lookup and combination
    # ------------------------------------------------------------------ #

    def taint_for_tags(self, tags: Collection[TaintTag]) -> Taint:
        """Canonical taint for an arbitrary tag set.

        Its tags are interned and walked from the root in rank order,
        appending whatever is missing, so equal tag sets always resolve
        to the same node regardless of the order combinations happened
        in.
        """
        with self._lock:
            return self._node_for(tags)

    def taints_for_tag_sets(self, tag_sets: Iterable[Collection[TaintTag]]) -> list[Taint]:
        """:meth:`taint_for_tags` of each tag set, under one lock hold
        (the Taint Map receiver resolves a lookup reply this way)."""
        with self._lock:
            return [self._node_for(tags) for tags in tag_sets]

    def _node_for(self, tags: Collection[TaintTag]) -> Taint:
        """:meth:`taint_for_tags`; caller holds the lock.  A lone tag
        (every fresh tag) needs no dedup or sort."""
        if len(tags) == 1:
            (tag,) = tags
            return self._walk(self.root, (self._intern(tag),))
        return self._walk(self.root, sorted({self._intern(t) for t in tags}, key=_RANK))

    def combine(self, a: Taint, b: Taint) -> Taint:
        """Union of two non-empty taints of this tree.

        Fig. 3's union appends child nodes: when every tag on ``b``'s
        path outranks the last tag on ``a``'s (a fresh tag, say), the
        union is walked down from ``a``, one ``children`` lookup or new
        node per tag of ``b``.  Otherwise the union of the two paths,
        sorted by rank, is walked from the root.  Either way, a union
        adds at most one node per tag it adds.
        """
        rank = a.tag.tree_id
        added = []
        node = b
        while node.tag is not None and node.tag.tree_id > rank:
            added.append(node.tag)
            node = node.parent
        if node is a:
            return b
        with self._lock:
            if node.tag is None:
                added.reverse()
                return self._walk(a, added)
            return self._walk(self.root, sorted({*_path(a), *_path(b)}, key=_RANK))

    def _walk(self, node: Taint, ranked: Iterable[TaintTag]) -> Taint:
        """Walk down from ``node`` along ``ranked`` (interned tags, each
        outranking the last), adding the missing nodes.  Caller holds
        the lock.  The only writer of ``children``: a first child is
        held directly, and a second turns the slot into a dict by rank,
        whose int keys hash in C."""
        for tag in ranked:
            children = node.children
            child = children.get(tag.tree_id) if type(children) is dict else children
            if child is None or child.tag is not tag:
                child = Taint(tag, node, self)
                self._nodes += 1
                if children is None:
                    node.children = child
                elif type(children) is dict:
                    children[tag.tree_id] = child
                else:
                    node.children = {children.tag.tree_id: children, tag.tree_id: child}
            node = child
        return node
