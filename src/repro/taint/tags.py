"""Taint tag structures.

DisTA extends Phosphor's ``<ID, Tag>`` tag pair with two extra fields
(paper §III-D.1), giving the quad ``<ID, Tag, LocalID, GlobalID>``:

* ``ID`` — the rank of the tag in the node-local taint tree (assigned by
  :class:`repro.taint.tree.TaintTree` when the tag is first stored).
* ``Tag`` — the user-supplied tag value (any hashable object; typically a
  short string such as ``"a_tag"``).
* ``LocalID`` — the identity of the JVM that *generated* the tag: the
  node's IP plus the JVM process id.  Two nodes running identical code can
  generate tags with equal ``Tag`` values; ``LocalID`` disambiguates them
  (the "tag conflict" problem of §III-D.1).
* ``GlobalID`` — zero while the tag has only ever lived on its origin
  node; assigned a unique positive integer by the Taint Map the first time
  the tag crosses the network.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple


class LocalId(NamedTuple):
    """Origin of a taint tag: the generating JVM's IP and process id."""

    ip: str
    pid: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.pid}"


class TaintTag:
    """One taint tag: the DisTA quad ``<ID, Tag, LocalID, GlobalID>``.

    Identity (equality / hashing) is defined by ``(tag, local_id)`` only:
    the tree rank ``ID`` differs between nodes (each JVM has its own tree)
    and ``GlobalID`` is assigned lazily, so neither can participate in
    identity without breaking cross-node tag comparison.  Both identity
    fields are fixed at construction, so the hash is computed once; the
    one change allowed is the tree's, which before ranking a tag may swap
    its ``local_id`` for an equal ``LocalId`` object it already holds for
    that origin, so all of an origin's tags share one.  An equal value
    keeps the hash valid.
    """

    __slots__ = ("tag", "local_id", "tree_id", "global_id", "_hash")

    def __init__(
        self,
        tag: Hashable,
        local_id: LocalId,
        tree_id: int = 0,
        global_id: int = 0,
    ) -> None:
        self.tag = tag
        self.local_id = local_id
        #: Rank in the local taint tree (the paper's ``ID`` field).
        self.tree_id = tree_id
        #: Taint Map identifier; 0 until the tag first crosses the network.
        self.global_id = global_id
        self._hash = hash((tag, local_id))

    def key(self) -> tuple[Hashable, LocalId]:
        """The cross-node identity of this tag."""
        return (self.tag, self.local_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaintTag):
            return NotImplemented
        return self.tag == other.tag and self.local_id == other.local_id

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"TaintTag(id={self.tree_id}, tag={self.tag!r}, "
            f"local={self.local_id}, gid={self.global_id})"
        )
