"""Cluster tracking modes (the three configurations of §V-F)."""

from __future__ import annotations

import enum


class Mode(enum.Enum):
    """How much taint-tracking instrumentation a cluster runs with."""

    #: Uninstrumented baseline: no shadows, unpatched JNI table.
    ORIGINAL = "original"
    #: Phosphor only: intra-node shadows + the naive JNI summary wrapper
    #: of paper Fig. 4 (inter-node taints are lost).
    PHOSPHOR = "phosphor"
    #: Full DisTA: Phosphor plus the three JNI wrapper types + Taint Map.
    DISTA = "dista"

    @property
    def shadows(self) -> bool:
        """Whether value types maintain shadow labels in this mode."""
        return self is not Mode.ORIGINAL

    @property
    def inter_node(self) -> bool:
        """Whether taints propagate across the network in this mode."""
        return self is Mode.DISTA
