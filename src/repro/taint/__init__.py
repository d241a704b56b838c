"""Intra-node dynamic taint tracking (the Phosphor substrate).

Implements the paper's §II-B machinery: the taint-tag quad, the per-JVM
singleton taint tree, shadow-carrying value types with per-byte labels,
propagation-by-union, and source/sink points.
"""

from repro.taint.policy import POLICY, TaintPolicy, shadows_enabled
from repro.taint.sources import SinkObservation, SourceEvent, SourceSinkRegistry
from repro.taint.tags import LocalId, TaintTag
from repro.taint.tree import Taint, TaintTree
from repro.taint.values import (
    LabelRuns,
    TBool,
    TByteArray,
    TBytes,
    TDouble,
    TInt,
    TLong,
    TObj,
    TStr,
    as_tbytes,
    as_tstr,
    plain,
    taint_of,
    union_all,
    union_labels,
    with_taint,
)

__all__ = [
    "LabelRuns",
    "LocalId",
    "POLICY",
    "SinkObservation",
    "SourceEvent",
    "SourceSinkRegistry",
    "TBool",
    "TByteArray",
    "TBytes",
    "TDouble",
    "TInt",
    "TLong",
    "TObj",
    "TStr",
    "Taint",
    "TaintPolicy",
    "TaintTag",
    "TaintTree",
    "as_tbytes",
    "as_tstr",
    "plain",
    "shadows_enabled",
    "taint_of",
    "union_all",
    "union_labels",
    "with_taint",
]
