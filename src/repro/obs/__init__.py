"""Cluster-wide telemetry (registry, /metrics exposition, lineage).

Only the registry and lineage are imported eagerly: :mod:`repro.runtime.kernel`
and :mod:`repro.runtime.node` construct registries at import time, while
:mod:`repro.obs.http` sits *above* the runtime stack; loading it here
would be circular.
"""

from repro.obs.lineage import FlowTree, LineageStore
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    DEFAULT_LOWEST,
    FragmentHistogram,
    MetricFamily,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
    merge_snapshots,
    render_exposition,
    snapshot_quantile,
    snapshot_total,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_LOWEST",
    "FlowTree",
    "FragmentHistogram",
    "LineageStore",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "bucket_bounds",
    "bucket_index",
    "merge_snapshots",
    "render_exposition",
    "snapshot_quantile",
    "snapshot_total",
]


def __getattr__(name):
    if name == "MetricsServer":
        from repro.obs.http import MetricsServer

        return MetricsServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
