"""Taint source / sink points.

DisTA users specify sources and sinks as Java method descriptors in two
spec files passed on the agent command line (paper §V-E):

* when a method is a **source** point, its return value is tainted;
* when a method is a **sink** point, its arguments are checked for taints
  before the body runs.

The simulated systems call :meth:`SourceSinkRegistry.source` /
:meth:`SourceSinkRegistry.sink` at the corresponding call sites — the
moral equivalent of the bytecode hooks the agent injects.  Whether a site
actually fires is decided by the registry's descriptor patterns, so the
same system code serves the SDT and SIM scenarios of Table IV with
different spec files.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Hashable, Optional

from repro.taint.tags import TaintTag
from repro.taint.tree import Taint, TaintTree
from repro.taint.values import Label, taint_of, with_taint


def _matches(cache: dict, descriptor: str, patterns: list) -> bool:
    """Whether ``descriptor`` matches ``patterns``, remembered in
    ``cache``."""
    hit = cache.get(descriptor)
    if hit is None:
        hit = cache[descriptor] = any(fnmatchcase(descriptor, p) for p in patterns)
    return hit


@dataclass(frozen=True)
class SinkObservation:
    """One sink-point check: which tags were seen on which node."""

    descriptor: str
    node: str
    tags: frozenset[TaintTag]
    detail: str = ""

    @property
    def tainted(self) -> bool:
        return bool(self.tags)


@dataclass(slots=True)
class SourceEvent:
    """One source-point firing: the tag it generated."""

    descriptor: str
    node: str
    tag: TaintTag
    detail: str = ""


@dataclass
class SourceSinkRegistry:
    """Per-JVM source/sink configuration and observation log."""

    tree: TaintTree
    node_name: str
    #: Descriptor globs (``fnmatch``).  Add to them with ``add_source``
    #: and ``add_sink``, which forget the matches the hooks remember.
    source_patterns: list = field(default_factory=list)
    sink_patterns: list = field(default_factory=list)
    #: Fraction of matching source firings that actually taint their
    #: value (the tainted-fraction telemetry tests drive it from 0 to
    #: 1).  1.0 is the paper's behaviour: every firing taints.
    source_fraction: float = 1.0
    #: Flow-sampling period: admit (taint) every ``k``-th matching
    #: source firing, counted deterministically per registry.  1 admits
    #: every flow (the paper's behaviour).  The cluster sets it once from
    #: ``DisTAConfig.sample_every``.  A sampled-out flow's value is
    #: returned untainted, so it dispatches through the zero-taint fast
    #: path everywhere downstream — never touching the resolver or the
    #: Taint Map — and its wire frames are byte-identical to untainted
    #: traffic.  It reaches its sinks untainted and is counted in
    #: :attr:`sampled_out` (``dista_sampled_out_total``).
    sample_every: int = 1

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        #: The cluster's LineageStore when lineage is on, else ``None``
        #: (the hooks below then cost one ``is None`` test).  The
        #: cluster sets it when it attaches the agent.
        self.lineage = None
        self.source_events: list[SourceEvent] = []
        self.observations: list[SinkObservation] = []
        #: Descriptor -> whether it matches the source (sink) patterns.
        #: A hook tests a descriptor once; ``add_source`` (``add_sink``)
        #: swaps in an empty dict, so an answer computed against the old
        #: patterns lands in a dict nobody reads any more.
        self._source_matches: dict[str, bool] = {}
        self._sink_matches: dict[str, bool] = {}
        self._auto_counter = 0
        self._sample_counter = 0
        self._flow_counter = 0
        #: Matching source firings left untracked by flow sampling.
        self.sampled_out = 0
        #: Matching source firings admitted by flow sampling (only
        #: counted while ``sample_every`` > 1; with sampling off the
        #: admission check is skipped entirely).
        self.admitted = 0

    # -- configuration -------------------------------------------------- #

    def add_source(self, pattern: str) -> None:
        self.source_patterns.append(pattern)
        self._source_matches = {}

    def add_sink(self, pattern: str) -> None:
        self.sink_patterns.append(pattern)
        self._sink_matches = {}

    def is_source(self, descriptor: str) -> bool:
        return _matches(self._source_matches, descriptor, self.source_patterns)

    def is_sink(self, descriptor: str) -> bool:
        return _matches(self._sink_matches, descriptor, self.sink_patterns)

    # -- runtime hooks --------------------------------------------------- #

    def source(self, descriptor: str, value, tag_value: Optional[Hashable] = None, detail: str = ""):
        """Source hook: taint ``value`` if ``descriptor`` is configured.

        Each firing generates a fresh tag (paper Fig. 11: three reads of
        the same source point yield three distinct taints) unless the
        caller supplies an explicit ``tag_value``.

        ``source_fraction`` < 1.0 gates firings deterministically
        (Bresenham-style): of the first ``n`` matching calls, exactly
        ``floor(n * fraction)`` taint their value — 0.0 never fires,
        1.0 always does, and reruns are reproducible.

        ``sample_every`` = k > 1 additionally admits only every k-th
        matching firing (flow sampling).  Admission
        is a plain per-registry counter — independent of timing, Taint
        Map transport and thread scheduling — so the same workload
        admits the identical flow set on every run.
        """
        if not self.is_source(descriptor):
            return value
        every = self.sample_every
        if every > 1:
            with self._lock:
                self._flow_counter += 1
                admitted = (self._flow_counter - 1) % every == 0
                if admitted:
                    self.admitted += 1
                else:
                    self.sampled_out += 1
            if not admitted:
                # Sampled-out flows are visible in lineage as explicit
                # stub trees — marked, never silently missing.
                if self.lineage is not None:
                    self.lineage.record_sampled_out(self.node_name, descriptor)
                return value
        fraction = self.source_fraction
        if fraction < 1.0:
            with self._lock:
                self._sample_counter += 1
                sample = self._sample_counter
            if int(sample * fraction) == int((sample - 1) * fraction):
                return value
        with self._lock:
            self._auto_counter += 1
            counter = self._auto_counter
        if tag_value is None:
            tag_value = f"{descriptor}#{counter}"
        taint = self.tree.taint_for_tag(tag_value)
        tag = taint.tag
        with self._lock:
            self.source_events.append(SourceEvent(descriptor, self.node_name, tag, detail))
        if self.lineage is not None:
            self.lineage.record_source(self.node_name, descriptor, tag, detail)
        return with_taint(value, taint)

    def sink(self, descriptor: str, *values, detail: str = "") -> Optional[SinkObservation]:
        """Sink hook: record the tags present on ``values``.

        Returns the observation (even when empty) if the descriptor is a
        configured sink, else ``None``.
        """
        if not self.is_sink(descriptor):
            return None
        tags: set[TaintTag] = set()
        for value in values:
            taint = taint_of(value)
            if taint is not None:
                tags.update(taint.tags)
        observation = SinkObservation(descriptor, self.node_name, frozenset(tags), detail)
        with self._lock:
            self.observations.append(observation)
        if tags and self.lineage is not None:
            self.lineage.record_sink(self.node_name, descriptor, observation.tags, detail)
        return observation

    # -- reporting -------------------------------------------------------- #

    def telemetry_samples(self) -> dict:
        """Snapshot fragment for the node's metrics registry (registered
        by the agent on attach)."""
        return {
            "dista_sampled_out_total": {
                "type": "counter",
                "help": "Source firings flow sampling left untracked.",
                "samples": [{"labels": {}, "value": self.sampled_out}],
            }
        }

    def tainted_observations(self) -> list[SinkObservation]:
        with self._lock:
            return [o for o in self.observations if o.tainted]

    def observed_tags(self) -> frozenset[TaintTag]:
        with self._lock:
            out: set[TaintTag] = set()
            for o in self.observations:
                out.update(o.tags)
            return frozenset(out)

    def generated_tags(self) -> frozenset[TaintTag]:
        with self._lock:
            return frozenset(e.tag for e in self.source_events)
