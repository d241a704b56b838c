"""Unit tests for source/sink registry and instrumentation helpers."""

import pytest

from repro.taint import (
    LocalId,
    SourceSinkRegistry,
    TBytes,
    TInt,
    TaintTree,
    phosphor_summary,
)
from repro.taint.instrument import CallCounter


@pytest.fixture()
def tree():
    return TaintTree(LocalId("10.0.0.1", 1))


@pytest.fixture()
def reg(tree):
    return SourceSinkRegistry(tree, node_name="node1")


class TestSources:
    def test_unconfigured_source_is_passthrough(self, reg):
        v = reg.source("Vote#<init>", 42)
        assert v == 42
        assert not reg.source_events

    def test_configured_source_taints_return_value(self, reg):
        reg.add_source("Vote#<init>")
        v = reg.source("Vote#<init>", 42, tag_value="vote1")
        assert isinstance(v, TInt)
        assert {t.tag for t in v.taint.tags} == {"vote1"}
        assert len(reg.source_events) == 1

    def test_each_firing_generates_fresh_tag(self, reg):
        """Fig. 11: three reads at one source point = three taints."""
        reg.add_source("FileInputStream#read")
        values = [reg.source("FileInputStream#read", b"x") for _ in range(3)]
        tags = {t.tag for v in values for t in v.overall_taint().tags}
        assert len(tags) == 3

    def test_glob_patterns(self, reg):
        reg.add_source("java.io.*#read")
        v = reg.source("java.io.FileInputStream#read", b"data")
        assert isinstance(v, TBytes)
        assert v.is_tainted()

    def test_source_detail_recorded(self, reg):
        reg.add_source("f#read")
        reg.source("f#read", 1, detail="file=/logs/txn.1")
        assert reg.source_events[0].detail == "file=/logs/txn.1"


class TestSinks:
    def test_unconfigured_sink_returns_none(self, reg):
        assert reg.sink("Logger#info", TInt(1)) is None

    def test_sink_records_tags(self, reg, tree):
        reg.add_sink("checkLeader")
        t = tree.taint_for_tag("vote1")
        obs = reg.sink("checkLeader", TInt(2, t), "plain-arg")
        assert obs is not None
        assert obs.tainted
        assert {x.tag for x in obs.tags} == {"vote1"}
        assert reg.tainted_observations() == [obs]

    def test_sink_with_untainted_args_records_empty(self, reg):
        reg.add_sink("checkLeader")
        obs = reg.sink("checkLeader", 1, "x")
        assert obs is not None
        assert not obs.tainted
        assert reg.tainted_observations() == []

    def test_observed_and_generated_tag_sets(self, reg, tree):
        reg.add_source("src")
        reg.add_sink("snk")
        v = reg.source("src", 5)
        reg.sink("snk", v)
        assert reg.observed_tags() == reg.generated_tags()
        assert len(reg.observed_tags()) == 1


class TestPhosphorSummary:
    def test_summary_unions_argument_taints(self, tree):
        t = tree.taint_for_tag("a")

        @phosphor_summary
        def parse(data, radix):
            return int(data.value)

        result = parse(__import__("repro.taint", fromlist=["TStr"]).TStr.tainted("42", t), 10)
        assert result.value == 42
        assert result.taint is t

    def test_summary_passthrough_for_untainted(self):
        @phosphor_summary
        def add(a, b):
            return a + b

        assert add(1, 2) == 3

    def test_summary_tolerates_unwrappable_result(self, tree):
        t = tree.taint_for_tag("a")

        @phosphor_summary
        def make(obj):
            return object()

        # Returns the raw object rather than failing.
        assert make(TInt(1, t)) is not None


class TestCallCounter:
    def test_counts(self):
        c = CallCounter()
        c.hit("socketRead0")
        c.hit("socketRead0")
        c.hit("socketWrite0")
        assert c.count("socketRead0") == 2
        assert c.snapshot() == {"socketRead0": 2, "socketWrite0": 1}
        assert c.count("unknown") == 0


class TestSourceFraction:
    """The tainted-traffic knob of the overhead sweep: deterministic
    Bresenham gating of source firings."""

    def _fired(self, tree, fraction, n=20):
        reg = SourceSinkRegistry(
            tree, node_name="node1", source_fraction=fraction
        )
        reg.add_source("Read#*")
        fired = 0
        for i in range(n):
            value = reg.source("Read#data", i)
            if isinstance(value, TInt):
                fired += 1
        return fired

    def test_zero_fraction_never_fires(self, tree):
        assert self._fired(tree, 0.0) == 0

    def test_full_fraction_always_fires(self, tree):
        assert self._fired(tree, 1.0) == 20

    def test_half_fraction_fires_exactly_half(self, tree):
        assert self._fired(tree, 0.5) == 10

    def test_fraction_is_exact_floor_of_n(self, tree):
        # floor(n * f) of the first n candidates fire, for any f.
        for fraction in (0.25, 0.3, 0.75, 0.9):
            assert self._fired(tree, fraction) == int(20 * fraction)

    def test_gated_firings_are_deterministic(self, tree):
        reg = SourceSinkRegistry(
            tree, node_name="node1", source_fraction=0.5
        )
        reg.add_source("Read#*")
        pattern = [isinstance(reg.source("Read#data", i), TInt) for i in range(8)]
        reg2 = SourceSinkRegistry(
            TaintTree(LocalId("10.0.0.2", 1)), node_name="node2", source_fraction=0.5
        )
        reg2.add_source("Read#*")
        pattern2 = [isinstance(reg2.source("Read#data", i), TInt) for i in range(8)]
        assert pattern == pattern2

    def test_cluster_rejects_out_of_range_fraction(self):
        from repro.core.config import DisTAConfig
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="outside"):
            DisTAConfig(source_fraction=1.5)
        with pytest.raises(ReproError, match="outside"):
            DisTAConfig(source_fraction=-0.1)
