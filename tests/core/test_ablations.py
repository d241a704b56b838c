"""Ablations of DisTA's design choices (DESIGN.md §4).

Each test turns one design choice off and checks the behaviour the
paper attributes to it:

1. **Global-ID caching off** — every message re-registers its taint
   (Fig. 9 step ②).
2. **Message-level granularity** — one taint for a whole buffer
   over-taints its clean bytes but stays sound (§II-D precision).
3. **Inline serialized taints** (Taint-Exchange style, no Taint Map) —
   a serialized taint costs far more wire bytes than a 4-byte Global ID
   (§III-D).
4. **Stream-only instrumentation** (a FlowDist-like tool) — only the
   cases that bottom out in the stream APIs stay sound (§II-D).
5. **Shared taint tree** — equal tag sets share one handle and one tree
   node, far below naive per-value tag sets (§II-B memory claim).
"""

import functools
import sys

import pytest

from repro.core import wire
from repro.core.config import DisTAConfig
from repro.core.taintmap import serialize_tags
from repro.jre import ServerSocket, Socket
from repro.microbench import workload
from repro.microbench.cases import CASES, CASES_BY_NAME
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint import LocalId, TaintTree
from repro.taint.values import TBytes

#: Protocol groups that bottom out in socketRead0/socketWrite0 — the
#: surface FlowDist's 6 stream-level APIs cover in the simulated JRE.
STREAM_COVERED = {"JRE Socket", "JRE HTTP"}


def _run_case_with(monkeypatch, config, case, size=2048):
    """``run_case`` under DisTA with ``config`` on the case's cluster."""
    monkeypatch.setattr(workload, "Cluster", functools.partial(Cluster, config=config))
    return workload.run_case(case, Mode.DISTA, size=size)


def _connected_pair(config):
    cluster = Cluster(Mode.DISTA, config=config)
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    return cluster, n1, n2


class TestGidCacheAblation:
    WRITES = 16

    def _register_requests(self, cache_enabled, chunk=256):
        """One tainted flow sent as ``WRITES`` separate messages."""
        cluster, n1, n2 = _connected_pair(DisTAConfig(cache_enabled=cache_enabled))
        with cluster:
            server = ServerSocket(n2, 9000)
            client = Socket.connect(n1, (n2.ip, 9000))
            conn = server.accept()
            taint = n1.tree.taint_for_tag("t")
            for _ in range(self.WRITES):
                client.get_output_stream().write(TBytes.tainted(b"x" * chunk, taint))
            conn.get_input_stream().read_fully(chunk * self.WRITES)
            return snapshot_total(
                cluster.taint_map_server.metrics.snapshot(),
                "dista_taintmap_server_requests_total",
                {"kind": "register"},
            )

    def test_cache_prevents_repeated_registration(self):
        # Fig. 9 step ②: the cached client registers the taint once, no
        # matter how many messages carry it; without the cache every
        # message re-registers it.
        assert self._register_requests(True) == 1
        assert self._register_requests(False) >= self.WRITES


class TestGranularityAblation:
    def _clean_half_arrives_clean(self, byte_granularity):
        """Send a half-tainted buffer; report whether the untainted half
        stayed untainted on arrival."""
        cluster, n1, n2 = _connected_pair(DisTAConfig(byte_granularity=byte_granularity))
        with cluster:
            server = ServerSocket(n2, 9000)
            client = Socket.connect(n1, (n2.ip, 9000))
            conn = server.accept()
            taint = n1.tree.taint_for_tag("half")
            client.get_output_stream().write(
                TBytes.tainted(b"T" * 512, taint) + TBytes(b"." * 512)
            )
            received = conn.get_input_stream().read_fully(1024)
            assert {t.tag for t in received[:512].overall_taint().tags} == {"half"}
            return received[512:].overall_taint() is None

    def test_byte_granularity_is_precise(self):
        assert self._clean_half_arrives_clean(True)

    def test_message_granularity_over_taints(self):
        """The imprecision the paper attributes to coarse-grained tools."""
        assert not self._clean_half_arrives_clean(False)

    def test_message_granularity_stays_sound(self, monkeypatch):
        result = _run_case_with(
            monkeypatch,
            DisTAConfig(byte_granularity=False),
            CASES_BY_NAME["socket_bytes_bulk"],
        )
        assert result.data_ok
        assert result.sound


class TestInlineTaintAblation:
    def test_inline_serialized_taints_blow_up_bandwidth(self):
        """§III-D: "A serialized taint with one tag can be over 200 bytes"
        — the Global-ID design pins the wire cost at 5×."""
        tree = TaintTree(LocalId("10.0.0.1", 4242))
        taint = tree.taint_for_tag("a-reasonably-descriptive-tag-name")
        payload = 1024
        gid_wire = wire.wire_length(payload)
        inline_wire = payload * (1 + len(serialize_tags(taint.tags)))
        assert gid_wire == payload * 5
        assert inline_wire / payload > 30
        assert inline_wire > gid_wire * 6

    def test_inline_cost_grows_with_tag_count(self):
        tree = TaintTree(LocalId("10.0.0.1", 4242))
        combined = tree.empty
        sizes = []
        for i in range(8):
            combined = combined.union(tree.taint_for_tag(f"tag-number-{i}"))
            sizes.append(len(serialize_tags(combined.tags)))
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        # The Global ID stays 4 bytes no matter how many tags combine.
        assert wire.GID_WIDTH == 4


class TestStreamOnlyInstrumentation:
    """§II-D: "there are over 100 APIs for network communication in JRE.
    FlowDist can drop the data flow information within these unmonitored
    APIs." Instrumenting only the Type-1 (stream) wrappers keeps the
    socket-family cases sound and silently drops the rest."""

    def test_stream_apis_cover_23_of_30_cases(self):
        covered = [c for c in CASES if c.protocol in STREAM_COVERED]
        assert len(covered) == 23
        assert len(CASES) - len(covered) == 7

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_partial_coverage_matrix(self, monkeypatch, case):
        result = _run_case_with(
            monkeypatch, DisTAConfig(wrapper_types=frozenset({1})), case
        )
        assert result.data_ok, f"{case.name}: data corrupted under partial coverage"
        if case.protocol in STREAM_COVERED:
            assert result.sound, f"{case.name}: should be covered by stream APIs"
        else:
            assert not result.sound, (
                f"{case.name}: sound although stream-only instrumentation "
                "should have dropped this protocol's taints"
            )


class TestSharedTaintTree:
    def test_equal_tag_sets_share_storage(self):
        """§II-B: "If two variables have the same taint tag, their taints
        can refer to the same node in the tree." 10k values over 8 tags
        cost O(distinct tag sets) nodes, not O(values) tag sets."""
        tree = TaintTree(LocalId("10.0.0.1", 1))
        base = [tree.taint_for_tag(f"t{i}") for i in range(8)]
        labels = [
            base[i % 8].union(base[(i + 1) % 8]) if i % 3 == 0 else base[i % 8]
            for i in range(10_000)
        ]
        # 8 single tags plus 8 pairwise combinations.
        assert len({id(label) for label in labels}) <= 16
        assert tree.node_count() <= 1 + 8 + 16
        naive_bytes = sum(sys.getsizeof(frozenset(label.tags)) for label in labels)
        # One node object (~200 B, generously) per distinct set plus one
        # pointer per value.
        shared_bytes = tree.node_count() * 200 + len(labels) * 8
        assert shared_bytes < naive_bytes / 5
