"""Ablations of DisTA's design choices (DESIGN.md §4).

1. **Global-ID caching off** — every tainted byte run re-registers with
   the Taint Map; quantifies why Fig. 9's step-② dedup matters.
2. **Message-level granularity** — one taint for a whole buffer instead
   of per-byte labels; quantifies the over-tainting byte-level tracking
   avoids (§II-D precision).
3. **Inline serialized taints (Taint-Exchange style, no Taint Map)** —
   quantifies the bandwidth argument of §III-D: a serialized taint is
   hundreds of bytes, a Global ID is four.
"""

import pytest

from repro.core import wire
from repro.core.config import DisTAConfig
from repro.core.taintmap import serialize_tags
from repro.jre import ServerSocket, Socket
from repro.microbench.cases import CASES_BY_NAME
from repro.microbench.workload import run_case
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint.values import TBytes


class TestGidCacheAblation:
    def _run(self, cache_enabled, payload=4096, writes=16):
        """One tainted flow sent as ``writes`` separate messages —
        each write is (at least) one Global-ID resolution."""
        cluster = Cluster(Mode.DISTA, config=DisTAConfig(cache_enabled=cache_enabled))
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            server = ServerSocket(n2, 9000)
            client = Socket.connect(n1, ("10.0.0.2", 9000))
            conn = server.accept()
            taint = n1.tree.taint_for_tag("t")
            chunk = payload // writes
            for _ in range(writes):
                client.get_output_stream().write(TBytes.tainted(b"x" * chunk, taint))
            conn.get_input_stream().read_fully(chunk * writes)
            return cluster.taint_map_server.stats.snapshot()

    def test_cache_prevents_repeated_registration(self):
        cached = self._run(True)
        uncached = self._run(False)
        # Fig. 9 step ②: the cached client registers the taint once, no
        # matter how many messages carry it.
        assert cached["register_requests"] == 1
        # Without the cache, every message re-registers it.
        assert uncached["register_requests"] >= 16

    @pytest.mark.parametrize("cache_enabled", [True, False], ids=["cached", "uncached"])
    def test_benchmark_cache(self, benchmark, cache_enabled):
        benchmark.pedantic(
            lambda: self._run(cache_enabled),
            rounds=3,
            iterations=1,
        )


class TestGranularityAblation:
    def _precision_probe(self, byte_granularity):
        """Send a half-tainted buffer; report whether the untainted half
        stayed untainted on arrival."""
        cluster = Cluster(
            Mode.DISTA, config=DisTAConfig(byte_granularity=byte_granularity)
        )
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            server = ServerSocket(n2, 9000)
            client = Socket.connect(n1, ("10.0.0.2", 9000))
            conn = server.accept()
            taint = n1.tree.taint_for_tag("half")
            message = TBytes.tainted(b"T" * 512, taint) + TBytes(b"." * 512)
            client.get_output_stream().write(message)
            received = conn.get_input_stream().read_fully(1024)
            clean_half = received[512:]
            return clean_half.overall_taint() is None

    def test_byte_granularity_is_precise(self):
        assert self._precision_probe(True) is True

    def test_message_granularity_over_taints(self):
        """The ablated design taints the clean half too — the imprecision
        the paper attributes to coarse-grained tools (§II-D)."""
        assert self._precision_probe(False) is False

    def test_message_granularity_still_sound(self):
        result = run_case(
            CASES_BY_NAME["socket_bytes_bulk"], Mode.DISTA, size=2048
        )
        assert result.sound


class TestInlineTaintAblation:
    def test_inline_serialized_taints_blow_up_bandwidth(self):
        """Taint-Exchange-style inline taints vs DisTA's 4-byte GIDs.

        The paper (§III-D): "A serialized taint with one tag can be over
        200 bytes … far more than 200X bandwidth overhead" — while the
        Global-ID design pins the wire cost at 5×."""
        from repro.taint import LocalId, TaintTree

        tree = TaintTree(LocalId("10.0.0.1", 4242))
        taint = tree.taint_for_tag("a-reasonably-descriptive-tag-name")
        serialized = serialize_tags(taint.tags)
        payload = 1024
        gid_wire = wire.wire_length(payload)
        inline_wire = payload * (1 + len(serialized))
        assert gid_wire == payload * 5
        assert inline_wire / payload > 30  # per-byte inline taint cost
        assert inline_wire > gid_wire * 6

    def test_multi_tag_taint_grows_inline_cost_linearly(self):
        from repro.taint import LocalId, TaintTree

        tree = TaintTree(LocalId("10.0.0.1", 4242))
        combined = tree.empty
        sizes = []
        for i in range(8):
            combined = combined.union(tree.taint_for_tag(f"tag-number-{i}"))
            sizes.append(len(serialize_tags(combined.tags)))
        growth = [b - a for a, b in zip(sizes, sizes[1:])]
        assert all(g > 0 for g in growth)
        # The Global ID stays 4 bytes no matter how many tags combine.
        assert wire.GID_WIDTH == 4
