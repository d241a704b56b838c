"""Batched Taint Map ops (OP_REGISTER_MANY / OP_LOOKUP_MANY).

The run-length shadow representation means a message with k label runs
has at most k distinct taints; the batched protocol resolves all of them
in a single round-trip, so first send costs ≤ k+1 requests (here: 1) and
a resend costs 0 (Fig. 9's cache, batched).
"""

import pytest

from repro.core import wire
from repro.core.taintmap import TaintMapClient, TaintMapServer
from repro.errors import TaintMapError
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode
from repro.taint.values import LabelRuns, TBytes


@pytest.fixture()
def service():
    kernel = SimKernel("tm-batch-test")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
    n1 = SimNode("node1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    n2 = SimNode("node2", kernel.register_node("10.0.0.2"), 2, kernel, fs, Mode.DISTA)
    c1 = TaintMapClient(n1, server.address)
    c2 = TaintMapClient(n2, server.address)
    yield server, n1, n2, c1, c2
    c1.close()
    c2.close()
    server.stop()


class TestBatchedRegister:
    def test_gids_for_matches_gid_for(self, service):
        server, n1, _, c1, _ = service
        ta = n1.tree.taint_for_tag("a")
        tb = n1.tree.taint_for_tag("b")
        batch = c1.gids_for([ta, None, tb, ta])
        assert batch[1] == 0
        assert batch[0] == batch[3]
        # Singles agree (and come from the cache now).
        assert c1.gid_for(ta) == batch[0]
        assert c1.gid_for(tb) == batch[2]

    def test_one_round_trip_for_many_misses(self, service):
        server, n1, _, c1, _ = service
        taints = [n1.tree.taint_for_tag(f"t{i}") for i in range(8)]
        before = c1.requests_sent
        gids = c1.gids_for(taints)
        assert c1.requests_sent == before + 1
        assert len(set(gids)) == 8
        # All cached: a resend is free.
        c1.gids_for(taints)
        assert c1.requests_sent == before + 1

    def test_all_cached_batch_sends_nothing(self, service):
        _, n1, _, c1, _ = service
        ta = n1.tree.taint_for_tag("warm")
        c1.gid_for(ta)
        before = c1.requests_sent
        assert c1.gids_for([ta, ta, None]) == [c1.gid_for(ta)] * 2 + [0]
        assert c1.requests_sent == before

    def test_batch_assigns_singleton_tag_global_id(self, service):
        _, n1, _, c1, _ = service
        taint = n1.tree.taint_for_tag("fresh")
        tag = next(iter(taint.tags))
        assert tag.global_id == 0
        (gid,) = c1.gids_for([taint])
        assert tag.global_id == gid

    def test_cache_disabled_still_batches(self, service):
        server, n1, _, _, _ = service
        client = TaintMapClient(n1, server.address, cache_enabled=False)
        taints = [n1.tree.taint_for_tag(f"nc{i}") for i in range(4)]
        before = client.requests_sent
        g1 = client.gids_for(taints)
        g2 = client.gids_for(taints)
        assert g1 == g2  # server-side idempotence
        assert client.requests_sent == before + 2  # re-sent, but one frame each
        client.close()


class TestBatchedLookup:
    def test_taints_for_matches_taint_for(self, service):
        _, n1, n2, c1, c2 = service
        gids = c1.gids_for([n1.tree.taint_for_tag(t) for t in ("x", "y")])
        before = c2.requests_sent
        rx, none, ry, rx2 = c2.taints_for([gids[0], 0, gids[1], gids[0]])
        assert c2.requests_sent == before + 1
        assert none is None
        assert rx is rx2
        assert {t.tag for t in rx.tags} == {"x"}
        assert {t.tag for t in ry.tags} == {"y"}
        assert rx.tree is n2.tree
        # Cached now: singles are free.
        assert c2.taint_for(gids[0]) is rx
        assert c2.requests_sent == before + 1

    def test_unknown_gid_in_batch_raises(self, service):
        _, n1, _, c1, c2 = service
        gid = c1.gid_for(n1.tree.taint_for_tag("known"))
        with pytest.raises(TaintMapError, match="unknown Global ID"):
            c2.taints_for([gid, 424242])


class TestMessageRoundTrips:
    """The acceptance criterion: k label runs ⇒ ≤ k+1 first-send
    round-trips (here exactly 1) and 0 on resend."""

    def _message(self, tree, k, run_len=32):
        runs = [
            (i * run_len, (i + 1) * run_len, tree.taint_for_tag(f"run{i}"))
            for i in range(k)
        ]
        return TBytes(bytes(k * run_len), LabelRuns(k * run_len, runs))

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_first_send_is_one_round_trip(self, service, k):
        _, n1, _, c1, _ = service
        data = self._message(n1.tree, k)
        before = c1.requests_sent
        first = wire.encode_cells(data, c1.gid_for, c1.gids_for)
        assert c1.requests_sent - before <= k + 1
        assert c1.requests_sent - before == 1
        # Resend: every run's taint is cached, zero round-trips.
        again = wire.encode_cells(data, c1.gid_for, c1.gids_for)
        assert again == first
        assert c1.requests_sent - before == 1

    def test_receive_is_one_round_trip(self, service):
        _, n1, _, c1, c2 = service
        data = self._message(n1.tree, 5)
        cells = wire.encode_cells(data, c1.gid_for, c1.gids_for)
        decoder = wire.CellDecoder()
        before = c2.requests_sent
        decoded = decoder.feed(cells, c2.taint_for, c2.taints_for)
        assert c2.requests_sent - before == 1
        assert decoded.data == data.data
        assert decoded.labels.run_count == 5
        # Re-receive: fully cached.
        decoder2 = wire.CellDecoder()
        decoder2.feed(cells, c2.taint_for, c2.taints_for)
        assert c2.requests_sent - before == 1

    def test_batched_equals_unbatched_wire_bytes(self, service):
        server, n1, _, c1, _ = service
        data = self._message(n1.tree, 4)
        batched = wire.encode_cells(data, c1.gid_for, c1.gids_for)
        fresh = TaintMapClient(n1, server.address)
        unbatched = wire.encode_cells(data, fresh.gid_for)
        assert batched == unbatched
        fresh.close()
