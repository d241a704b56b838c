"""Tests for the replicated Taint Map and failover client (paper §VI)."""

import struct
import threading
import time

import pytest

from repro.core.durability import MemoryTaintMapStore
from repro.core.ha import (
    OP_SYNC,
    FailoverTaintMapClient,
    ReplicatedTaintMapServer,
    StandbyTaintMapServer,
)
from repro.core.taintmap import (
    OP_LOOKUP_MANY,
    OP_REGISTER_MANY,
    STATUS_BAD_REQUEST,
    STATUS_OK,
    TaintMapClient,
    _pack_batch_lookup,
    _pack_batch_register,
    _split_batch_lookup_response,
    round_trip,
    serialize_tags,
)
from repro.errors import TaintMapError
from repro.obs.registry import snapshot_total
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode
from repro.taint import LocalId, TaintTree

PRIMARY = ("10.0.255.1", 7170)
STANDBY = ("10.0.255.2", 7170)


def _population(server):
    """The server's ``dista_taintmap_global_taints`` gauge."""
    return snapshot_total(server.metrics.snapshot(), "dista_taintmap_global_taints")


@pytest.fixture()
def ha_setup():
    kernel = SimKernel("ha")
    kernel.register_node(PRIMARY[0])
    kernel.register_node(STANDBY[0])
    fs = SimFileSystem()
    standby = StandbyTaintMapServer(kernel, *STANDBY).start()
    primary = ReplicatedTaintMapServer(kernel, *PRIMARY, standby=STANDBY).start()
    node = SimNode("n1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    yield kernel, node, primary, standby
    primary.stop()
    standby.stop()


class TestReplication:
    def test_allocations_replicate_with_same_gid(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        gid = client.gid_for(node.tree.taint_for_tag("replicated"))
        assert primary.replicated == 1
        assert standby.global_taint_count() == 1
        # The standby resolves the same GID to the same tags.
        standby_client = TaintMapClient(node, STANDBY)
        resolved = standby_client.taint_for(gid)
        assert {t.tag for t in resolved.tags} == {"replicated"}
        client.close()
        standby_client.close()

    def test_promoted_standby_reports_stats_parity(self, ha_setup):
        """Regression: OP_SYNC used to install entries without counting
        them in the population, so a promoted standby reported
        population 0 and poisoned every telemetry/autoscaling consumer."""
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        taints = [node.tree.taint_for_tag(f"parity{i}") for i in range(5)]
        client.gids_for(taints)
        assert _population(primary) == 5
        assert _population(standby) == 5
        # A replayed OP_SYNC (same GID again) must not double-count.
        gid = client.gid_for(taints[0])
        payload = struct.pack(">I", gid) + serialize_tags(taints[0].tags)
        standby._handle(OP_SYNC, payload)
        assert _population(standby) == 5
        client.close()

    def test_batched_register_replicates_every_entry(self, ha_setup):
        """OP_REGISTER_MANY calls the _allocated hook once per new GID,
        so the standby sees each batch entry individually."""
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        taints = [node.tree.taint_for_tag(f"batch{i}") for i in range(4)]
        gids = client.gids_for(taints)
        assert primary.replicated == 4
        assert standby.global_taint_count() == 4
        standby_client = TaintMapClient(node, STANDBY)
        assert standby_client.taints_for(gids)[2].tags == taints[2].tags
        client.close()
        standby_client.close()

    def test_reregistering_a_known_taint_does_not_replicate(self, ha_setup):
        """Only a new allocation is streamed to the standby: the same
        taint registered again, past every client cache, answers its
        original GID and sends nothing."""
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        taint = node.tree.taint_for_tag("known")
        gid = client.gid_for(taint)
        assert primary.replicated == 1
        uncached = TaintMapClient(node, PRIMARY, cache_enabled=False)
        assert uncached.gid_for(taint) == gid
        assert uncached.gids_for([taint, taint]) == [gid, gid]
        assert snapshot_total(
            primary.metrics.snapshot(), "dista_taintmap_server_requests_total", {"kind": "register"}
        ) == 3
        assert primary.replicated == 1
        assert primary.replication_failures == 0
        client.close()
        uncached.close()

    def test_failover_client_batches_through_failover(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        warm = client.gids_for([node.tree.taint_for_tag("warm")])
        primary.stop()
        taints = [node.tree.taint_for_tag(f"fo{i}") for i in range(3)]
        gids = client.gids_for(taints)
        assert len(set(gids)) == 3
        assert all(g > warm[0] for g in gids)
        client.close()

    def test_stop_closes_the_replication_connection(self, ha_setup):
        """Shortly after the primary stops, the standby holds no
        connection and no thread from it: stop() closes the replication
        connection instead of leaving it to the standby's idle timeout."""
        kernel, node, primary, standby = ha_setup
        before = set(threading.enumerate())
        client = TaintMapClient(node, PRIMARY)
        client.gid_for(node.tree.taint_for_tag("replicated"))
        assert len(standby._connections) == 1  # the replication connection
        client.close()
        primary.stop()
        started = [t for t in threading.enumerate() if t not in before]
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and (
            standby._connections or any(t.is_alive() for t in started)
        ):
            time.sleep(0.01)
        assert standby._connections == []
        assert not any(t.is_alive() for t in started)

    def test_primary_survives_standby_outage(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        standby.stop()
        client = TaintMapClient(node, PRIMARY)
        gid = client.gid_for(node.tree.taint_for_tag("lonely"))
        assert gid > 0
        assert primary.replication_failures >= 1
        client.close()

    def test_standby_numbering_continues_after_failover_promotion(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        g1 = client.gid_for(node.tree.taint_for_tag("before"))
        primary.stop()
        # Clients now talk to the standby directly; fresh taints must not
        # collide with replicated GIDs.
        standby_client = TaintMapClient(node, STANDBY)
        g2 = standby_client.gid_for(node.tree.taint_for_tag("after"))
        assert g2 > g1
        client.close()
        standby_client.close()


class TestMalformedSync:
    @pytest.mark.parametrize(
        "payload",
        [b"\x01", struct.pack(">I", 7) + b"\xff\xff"],
        ids=["short", "undecodable-tags"],
    )
    def test_bad_request_keeps_the_connection(self, ha_setup, payload):
        """A malformed OP_SYNC is answered STATUS_BAD_REQUEST like any
        other op, and the same connection keeps serving."""
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        gid = client.gid_for(node.tree.taint_for_tag("kept"))
        client.close()
        raw = kernel.connect(node.ip, STANDBY)
        assert round_trip(raw, OP_SYNC, payload) == (STATUS_BAD_REQUEST, b"")
        status, response = round_trip(raw, OP_LOOKUP_MANY, _pack_batch_lookup([gid]))
        assert status == STATUS_OK
        (serialized,) = _split_batch_lookup_response(response, 1)
        assert serialized == standby._by_gid[gid]
        assert standby.global_taint_count() == 1
        raw.close()

    def test_a_sync_of_the_empty_tag_set_is_refused(self):
        """GID 0 is the empty taint, so no other GID may name the empty
        tag set: the standby refuses it and binds nothing."""
        kernel = SimKernel("ha-empty-set")
        standby = StandbyTaintMapServer(kernel, kernel.register_node(STANDBY[0]), STANDBY[1])
        payload = struct.pack(">I", 5) + serialize_tags(frozenset())
        assert standby._handle(OP_SYNC, payload) == (STATUS_BAD_REQUEST, b"")
        assert standby.global_taint_count() == 0
        assert standby._next_gid == 1

    def test_syncs_that_break_the_bijection_are_refused(self):
        """GID 0, a known GID for another taint, and a taint already
        bound to another GID are each refused by a standby restarted
        from its store, leaving the state and the WAL as they were;
        once promoted, the standby still answers every taint with its
        own GID."""
        kernel = SimKernel("ha-bijection")
        store = MemoryTaintMapStore()
        standby = StandbyTaintMapServer(
            kernel, kernel.register_node(STANDBY[0]), STANDBY[1], store=store
        )
        tree = TaintTree(LocalId("10.0.0.1", 1))
        first, second = (
            serialize_tags(tree.taint_for_tag(name).tags) for name in ("first", "second")
        )

        def sync(gid, serialized):
            return standby._handle(OP_SYNC, struct.pack(">I", gid) + serialized)

        assert sync(1, first) == (STATUS_OK, b"")
        assert sync(1, first) == (STATUS_OK, b"")  # a repeat changes nothing
        # The refusals then check a key index that recovery rebuilt.
        standby = StandbyTaintMapServer(kernel, *STANDBY, store=store)

        def state():
            return (
                dict(standby._by_gid), dict(standby._by_key), standby._next_gid,
                _population(standby), store.read_log(),
            )

        before = state()
        for gid, serialized in ((0, second), (1, second), (2, first)):
            assert sync(gid, serialized) == (STATUS_BAD_REQUEST, b""), gid
        assert state() == before

        def register(serialized):
            status, response = standby._handle(
                OP_REGISTER_MANY, _pack_batch_register([serialized])
            )
            assert status == STATUS_OK
            return struct.unpack(">I", response)[0]

        assert register(first) == 1
        assert register(second) == 2
        assert standby._by_gid[1] == first


class TestFailoverClient:
    def test_transparent_failover(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        g1 = client.gid_for(node.tree.taint_for_tag("pre-failover"))
        assert client.active_address == PRIMARY
        primary.stop()
        g2 = client.gid_for(node.tree.taint_for_tag("post-failover"))
        assert client.active_address == STANDBY
        assert g2 != g1
        # Lookups of pre-failover taints still resolve (replicated).
        uncached = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        resolved = uncached.taint_for(g1)
        assert {t.tag for t in resolved.tags} == {"pre-failover"}
        client.close()
        uncached.close()

    def test_both_replicas_down_raises(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        primary.stop()
        standby.stop()
        client = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        with pytest.raises(TaintMapError, match="unreachable"):
            client.gid_for(node.tree.taint_for_tag("nowhere"))
        client.close()

    def test_semantic_errors_do_not_trigger_failover(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        with pytest.raises(TaintMapError, match="unknown"):
            client.taint_for(777777)
        assert client.active_address == PRIMARY  # still on the primary
        client.close()
