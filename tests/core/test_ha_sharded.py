"""Replication + failover composed with sharding (ISSUE 2 tentpole).

Each shard runs its own primary/standby pair; the failover client keeps
an independent active-replica choice per shard.  Losing shard k's
primary fails over shard k alone — every other shard keeps talking to
its primary, and shard k's GID numbering (shard bits included) survives
the promotion.
"""

import pytest

from repro.core.ha import (
    FailoverTaintMapClient,
    ReplicatedTaintMapServer,
    StandbyTaintMapServer,
)
from repro.core.taintmap import ShardRouter, gid_shard, taint_key
from repro.errors import TaintMapError
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode

PRIMARY_IP = "10.0.255.1"
STANDBY_IP = "10.0.255.2"
BASE_PORT = 7170
SHARDS = 2


@pytest.fixture()
def ha_shards():
    kernel = SimKernel("ha-sharded")
    kernel.register_node(PRIMARY_IP)
    kernel.register_node(STANDBY_IP)
    fs = SimFileSystem()
    standbys = [
        StandbyTaintMapServer(
            kernel, STANDBY_IP, BASE_PORT + i, shard_index=i, shard_count=SHARDS
        ).start()
        for i in range(SHARDS)
    ]
    primaries = [
        ReplicatedTaintMapServer(
            kernel,
            PRIMARY_IP,
            BASE_PORT + i,
            (STANDBY_IP, BASE_PORT + i),
            shard_index=i,
            shard_count=SHARDS,
        ).start()
        for i in range(SHARDS)
    ]
    node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    client = FailoverTaintMapClient(
        node,
        [p.address for p in primaries],
        [s.address for s in standbys],
    )
    yield kernel, primaries, standbys, node, client
    client.close()
    for server in primaries + standbys:
        server.stop()


def _taint_on_shard(node, shard, prefix="ha"):
    """A taint owned by ``shard``.  Distinct ``prefix`` values yield
    distinct taints — same-prefix calls return the interned original."""
    router = ShardRouter(SHARDS)
    for i in range(10000):
        taint = node.tree.taint_for_tag(f"{prefix}-{shard}-{i}")
        if router.shard_for_key(taint_key(taint.tags)) == shard:
            return taint
    raise AssertionError(f"no key found for shard {shard}")


class TestShardedReplication:
    def test_each_shard_replicates_to_its_standby(self, ha_shards):
        _, primaries, standbys, node, client = ha_shards
        for shard in range(SHARDS):
            gid = client.gid_for(_taint_on_shard(node, shard))
            assert gid_shard(gid) == shard
            assert primaries[shard].replicated == 1
            assert standbys[shard].global_taint_count() == 1
            assert primaries[shard].replication_failures == 0

    def test_mismatched_standby_list_rejected(self, ha_shards):
        _, primaries, standbys, node, _ = ha_shards
        with pytest.raises(TaintMapError, match="standby"):
            FailoverTaintMapClient(
                node,
                [p.address for p in primaries],
                [standbys[0].address],  # one standby for two shards
            )


class TestPerShardFailover:
    def test_only_dead_shard_fails_over(self, ha_shards):
        _, primaries, standbys, node, client = ha_shards
        t0, t1 = _taint_on_shard(node, 0), _taint_on_shard(node, 1)
        g0, g1 = client.gid_for(t0), client.gid_for(t1)

        primaries[1].stop()  # shard 1 loses its primary; shard 0 untouched

        fresh1 = _taint_on_shard(node, 1, prefix="post")
        promoted_gid = client.gid_for(fresh1)
        # Shard 1 now answered by its standby, numbering continued with
        # the shard bits intact.
        assert client.active_address_for(1) == standbys[1].address
        assert gid_shard(promoted_gid) == 1
        assert promoted_gid != g1
        # Shard 0 never rotated.
        assert client.active_address_for(0) == primaries[0].address
        fresh0 = _taint_on_shard(node, 0, prefix="post")
        assert gid_shard(client.gid_for(fresh0)) == 0
        assert primaries[0].global_taint_count() >= 2

    def test_pre_failover_gids_resolve_from_standby(self, ha_shards):
        kernel, primaries, standbys, node, client = ha_shards
        taint = _taint_on_shard(node, 1)
        gid = client.gid_for(taint)

        primaries[1].stop()

        fs = SimFileSystem()
        other = SimNode(
            "m", kernel.register_node("10.0.0.2"), 2, kernel, fs, Mode.DISTA
        )
        reader = FailoverTaintMapClient(
            other,
            [p.address for p in primaries],
            [s.address for s in standbys],
        )
        resolved = reader.taints_for([gid])[0]
        assert {t.tag for t in resolved.tags} == {t.tag for t in taint.tags}
        assert reader.active_address_for(1) == standbys[1].address
        reader.close()

    def test_registration_idempotent_across_failover(self, ha_shards):
        _, primaries, _, node, client = ha_shards
        taint = _taint_on_shard(node, 1)
        gid = client.gid_for(taint)
        primaries[1].stop()
        client._gid_cache.clear()
        # Re-registering the same taint on the promoted standby returns
        # the replicated GID, not a fresh one.
        assert client.gid_for(taint) == gid
