"""The Taint Map is not sharded: a DISTA cluster runs exactly one
TaintMapServer, at the fixed Taint Map address the default cluster has
always used."""

from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT, Cluster
from repro.runtime.modes import Mode


class TestClusterSharding:
    def test_single_shard_default_unchanged(self):
        cluster = Cluster(Mode.DISTA)
        cluster.add_node("n1")
        with cluster:
            assert cluster.taint_map_server.address == (TAINT_MAP_IP, TAINT_MAP_PORT)
