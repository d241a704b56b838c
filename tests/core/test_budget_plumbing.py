"""Registry-row plumbing: how a ``DisTAConfig`` reaches every node.

The cluster keeps the config object it was built with, hands each
registry row to every node's source registry, and nothing changes a
row once the cluster runs.
"""

from repro.core.config import DisTAConfig
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode


class TestKnobPlumbing:
    def test_cluster_constructor_knobs(self):
        config = DisTAConfig(source_fraction=0.5)
        cluster = Cluster(Mode.DISTA, config=config)
        assert cluster.config is config
        n1 = cluster.add_node("n1")
        assert n1.registry.source_fraction == 0.5
        with cluster:
            # Nothing adapts the row at runtime.
            assert n1.registry.source_fraction == 0.5
