"""Launch-path integration and the taint-flow report tool."""

import pytest

from repro.core.config import DisTAConfig
from repro.core.launch import launch_cluster
from repro.jre import ServerSocket, Socket
from repro.report import (
    flows_from_cluster,
    flows_from_result,
    render_flow_report,
)
from repro.runtime.modes import Mode
from repro.taint.values import TBytes


SOURCES_SPEC = """
# sensitive inputs
java.io.FileInputStream#read
com.example.App#getPassword
"""

SINKS_SPEC = """
org.slf4j.Logger#info
"""


class TestLaunchCluster:
    def test_specs_applied_from_text(self):
        cluster = launch_cluster(
            Mode.DISTA,
            "taintSources=sources.spec,taintSinks=sinks.spec",
            SOURCES_SPEC,
            SINKS_SPEC,
        )
        node = cluster.add_node("n")
        assert node.registry.is_source("com.example.App#getPassword")
        assert node.registry.is_sink("org.slf4j.Logger#info")

    def test_extras_map_to_agent_options(self):
        cluster = launch_cluster(Mode.DISTA, "gidCache=off,granularity=message")
        assert cluster.config == DisTAConfig(cache_enabled=False, byte_granularity=False)

    def test_original_mode_skips_specs(self):
        cluster = launch_cluster(Mode.ORIGINAL, "", SOURCES_SPEC, SINKS_SPEC)
        node = cluster.add_node("n")
        assert not node.registry.is_source("java.io.FileInputStream#read")

    def test_end_to_end_from_launch_config(self):
        """The full §V-E path: spec text → cluster → tracked flow."""
        cluster = launch_cluster(
            Mode.DISTA,
            "taintSources=s,taintSinks=k",
            "com.example.App#secret\n",
            "com.example.App#report\n",
        )
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            server = ServerSocket(n2, 9000)
            client = Socket.connect(n1, (n2.ip, 9000))
            conn = server.accept()
            secret = n1.registry.source("com.example.App#secret", b"s3cr3t")
            client.get_output_stream().write(secret)
            received = conn.get_input_stream().read_fully(6)
            observation = n2.registry.sink("com.example.App#report", received)
            assert observation.tainted


class TestFlowReport:
    def _run_flow(self):
        cluster = launch_cluster(
            Mode.DISTA, "", "app#source\n", "app#sink\n", name="report-test"
        )
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            server = ServerSocket(n2, 9000)
            client = Socket.connect(n1, (n2.ip, 9000))
            conn = server.accept()
            data = n1.registry.source("app#source", b"x", tag_value="the-tag")
            client.get_output_stream().write(data)
            received = conn.get_input_stream().read_fully(1)
            n2.registry.sink("app#sink", received, detail="received on n2")
            n1.registry.sink("app#sink", data, detail="checked locally")
            return flows_from_cluster(cluster)

    def test_flows_classified(self):
        flows = self._run_flow()
        assert len(flows) == 2
        by_node = {f.sink_node: f for f in flows}
        assert by_node["n2"].cross_node is True
        assert by_node["n1"].cross_node is False
        assert by_node["n2"].tag == "the-tag"

    def test_render(self):
        flows = self._run_flow()
        report = render_flow_report(flows, title="demo")
        assert "=== demo ===" in report
        assert "CROSS-NODE" in report
        assert "2 flow(s), 1 cross-node" in report

    def test_empty_report(self):
        assert "no tainted data" in render_flow_report([])

    def test_flows_from_workload_result(self):
        from repro.systems.common import SDT
        from repro.systems.zookeeper import run_workload

        result = run_workload(Mode.DISTA, SDT)
        flows = flows_from_result(result)
        assert len(flows) == 2  # checkLeader on each follower
        assert all(f.cross_node for f in flows)
        assert {f.sink_node for f in flows} == {"zk2", "zk3"}
