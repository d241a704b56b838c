"""Tests for the taint-crossing trace facility."""

import pytest

from repro.core.trace import CrossingTrace, NullTrace
from repro.jre import (
    ByteBuffer,
    DatagramPacket,
    DatagramSocket,
    ServerSocket,
    ServerSocketChannel,
    Socket,
    SocketChannel,
)
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint.values import TBytes


@pytest.fixture()
def traced_cluster():
    trace = CrossingTrace()
    cluster = Cluster(Mode.DISTA, trace=trace)
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    with cluster:
        yield cluster, n1, n2, trace


class TestSocketCrossings:
    def test_send_and_receive_recorded_in_order(self, traced_cluster):
        cluster, n1, n2, trace = traced_cluster
        server = ServerSocket(n2, 9000)
        client = Socket.connect(n1, (n2.ip, 9000))
        conn = server.accept()
        taint = n1.tree.taint_for_tag("traced")
        client.get_output_stream().write(TBytes.tainted(b"hello", taint))
        conn.get_input_stream().read_fully(5)

        crossings = trace.for_tag("traced")
        assert [c.direction for c in crossings] == ["send", "receive"]
        assert crossings[0].node == "n1" and crossings[0].method == "socketWrite0"
        assert crossings[1].node == "n2" and crossings[1].method == "socketRead0"
        assert crossings[0].sequence < crossings[1].sequence
        assert trace.hops("traced") == ["n1", "n2"]

    def test_untainted_traffic_not_recorded(self, traced_cluster):
        cluster, n1, n2, trace = traced_cluster
        server = ServerSocket(n2, 9001)
        client = Socket.connect(n1, (n2.ip, 9001))
        conn = server.accept()
        client.get_output_stream().write(TBytes(b"plain"))
        conn.get_input_stream().read_fully(5)
        assert trace.crossings == []

    def test_multi_hop_path(self, traced_cluster):
        """n1 → n2 → n1: the hop list shows the round trip."""
        cluster, n1, n2, trace = traced_cluster
        server = ServerSocket(n2, 9002)
        client = Socket.connect(n1, (n2.ip, 9002))
        conn = server.accept()
        taint = n1.tree.taint_for_tag("roundtrip")
        client.get_output_stream().write(TBytes.tainted(b"ping", taint))
        echoed = conn.get_input_stream().read_fully(4)
        conn.get_output_stream().write(echoed)
        client.get_input_stream().read_fully(4)
        assert trace.hops("roundtrip") == ["n1", "n2", "n1"]


class TestOtherTransports:
    def test_datagram_crossings(self, traced_cluster):
        cluster, n1, n2, trace = traced_cluster
        a = DatagramSocket(n1, 5000)
        b = DatagramSocket(n2, 5000)
        taint = n1.tree.taint_for_tag("udp-trace")
        a.send(DatagramPacket(TBytes.tainted(b"dgram", taint), address=(n2.ip, 5000)))
        incoming = DatagramPacket(16)
        b.receive(incoming)
        methods = [c.method for c in trace.for_tag("udp-trace")]
        assert methods == ["datagram.send", "datagram.receive0"]

    def test_channel_crossings(self, traced_cluster):
        cluster, n1, n2, trace = traced_cluster
        server = ServerSocketChannel.open(n2).bind(9100)
        client = SocketChannel.open(n1).connect((n2.ip, 9100))
        conn = server.accept()
        taint = n1.tree.taint_for_tag("nio-trace")
        client.write_fully(ByteBuffer.wrap(TBytes.tainted(b"chan", taint)))
        into = ByteBuffer.allocate(4)
        conn.read_fully(into)
        methods = [c.method for c in trace.for_tag("nio-trace")]
        assert methods == ["dispatcher.write0", "dispatcher.read0"]


class TestRendering:
    def test_render_contains_crossings(self, traced_cluster):
        cluster, n1, n2, trace = traced_cluster
        server = ServerSocket(n2, 9200)
        client = Socket.connect(n1, (n2.ip, 9200))
        conn = server.accept()
        taint = n1.tree.taint_for_tag("pretty")
        client.get_output_stream().write(TBytes.tainted(b"x", taint))
        conn.get_input_stream().read_fully(1)
        out = trace.render("pretty", title="demo")
        assert "=== demo ===" in out
        assert "socketWrite0" in out and "socketRead0" in out
        assert "2 crossing(s)" in out

    def test_capacity_cap(self):
        trace = CrossingTrace(capacity=2)
        from repro.taint import LocalId, TaintTree

        tree = TaintTree(LocalId("1.1.1.1", 1))
        data = TBytes.tainted(b"x", tree.taint_for_tag("t"))
        for _ in range(5):
            trace.record("n", "send", "m", data)
        assert len(trace.crossings) == 2

    def test_drops_are_counted_never_silent(self):
        trace = CrossingTrace(capacity=2)
        from repro.taint import LocalId, TaintTree

        tree = TaintTree(LocalId("1.1.1.1", 1))
        data = TBytes.tainted(b"x", tree.taint_for_tag("t"))
        for _ in range(5):
            trace.record("n", "send", "m", data)
        assert trace.dropped == 3
        assert "3 dropped" in trace.describe()
        assert "capacity 2" in trace.describe()
        rendered = trace.render()
        assert "incomplete" in rendered and "3 crossing(s) dropped" in rendered

    def test_no_drops_renders_clean(self):
        trace = CrossingTrace()
        assert trace.dropped == 0
        assert "0 dropped" in trace.describe()
        assert "incomplete" not in trace.render()

    def test_telemetry_samples_fragment(self):
        trace = CrossingTrace(capacity=1)
        from repro.taint import LocalId, TaintTree

        tree = TaintTree(LocalId("1.1.1.1", 1))
        data = TBytes.tainted(b"x", tree.taint_for_tag("t"))
        trace.record("n", "send", "m", data)
        trace.record("n", "send", "m", data)
        fragment = trace.telemetry_samples()
        assert fragment["dista_trace_crossings"]["samples"][0]["value"] == 1
        assert fragment["dista_trace_dropped_total"]["samples"][0]["value"] == 1

    def test_null_trace_is_silent(self):
        NullTrace().record("n", "send", "m", TBytes(b"x"))  # no-op, no error


class TestSystemWorkloadTracing:
    def test_zookeeper_election_vote_hops(self):
        """Trace a real system: the winning vote's crossings show it
        leaving zk1 and arriving on the other peers."""
        from repro.core.trace import CrossingTrace
        from repro.runtime.cluster import Cluster
        from repro.runtime.modes import Mode
        from repro.systems.zookeeper.workload import deploy_and_elect, sdt_spec

        trace = CrossingTrace()
        cluster = Cluster(
            Mode.DISTA, name="traced-election", trace=trace
        )
        sdt_spec().apply(cluster)
        with cluster:
            extras = deploy_and_elect(cluster)
        assert extras["leader"] == 1
        crossings = trace.for_tag("vote-sid1")
        assert crossings, "the winning vote never crossed the network?!"
        senders = {c.node for c in crossings if c.direction == "send"}
        receivers = {c.node for c in crossings if c.direction == "receive"}
        assert "zk1" in senders
        assert {"zk2", "zk3"} <= receivers
