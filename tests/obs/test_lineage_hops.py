"""Hop edges in the lineage store: span correlation across nodes.

Every tainted boundary crossing becomes a hop of its tag's flow. A send
parks its span and tainted byte count on the wire channel it wrote to;
the receive that drains those bytes on the other node closes the hop.
These tests drive real transports (socket, datagram, NIO) and a real
system (ZooKeeper's election) through clusters with lineage on, plus
the store's per-channel bound directly.
"""

import sys
import threading

import pytest

from repro.core.config import DisTAConfig
from repro.jre import (
    ByteBuffer,
    DatagramPacket,
    DatagramSocket,
    ServerSocket,
    ServerSocketChannel,
    Socket,
    SocketChannel,
)
from repro.obs.lineage import (
    IMPLICIT,
    MAX_PENDING_PER_CHANNEL,
    TRACED,
    LineageStore,
)
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint.tags import LocalId
from repro.taint.tree import TaintTree
from repro.taint.values import TBytes


@pytest.fixture()
def lineage_pair():
    cluster = Cluster(Mode.DISTA, config=DisTAConfig(lineage=True))
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    with cluster:
        yield n1, n2, cluster.lineage_store


def _connect(n1, n2, port):
    server = ServerSocket(n2, port)
    client = Socket.connect(n1, (n2.ip, port))
    return client.get_output_stream(), server.accept().get_input_stream()


def _tainted(node, tag, payload: bytes) -> TBytes:
    return TBytes.tainted(payload, node.tree.taint_for_tag(tag))


def _only_hop(store, tag):
    (hop,) = store.hops(tag).hops
    return hop


class TestTransports:
    def test_socket_hop(self, lineage_pair):
        n1, n2, store = lineage_pair
        out, stream = _connect(n1, n2, 9000)
        out.write(_tainted(n1, "traced", b"hello"))
        stream.read_fully(5)
        hop = _only_hop(store, "traced")
        assert (hop.sender, hop.receiver) == ("n1", "n2")
        assert (hop.send_method, hop.receive_method) == ("socketWrite0", "socketRead0")
        assert hop.disposition == TRACED

    def test_untainted_traffic_makes_no_flow(self, lineage_pair):
        n1, n2, store = lineage_pair
        out, stream = _connect(n1, n2, 9001)
        out.write(TBytes(b"plain"))
        stream.read_fully(5)
        assert store.flows() == []

    def test_datagram_hop(self, lineage_pair):
        n1, n2, store = lineage_pair
        a = DatagramSocket(n1, 5000)
        b = DatagramSocket(n2, 5000)
        a.send(DatagramPacket(_tainted(n1, "udp", b"dgram"), address=(n2.ip, 5000)))
        b.receive(DatagramPacket(16))
        hop = _only_hop(store, "udp")
        assert (hop.sender, hop.receiver) == ("n1", "n2")
        assert (hop.send_method, hop.receive_method) == ("datagram.send", "datagram.receive0")

    def test_channel_hop(self, lineage_pair):
        n1, n2, store = lineage_pair
        server = ServerSocketChannel.open(n2).bind(9100)
        client = SocketChannel.open(n1).connect((n2.ip, 9100))
        conn = server.accept()
        client.write_fully(ByteBuffer.wrap(_tainted(n1, "nio", b"chan")))
        conn.read_fully(ByteBuffer.allocate(4))
        hop = _only_hop(store, "nio")
        assert (hop.sender, hop.receiver) == ("n1", "n2")
        assert (hop.send_method, hop.receive_method) == (
            "dispatcher.write0",
            "dispatcher.read0",
        )


class TestSpans:
    def test_one_span_at_both_ends(self, lineage_pair):
        n1, n2, store = lineage_pair
        out, stream = _connect(n1, n2, 9300)
        out.write(_tainted(n1, "hop", b"payload"))
        stream.read_fully(7)
        hop = _only_hop(store, "hop")
        assert hop.span != 0 and hop.complete
        assert (hop.sent_bytes, hop.received_bytes) == (7, 7)
        assert 0 < hop.send_timestamp <= hop.receive_timestamp

    def test_fifo_spans_over_one_connection(self, lineage_pair):
        n1, n2, store = lineage_pair
        out, stream = _connect(n1, n2, 9301)
        out.write(_tainted(n1, "msg-1", b"aaaa"))
        stream.read_fully(4)
        out.write(_tainted(n1, "msg-2", b"bbbb"))
        stream.read_fully(4)
        first, second = _only_hop(store, "msg-1"), _only_hop(store, "msg-2")
        assert first.complete and second.complete
        assert first.span < second.span

    def test_split_read_is_one_hop(self, lineage_pair):
        """One 6-byte send drained by two 3-byte reads."""
        n1, n2, store = lineage_pair
        out, stream = _connect(n1, n2, 9302)
        out.write(_tainted(n1, "split", b"abcdef"))
        stream.read_fully(3)
        stream.read_fully(3)
        hop = _only_hop(store, "split")
        assert hop.disposition == TRACED
        assert (hop.sent_bytes, hop.received_bytes) == (6, 6)

    def test_one_read_draining_two_sends_closes_both_hops(self, lineage_pair):
        """Two tainted sends drained by one read: each hop closes with its
        own bytes, and a later message on the connection gets its own
        span instead of the previous message's."""
        n1, n2, store = lineage_pair
        out, stream = _connect(n1, n2, 9303)
        out.write(_tainted(n1, "a", b"aaaa"))
        out.write(_tainted(n1, "b", b"bbbb"))
        stream.read_fully(8)
        out.write(_tainted(n1, "c", b"cccc"))
        stream.read_fully(4)
        hops = [_only_hop(store, tag) for tag in ("a", "b", "c")]
        for hop in hops:
            assert hop.disposition == TRACED and hop.complete
            assert (hop.sent_bytes, hop.received_bytes) == (4, 4)
        assert len({hop.span for hop in hops}) == 3
        assert not any(flow.partial for flow in store.flows())

    def test_every_flow_a_message_carried_gets_each_read(self, lineage_pair):
        """One message carrying two tags, read in two halves that each
        carry one of them: both flows' hops receive the whole message."""
        n1, n2, store = lineage_pair
        out, stream = _connect(n1, n2, 9306)
        out.write(_tainted(n1, "left", b"llll") + _tainted(n1, "right", b"rrrr"))
        stream.read_fully(4)
        stream.read_fully(4)
        left, right = _only_hop(store, "left"), _only_hop(store, "right")
        assert left.span == right.span
        assert (left.sent_bytes, left.received_bytes) == (8, 8)
        assert (right.sent_bytes, right.received_bytes) == (8, 8)

    def test_round_trip_is_a_two_hop_chain(self, lineage_pair):
        """n1 -> n2 -> n1: the echo nests under the first hop."""
        n1, n2, store = lineage_pair
        server = ServerSocket(n2, 9304)
        client = Socket.connect(n1, (n2.ip, 9304))
        conn = server.accept()
        client.get_output_stream().write(_tainted(n1, "roundtrip", b"ping"))
        echoed = conn.get_input_stream().read_fully(4)
        conn.get_output_stream().write(echoed)
        client.get_input_stream().read_fully(4)
        flow = store.hops("roundtrip")
        assert [(h.sender, h.receiver) for h in flow.hops] == [("n1", "n2"), ("n2", "n1")]
        assert [n.depth for n in flow.hop_nodes] == [2, 3]

    def test_implicit_root_is_no_later_than_its_first_hop(self, lineage_pair):
        """A tag with no registry source event roots its flow at the
        first crossing, stamped with that crossing's own timestamp."""
        n1, n2, store = lineage_pair
        out, stream = _connect(n1, n2, 9305)
        out.write(_tainted(n1, "implicit", b"abc"))
        stream.read_fully(3)
        flow = store.hops("implicit")
        assert flow.root.disposition == IMPLICIT
        assert flow.root.timestamp <= flow.hops[0].send_timestamp
        assert "t=+-" not in flow.render()


class TestPendingBound:
    def test_beyond_the_bound_the_oldest_send_is_forgotten(self):
        store = LineageStore()
        data = TBytes.tainted(b"x", TaintTree(LocalId("10.0.0.1", 1)).taint_for_tag("burst"))
        channel = ("tcp", 1)
        for _ in range(MAX_PENDING_PER_CHANNEL + 2):
            store.record_crossing("n1", "send", "socketWrite0", data, 1, channel)
        store.record_crossing("n2", "receive", "socketRead0", data, 1, channel)
        hops = store.hops("burst").hops
        # The two oldest sends were forgotten and stay in flight; the
        # receive drains the oldest one still pending.
        assert [hop.complete for hop in hops[:3]] == [False, False, True]
        assert not any(hop.complete for hop in hops[3:])
        assert len(store._pending[channel]) == MAX_PENDING_PER_CHANNEL - 1


class TestConcurrentCrossings:
    def test_concurrent_senders_and_receivers_keep_their_spans(self, lineage_pair):
        """A writer and a reader thread per connection, more threads than
        cores, record into one store at a short switch interval.  A lost
        update to a channel's pending sends would leave a hop in flight,
        uncorrelated or with the wrong bytes."""
        n1, n2, store = lineage_pair
        connections, messages = 4, 30
        errors = []

        def guarded(body, *args):
            try:
                body(*args)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        def write(index, out):
            for message in range(messages):
                size = message % 7 + 1
                out.write(_tainted(n1, f"c{index}-m{message}-{size}", b"x" * size))

        def read(stream):
            stream.read_fully(sum(message % 7 + 1 for message in range(messages)))

        threads = []
        for index in range(connections):
            out, stream = _connect(n1, n2, 9600 + index)
            threads.append(threading.Thread(target=guarded, args=(write, index, out)))
            threads.append(threading.Thread(target=guarded, args=(read, stream)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        flows = store.flows()
        assert len(flows) == connections * messages
        for flow in flows:
            (hop,) = flow.hops
            size = int(flow.tag_value.rsplit("-", 1)[1])
            assert hop.disposition == TRACED and hop.complete, flow.render()
            assert (hop.sent_bytes, hop.received_bytes) == (size, size), flow.render()


class TestSystemWorkload:
    def test_zookeeper_winning_vote_hops(self):
        """The winning vote's flow leaves zk1 and lands on the other peers."""
        from repro.systems.zookeeper.workload import deploy_and_elect, sdt_spec

        cluster = Cluster(
            Mode.DISTA, name="election-lineage", config=DisTAConfig(lineage=True)
        )
        sdt_spec().apply(cluster)
        with cluster:
            extras = deploy_and_elect(cluster)
        assert extras["leader"] == 1
        hops = [
            hop
            for flow in cluster.lineage_store.flows()
            if flow.tag_value == "vote-sid1"
            for hop in flow.hops
        ]
        assert hops, "the winning vote never crossed the network"
        assert "zk1" in {hop.sender for hop in hops}
        assert {"zk2", "zk3"} <= {hop.receiver for hop in hops}
