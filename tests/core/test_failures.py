"""Failure injection: the unhappy paths of inter-node tracking."""

import threading

import pytest

from repro.core.taintmap import TaintMapClient, TaintMapServer
from repro.errors import ConnectionRefused, TaintMapError
from repro.jre import ServerSocket, Socket
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT, Cluster
from repro.runtime.kernel import SimKernel
from repro.runtime.fs import SimFileSystem
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode
from repro.taint.values import TBytes


class TestTaintMapFailures:
    def test_client_with_no_server_raises_connection_refused(self):
        kernel = SimKernel("no-map")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
        client = TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT))
        taint = node.tree.taint_for_tag("orphan")
        with pytest.raises(ConnectionRefused):
            client.gid_for(taint)
        client.close()

    def test_client_reconnects_after_connection_drop(self):
        kernel = SimKernel("drop")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
        node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
        client = TaintMapClient(node, server.address)
        g1 = client.gid_for(node.tree.taint_for_tag("a"))
        # Kill the transport out from under the client.
        client.transport._connection._endpoint.close()
        g2 = client.gid_for(node.tree.taint_for_tag("b"))
        assert g1 != g2
        client.close()
        server.stop()

    def test_server_restart_loses_state_but_stays_consistent(self):
        """The paper's Taint Map is explicitly non-fault-tolerant
        (single point, in-house analysis use).  A restarted map hands
        out fresh GIDs; clients re-register on demand."""
        kernel = SimKernel("restart")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
        node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
        client = TaintMapClient(node, server.address, cache_enabled=False)
        taint = node.tree.taint_for_tag("survivor")
        gid_before = client.gid_for(taint)
        server.stop()
        server2 = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
        gid_after = client.gid_for(taint)
        assert gid_before == gid_after == 1  # fresh numbering, same first slot
        client.close()
        server2.stop()

    def test_unknown_gid_is_an_error_not_silence(self):
        kernel = SimKernel("unknown")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
        node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
        client = TaintMapClient(node, server.address)
        with pytest.raises(TaintMapError, match="unknown"):
            client.taint_for(999)
        client.close()
        server.stop()


class TestConnectionFailures:
    def test_abrupt_peer_close_mid_stream(self):
        """Closing a connection with undelivered tainted data must not
        corrupt other connections' tracking."""
        cluster = Cluster(Mode.DISTA)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            server = ServerSocket(n2, 9600)
            dead = Socket.connect(n1, (n2.ip, 9600))
            dead_conn = server.accept()
            taint = n1.tree.taint_for_tag("t")
            dead.get_output_stream().write(TBytes.tainted(b"abandoned", taint))
            dead.close()
            dead_conn.close()
            # A second connection still tracks correctly.
            client = Socket.connect(n1, (n2.ip, 9600))
            conn = server.accept()
            client.get_output_stream().write(TBytes.tainted(b"fresh", taint))
            received = conn.get_input_stream().read_fully(5)
            assert received == b"fresh"
            assert received.overall_taint() is not None

    def test_concurrent_tainted_connections(self):
        """16 concurrent flows with distinct taints: no cross-talk."""
        cluster = Cluster(Mode.DISTA)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        results: dict = {}
        with cluster:
            server = ServerSocket(n2, 9601)

            def serve():
                for _ in range(16):
                    conn = server.accept()

                    def handle(c=conn):
                        data = c.get_input_stream().read_fully(8)
                        tag = next(iter(data.overall_taint().tags)).tag
                        results[data.data] = tag

                    n2.spawn(handle)

            n2.spawn(serve)
            threads = []
            for i in range(16):
                def send(i=i):
                    taint = n1.tree.taint_for_tag(f"flow-{i}")
                    client = Socket.connect(n1, (n2.ip, 9601))
                    client.get_output_stream().write(
                        TBytes.tainted(f"data-{i:03d}".encode(), taint)
                    )
                    client.close()

                thread = threading.Thread(target=send, daemon=True)
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(10)
            deadline = 50
            import time

            while len(results) < 16 and deadline:
                time.sleep(0.05)
                deadline -= 1
        assert len(results) == 16
        for data, tag in results.items():
            assert tag == f"flow-{int(data[5:8])}"
