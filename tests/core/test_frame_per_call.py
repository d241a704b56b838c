"""One frame per call, and the transport's thread model.

Two load shapes: loaded callers each send their own frame, however many
of their kind are in flight, and an idle caller pays exactly one
round-trip per miss.  The thread model: requests go out and replies are
read on the callers' threads, so the client owns no thread.
"""

import sys
import threading

import pytest

from repro.core.taintmap import TaintMapClient, TaintMapServer
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode


def _node(kernel, fs, name="n", ip="10.0.0.1", pid=1):
    return SimNode(name, kernel.register_node(ip), pid, kernel, fs, Mode.DISTA)


def _count(owner, family, **labels):
    """``family``'s total on a node's or a server's registry."""
    return snapshot_total(owner.metrics.snapshot(), family, labels)


@pytest.fixture()
def slow_shard():
    kernel = SimKernel("frame-per-call")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT, service_time=0.002)
    server.start()
    yield kernel, fs, server
    server.stop()


class TestFramePerCall:
    def test_loaded_callers_each_send_their_own_frame(self, slow_shard):
        """16 threads registering fresh taints: one round-trip per
        registration, and every GID distinct and resolving to its own
        taint.  A short switch interval interleaves the callers densely,
        so a lost update to the shared request table would show."""
        kernel, fs, server = slow_shard
        node = _node(kernel, fs)
        client = TaintMapClient(node, server.address, cache_enabled=False)
        threads, per_thread = 16, 8
        taints = [
            [node.tree.taint_for_tag(f"load-{t}-{i}") for i in range(per_thread)]
            for t in range(threads)
        ]
        gids = [[None] * per_thread for _ in range(threads)]
        barrier = threading.Barrier(threads)

        def run(t):
            barrier.wait()
            for i, taint in enumerate(taints[t]):
                gids[t][i] = client.gid_for(taint)

        workers = [threading.Thread(target=run, args=(t,), daemon=True) for t in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert client.transport._connection._pending == {}
        registrations = threads * per_thread
        flat = [gid for row in gids for gid in row]
        assert None not in flat
        assert len(set(flat)) == registrations
        entries = _count(server, "dista_taintmap_server_entries_total", kind="register")
        assert entries == registrations
        assert _count(node, "dista_taintmap_requests_total") == registrations
        # Correct, not just distinct: a fresh node resolves each GID to
        # the tags it was registered for.
        reader = TaintMapClient(_node(kernel, fs, "r", "10.0.0.2", 2), server.address)
        resolved = reader.taints_for(flat)
        for taint, back in zip((t for row in taints for t in row), resolved):
            assert {tag.tag for tag in back.tags} == {tag.tag for tag in taint.tags}
        reader.close()
        client.close()

    def test_idle_caller_makes_one_round_trip_per_miss(self, slow_shard):
        kernel, fs, server = slow_shard
        node = _node(kernel, fs)
        client = TaintMapClient(node, server.address)
        for i in range(10):
            before = _count(node, "dista_taintmap_requests_total")
            assert client.gid_for(node.tree.taint_for_tag(f"idle-{i}")) > 0
            assert _count(node, "dista_taintmap_requests_total") - before == 1
        client.close()


class TestThreadModel:
    def test_client_owns_no_threads(self):
        """Requests go out and replies are read on the callers' threads:
        a connected client owns no thread at all."""
        kernel = SimKernel("thread-model")
        fs = SimFileSystem()
        kernel.register_node(TAINT_MAP_IP)
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT)
        server.start()
        node = _node(kernel, fs)
        before = set(threading.enumerate())

        def client_threads():
            # The server's per-connection threads are not the client's.
            return [
                t for t in threading.enumerate()
                if t not in before and t.name != "taintmap-conn"
            ]

        client = TaintMapClient(node, server.address)
        assert client_threads() == []

        assert client.gid_for(node.tree.taint_for_tag("tm-0")) == 1
        connection = client.transport._connection
        assert connection is not None and client_threads() == []
        # More requests reuse the connection and still start no thread.
        assert client.gids_for(
            [node.tree.taint_for_tag(f"tm-{i}") for i in range(1, 4)]
        ) == [2, 3, 4]
        assert client.taint_for(1) is not None
        assert client.transport._connection is connection
        assert client_threads() == []

        client.close()
        assert connection._endpoint.closed
        server.stop()
