"""Group commit and the transport's thread model.

Two load shapes: concurrent callers share round-trips (entries queue
into the next window while a flush is in flight), and an idle caller
pays exactly one round-trip per miss, with nothing to wait for.  The
thread model: requests go out on the caller's thread, and each
connected shard costs the client one reader thread and nothing else.
"""

import sys
import threading

import pytest

from repro.core.taintmap import (
    ShardedTaintMapService,
    ShardRouter,
    TaintMapClient,
    TaintMapServer,
    gid_shard,
    taint_key,
)
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode


def _node(kernel, fs, name="n", ip="10.0.0.1", pid=1):
    return SimNode(name, kernel.register_node(ip), pid, kernel, fs, Mode.DISTA)


def _flushes(node, reason):
    return snapshot_total(
        node.metrics.snapshot(), "dista_coalesce_flush_total", {"reason": reason}
    )


@pytest.fixture()
def slow_shard():
    kernel = SimKernel("group-commit")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT, service_time=0.002)
    server.start()
    yield kernel, fs, server
    server.stop()


class TestGroupCommitShapes:
    def test_loaded_callers_share_round_trips(self, slow_shard):
        """16 threads registering fresh taints: fewer round-trips than
        registrations, and every GID distinct and resolving to its own
        taint.  A short switch interval interleaves the callers densely,
        so a lost update to the shared window state would show."""
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
        assert client.transport._shards[0].pending == 0
        registrations = threads * per_thread
        flat = [gid for row in gids for gid in row]
        assert None not in flat
        assert len(set(flat)) == registrations
        assert server.stats.register_entries == registrations
        assert client.requests_sent < registrations
        assert _flushes(node, "drain") > 0
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
            before = client.requests_sent
            assert client.gid_for(node.tree.taint_for_tag(f"idle-{i}")) > 0
            assert client.requests_sent - before == 1
        assert _flushes(node, "idle") == 10
        assert _flushes(node, "drain") == _flushes(node, "size") == 0
        client.close()


class TestThreadModel:
    def test_one_reader_per_connected_shard_and_nothing_else(self):
        kernel = SimKernel("thread-model")
        fs = SimFileSystem()
        kernel.register_node(TAINT_MAP_IP)
        service = ShardedTaintMapService(kernel, TAINT_MAP_IP, TAINT_MAP_PORT, shard_count=2)
        service.start()
        node = _node(kernel, fs)
        before = set(threading.enumerate())

        def client_threads():
            # The server's per-connection threads are not the client's.
            return [
                t for t in threading.enumerate()
                if t not in before and t.name != "taintmap-conn"
            ]

        client = TaintMapClient(node, service.addresses)
        assert client_threads() == []

        router = ShardRouter(2)
        taint = next(
            t
            for t in (node.tree.taint_for_tag(f"tm-{i}") for i in range(1000))
            if router.shard_for_key(taint_key(t.tags)) == 0
        )
        assert gid_shard(client.gid_for(taint)) == 0
        owned = client_threads()
        assert [t.name for t in owned] == ["taintmap-mux-reader"]
        # Touching the second shard adds exactly its reader.
        other = next(
            t
            for t in (node.tree.taint_for_tag(f"tm1-{i}") for i in range(1000))
            if router.shard_for_key(taint_key(t.tags)) == 1
        )
        assert gid_shard(client.gid_for(other)) == 1
        owned = client_threads()
        assert sorted(t.name for t in owned) == ["taintmap-mux-reader"] * 2

        client.close()
        assert not any(t.is_alive() for t in owned)
        service.stop()
