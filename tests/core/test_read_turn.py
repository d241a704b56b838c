"""The read turn: callers read the multiplexed connection themselves.

No thread drains replies on its own, so these check the rules that
keep them draining: mixed concurrent calls across a primary kill settle
and leave the transport idle, multi-frame calls of both kinds, two of
each at once, complete through pipes smaller than one frame, and a
connection the server dropped while idle is redialed on the same
replica.
"""

import random
import sys
import threading
import time

import pytest

from repro.core.ha import (
    FailoverTaintMapClient,
    ReplicatedTaintMapServer,
    StandbyTaintMapServer,
)
from repro.core.taintmap import TaintMapClient, TaintMapServer
from repro.errors import TaintMapError
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode

#: Generous per-call deadline: a call that reaches it is a hang.
DEADLINE_S = 20.0

#: A GID no server ever allocates in these tests.
BOGUS_GID = 0x0ABCDEF


def _node(kernel, fs, name="n", ip="10.0.0.1", pid=1):
    return SimNode(name, kernel.register_node(ip), pid, kernel, fs, Mode.DISTA)


def _tags(taint):
    return {tag.tag for tag in taint.tags}


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.005)
    return predicate()


def _assert_idle(transport):
    """Nothing in flight, parked or holding the read turn."""
    assert transport._parked == 0
    connection = transport._connection
    if connection is not None:
        assert connection._pending == {}
        assert not connection.reading


@pytest.fixture()
def ha_pair():
    kernel = SimKernel("read-turn-ha")
    fs = SimFileSystem()
    standby = StandbyTaintMapServer(
        kernel, kernel.register_node("10.2.0.1"), 7300, service_time=0.001
    ).start()
    primary = ReplicatedTaintMapServer(
        kernel, kernel.register_node("10.1.0.1"), 7300, standby.address, service_time=0.001
    ).start()
    yield kernel, fs, primary, standby
    primary.stop()
    standby.stop()


class TestConcurrentCalls:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_calls_across_a_primary_kill(self, ha_pair, seed):
        """Seeded threads mix register and lookup calls over a shared
        tag pool (duplicate keys within and across windows), one lookup
        carries an unknown GID, and the primary is killed mid-run.  Every
        call settles, every acked GID resolves to its tags, and the
        transport is left idle with the read turn free."""
        kernel, fs, primary, standby = ha_pair
        node = _node(kernel, fs)
        client = FailoverTaintMapClient(
            node,
            primary.address,
            standby.address,
            cache_enabled=False,
            request_deadline_s=DEADLINE_S,
        )
        client.transport.max_batch = 4
        pool = [node.tree.taint_for_tag(f"pool-{i}") for i in range(24)]
        lock = threading.Lock()
        acked: dict = {}  # tag -> every GID a register call returned for it
        failures: list = []
        calls_done = []
        threads, calls = 6, 12

        def worker(index):
            rng = random.Random(seed * 100 + index)
            for step in range(calls):
                with lock:
                    known = sorted((gid, tag) for tag, gids in acked.items() for gid in gids)
                bogus = index == 0 and step == calls // 2
                try:
                    if known and (bogus or rng.random() < 0.5):
                        chosen = rng.sample(known, min(len(known), rng.randint(1, 6)))
                        gids = [gid for gid, _ in chosen] + ([BOGUS_GID] if bogus else [])
                        try:
                            resolved = client.taints_for(gids)
                        except TaintMapError as exc:
                            if not (bogus and "unknown Global ID" in str(exc)):
                                raise
                        else:
                            assert not bogus, "a lookup of an unknown GID succeeded"
                            for (_, tag), taint in zip(chosen, resolved):
                                assert _tags(taint) == {tag}
                    else:
                        taints = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
                        gids = client.gids_for(taints)
                        with lock:
                            for taint, gid in zip(taints, gids):
                                acked.setdefault(next(iter(_tags(taint))), set()).add(gid)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(repr(exc))
                with lock:
                    calls_done.append(index)

        workers = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(threads)]
        # A short switch interval interleaves the callers densely, so a
        # lost wake-up or a turn never handed on would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers:
                thread.start()
            assert _wait_until(lambda: len(calls_done) >= threads * calls // 3)
            primary.stop()
            for thread in workers:
                thread.join(DEADLINE_S * 2)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers), "a call never settled"
        assert failures == []
        assert client.active_address == standby.address
        _assert_idle(client.transport)

        # One GID per tag across the failover, and each resolves to its
        # tag on the surviving replica.
        assert all(len(gids) == 1 for gids in acked.values())
        reader = TaintMapClient(_node(kernel, fs, "r", "10.0.0.2", 2), standby.address)
        gids = [next(iter(gids)) for gids in acked.values()]
        for tag, taint in zip(acked, reader.taints_for(gids)):
            assert _tags(taint) == {tag}
        reader.close()
        client.close()


class TestSmallPipes:
    def test_multi_frame_windows_in_both_directions(self):
        """Register calls whose frames and lookup calls whose replies are
        each larger than the pipe fly at once from four threads, two of
        each kind, as several frames each, and all complete."""
        kernel = SimKernel("small-pipes", pipe_capacity=4096)
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
        node = _node(kernel, fs)
        client = TaintMapClient(
            node, server.address, cache_enabled=False, request_deadline_s=DEADLINE_S
        )
        client.transport.max_batch = 50
        pad = "x" * 170  # ~200-byte serialized taints: 50 of them are ~10 KiB
        known = [node.tree.taint_for_tag(f"{pad}-known-{i:03d}") for i in range(400)]
        fresh = [node.tree.taint_for_tag(f"{pad}-fresh-{i:03d}") for i in range(400)]
        more = [node.tree.taint_for_tag(f"{pad}-more-{i:03d}") for i in range(400)]
        known_gids = client.gids_for(known)
        results = {}
        start = threading.Barrier(4)

        def register(key, taints):
            start.wait()
            results[key] = client.gids_for(taints)

        def lookup(key):
            start.wait()
            results[key] = client.taints_for(known_gids)

        calls = [
            (register, ("gids", fresh)),
            (lookup, ("taints",)),
            (register, ("more_gids", more)),
            (lookup, ("more_taints",)),
        ]
        threads = [threading.Thread(target=fn, args=args, daemon=True) for fn, args in calls]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(DEADLINE_S * 2)
        assert not any(thread.is_alive() for thread in threads)
        assert len(set(results["gids"])) == 400
        assert not set(results["gids"]) & set(known_gids)
        assert [_tags(taint) for taint in results["taints"]] == [_tags(t) for t in known]
        assert len(set(results["gids"] + results["more_gids"])) == 800
        assert not set(results["more_gids"]) & set(known_gids)
        assert [_tags(taint) for taint in results["more_taints"]] == [_tags(t) for t in known]
        # Five calls of 400 entries: each went out as 8 frames of its own.
        assert snapshot_total(node.metrics.snapshot(), "dista_taintmap_requests_total") == 40
        _assert_idle(client.transport)
        client.close()
        server.stop()


class TestIdleDrop:
    def test_request_after_an_idle_drop_redials_the_same_replica(self, ha_pair):
        """The server closes a connection that sat idle (what its idle
        timeout does).  The next request finds it dead at send time,
        redials the primary and succeeds there: no failover."""
        kernel, fs, primary, standby = ha_pair
        node = _node(kernel, fs)
        client = FailoverTaintMapClient(node, primary.address, standby.address)
        first = client.gid_for(node.tree.taint_for_tag("before-drop"))
        dropped = client.transport._connection
        for endpoint in list(primary._connections):
            endpoint.close()
        second = client.gid_for(node.tree.taint_for_tag("after-drop"))
        assert second == first + 1
        assert client.active_address == primary.address
        assert client.transport._connection is not dropped
        assert snapshot_total(
            primary.metrics.snapshot(), "dista_taintmap_server_requests_total", {"kind": "register"}
        ) == 2
        _assert_idle(client.transport)
        client.close()
