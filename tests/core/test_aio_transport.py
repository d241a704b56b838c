"""Tests for the multiplexed Taint Map transport: correlation-id
framing, group commit across messages (idle, drain and size flushes),
out-of-order response delivery, mid-frame connection kill, per-shard
failover with in-flight requests, and the client defaults a cluster
builds."""

import struct
import threading
import time

import pytest

from repro.core.agent import DisTAAgent
from repro.core.transport import TaintMapTransport, mux_frame
from repro.core.ha import (
    FailoverTaintMapClient,
    ReplicatedTaintMapServer,
    StandbyTaintMapServer,
)
from repro.core.taintmap import (
    OP_MUX_HELLO,
    OP_REGISTER,
    STATUS_OK,
    ShardedTaintMapService,
    ShardRouter,
    TaintMapClient,
    TaintMapServer,
    _recv_exact,
    gid_shard,
    serialize_tags,
    taint_key,
)
from repro.errors import PipeClosed, TaintMapError
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT, Cluster
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


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.002)
    return predicate()


@pytest.fixture()
def single():
    kernel = SimKernel("aio-test")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT)
    server.start()
    node = _node(kernel, fs)
    yield kernel, fs, server, node
    server.stop()


class TestMuxFraming:
    def test_golden_frame_bytes(self):
        """A mux frame is the sync frame with a 4-byte corr prefix —
        the payload encodings themselves are byte-identical."""
        payload = b"\x01\x02\x03"
        frame = mux_frame(0xDEADBEEF, OP_REGISTER, payload)
        assert frame == b"\xde\xad\xbe\xef" + bytes([OP_REGISTER]) + b"\x00\x00\x00\x03" + payload

    def test_hello_handshake_then_correlated_roundtrip(self, single):
        """Raw protocol: OP_MUX_HELLO upgrade, then a correlated register
        whose inner bytes are the unchanged sync frame."""
        kernel, _, server, node = single
        endpoint = kernel.connect(node.ip, server.address)
        endpoint.send_all(bytes([OP_MUX_HELLO]) + struct.pack(">I", 0))
        assert _recv_exact(endpoint, 1)[0] == STATUS_OK
        assert struct.unpack(">I", _recv_exact(endpoint, 4)) == (0,)

        taint = node.tree.taint_for_tag("raw")
        payload = serialize_tags(taint.tags)
        endpoint.send_all(mux_frame(77, OP_REGISTER, payload))
        (corr,) = struct.unpack(">I", _recv_exact(endpoint, 4))
        status = _recv_exact(endpoint, 1)[0]
        (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
        assert (corr, status, length) == (77, STATUS_OK, 4)
        (gid,) = struct.unpack(">I", _recv_exact(endpoint, 4))
        assert gid == 1
        endpoint.close()

    def test_out_of_order_responses_resolve_correct_futures(self, single):
        """Two concurrent requests whose responses arrive in reverse
        order must each resolve their own caller."""
        kernel, _, server, node = single
        server.stop()
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)
        release = threading.Event()

        def reordering_server():
            endpoint = listener.accept(timeout=10)
            # Hello upgrade.
            _recv_exact(endpoint, 5)
            endpoint.send_all(bytes([STATUS_OK]) + struct.pack(">I", 0))
            # Read two register frames, then answer them REVERSED with
            # distinguishable GIDs.
            frames = []
            for _ in range(2):
                (corr,) = struct.unpack(">I", _recv_exact(endpoint, 4))
                _recv_exact(endpoint, 1)
                (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
                _recv_exact(endpoint, length)
                frames.append(corr)
            release.wait(10)
            for index, corr in enumerate(reversed(frames)):
                endpoint.send_all(
                    struct.pack(">I", corr)
                    + bytes([STATUS_OK])
                    + struct.pack(">I", 4)
                    + struct.pack(">I", 1000 + index)
                )
            listener.close()

        thread = threading.Thread(target=reordering_server, daemon=True)
        thread.start()

        # Two registrations would share one window; send two separate
        # frames on the channel instead.
        client = TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT))
        t1 = serialize_tags(node.tree.taint_for_tag("a").tags)
        t2 = serialize_tags(node.tree.taint_for_tag("b").tags)
        channel = client.transport._channels[0]

        first = channel.request(OP_REGISTER, t1)
        second = channel.request(OP_REGISTER, t2)
        release.set()
        # Responses were sent reversed: the *second* request's corr came
        # back first carrying 1000, the first's carrying 1001.
        assert first.result(10) == (STATUS_OK, struct.pack(">I", 1001))
        assert second.result(10) == (STATUS_OK, struct.pack(">I", 1000))
        thread.join(10)
        client.close()


class TestAsyncClientApi:
    def test_unknown_gid_raises_and_other_lookups_survive(self, single):
        """A group-committed lookup window containing one unknown GID
        fails only that entry; co-batched lookups still resolve."""
        kernel, _, server, node = single
        client = TaintMapClient(node, server.address)
        holder = client.gid_for(node.tree.taint_for_tag("holder"))
        known = client.gid_for(node.tree.taint_for_tag("known"))
        client._taint_cache.clear()  # force wire lookups

        results = {}

        def fetch(name, gid):
            try:
                results[name] = client.taint_for(gid)
            except TaintMapError as exc:
                results[name] = exc

        # A slow lookup in flight makes the next two queue into one window.
        server._service_time = 0.2
        holding = threading.Thread(target=fetch, args=("holder", holder), daemon=True)
        holding.start()
        assert _wait_until(lambda: client.transport._shards[0].flying[1] is not None)
        threads = [
            threading.Thread(target=fetch, args=("known", known), daemon=True),
            threading.Thread(target=fetch, args=("bogus", 0x0ABCDEF), daemon=True),
        ]
        for t in threads:
            t.start()
        assert _wait_until(lambda: len(client.transport._shards[0].windows[1].keys) == 2)
        server._service_time = 0.0
        for t in [holding, *threads]:
            t.join(10)
        assert server.stats.lookup_requests == 3  # holder, the pair, the re-sent rest
        assert isinstance(results["bogus"], TaintMapError)
        assert "unknown Global ID" in str(results["bogus"])
        assert {t.tag for t in results["known"].tags} == {"known"}
        client.close()

    def test_closed_client_rejects_requests(self, single):
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        client.gid_for(node.tree.taint_for_tag("pre"))
        client.close()
        with pytest.raises(TaintMapError, match="closed"):
            client.gid_for(node.tree.taint_for_tag("post"))

    def test_bad_max_batch_rejected(self, single):
        _, _, server, node = single
        with pytest.raises(TaintMapError, match="max_batch"):
            TaintMapClient(node, server.address, max_batch=0)


class TestCoalescing:
    def test_concurrent_registrations_coalesce_to_one_roundtrip(self, single):
        """k concurrent single-taint messages cost one round-trip per
        flush in flight, not k: arrivals queue into the next window."""
        kernel, _, server, node = single
        server._service_time = 0.01  # keep a flush in flight
        client = TaintMapClient(node, server.address, cache_enabled=False)
        workers = 12
        taints = [node.tree.taint_for_tag(f"co-{i}") for i in range(workers)]
        barrier = threading.Barrier(workers)
        gids = [None] * workers

        def run(i):
            barrier.wait()
            gids[i] = client.gid_for(taints[i])

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert len(set(gids)) == workers
        assert client.requests_sent < workers
        assert server.stats.register_entries == workers
        assert server.stats.register_requests < workers
        client.close()

    def test_duplicate_keys_share_one_wire_entry(self, single):
        """The same taint submitted by two in-flight messages dedups to
        one entry (registration is idempotent)."""
        kernel, _, server, node = single
        server._service_time = 0.05
        client = TaintMapClient(node, server.address, cache_enabled=False)
        taint = node.tree.taint_for_tag("dup")
        barrier = threading.Barrier(8)
        gids = [None] * 8

        def run(i):
            barrier.wait()
            gids[i] = client.gid_for(taint)

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert set(gids) == {gids[0]}
        assert server.stats.register_entries <= 2  # at most two windows
        client.close()

    def test_flush_on_max_batch_size_beats_timer(self, single):
        """A window larger than max_batch goes out at once as several
        frames: the first an ``idle`` flush, the rest ``size`` flushes."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address, cache_enabled=False, max_batch=8)
        taints = [node.tree.taint_for_tag(f"mb-{i}") for i in range(20)]
        gids = client.gids_for(taints)
        assert len(set(gids)) == 20
        assert server.stats.register_requests == 3  # 8 + 8 + 4
        assert (_flushes(node, "idle"), _flushes(node, "size")) == (1, 2)
        client.close()

    def test_flush_on_timer_when_under_batch_size(self, single):
        """Under max_batch there is no timer to wait out: a lone request
        with no flush in flight is sent at once, as an ``idle`` flush."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address, cache_enabled=False, max_batch=64)
        gid = client.gid_for(node.tree.taint_for_tag("timer"))
        assert gid == 1
        assert _flushes(node, "idle") == 1
        assert _flushes(node, "drain") == _flushes(node, "size") == 0
        client.close()

    def test_zero_window_still_batches_one_call(self, single):
        """A single gids_for call is one round-trip: all its entries
        join the window before its caller sends it."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address, cache_enabled=False)
        taints = [node.tree.taint_for_tag(f"z-{i}") for i in range(16)]
        before = client.requests_sent
        gids = client.gids_for(taints)
        assert len(set(gids)) == 16
        assert client.requests_sent - before == 1
        client.close()


class TestFaultInjection:
    def test_mid_frame_kill_fails_inflight_and_recovers(self):
        """A server dying mid-response frame fails the in-flight future
        with a transport error; once a healthy server rebinds, the same
        client reconnects with clean framing."""
        kernel = SimKernel("aio-kill")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        node = _node(kernel, fs)
        client = TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT))

        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)

        def evil():
            endpoint = listener.accept(timeout=10)
            _recv_exact(endpoint, 5)  # hello
            endpoint.send_all(bytes([STATUS_OK]) + struct.pack(">I", 0))
            # Swallow one request, answer with a truncated frame, die.
            (corr,) = struct.unpack(">I", _recv_exact(endpoint, 4))
            _recv_exact(endpoint, 1)
            (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
            _recv_exact(endpoint, length)
            endpoint.send_all(struct.pack(">I", corr) + bytes([STATUS_OK]) + struct.pack(">I", 8) + b"\x2a")
            endpoint.close()
            listener.close()

        thread = threading.Thread(target=evil, daemon=True)
        thread.start()
        with pytest.raises((PipeClosed, EOFError)):
            client.gid_for(node.tree.taint_for_tag("victim"))
        thread.join(10)

        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT)
        server.start()
        assert client.gid_for(node.tree.taint_for_tag("victim")) == 1
        server.stop()
        client.close()

    def test_per_shard_failover_with_inflight_futures(self):
        """Killing shard 1's primary mid-stream fails over only shard 1;
        shard 0's connection and GIDs are undisturbed, and requests that
        were in flight during the kill complete via the standby."""
        kernel = SimKernel("aio-ha")
        fs = SimFileSystem()
        shards = 2
        primaries, standbys = [], []
        for shard in range(shards):
            p_ip = kernel.register_node(f"10.1.0.{shard + 1}")
            s_ip = kernel.register_node(f"10.2.0.{shard + 1}")
            standby = StandbyTaintMapServer(
                kernel, s_ip, 7300, shard_index=shard, shard_count=shards
            ).start()
            primary = ReplicatedTaintMapServer(
                kernel, p_ip, 7300, standby.address,
                shard_index=shard, shard_count=shards,
            ).start()
            primaries.append(primary)
            standbys.append(standby)

        node = _node(kernel, fs)
        client = FailoverTaintMapClient(
            node,
            [p.address for p in primaries],
            [s.address for s in standbys],
            cache_enabled=False,
        )
        router = ShardRouter(shards)

        def taint_on(shard, prefix):
            for i in range(10000):
                taint = node.tree.taint_for_tag(f"{prefix}-{i}")
                if router.shard_for_key(taint_key(taint.tags)) == shard:
                    return taint
            raise AssertionError("no key found")

        t0, t1 = taint_on(0, "s0"), taint_on(1, "s1")
        g0, g1 = client.gids_for([t0, t1])
        assert gid_shard(g0) == 0 and gid_shard(g1) == 1
        assert client.active_address_for(1) == primaries[1].address

        # Slow shard 1 down and kill its primary while a request is in
        # flight; that future must fail over to the standby.
        primaries[1]._service_time = 0.2
        victim = taint_on(1, "inflight")
        result = {}

        def register():
            result["gid"] = client.gid_for(victim)

        thread = threading.Thread(target=register, daemon=True)
        thread.start()
        time.sleep(0.05)  # the request is now mid-service on primary 1
        primaries[1].stop()
        thread.join(10)
        assert gid_shard(result["gid"]) == 1
        assert client.active_address_for(1) == standbys[1].address
        # Shard 0 never failed over.
        assert client.active_address_for(0) == primaries[0].address
        # Replicated GIDs survive: the pre-kill registration resolves to
        # the same id on the standby.
        assert client.gid_for(t1) == g1

        client.close()
        primaries[0].stop()
        for standby in standbys:
            standby.stop()


class TestCloseErrorSuppression:
    def test_channel_close_survives_close_errors(self, single):
        """A connection whose close() raises must not abort the channel
        teardown; the error is counted in TaintMapStats."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        client.gid_for(node.tree.taint_for_tag("warm"))  # dials shard 0
        channel = client.transport._channels[0]
        healthy = channel._connection

        class ExplodingConnection:
            def close(self):
                raise OSError("close failed")

        channel._connection = ExplodingConnection()
        channel.close()
        assert client.stats.snapshot()["close_errors"] == 1
        assert channel._connection is None
        healthy.close()
        # The client redials and keeps working after the teardown.
        assert client.gid_for(node.tree.taint_for_tag("after")) == 2
        client.close()


class TestTransportSelection:
    def test_default_is_async(self):
        """Every client runs the multiplexed transport, deadline armed."""
        with Cluster(Mode.DISTA) as cluster:
            node = cluster.add_node("n1")
            assert isinstance(node.taintmap.transport, TaintMapTransport)
            assert node.taintmap.transport.request_deadline_s is not None

    def test_agent_runtime_resolves_through_client(self, single):
        _, _, server, node = single
        agent = DisTAAgent(server.address)
        runtime = agent.attach(node)
        assert isinstance(runtime.client, TaintMapClient)
        assert runtime.resolver.gids_for == runtime.client.gids_for
        assert runtime.resolver.taints_for == runtime.client.taints_for
        agent.detach(node)
