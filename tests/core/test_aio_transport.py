"""Tests for the multiplexed Taint Map transport: correlation-id
framing, one frame per call (split at ``max_batch``), out-of-order
response delivery, mid-frame connection kill, failover with in-flight
requests, and the client defaults a cluster builds."""

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
    MUX_READ_SIZE,
    OP_LOOKUP_MANY,
    OP_REGISTER_MANY,
    STATUS_OK,
    TaintMapClient,
    TaintMapServer,
    _pack_batch_register,
    serialize_tags,
    take_frames,
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


def _in_flight(client):
    """Frames sent on the client's connection whose replies are due."""
    connection = client.transport._channel._connection
    return 0 if connection is None else len(connection._pending)


def _read_frames(endpoint, count):
    """Read until ``count`` whole frames arrived; returns them as
    ``(corr, code, payload)``."""
    buffer, frames = bytearray(), []
    while len(frames) < count:
        chunk = endpoint.recv(MUX_READ_SIZE)
        if not chunk:
            raise PipeClosed("connection closed mid-frame")
        buffer += chunk
        frames += take_frames(buffer)
    return frames


def _count(owner, family, **labels):
    """``family``'s total on a node's or a server's registry."""
    return snapshot_total(owner.metrics.snapshot(), family, labels)


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
        """A frame is a 4-byte corr, the op, a 4-byte length and the
        payload, all big-endian."""
        payload = b"\x01\x02\x03"
        frame = mux_frame(0xDEADBEEF, OP_REGISTER_MANY, payload)
        assert frame == (
            b"\xde\xad\xbe\xef" + bytes([OP_REGISTER_MANY]) + b"\x00\x00\x00\x03" + payload
        )

    def test_correlated_roundtrip_from_the_first_byte(self, single):
        """Raw protocol: a connection's first frame is already a
        correlated request, and its reply echoes the correlation id."""
        kernel, _, server, node = single
        endpoint = kernel.connect(node.ip, server.address)
        taint = node.tree.taint_for_tag("raw")
        payload = _pack_batch_register([serialize_tags(taint.tags)])
        endpoint.send_all(mux_frame(77, OP_REGISTER_MANY, payload))
        assert _read_frames(endpoint, 1) == [(77, STATUS_OK, struct.pack(">I", 1))]
        endpoint.close()

    def test_out_of_order_responses_settle_their_own_callers(self, single):
        """Two frames in flight whose replies arrive in reverse order
        must each settle their own caller, whichever caller reads them."""
        kernel, _, server, node = single
        server.stop()
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)
        looked_up = serialize_tags(node.tree.taint_for_tag("b").tags)

        def reordering_server():
            endpoint = listener.accept(timeout=10)
            # Read a register and a lookup frame, then answer them
            # REVERSED.
            frames = {op: corr for corr, op, _ in _read_frames(endpoint, 2)}
            replies = {
                OP_LOOKUP_MANY: struct.pack(">I", len(looked_up)) + looked_up,
                OP_REGISTER_MANY: struct.pack(">I", 1000),
            }
            for op in reversed(list(frames)):
                endpoint.send_all(
                    struct.pack(">I", frames[op])
                    + bytes([STATUS_OK])
                    + struct.pack(">I", len(replies[op]))
                    + replies[op]
                )
            listener.close()

        thread = threading.Thread(target=reordering_server, daemon=True)
        thread.start()
        client = TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT), cache_enabled=False)
        results = {}

        def register():
            results["gid"] = client.gid_for(node.tree.taint_for_tag("a"))

        registering = threading.Thread(target=register, daemon=True)
        registering.start()
        # The register frame is in flight before the lookup is sent.
        assert _wait_until(lambda: _in_flight(client) == 1)
        results["taint"] = client.taint_for(77)
        registering.join(10)
        thread.join(10)
        assert results["gid"] == 1000
        assert {t.tag for t in results["taint"].tags} == {"b"}
        client.close()

    def test_same_kind_calls_are_in_flight_together(self, single):
        """Two register calls each send their own frame at once: a server
        that reads both frames before answering either, then answers
        them in reverse order, gives each caller its own GID."""
        kernel, _, server, node = single
        server.stop()
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)

        def reordering_server():
            endpoint = listener.accept(timeout=10)
            frames = _read_frames(endpoint, 2)
            assert [op for _, op, _ in frames] == [OP_REGISTER_MANY] * 2
            # Each reply names its frame's correlation id (the first call
            # enlists corr 1, the second corr 2); the last frame read is
            # answered first.
            for corr, _, _ in reversed(frames):
                endpoint.send_all(mux_frame(corr, STATUS_OK, struct.pack(">I", 1000 * corr)))
            # Hold the connection open until the client closes it.
            endpoint.recv(MUX_READ_SIZE)
            endpoint.close()
            listener.close()

        thread = threading.Thread(target=reordering_server, daemon=True)
        thread.start()
        client = TaintMapClient(
            node, (TAINT_MAP_IP, TAINT_MAP_PORT), cache_enabled=False, request_deadline_s=2
        )
        gids = {}

        def register(tag):
            gids[tag] = client.gid_for(node.tree.taint_for_tag(tag))

        first = threading.Thread(target=register, args=("first",), daemon=True)
        first.start()
        assert _wait_until(lambda: _in_flight(client) == 1)
        register("second")
        first.join(10)
        assert not first.is_alive()
        assert gids == {"first": 1000, "second": 2000}
        assert _count(node, "dista_taintmap_requests_total") == 2
        client.close()
        thread.join(10)
        assert not thread.is_alive()


class TestAsyncClientApi:
    def test_unknown_gid_raises_and_other_lookups_survive(self, single):
        """An unknown GID fails only the call that carries it: lookups
        in flight beside it, in frames of their own, still resolve."""
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

        # A slow lookup in flight keeps the next two in flight beside it.
        server._service_time = 0.2
        holding = threading.Thread(target=fetch, args=("holder", holder), daemon=True)
        holding.start()
        assert _wait_until(lambda: _in_flight(client) == 1)
        threads = [
            threading.Thread(target=fetch, args=("known", known), daemon=True),
            threading.Thread(target=fetch, args=("bogus", 0x0ABCDEF), daemon=True),
        ]
        for t in threads:
            t.start()
        assert _wait_until(lambda: _in_flight(client) == 3)
        server._service_time = 0.0
        for t in [holding, *threads]:
            t.join(10)
        # One frame per call.
        assert _count(server, "dista_taintmap_server_requests_total", kind="lookup") == 3
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


class TestCoalescing:
    def test_flush_on_max_batch_size_beats_timer(self, single):
        """A call larger than max_batch goes out as several frames, one
        at a time."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address, cache_enabled=False)
        client.transport.max_batch = 8
        taints = [node.tree.taint_for_tag(f"mb-{i}") for i in range(20)]
        gids = client.gids_for(taints)
        assert len(set(gids)) == 20
        # 8 + 8 + 4
        assert _count(server, "dista_taintmap_server_requests_total", kind="register") == 3
        assert _count(node, "dista_taintmap_requests_total") == 3
        client.close()

    def test_zero_window_still_batches_one_call(self, single):
        """A single gids_for call is one round-trip: all its entries go
        in one frame."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address, cache_enabled=False)
        taints = [node.tree.taint_for_tag(f"z-{i}") for i in range(16)]
        before = _count(node, "dista_taintmap_requests_total")
        gids = client.gids_for(taints)
        assert len(set(gids)) == 16
        assert _count(node, "dista_taintmap_requests_total") - before == 1
        client.close()


class TestFaultInjection:
    def test_mid_frame_failure_resets_transport(self):
        """A server dying mid-frame must not leave a half-read
        connection behind — the next request gets a fresh connection and
        clean framing."""
        kernel = SimKernel("poison")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        node = _node(kernel, fs)
        client = TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT))

        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)

        def evil():
            endpoint = listener.accept(timeout=10)
            endpoint.recv(5)  # swallow the request head
            # Claim an 8-byte response but deliver only half, then die.
            endpoint.send_all(b"\x00" + struct.pack(">I", 8) + b"\x00\x00\x00\x2a")
            endpoint.close()
            listener.close()

        evil_thread = threading.Thread(target=evil, daemon=True)
        evil_thread.start()
        with pytest.raises(PipeClosed):
            client.gid_for(node.tree.taint_for_tag("victim"))
        evil_thread.join(10)  # the address must be free before rebinding
        # The poisoned connection was closed and discarded, not kept.
        assert client.transport._channel._connection is None

        # A real server takes over the address; the client recovers with
        # no framing desync from the half-read response.
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
        assert client.gid_for(node.tree.taint_for_tag("victim")) == 1
        resolved = client.taint_for(1)
        assert {t.tag for t in resolved.tags} == {"victim"}
        client.close()
        server.stop()

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
            # Swallow one request, answer with a truncated frame, die.
            ((corr, _, _),) = _read_frames(endpoint, 1)
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

    def test_failover_with_inflight_futures(self):
        """Killing the primary mid-stream fails a request in flight on
        it over to the standby, and a GID registered before the kill
        still resolves to the same id there."""
        kernel = SimKernel("aio-ha")
        fs = SimFileSystem()
        p_ip = kernel.register_node("10.1.0.1")
        s_ip = kernel.register_node("10.2.0.1")
        standby = StandbyTaintMapServer(kernel, s_ip, 7300).start()
        primary = ReplicatedTaintMapServer(
            kernel, p_ip, 7300, standby.address
        ).start()

        node = _node(kernel, fs)
        client = FailoverTaintMapClient(
            node, primary.address, standby.address, cache_enabled=False
        )
        before = node.tree.taint_for_tag("before")
        g_before = client.gid_for(before)
        assert client.active_address == primary.address

        # Slow the primary down and kill it while a request is in
        # flight; that future must fail over to the standby.
        primary._service_time = 0.2
        victim = node.tree.taint_for_tag("inflight")
        result = {}

        def register():
            result["gid"] = client.gid_for(victim)

        thread = threading.Thread(target=register, daemon=True)
        thread.start()
        time.sleep(0.05)  # the request is now mid-service on the primary
        primary.stop()
        thread.join(10)
        assert not thread.is_alive()
        assert result["gid"] > g_before
        assert client.active_address == standby.address
        # Replicated GIDs survive: the pre-kill registration resolves to
        # the same id on the standby.
        assert client.gid_for(before) == g_before
        assert {t.tag for t in client.taint_for(g_before).tags} == {"before"}

        client.close()
        standby.stop()


class ExplodingConnection:
    def close(self):
        raise OSError("close failed")


class TestCloseErrorSuppression:
    def test_channel_close_survives_close_errors(self, single):
        """A connection whose close() raises must not abort the channel
        teardown; the error is counted on the node's registry."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        client.gid_for(node.tree.taint_for_tag("warm"))  # dials the server
        channel = client.transport._channel
        healthy = channel._connection
        channel._connection = ExplodingConnection()
        channel.close()
        assert _count(node, "dista_taintmap_close_errors_total") == 1
        assert channel._connection is None
        healthy.close()
        # The client redials and keeps working after the teardown.
        assert client.gid_for(node.tree.taint_for_tag("after")) == 2
        client.close()

    def test_counters_outlive_close(self, single):
        """The client's cache hits and misses, and an error raised while
        close() tears its connection down, stay on the node's registry
        after close()."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        taint = node.tree.taint_for_tag("kept")
        client.gid_for(taint)  # a miss
        client.gid_for(taint)  # a hit
        channel = client.transport._channel
        healthy, channel._connection = channel._connection, ExplodingConnection()
        client.close()
        healthy.close()
        assert _count(node, "dista_cache_events_total", event="hit") == 1
        assert _count(node, "dista_cache_events_total", event="miss") == 1
        assert _count(node, "dista_taintmap_close_errors_total") == 1


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
        assert runtime.client is node.taintmap
        agent.detach(node)
