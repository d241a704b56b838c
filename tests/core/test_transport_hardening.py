"""Regression tests for the Taint Map transport's hardening: 16-bit
batch-count overflow (protocol chunking at the window split), shutdown
with an in-flight flush, per-request deadlines on a stalled shard,
fresh broken-connection errors, correlation-id wrap, and backpressure
policies.
"""

import itertools
import struct
import threading
import time
from concurrent.futures import Future

import pytest

from repro.core.taintmap import (
    OP_REGISTER,
    PROTOCOL_MAX_BATCH,
    STATUS_OK,
    TaintMapClient,
    TaintMapServer,
    _pack_batch_lookup,
    _pack_batch_register,
    _protocol_chunks,
    _recv_exact,
    serialize_tags,
)
from repro.errors import (
    TaintMapBackpressureError,
    TaintMapDeadlineError,
    TaintMapError,
    TaintMapTransportError,
)
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode


def _node(kernel, fs, name="n", ip="10.0.0.1", pid=1):
    return SimNode(name, kernel.register_node(ip), pid, kernel, fs, Mode.DISTA)


@pytest.fixture()
def single():
    kernel = SimKernel("hardening-test")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT)
    server.start()
    node = _node(kernel, fs)
    yield kernel, fs, server, node
    server.stop()


def _wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestProtocolBatchLimit:
    """The batch payloads wire-encode their entry count as ``>H``;
    pre-fix, a >65535-entry batch crashed with an opaque struct.error
    deep in ``_pack_batch_register``."""

    def test_pack_guards_reject_oversized_batches(self):
        with pytest.raises(TaintMapError, match="65535"):
            _pack_batch_register([b"x"] * (PROTOCOL_MAX_BATCH + 1))
        with pytest.raises(TaintMapError, match="65535"):
            _pack_batch_lookup(list(range(PROTOCOL_MAX_BATCH + 1)))

    def test_protocol_chunks_split_at_the_wire_limit(self):
        items = list(range(PROTOCOL_MAX_BATCH + 2))
        chunks = _protocol_chunks(items)
        assert [len(chunk) for chunk in chunks] == [PROTOCOL_MAX_BATCH, 2]
        assert [len(c) for c in _protocol_chunks(items[:10])] == [10]

    def test_async_max_batch_clamped_to_protocol_limit(self, single):
        _, _, server, node = single
        client = TaintMapClient(
            node, server.address, max_batch=10 * PROTOCOL_MAX_BATCH
        )
        assert client.transport.max_batch == PROTOCOL_MAX_BATCH
        client.close()

    def test_oversized_batch_round_trips(self, single):
        """A single >65535-run message registers and resolves (multiple
        byte-identical frames on the wire), even with ``max_batch``
        above the wire limit: the window itself must chunk."""
        _, _, server, node = single
        count = PROTOCOL_MAX_BATCH + 17
        taints = [node.tree.taint_for_tag(f"ovr{i}") for i in range(count)]
        client = TaintMapClient(
            node,
            server.address,
            cache_enabled=False,
            max_batch=10 * PROTOCOL_MAX_BATCH,
        )
        try:
            gids = client.gids_for(taints)
            assert len(gids) == count
            assert len(set(gids)) == count
            assert all(gid > 0 for gid in gids)
            # Registration is idempotent: a second pass returns the same GIDs.
            assert client.gids_for(taints) == gids

            resolved = client.taints_for(gids)
            assert len(resolved) == count
            for index in (0, 511, PROTOCOL_MAX_BATCH - 1, PROTOCOL_MAX_BATCH, count - 1):
                assert resolved[index].tags == taints[index].tags
        finally:
            client.close()


class TestShutdownWithInflightFlush:
    def test_close_fails_inflight_flush_instead_of_hanging(self):
        """``close()`` must fail entries already in flight, not only
        those still queued in windows; otherwise the caller waiting on
        an in-flight batch would block forever."""
        kernel = SimKernel("close-test")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        # Slow shard: the flush is guaranteed in flight when we close.
        server = TaintMapServer(
            kernel, TAINT_MAP_IP, TAINT_MAP_PORT, service_time=0.6
        )
        server.start()
        node = _node(kernel, fs)
        client = TaintMapClient(node, server.address)
        errors = []

        def register():
            try:
                client.gid_for(node.tree.taint_for_tag("hang"))
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                errors.append(exc)

        thread = threading.Thread(target=register, daemon=True)
        thread.start()
        state = client.transport._shards[0]
        assert _wait_until(lambda: state.flying[0] is not None)
        started = time.monotonic()
        client.close()
        assert time.monotonic() - started < 8.0
        thread.join(timeout=8)
        assert not thread.is_alive(), "submitter still blocked after close()"
        assert errors and isinstance(errors[0], TaintMapError)
        # The failed batch released its budget and its lane.
        assert state.pending == 0 and state.flying == [None, None]
        client.close()  # idempotent
        server.stop()


class TestRequestDeadline:
    def test_deadline_expires_on_stalled_shard(self, single):
        """A shard that accepts the upgrade but never answers fails the
        request with a timeout error instead of wedging the caller."""
        kernel, _, server, node = single
        server.stop()
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)

        def stalled_server():
            try:
                endpoint = listener.accept(timeout=10)
                _recv_exact(endpoint, 5)  # hello frame
                endpoint.send_all(bytes([STATUS_OK]) + struct.pack(">I", 0))
                while endpoint.recv(1024):  # swallow frames, never answer
                    pass
            except Exception:
                pass

        thread = threading.Thread(target=stalled_server, daemon=True)
        thread.start()
        client = TaintMapClient(
            node, (TAINT_MAP_IP, TAINT_MAP_PORT), request_deadline_s=0.3
        )
        started = time.monotonic()
        with pytest.raises(TaintMapDeadlineError, match="deadline"):
            client.gid_for(node.tree.taint_for_tag("stalled"))
        elapsed = time.monotonic() - started
        assert 0.2 < elapsed < 5.0
        # Deadline errors are timeouts, not transport errors: they must
        # not trigger replica failover.
        assert issubclass(TaintMapDeadlineError, TimeoutError)
        client.close()
        listener.close()

    def test_deadline_disabled_with_nonpositive_value(self, single):
        _, _, server, node = single
        client = TaintMapClient(node, server.address, request_deadline_s=0)
        assert client.transport.request_deadline_s is None
        assert client.gid_for(node.tree.taint_for_tag("nodl")) > 0
        client.close()


class TestBrokenConnectionErrors:
    def test_fresh_transport_error_per_raise(self, single):
        """A broken connection must raise a fresh exception per caller,
        never one cached instance shared across unrelated callers."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        assert client.gid_for(node.tree.taint_for_tag("pre")) > 0
        connection = client.transport._channels[0]._connection
        connection._endpoint.close()
        assert _wait_until(lambda: connection.broken)

        raised = []
        for _ in range(2):
            with pytest.raises(TaintMapTransportError) as caught:
                connection.request(OP_REGISTER, b"")
            raised.append(caught.value)
        first, second = raised
        assert isinstance(first, TaintMapTransportError)
        assert isinstance(second, TaintMapTransportError)
        assert first is not second  # fresh instance per raise
        # Failover catches ConnectionError; semantic handling catches
        # TaintMapError — the wrapper is both.
        assert isinstance(first, ConnectionError)
        assert isinstance(first, TaintMapError)
        assert first.__cause__ is connection._broken
        client.close()


class TestCorrelationIdWrap:
    def test_requests_survive_corr_counter_wrap(self, single):
        """The unbounded corr counter must wrap at 32 bits instead of
        overflowing the ``>I`` wire field."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        gids = [client.gid_for(node.tree.taint_for_tag("wrap0"))]
        connection = client.transport._channels[0]._connection
        # Jump the counter to the edge of the 4-byte field; the next
        # requests use corr ids 2**32-2, 2**32-1, 0, 1 on the wire.
        connection._corr = itertools.count(2**32 - 2)
        gids += [
            client.gid_for(node.tree.taint_for_tag(f"wrap{i}")) for i in range(1, 5)
        ]
        assert len(set(gids)) == 5
        assert all(gid > 0 for gid in gids)
        client.close()

    def test_wrapped_corr_id_skips_still_pending_ids(self, single):
        """A wrapped id that collides with a still-pending request must
        be skipped at allocation — overwriting the pending future would
        leave its caller hanging until the deadline."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        assert client.gid_for(node.tree.taint_for_tag("collide0")) > 0
        connection = client.transport._channels[0]._connection
        with connection._lock:
            connection._pending[1] = Future()
        # The next allocation computes (2**32 + 1) & 0xFFFFFFFF == 1 —
        # exactly the planted in-flight id.
        connection._corr = itertools.count(2**32 + 1)
        assert client.gid_for(node.tree.taint_for_tag("collide1")) > 0
        assert 1 in connection._pending, "pending future was overwritten"
        assert not connection._pending[1].done()
        client.close()


class TestBackpressure:
    """A slow shard keeps one flush in flight, so later registrations
    queue in the next window and count against ``max_pending``."""

    def _register_async(self, client, node, tag):
        payload = serialize_tags(node.tree.taint_for_tag(tag).tags)
        future = Future()

        def run():
            try:
                future.set_result(client.transport.submit(0, OP_REGISTER, payload))
            except Exception as exc:  # noqa: BLE001 - checked by the test
                future.set_exception(exc)

        threading.Thread(target=run, daemon=True).start()
        return future

    def test_shed_policy_rejects_past_high_water_mark(self, single):
        _, _, server, node = single
        server._service_time = 0.3
        client = TaintMapClient(node, server.address, max_pending=4, backpressure="shed")
        state = client.transport._shards[0]
        futures = [self._register_async(client, node, "shed0")]
        assert _wait_until(lambda: state.flying[0] is not None)
        futures += [self._register_async(client, node, f"shed{i}") for i in range(1, 4)]
        assert _wait_until(lambda: state.pending == 4)
        overflow = self._register_async(client, node, "shed-overflow")
        exc = overflow.exception(timeout=5)
        assert isinstance(exc, TaintMapBackpressureError)
        assert isinstance(exc, TaintMapError)
        # The queued window drains when the in-flight flush lands, which
        # readmits new work.
        gids = {struct.unpack(">I", f.result(timeout=5))[0] for f in futures}
        assert len(gids) == 4
        assert _wait_until(lambda: state.pending == 0)
        server._service_time = 0.0
        retry = self._register_async(client, node, "shed-retry")
        assert struct.unpack(">I", retry.result(timeout=5))[0] > 0
        client.close()

    def test_block_policy_flushes_and_waits_for_drain(self, single):
        _, _, server, node = single
        server._service_time = 0.3
        client = TaintMapClient(node, server.address, max_pending=2, backpressure="block")
        state = client.transport._shards[0]
        first = self._register_async(client, node, "blk0")
        assert _wait_until(lambda: state.flying[0] is not None)
        second = self._register_async(client, node, "blk1")
        assert _wait_until(lambda: state.pending == 2)
        # The third parks at the mark until the in-flight flush lands.
        third = self._register_async(client, node, "blk2")
        assert _wait_until(lambda: state.blocked)
        assert not third.done()
        assert struct.unpack(">I", first.result(timeout=5))[0] > 0
        assert struct.unpack(">I", second.result(timeout=5))[0] > 0
        assert struct.unpack(">I", third.result(timeout=5))[0] > 0
        assert _wait_until(lambda: state.pending == 0)
        client.close()

    def test_block_policy_sends_a_window_its_own_caller_filled(self, single):
        """One call larger than the mark: the caller must send the window
        it filled itself (no flush is in flight to drain it), then wait."""
        _, _, server, node = single
        client = TaintMapClient(
            node, server.address, cache_enabled=False, max_pending=3, backpressure="block"
        )
        taints = [node.tree.taint_for_tag(f"self{i}") for i in range(7)]
        gids = client.gids_for(taints)
        assert len(set(gids)) == 7
        assert server.stats.register_requests == 3  # 3 + 3 + 1
        assert client.transport._shards[0].pending == 0
        client.close()


class TestLaunchAndEnvKnobs:
    def test_parse_switch(self):
        from repro.core.config import parse_switch

        assert parse_switch("on") and parse_switch("TRUE") and parse_switch("1")
        assert not parse_switch("off") and not parse_switch("no")
        with pytest.raises(ValueError, match="gidCacheAdmission"):
            parse_switch("maybe", "gidCacheAdmission")

    def test_launch_extras_configure_hardening_knobs(self):
        from repro.core.launch import launch_cluster

        cluster = launch_cluster(
            Mode.DISTA,
            "taintSources=s.spec,taintSinks=k.spec,"
            "taintMapDeadlineS=2.5,coalesceMaxPending=64,"
            "coalesceBackpressure=shed",
            sources_text="source:ignored#m\n",
            sinks_text="sink:ignored#m\n",
        )
        assert cluster.agent_options["request_deadline_s"] == 2.5
        with cluster:
            node = cluster.add_node("n1")
            transport = node.taintmap.transport
            assert transport.request_deadline_s == 2.5
            assert transport.max_pending == 64
            assert transport.backpressure == "shed"

    def test_env_knobs_configure_transport(self, single, monkeypatch):
        from repro.core.agent import DisTAAgent

        _, _, server, node = single
        monkeypatch.setenv("DISTA_TAINTMAP_DEADLINE_S", "0")
        runtime = DisTAAgent(server.address).attach(node)
        transport = runtime.client.transport
        assert transport.request_deadline_s is None  # 0 disables
        DisTAAgent(server.address).detach(node)
