"""Durable Taint Map tests: WAL + snapshot recovery, crash edge cases,
GID exhaustion, and a model-based state machine over both stores."""

import struct
import zlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import durability
from repro.core.durability import (
    WAL_ENTRY,
    FileTaintMapStore,
    MemoryTaintMapStore,
    iter_records,
    pack_record,
)
from repro.core.taintmap import (
    MAX_GID,
    OP_REGISTER_MANY,
    STATUS_GID_EXHAUSTED,
    TaintMapClient,
    TaintMapServer,
    _pack_batch_register,
    serialize_tags,
)
from repro.errors import TaintMapExhaustedError
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode


def _count(server, family):
    """``family``'s total on a server's registry."""
    return snapshot_total(server.metrics.snapshot(), family)


def _start(kernel, address, store, snapshot_every=None):
    """A server on ``address`` that recovers from ``store``;
    ``snapshot_every`` lowers the allocations between its compacted
    snapshots."""
    server = TaintMapServer(kernel, *address, store=store)
    if snapshot_every is not None:
        server._snapshot_every = snapshot_every
    return server.start()


def _boot(name="durability", store=None, snapshot_every=None):
    kernel = SimKernel(name)
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = _start(kernel, (TAINT_MAP_IP, TAINT_MAP_PORT), store, snapshot_every)
    node = SimNode("n1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    return kernel, server, node


def _restart(kernel, server, store, snapshot_every=None):
    """Crash-restart: stop ``server`` and boot a replacement on the same
    address that recovers from the same store."""
    server.stop()
    return _start(kernel, server.address, store, snapshot_every)


class TestWalCodec:
    """Record framing: self-delimiting, checksummed, torn-tail safe."""

    def test_record_golden_bytes(self):
        payload = struct.pack(">I", 1) + b"tags"
        record = pack_record(WAL_ENTRY, payload)
        expected = (
            struct.pack(">BI", WAL_ENTRY, len(payload))
            + payload
            + struct.pack(">I", zlib.crc32(bytes([WAL_ENTRY]) + payload))
        )
        assert record == expected
        records, torn = iter_records(record + pack_record(WAL_ENTRY, b"next"))
        assert records == [(WAL_ENTRY, payload), (WAL_ENTRY, b"next")]
        assert torn == 0

    def test_torn_tail_detected_and_prefix_kept(self):
        good = pack_record(WAL_ENTRY, b"first")
        torn_log = good + pack_record(WAL_ENTRY, b"second")[:-3]
        records, torn = iter_records(torn_log)
        assert records == [(WAL_ENTRY, b"first")]
        assert torn == 1

    def test_corrupt_crc_stops_replay(self):
        record = bytearray(pack_record(WAL_ENTRY, b"payload"))
        record[-1] ^= 0xFF
        records, torn = iter_records(bytes(record))
        assert records == []
        assert torn == 1

    def test_snapshot_roundtrip(self):
        # 0x10000009 needs the full 4-byte sequence (it is above 2**28).
        gid_entries = [(1, b"a"), (0x10000009, b"bb")]
        key_entries = [(b"key-a", 1), (b"key-b", 0x10000009)]
        raw = durability.encode_snapshot(42, gid_entries, key_entries)
        assert raw[0] == durability.SNAPSHOT_VERSION == 2
        next_gid, gids, keys = durability.decode_snapshot(raw)
        assert next_gid == 42
        assert gids == gid_entries
        assert keys == key_entries


class TestRestartRecovery:
    """A restarted server replays snapshot+WAL and resumes its GID
    sequence — no GID is ever renumbered."""

    def test_restart_resumes_gid_sequence(self):
        store = MemoryTaintMapStore()
        kernel, server, node = _boot(store=store)
        client = TaintMapClient(node, server.address, cache_enabled=False)
        taints = [node.tree.taint_for_tag(f"dur-{i}") for i in range(40)]
        gids = [client.gid_for(t) for t in taints]
        headroom = server.gid_headroom

        server = _restart(kernel, server, store)
        assert server.gid_headroom == headroom  # sequence resumed, not reset
        assert _count(server, "dista_taintmap_global_taints") == 40
        assert _count(server, "dista_wal_replayed_total") == 40

        fresh = TaintMapClient(node, server.address, cache_enabled=False)
        # Zero renumbered GIDs: re-registering returns the original IDs.
        assert [fresh.gid_for(t) for t in taints] == gids
        # Zero failed lookups: every pre-crash GID still resolves.
        for gid, taint in zip(gids, taints):
            resolved = fresh.taint_for(gid)
            assert {t.tag for t in resolved.tags} == {t.tag for t in taint.tags}
        # And the allocator moved past the recovered high-water mark.
        post = fresh.gid_for(node.tree.taint_for_tag("post-restart"))
        assert post not in gids
        client.close()
        fresh.close()
        server.stop()

    def test_snapshot_compacts_wal(self):
        store = MemoryTaintMapStore()
        kernel, server, node = _boot(store=store, snapshot_every=10)
        client = TaintMapClient(node, server.address, cache_enabled=False)
        for i in range(25):
            client.gid_for(node.tree.taint_for_tag(f"snap-{i}"))
        assert _count(server, "dista_wal_snapshots_total") >= 2
        assert store.snapshot is not None
        # The log only holds the tail since the last compaction.
        records, torn = iter_records(store.read_log())
        assert torn == 0
        assert len(records) < 25
        restarted = _restart(kernel, server, store, snapshot_every=10)
        assert _count(restarted, "dista_taintmap_global_taints") == 25
        client.close()
        restarted.stop()

    def test_torn_wal_record_ignored(self):
        store = MemoryTaintMapStore()
        kernel, server, node = _boot(store=store)
        client = TaintMapClient(node, server.address, cache_enabled=False)
        gids = [
            client.gid_for(node.tree.taint_for_tag(f"torn-{i}")) for i in range(5)
        ]
        # Crash mid-append: the last record loses its checksum tail.
        store.log = store.log[:-3]
        server = _restart(kernel, server, store)
        assert _count(server, "dista_wal_torn_records_total") == 1
        # The torn entry was never acked.
        assert _count(server, "dista_taintmap_global_taints") == 4
        fresh = TaintMapClient(node, server.address, cache_enabled=False)
        for gid in gids[:-1]:
            assert fresh.taint_for(gid) is not None
        client.close()
        fresh.close()
        server.stop()

    def test_allocations_after_a_torn_tail_survive_the_next_restart(self):
        """Recovery drops the torn bytes, so an allocation acked after a
        torn-tail restart is not appended behind them, where replay
        would stop before reaching it."""
        store = MemoryTaintMapStore()
        kernel, server, node = _boot(store=store)
        client = TaintMapClient(node, server.address, cache_enabled=False)
        client.gid_for(node.tree.taint_for_tag("torn"))
        store.log = store.log[:-1]
        server = _restart(kernel, server, store)
        client.close()
        client = TaintMapClient(node, server.address, cache_enabled=False)
        gid = client.gid_for(node.tree.taint_for_tag("after"))
        client.close()
        server = _restart(kernel, server, store)
        assert _count(server, "dista_wal_torn_records_total") == 0
        client = TaintMapClient(node, server.address, cache_enabled=False)
        assert {t.tag for t in client.taint_for(gid).tags} == {"after"}
        client.close()
        server.stop()

    def test_kill_between_snapshot_and_truncate_replays_idempotently(self):
        store = MemoryTaintMapStore()
        kernel, server, node = _boot(store=store)
        client = TaintMapClient(node, server.address, cache_enabled=False)
        taints = [node.tree.taint_for_tag(f"idem-{i}") for i in range(8)]
        gids = [client.gid_for(t) for t in taints]
        pre_snapshot_log = store.read_log()
        server.snapshot_now()
        # The crash window: snapshot written, truncate lost — the full
        # pre-snapshot WAL is still on disk next to the snapshot.
        store.log = pre_snapshot_log
        server = _restart(kernel, server, store)
        assert _count(server, "dista_taintmap_global_taints") == 8  # not 16
        assert server.gid_headroom == MAX_GID - max(gids)
        fresh = TaintMapClient(node, server.address, cache_enabled=False)
        assert [fresh.gid_for(t) for t in taints] == gids
        client.close()
        fresh.close()
        server.stop()

    def test_file_store_persists_through_sim_fs(self):
        fs = SimFileSystem()
        store = FileTaintMapStore(fs, "/var/dista/taintmap")
        assert store.read_log() == b""
        assert store.read_snapshot() is None
        store.append_log(pack_record(WAL_ENTRY, b"x"))
        store.append_log(pack_record(WAL_ENTRY, b"y"))
        records, torn = iter_records(store.read_log())
        assert [p for _, p in records] == [b"x", b"y"] and torn == 0
        store.write_snapshot(b"snap")
        assert store.read_snapshot() == b"snap"
        store.truncate_log()
        assert store.read_log() == b""
        assert fs.exists("/var/dista/taintmap/wal")


class TestGidExhaustion:
    """Satellite: exhaustion is a structured, non-retried error with a
    headroom gauge in front of it."""

    def _exhaust(self, server):
        with server._lock:
            server._next_gid = MAX_GID + 1

    def test_headroom_gauge_tracks_allocations(self):
        kernel, server, node = _boot(name="headroom")
        start = server.gid_headroom
        assert start == MAX_GID
        client = TaintMapClient(node, server.address, cache_enabled=False)
        client.gid_for(node.tree.taint_for_tag("one"))
        assert server.gid_headroom == start - 1
        samples = server.metrics.snapshot()["dista_gid_headroom"]["samples"]
        assert samples[0]["value"] == start - 1
        client.close()
        server.stop()

    def test_async_client_does_not_burn_a_failover(self):
        kernel, server, node = _boot(name="exhaust-async")
        self._exhaust(server)
        client = TaintMapClient(node, server.address)
        with pytest.raises(TaintMapExhaustedError):
            client.gid_for(node.tree.taint_for_tag("over-async"))
        # Not a ConnectionError: failover must never rotate on it.
        assert not issubclass(TaintMapExhaustedError, ConnectionError)
        # The replica was never rotated: the server is healthy, it just
        # has nothing to allocate (pre-fix this burned a failover).
        assert client._active == 0
        # The connection survives: lookups on the same channel still work.
        gid = 1
        with server._lock:
            server._by_gid[gid] = serialize_tags(
                node.tree.taint_for_tag("seed").tags
            )
        assert client.taint_for(gid) is not None
        client.close()
        server.stop()

    def test_exhausted_status_on_the_wire(self):
        kernel, server, node = _boot(name="exhaust-wire")
        self._exhaust(server)
        payload = serialize_tags(node.tree.taint_for_tag("wire").tags)
        status, response = server._handle(OP_REGISTER_MANY, _pack_batch_register([payload]))
        assert status == STATUS_GID_EXHAUSTED
        assert response == b""
        server.stop()


#: Tag names the state machine registers; a small pool makes
#: re-registration of acked taints common.
_NAMES = st.sampled_from([f"sm-{i}" for i in range(12)])


class DurableTaintMapMachine(RuleBasedStateMachine):
    """One durable server under registrations, lookups, snapshots,
    crash-restarts and crashes that tear the WAL's last record.

    The model is the acked set: tag name → the GID the server answered.
    Every acked GID must resolve to its tag, re-registering an acked
    taint must return its GID, ``global_taints`` must equal the acked
    population, and ``gid_headroom`` never rises — except across a torn
    restart, by exactly the one allocation the tear dropped.
    """

    def __init__(self):
        super().__init__()
        self.kernel = SimKernel("durable-machine")
        self.kernel.register_node(TAINT_MAP_IP)
        self.fs = SimFileSystem()
        self.store = self.make_store(self.fs)
        self.server = _start(
            self.kernel, (TAINT_MAP_IP, TAINT_MAP_PORT), self.store, self.SNAPSHOT_EVERY
        )
        self.node = SimNode(
            "n1", self.kernel.register_node("10.0.0.1"), 1, self.kernel, self.fs,
            Mode.DISTA,
        )
        self.client = self._client()
        self.acked: dict[str, int] = {}
        self.headroom = self.server.gid_headroom

    #: Small enough that runs cross automatic snapshots.
    SNAPSHOT_EVERY = 4

    @staticmethod
    def make_store(fs):
        raise NotImplementedError

    def _client(self):
        return TaintMapClient(self.node, self.server.address, cache_enabled=False)

    def _ack(self, name: str, gid: int) -> None:
        if name in self.acked:
            assert gid == self.acked[name]
        else:
            assert gid not in self.acked.values()
            self.acked[name] = gid

    def _restart(self) -> None:
        self.client.close()
        self.server = _restart(
            self.kernel, self.server, self.store, snapshot_every=self.SNAPSHOT_EVERY
        )
        self.client = self._client()

    @rule(name=_NAMES)
    def register(self, name):
        self._ack(name, self.client.gid_for(self.node.tree.taint_for_tag(name)))

    @rule(names=st.lists(_NAMES, min_size=1, max_size=5))
    def batch_register(self, names):
        taints = [self.node.tree.taint_for_tag(name) for name in names]
        for name, gid in zip(names, self.client.gids_for(taints)):
            self._ack(name, gid)

    @precondition(lambda self: self.acked)
    @rule(data=st.data())
    def lookup(self, data):
        name = data.draw(st.sampled_from(sorted(self.acked)))
        taint = self.client.taint_for(self.acked[name])
        assert {tag.tag for tag in taint.tags} == {name}

    @rule()
    def snapshot_now(self):
        self.server.snapshot_now()

    @rule()
    def crash_and_restart(self):
        self._restart()
        assert self.server.gid_headroom == self.headroom

    @rule(cut=st.integers(min_value=1, max_value=8))
    def crash_with_torn_tail(self, cut):
        # Every record is at least 15 bytes, so the cut tears only the
        # last one.
        log = self.store.read_log()
        records, _ = iter_records(log)
        self.store.truncate_log()
        self.store.append_log(log[:-cut] if log else b"")
        dropped = None
        if records and records[-1][0] == WAL_ENTRY:
            (dropped,) = struct.unpack(">I", records[-1][1][:4])
            self.acked = {n: g for n, g in self.acked.items() if g != dropped}
        self._restart()
        expected = self.headroom + (1 if dropped is not None else 0)
        assert self.server.gid_headroom == expected
        self.headroom = expected

    @invariant()
    def acked_gids_resolve(self):
        names = sorted(self.acked)
        taints = self.client.taints_for([self.acked[name] for name in names])
        for name, taint in zip(names, taints):
            assert {tag.tag for tag in taint.tags} == {name}

    @invariant()
    def reregistration_returns_acked_gids(self):
        names = sorted(self.acked)
        taints = [self.node.tree.taint_for_tag(name) for name in names]
        assert self.client.gids_for(taints) == [self.acked[name] for name in names]

    @invariant()
    def population_matches_model(self):
        assert _count(self.server, "dista_taintmap_global_taints") == len(self.acked)
        assert self.server.global_taint_count() == len(self.acked)

    @invariant()
    def headroom_never_rises(self):
        headroom = self.server.gid_headroom
        assert headroom <= self.headroom
        self.headroom = headroom

    def teardown(self):
        self.client.close()
        self.server.stop()


class MemoryStoreMachine(DurableTaintMapMachine):
    @staticmethod
    def make_store(fs):
        return MemoryTaintMapStore()


class FileStoreMachine(DurableTaintMapMachine):
    @staticmethod
    def make_store(fs):
        return FileTaintMapStore(fs, "/var/dista/taintmap")


_MACHINE_SETTINGS = settings(max_examples=20, stateful_step_count=20, deadline=None)
TestMemoryStoreMachine = MemoryStoreMachine.TestCase
TestMemoryStoreMachine.settings = _MACHINE_SETTINGS
TestFileStoreMachine = FileStoreMachine.TestCase
TestFileStoreMachine.settings = _MACHINE_SETTINGS
