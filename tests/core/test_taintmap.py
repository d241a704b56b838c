"""Tests for the Taint Map service, protocol, and caching (Fig. 9)."""

import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.taintmap import (
    MAX_GID,
    MUX_HEAD,
    OP_REGISTER_MANY,
    STATUS_BAD_REQUEST,
    STATUS_GID_EXHAUSTED,
    STATUS_OK,
    TaintMapClient,
    TaintMapServer,
    _pack_batch_register,
    deserialize_tags,
    mux_frame,
    serialize_tags,
    serialized_key,
)
from repro.errors import SimTimeout, TaintMapError
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode
from repro.taint import LocalId, TaintTag, TaintTree
from repro.taint.tree import _child_nodes


class TestTagSerialization:
    def test_roundtrip_str_tag(self):
        tag = TaintTag("a_tag", LocalId("10.0.0.1", 77), global_id=5)
        (out,) = deserialize_tags(serialize_tags(frozenset([tag])))
        assert out.tag == "a_tag"
        assert out.local_id == LocalId("10.0.0.1", 77)
        assert out.global_id == 5

    def test_roundtrip_int_and_bytes_tags(self):
        tags = frozenset(
            [
                TaintTag(42, LocalId("10.0.0.1", 1)),
                TaintTag(b"\x00\xff", LocalId("10.0.0.2", 2)),
            ]
        )
        out = frozenset(deserialize_tags(serialize_tags(tags)))
        assert out == tags

    def test_canonical_regardless_of_order(self):
        a = TaintTag("a", LocalId("10.0.0.1", 1))
        b = TaintTag("b", LocalId("10.0.0.1", 1))
        assert serialize_tags(frozenset([a, b])) == serialize_tags(frozenset([b, a]))

    def test_taint_key_ignores_global_id(self):
        a1 = TaintTag("a", LocalId("10.0.0.1", 1), global_id=0)
        a2 = TaintTag("a", LocalId("10.0.0.1", 1), global_id=9)
        raw1, raw2 = serialize_tags(frozenset([a1])), serialize_tags(frozenset([a2]))
        assert raw1 != raw2
        assert serialized_key(raw1) == serialized_key(raw2)

    def test_unserializable_tag_rejected(self):
        tag = TaintTag(object(), LocalId("10.0.0.1", 1))
        with pytest.raises(TaintMapError):
            serialize_tags(frozenset([tag]))

    @settings(max_examples=30)
    @given(
        st.frozensets(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from(["10.0.0.1", "10.0.0.2"]),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_roundtrip_property(self, raw):
        tags = frozenset(TaintTag(t, LocalId(ip, pid)) for t, ip, pid in raw)
        assert frozenset(deserialize_tags(serialize_tags(tags))) == tags


def _count(owner, family, **labels):
    """``family``'s total on a node's or a server's registry."""
    return snapshot_total(owner.metrics.snapshot(), family, labels)


@pytest.fixture()
def service():
    kernel = SimKernel("tm-test")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
    n1 = SimNode("node1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    n2 = SimNode("node2", kernel.register_node("10.0.0.2"), 2, kernel, fs, Mode.DISTA)
    c1 = TaintMapClient(n1, server.address)
    c2 = TaintMapClient(n2, server.address)
    yield server, n1, n2, c1, c2
    c1.close()
    c2.close()
    server.stop()


class TestTaintMapService:
    def test_server_forgets_closed_connections(self, service):
        """Each connection leaves the server's list when its serving
        thread exits, so client create/close cycles do not pile up
        closed endpoints."""
        server, n1, _, c1, c2 = service
        c1.close()
        c2.close()
        for i in range(50):
            client = TaintMapClient(n1, server.address)
            assert client.gid_for(n1.tree.taint_for_tag(f"cycle-{i}")) > 0
            client.close()
        deadline = time.monotonic() + 5
        while server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server._connections) == 0

    def test_malformed_lookup_reply_raises_a_typed_error(self, service, monkeypatch):
        """A lookup reply whose entry is cut short reaches the caller of
        ``taints_for`` as a TaintMapError chained to the parse error."""
        server, n1, _, c1, c2 = service
        gid = c1.gid_for(n1.tree.taint_for_tag("cut"))
        monkeypatch.setattr(server, "_handle", lambda op, payload: (STATUS_OK, b"\x00\x00"))
        with pytest.raises(TaintMapError) as raised:
            c2.taints_for([gid])
        assert isinstance(raised.value.__cause__, struct.error)

    def test_malformed_register_reply_raises_a_typed_error(self, service, monkeypatch):
        """A register reply of the wrong length reaches the caller of
        ``gids_for`` as a TaintMapError chained to the parse error."""
        server, n1, _, c1, _ = service
        monkeypatch.setattr(server, "_handle", lambda op, payload: (STATUS_OK, b"\x00\x00"))
        with pytest.raises(TaintMapError) as raised:
            c1.gids_for([n1.tree.taint_for_tag("short")])
        assert isinstance(raised.value.__cause__, struct.error)

    def test_empty_taint_never_contacts_the_map(self, service):
        server, n1, _, c1, _ = service
        assert c1.gid_for(None) == 0
        assert c1.gid_for(n1.tree.empty) == 0
        assert c1.taint_for(0) is None
        assert _count(server, "dista_taintmap_server_requests_total", kind="register") == 0

    def test_register_allocates_positive_unique_gids(self, service):
        server, n1, _, c1, _ = service
        g1 = c1.gid_for(n1.tree.taint_for_tag("a"))
        g2 = c1.gid_for(n1.tree.taint_for_tag("b"))
        assert g1 > 0 and g2 > 0 and g1 != g2

    def test_register_is_idempotent_across_nodes(self, service):
        """Same taint (same tag + LocalID) from two nodes ⇒ one GID."""
        server, n1, n2, c1, c2 = service
        taint1 = n1.tree.taint_for_tag("x")
        tag = next(iter(taint1.tags))
        taint2 = n2.tree.taint_for_tags([tag])
        assert c1.gid_for(taint1) == c2.gid_for(taint2)
        assert server.global_taint_count() == 1

    def test_lookup_resolves_into_local_tree(self, service):
        server, n1, n2, c1, c2 = service
        taint = n1.tree.taint_for_tag("vote")
        gid = c1.gid_for(taint)
        resolved = c2.taint_for(gid)
        assert resolved.tree is n2.tree
        assert {t.tag for t in resolved.tags} == {"vote"}
        # LocalID preserved: the tag is known to originate on node1.
        assert next(iter(resolved.tags)).local_id.ip == "10.0.0.1"

    def test_lookup_unknown_gid_raises(self, service):
        _, _, _, _, c2 = service
        with pytest.raises(TaintMapError, match="unknown Global ID"):
            c2.taint_for(424242)

    def test_figure9_five_steps(self, service):
        """Fig. 9: two tainted bytes, one transferred; the second byte's
        identical taint does not trigger a second register request."""
        server, n1, n2, c1, c2 = service
        t1 = n1.tree.taint_for_tag("t1")
        # Steps 1-2: node1 registers t1 once, stores the Global ID.
        gid_b1 = c1.gid_for(t1)
        gid_b2 = c1.gid_for(t1)  # b2 has the same taint: no new request
        assert gid_b1 == gid_b2 == 1
        assert _count(server, "dista_taintmap_server_requests_total", kind="register") == 1
        # Step 3 is the wire transfer (tested in the wrapper suite).
        # Steps 4-5: node2 resolves the Global ID once, then caches.
        r1 = c2.taint_for(gid_b1)
        r2 = c2.taint_for(gid_b1)
        assert r1 is r2
        assert _count(server, "dista_taintmap_server_requests_total", kind="lookup") == 1

    def test_tag_global_id_assigned_on_first_transfer(self, service):
        """§III-D.1: GlobalID is 0 at generation, set when transferred,
        on the sender's tag and on the receiver's copy of it."""
        _, n1, _, c1, c2 = service
        taint = n1.tree.taint_for_tag("fresh")
        tag = next(iter(taint.tags))
        assert tag.global_id == 0
        gid = c1.gid_for(taint)
        assert tag.global_id == gid
        (received,) = c2.taint_for(gid).tags
        assert received.global_id == gid

    def test_multi_tag_taint_roundtrip(self, service):
        server, n1, n2, c1, c2 = service
        combined = n1.tree.taint_for_tag("a").union(n1.tree.taint_for_tag("b"))
        gid = c1.gid_for(combined)
        resolved = c2.taint_for(gid)
        assert {t.tag for t in resolved.tags} == {"a", "b"}

    def test_cache_disabled_reregisters(self, service):
        server, n1, _, _, _ = service
        client = TaintMapClient(n1, server.address, cache_enabled=False)
        taint = n1.tree.taint_for_tag("nc")
        g1 = client.gid_for(taint)
        g2 = client.gid_for(taint)
        assert g1 == g2  # server-side idempotence still holds
        assert _count(server, "dista_taintmap_server_requests_total", kind="register") == 2
        client.close()

    def test_concurrent_registration(self, service):
        server, n1, n2, c1, c2 = service
        taints = [n1.tree.taint_for_tag(f"c{i}") for i in range(16)]
        gids: list[list[int]] = [[], []]

        def worker(client, out, tree):
            for t in taints:
                local = tree.taint_for_tags(t.tags) if tree is not n1.tree else t
                out.append(client.gid_for(local))

        threads = [
            threading.Thread(target=worker, args=(c1, gids[0], n1.tree)),
            threading.Thread(target=worker, args=(c2, gids[1], n2.tree)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert gids[0] == gids[1]
        assert server.global_taint_count() == 16


    def test_many_threads_fresh_taints(self, service):
        """Many threads registering fresh taints concurrently through one
        shared client — GID uniqueness, full round-trip, race-free
        counters."""
        server, n1, n2, c1, c2 = service
        threads_n, per_thread = 8, 24
        results: list[list[tuple]] = [[] for _ in range(threads_n)]
        taints = [
            [n1.tree.taint_for_tag(f"cc-{t}-{i}") for i in range(per_thread)]
            for t in range(threads_n)
        ]
        barrier = threading.Barrier(threads_n)

        def worker(t):
            barrier.wait()
            for taint in taints[t]:
                results[t].append((c1.gid_for(taint), taint))

        workers = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads_n)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
        assert not any(w.is_alive() for w in workers)
        flat = [entry for bucket in results for entry in bucket]
        total = threads_n * per_thread
        assert len(flat) == total
        gids = [gid for gid, _ in flat]
        # Distinct taints ⇒ unique GIDs.
        assert len(set(gids)) == total
        assert server.global_taint_count() == total
        # Counters are race-free: the server counts exactly the client's
        # sends, one frame per call and one entry per taint.
        sent = _count(n1, "dista_taintmap_requests_total")
        assert sent == total
        assert _count(server, "dista_taintmap_server_requests_total", kind="register") == sent
        assert _count(server, "dista_taintmap_server_entries_total", kind="register") == total
        assert _count(server, "dista_taintmap_global_taints") == total
        assert _count(n1, "dista_cache_events_total", event="miss") == total
        # Full round-trip: every taint resolves from another node.
        for gid, taint in flat:
            resolved = c2.taint_for(gid)
            assert {t.tag for t in resolved.tags} == {t.tag for t in taint.tags}

    def test_concurrent_lookups_intern_one_node_per_tag_set(self, service):
        """Threads on one node resolve the same fresh GIDs at once, each
        through its own client and in its own order, so each interns the
        replies into the shared tree: every tag set ends up with exactly
        one node, which every thread gets, and a singleton's tag takes
        its GID as its GlobalID."""
        server, n1, n2, c1, _ = service
        singles = [n1.tree.taint_for_tag(f"fresh-{i}") for i in range(12)]
        chains = [singles[i].union(singles[i + 1]).union(singles[i + 2]) for i in range(0, 12, 3)]
        taints = singles + chains + [chains[0].union(chains[1])]
        gids = c1.gids_for(taints)
        threads_n = 8
        clients = [TaintMapClient(n2, server.address) for _ in range(threads_n)]
        results: list = [None] * threads_n
        barrier = threading.Barrier(threads_n)

        def worker(k):
            order = gids[k:] + gids[:k]
            barrier.wait()
            results[k] = dict(zip(order, clients[k].taints_for(order)))

        workers = [threading.Thread(target=worker, args=(k,)) for k in range(threads_n)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(30)
        finally:
            sys.setswitchinterval(previous)
            for client in clients:
                client.close()
        assert not any(w.is_alive() for w in workers)
        for gid, taint in zip(gids, taints):
            (node,) = {id(found[gid]): found[gid] for found in results}.values()
            assert {t.key() for t in node.tags} == {t.key() for t in taint.tags}
            if node.parent is n2.tree.root:
                assert node.tag.global_id == gid
        denoted, pending = set(), [n2.tree.root]
        while pending:
            node = pending.pop()
            assert node.tags not in denoted  # no two nodes denote one set
            denoted.add(node.tags)
            pending.extend(_child_nodes(node))
        assert n2.tree.node_count() == len(denoted)

    def test_unbounded_cache_never_evicts(self, service):
        server, n1, _, c1, _ = service
        taints = [n1.tree.taint_for_tag(f"u{i}") for i in range(64)]
        gids = [c1.gid_for(t) for t in taints]
        assert _count(n1, "dista_taintmap_requests_total") == 64
        assert [c1.gid_for(t) for t in taints] == gids
        assert _count(n1, "dista_taintmap_requests_total") == 64  # Fig. 9 semantics preserved


class TestForeignTaintRegistration:
    def test_gid_cache_does_not_collide_across_trees(self, service):
        """Regression: the client's GID cache must key on taint identity,
        not the per-tree node rank — two different taints from different
        trees can share a rank."""
        server, n1, n2, c1, c2 = service
        mine = n1.tree.taint_for_tag("mine")
        foreign = n2.tree.taint_for_tag("theirs")
        # Same tree rank is plausible (both are the first child); the
        # GIDs must still differ.
        gid_mine = c1.gid_for(mine)
        gid_foreign = c1.gid_for(foreign)
        assert gid_mine != gid_foreign
        resolved = c2.taint_for(gid_foreign)
        assert {t.tag for t in resolved.tags} == {"theirs"}



def _recv_frame_bytes(endpoint, n):
    """Exactly ``n`` raw bytes from ``endpoint``."""
    out = bytearray()
    while len(out) < n:
        chunk = endpoint.recv(n - len(out))
        assert chunk, "connection closed mid-frame"
        out += chunk
    return bytes(out)


def _boot_golden(name="golden"):
    kernel = SimKernel(name)
    kernel.register_node(TAINT_MAP_IP)
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
    node = SimNode(
        "n", kernel.register_node("10.0.0.1"), 1, kernel, SimFileSystem(), Mode.DISTA
    )
    return kernel, server, node


class TestGoldenFrames:
    """The server and client emit the seed protocol's payloads byte for
    byte: GIDs 1, 2, 3, … and unchanged payload encodings, each behind
    a correlation id."""

    def test_register_response_bytes(self):
        kernel, server, node = _boot_golden()
        taint = node.tree.taint_for_tag("golden")
        payload = _pack_batch_register([serialize_tags(taint.tags)])
        raw = kernel.connect(node.ip, server.address)
        raw.send_all(mux_frame(5, OP_REGISTER_MANY, payload))
        # The seed protocol's golden reply payload, GID 1, behind corr 5,
        # STATUS_OK and length 4.
        assert _recv_frame_bytes(raw, 13) == (
            struct.pack(">I", 5) + b"\x00" + struct.pack(">I", 4) + struct.pack(">I", 1)
        )
        raw.close()
        server.stop()

    def test_batch_register_response_bytes(self):
        kernel, server, node = _boot_golden()
        entries = [
            serialize_tags(node.tree.taint_for_tag(f"g{i}").tags) for i in range(3)
        ]
        payload = _pack_batch_register(entries)
        raw = kernel.connect(node.ip, server.address)
        raw.send_all(mux_frame(6, OP_REGISTER_MANY, payload))
        expected = (
            struct.pack(">I", 6) + b"\x00" + struct.pack(">I", 12) + struct.pack(">3I", 1, 2, 3)
        )
        assert _recv_frame_bytes(raw, len(expected)) == expected
        raw.close()
        server.stop()

    def test_client_register_frame_is_seed_identical(self):
        """Behind its correlation id, the client's register is the seed
        protocol's batch request: op, length, payload."""
        kernel = SimKernel("diff")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        node = SimNode(
            "n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA
        )
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)
        captured = []

        def fake_server():
            endpoint = listener.accept(timeout=10)
            head = _recv_frame_bytes(endpoint, MUX_HEAD.size)
            corr, _, length = MUX_HEAD.unpack(head)
            captured.append(head[4:] + _recv_frame_bytes(endpoint, length))
            # The seed server's golden reply: STATUS_OK, len 4, GID 1.
            endpoint.send_all(mux_frame(corr, STATUS_OK, struct.pack(">I", 1)))
            endpoint.close()
            listener.close()

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        client = TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT))
        taint = node.tree.taint_for_tag("seed")
        # Serialize before registering: gid_for stamps the allocated GID
        # into the tag, and the on-wire frame carries the pre-stamp form.
        serialized = serialize_tags(taint.tags)
        assert client.gid_for(taint) == 1
        thread.join(10)
        batch = _pack_batch_register([serialized])
        expected = bytes([OP_REGISTER_MANY]) + struct.pack(">I", len(batch)) + batch
        assert captured == [expected]
        client.close()

    def test_server_allocates_seed_gids(self):
        _, server, node = _boot_golden("diff-gids")
        client = TaintMapClient(node, server.address)
        gids = [
            client.gid_for(node.tree.taint_for_tag(f"g{i}")) for i in range(5)
        ]
        assert gids == [1, 2, 3, 4, 5]  # the seed protocol's 1, 2, 3, …
        client.close()
        server.stop()


class _AnnouncingServer(TaintMapServer):
    """Records each ``_allocated`` call, and whether ``_lock`` was held."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.announced: list = []

    def _allocated(self, gid, serialized):
        self.announced.append((gid, serialized, self._lock.locked()))


class TestRegisterFrame:
    """A register frame is keyed first, then bound under one hold; each
    new GID is announced after the hold, before the reply."""

    def _server(self, name):
        kernel = SimKernel(name)
        return _AnnouncingServer(kernel, kernel.register_node(TAINT_MAP_IP), TAINT_MAP_PORT)

    def test_a_frame_announces_each_new_gid_after_its_one_hold(self):
        server = self._server("register-frame")
        tree = TaintTree(LocalId("10.0.0.1", 1))
        a, b, c, d = (serialize_tags(tree.taint_for_tag(name).tags) for name in "abcd")
        status, reply = server._handle(OP_REGISTER_MANY, _pack_batch_register([a, b, a]))
        assert (status, reply) == (STATUS_OK, struct.pack(">3I", 1, 2, 1))
        assert server.announced == [(1, a, False), (2, b, False)]
        # Exhaustion partway through a frame: the entries before it keep
        # their GIDs and are announced, and the frame is refused.
        with server._lock:
            server._next_gid = MAX_GID
        status, reply = server._handle(OP_REGISTER_MANY, _pack_batch_register([b, c, d]))
        assert (status, reply) == (STATUS_GID_EXHAUSTED, b"")
        assert server.announced[2:] == [(MAX_GID, c, False)]
        assert server._by_key[serialized_key(c)] == MAX_GID
        assert server.global_taint_count() == 3

    def test_the_empty_tag_set_is_refused(self):
        """GID 0 is the empty taint, so a frame with a zero-record entry
        is a bad request and binds nothing."""
        server = self._server("register-empty-set")
        empty = serialize_tags(frozenset())
        taint = serialize_tags(TaintTree(LocalId("10.0.0.1", 1)).taint_for_tag("t").tags)
        for entries in ([empty], [taint, empty]):
            status, reply = server._handle(OP_REGISTER_MANY, _pack_batch_register(entries))
            assert (status, reply) == (STATUS_BAD_REQUEST, b"")
        assert server.global_taint_count() == 0
        assert server.announced == []


class TestMuxServeLoop:
    """The server's loop reads whatever has arrived and serves every
    complete frame in it, whatever the write boundaries."""

    @staticmethod
    def _connected(name):
        kernel, server, node = _boot_golden(name)
        return server, node, kernel.connect(node.ip, server.address)

    @staticmethod
    def _register_frame(corr, node, name):
        payload = _pack_batch_register([serialize_tags(node.tree.taint_for_tag(name).tags)])
        return mux_frame(corr, OP_REGISTER_MANY, payload)

    @staticmethod
    def _reply(raw):
        corr, status, length = MUX_HEAD.unpack(_recv_frame_bytes(raw, MUX_HEAD.size))
        return corr, status, _recv_frame_bytes(raw, length)

    @staticmethod
    def _nothing_more(raw):
        with pytest.raises(SimTimeout):
            raw.recv(1, timeout=0.05)

    @pytest.mark.parametrize("op", [1, 2, 6])
    def test_retired_op_as_first_frame_is_refused(self, op):
        """Ops 1, 2 and 6 are retired: as a connection's first frame each
        is answered STATUS_BAD_REQUEST on its own correlation id, and
        the next frame is still served."""
        server, node, raw = self._connected(f"retired-{op}")
        raw.send_all(mux_frame(11, op, struct.pack(">I", 1)))
        assert self._reply(raw) == (11, STATUS_BAD_REQUEST, b"")
        raw.send_all(self._register_frame(12, node, "after"))
        assert self._reply(raw) == (12, STATUS_OK, struct.pack(">I", 1))
        raw.close()
        server.stop()

    def test_every_frame_answered_once_in_order(self):
        server, node, raw = self._connected("mux-split")
        frames = [
            self._register_frame(corr, node, f"m{corr}")
            for corr in (7, 0xFFFFFFFF, 3, 40, 41)
        ]
        raw.send_all(frames[0] + frames[1] + frames[2])
        replies = [self._reply(raw) for _ in range(3)]
        # One frame split inside its 9-byte head, then one split inside
        # its payload; a partial frame is never answered.
        for frame, cut in ((frames[3], 4), (frames[4], MUX_HEAD.size + 5)):
            raw.send_all(frame[:cut])
            self._nothing_more(raw)
            raw.send_all(frame[cut:])
            replies.append(self._reply(raw))
        self._nothing_more(raw)
        assert replies == [
            (corr, STATUS_OK, struct.pack(">I", gid))
            for gid, corr in enumerate((7, 0xFFFFFFFF, 3, 40, 41), start=1)
        ]
        raw.close()
        server.stop()

    def test_eof_inside_a_frame_ends_the_serve_thread(self):
        before = set(threading.enumerate())
        server, node, raw = self._connected("mux-eof")
        # One answered frame: the connection's serve thread is running.
        raw.send_all(self._register_frame(8, node, "whole"))
        self._reply(raw)
        (serving,) = [
            t for t in threading.enumerate()
            if t not in before and t.name == "taintmap-conn"
        ]
        raw.send_all(self._register_frame(9, node, "torn")[: MUX_HEAD.size + 3])
        raw.close()
        serving.join(5)
        assert not serving.is_alive()
        assert server._connections == []
        server.stop()

