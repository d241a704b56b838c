"""Durable Taint Map benchmark: crash recovery and WAL overhead.

Results in ``BENCH_PR10.json``:

* **recovery** — preload N taints into a WAL-backed server, crash and
  restart it, and verify the replay: every entry comes back
  (``entries_replayed == N``), the GID sequence resumes from its
  high-water mark (``headroom_unchanged`` and ``renumbered_gids == 0``),
  and every pre-crash GID still resolves (``failed_lookups == 0``).
  Recovery wall-clock is recorded alongside.
* **results** — the steady-state durability overhead: WAL-on vs WAL-off
  registration throughput.

Acceptance (asserted, and re-checked by the CI canary):

* ``recovery.entries_replayed == PRELOAD``
* ``recovery.headroom_unchanged``
* ``recovery.renumbered_gids == 0`` and ``recovery.failed_lookups == 0``
"""

import json
import threading
import time
from pathlib import Path

from repro.core.durability import MemoryTaintMapStore
from repro.core.taintmap import TaintMapClient, TaintMapServer
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode

SENDER_THREADS = 8
OPS_PER_THREAD = 40
SERVICE_TIME = 0.0005
REPEATS = 3
#: Entries written before the crash (the state that must replay).
PRELOAD = 300
SNAPSHOT_EVERY = 128

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR10.json"


def _server(kernel, store=None, snapshot_every=None):
    return TaintMapServer(
        kernel,
        TAINT_MAP_IP,
        TAINT_MAP_PORT,
        service_time=SERVICE_TIME,
        store=store,
        snapshot_every=snapshot_every,
    ).start()


def _boot(namespace, store=None, snapshot_every=None):
    kernel = SimKernel(f"durable-bench-{namespace}")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = _server(kernel, store, snapshot_every)
    node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    return kernel, server, node


def _timed_round(client, node, namespace):
    """8 threads of fresh registrations; returns registrations/second."""
    taints = [
        [node.tree.taint_for_tag(f"{namespace}-{t}-{i}") for i in range(OPS_PER_THREAD)]
        for t in range(SENDER_THREADS)
    ]
    barrier = threading.Barrier(SENDER_THREADS + 1)

    def sender(batch):
        barrier.wait()
        for taint in batch:
            client.gid_for(taint)

    threads = [
        threading.Thread(target=sender, args=(batch,), daemon=True)
        for batch in taints
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return SENDER_THREADS * OPS_PER_THREAD / elapsed


def _registration_throughput(namespace, store=None, snapshot_every=None):
    kernel, server, node = _boot(namespace, store, snapshot_every)
    client = TaintMapClient(node, server.address)
    try:
        return max(
            _timed_round(client, node, f"{namespace}-r{r}") for r in range(REPEATS)
        )
    finally:
        client.close()
        server.stop()


def _crash_recovery(namespace):
    store = MemoryTaintMapStore()
    kernel, server, node = _boot(namespace, store, SNAPSHOT_EVERY)
    client = TaintMapClient(node, server.address, cache_enabled=False)
    try:
        taints = [
            node.tree.taint_for_tag(f"{namespace}-pre-{i}") for i in range(PRELOAD)
        ]
        gids = [client.gid_for(t) for t in taints]
        headroom = server.gid_headroom
        snapshots_written = server.stats.snapshot()["wal_snapshots"]

        # Crash-restart: a new server on the same address and store.
        recover_started = time.perf_counter()
        server.stop()
        server = _server(kernel, store, SNAPSHOT_EVERY)
        recover_elapsed = time.perf_counter() - recover_started

        snap = server.stats.snapshot()
        checker = TaintMapClient(node, server.address, cache_enabled=False)
        failed = sum(1 for gid in gids if checker.taint_for(gid) is None)
        renumbered = sum(
            1 for taint, gid in zip(taints, gids) if checker.gid_for(taint) != gid
        )
        checker.close()
        return {
            "entries_preloaded": PRELOAD,
            "entries_replayed": snap["global_taints"],
            "wal_replayed": snap["wal_replayed"],
            "wal_snapshots_before_crash": snapshots_written,
            "headroom_unchanged": server.gid_headroom == headroom,
            "failed_lookups": failed,
            "renumbered_gids": renumbered,
            "recovery_seconds": recover_elapsed,
        }
    finally:
        client.close()
        server.stop()


def test_crash_recovery():
    baseline = _registration_throughput("baseline")
    durable = _registration_throughput(
        "durable", MemoryTaintMapStore(), SNAPSHOT_EVERY
    )
    recovery = _crash_recovery("recover")

    report = {
        "bench": "durable_recovery",
        "workload": (
            f"{SENDER_THREADS} threads x {OPS_PER_THREAD} fresh registrations, "
            f"service_time={SERVICE_TIME}s/request, {PRELOAD} preloaded taints, "
            f"snapshot_every={SNAPSHOT_EVERY}"
        ),
        "repeats": REPEATS,
        "results": {
            "baseline_registrations_per_s": baseline,
            "durable_registrations_per_s": durable,
            "durability_overhead_fraction": 1 - durable / baseline,
        },
        "recovery": recovery,
    }
    _RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    assert recovery["entries_replayed"] == PRELOAD, recovery
    assert recovery["headroom_unchanged"], recovery
    assert recovery["failed_lookups"] == 0, recovery
    assert recovery["renumbered_gids"] == 0, recovery
