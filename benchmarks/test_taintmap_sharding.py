"""Sharded Taint Map throughput: fresh registrations vs shard count.

The paper concedes (§V-F, §VI) that the single-point Taint Map bounds
cluster throughput.  This benchmark measures the fix: N shards, each a
serial single-point service, serving 8 sender nodes that each register
fresh taints one at a time through their own client.

Each shard models a production deployment on its own node via
``service_time`` — per-request processing cost paid serially *per
shard* (shards overlap with each other, exactly like N independent
machines).  Without it, every shard would contend for this process's
interpreter and the measurement would show scheduler noise, not
queueing behaviour.  Senders are separate nodes because one shared
client group-commits concurrent registrations into one request per flush,
which pays ``service_time`` once per batch and hides the per-shard
queue this benchmark is about.

Results land in ``BENCH_PR2.json`` at the repository root, asserting
fresh-registration throughput at 4 shards is at least 2x the 1-shard
baseline (the PR's acceptance bar).
"""

import json
import threading
import time
from pathlib import Path

from repro.core.taintmap import ShardedTaintMapService, TaintMapClient
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode

SHARD_COUNTS = [1, 2, 4]
SENDER_NODES = 8
OPS_PER_NODE = 40
#: Per-request shard processing cost (2 ms — far above sleep-granularity
#: noise and above the client's own per-request CPU cost, so the
#: measurement shows the shard queue rather than the interpreter).
SERVICE_TIME = 0.002
REPEATS = 3

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR2.json"


def _measure_round(shard_count: int, namespace: str) -> float:
    """One timed round: 8 sender nodes, one thread and one client each,
    push fresh registrations; returns registrations per second."""
    kernel = SimKernel(f"shard-bench-{namespace}")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    service = ShardedTaintMapService(
        kernel, TAINT_MAP_IP, TAINT_MAP_PORT, shard_count, service_time=SERVICE_TIME
    ).start()
    nodes = [
        SimNode(f"n{i}", kernel.register_node(f"10.0.0.{i + 1}"), i + 1, kernel, fs, Mode.DISTA)
        for i in range(SENDER_NODES)
    ]
    clients = [TaintMapClient(node, service.addresses) for node in nodes]
    try:
        taints = [
            [node.tree.taint_for_tag(f"{namespace}-{i}") for i in range(OPS_PER_NODE)]
            for node in nodes
        ]
        barrier = threading.Barrier(SENDER_NODES + 1)

        def sender(client, batch):
            barrier.wait()
            for taint in batch:
                client.gid_for(taint)

        threads = [
            threading.Thread(target=sender, args=(client, batch), daemon=True)
            for client, batch in zip(clients, taints)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        total = SENDER_NODES * OPS_PER_NODE
        assert service.global_taint_count() == total
        snapshot = service.stats_snapshot()
        assert snapshot["register_entries"] == total
        assert snapshot["register_requests"] == sum(c.requests_sent for c in clients)
        return total / elapsed
    finally:
        for client in clients:
            client.close()
        service.stop()


def test_four_shards_double_fresh_registration_throughput():
    throughput = {}
    for shard_count in SHARD_COUNTS:
        best = 0.0
        for repeat in range(REPEATS):
            best = max(
                best, _measure_round(shard_count, f"s{shard_count}r{repeat}")
            )
        throughput[shard_count] = best

    report = {
        "bench": "taintmap_sharding",
        "workload": (
            f"{SENDER_NODES} nodes x {OPS_PER_NODE} fresh registrations, "
            f"one client per node, service_time={SERVICE_TIME}s/shard"
        ),
        "repeats": REPEATS,
        "results": {
            str(count): {
                "registrations_per_s": throughput[count],
                "speedup_vs_1_shard": throughput[count] / throughput[1],
            }
            for count in SHARD_COUNTS
        },
    }
    _RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    speedup_at_4 = throughput[4] / throughput[1]
    assert speedup_at_4 >= 2.0, (
        f"4 shards only {speedup_at_4:.2f}x over 1 shard "
        f"({throughput[4]:.0f} vs {throughput[1]:.0f} registrations/s)"
    )
