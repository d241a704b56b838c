"""Telemetry canaries on real SIM workloads across the tainted fraction.

Each system's SIM workload runs under DisTA with lineage on at
``source_fraction`` 0% → 100%, and its own telemetry must describe what
the instrumentation did. A regression that stops the instrumentation
from observing reads here as a failure, not as an overhead win:

* at 0% tainted, every crossing takes the zero-taint fast path: no
  slow-path hit, no Taint Map RPC, no tainted crossing, no flow — while
  the 5× wire bytes are still paid;
* at 100% tainted, the fast path swallows no real taint, flows
  reconstruct and complete without evictions, and the Taint Map serves
  only ``register_many`` and ``lookup_many``;
* in between, the knob turns: tainted bytes sit strictly between the
  endpoints;
* across the systems, lineage stitches multi-hop trees and the Chrome
  trace export round-trips through JSON.
"""

import json

import pytest

from repro.core.config import DisTAConfig
from repro.obs.registry import snapshot_quantile, snapshot_total
from repro.runtime.modes import Mode
from repro.systems import ALL_SYSTEMS
from repro.systems.common import SIM

SYSTEMS = tuple(ALL_SYSTEMS)
FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture(scope="module")
def sim_run():
    """``sim_run(system, fraction)``: one DisTA SIM run with lineage,
    shared by every test in this module."""
    runs = {}

    def run(system, fraction):
        if (system, fraction) not in runs:
            runs[system, fraction] = ALL_SYSTEMS[system].run_workload(
                Mode.DISTA, SIM, DisTAConfig(source_fraction=fraction, lineage=True)
            )
        return runs[system, fraction]

    return run


def _counts(result) -> dict:
    telemetry = result.telemetry
    store = result.extras["lineage"]
    return {
        "fast": snapshot_total(telemetry, "dista_fastpath_total", {"path": "fast"}),
        "slow": snapshot_total(telemetry, "dista_fastpath_total", {"path": "slow"}),
        "rpcs": snapshot_total(telemetry, "dista_taintmap_requests_total"),
        "crossings": snapshot_total(telemetry, "dista_crossings_total"),
        "tainted_bytes": snapshot_total(telemetry, "dista_jni_tainted_bytes_total"),
        "flows": len(store.flows()),
        "completed": len(store.completed_flows()),
        "evicted": store.evicted,
    }


@pytest.mark.parametrize("system", SYSTEMS)
def test_telemetry_tracks_the_tainted_fraction(sim_run, system):
    counts = {fraction: _counts(sim_run(system, fraction)) for fraction in FRACTIONS}

    zero = counts[0.0]
    assert zero["fast"] > 0, f"{system}@0%: no fast-path hits"
    for name in ("slow", "rpcs", "crossings", "tainted_bytes", "flows", "evicted"):
        assert zero[name] == 0, f"{system}@0%: {name} = {zero[name]}"
    # Frames are byte-identical between paths: the 5x cells are still sent.
    assert sim_run(system, 0.0).wire_bytes > 0

    full = counts[1.0]
    for name in ("crossings", "rpcs", "tainted_bytes", "slow", "completed"):
        assert full[name] > 0, f"{system}@100%: {name} = 0"
    assert full["evicted"] == 0, f"{system}@100%: store evicted flows"
    p95 = snapshot_quantile(
        sim_run(system, 1.0).telemetry, "dista_taintmap_rpc_seconds", 0.95
    )
    assert p95 is not None and p95 > 0, f"{system}@100%: no RPC latency recorded"
    # The Taint Map serves only the two batched ops: no single-entry op
    # and no other framing reaches it.
    handled = sim_run(system, 1.0).telemetry["dista_taintmap_server_handle_seconds"]
    ops = {sample["labels"]["op"] for sample in handled["samples"] if sample["count"]}
    assert ops == {"register_many", "lookup_many"}, f"{system}@100%: ops {ops}"

    for fraction in (0.25, 0.5, 0.75):
        tainted = counts[fraction]["tainted_bytes"]
        assert zero["tainted_bytes"] < tainted < full["tainted_bytes"], (
            f"{system}@{fraction}: tainted bytes {tainted} not strictly between "
            f"{zero['tainted_bytes']} and {full['tainted_bytes']}"
        )


def test_lineage_stitches_multi_hop_trees(sim_run):
    stores = {system: sim_run(system, 1.0).extras["lineage"] for system in SYSTEMS}
    depths = [flow.max_depth for store in stores.values() for flow in store.flows()]
    assert max(depths) >= 3, "no tree deeper than one hop"

    # Cross-node stitching: ZooKeeper's SIM run completes a source -> hop
    # -> hop tree, and its Chrome trace export is valid JSON.
    zookeeper = stores["ZooKeeper"]
    multi_hop = [f for f in zookeeper.completed_flows() if len(f.hops) >= 2]
    assert multi_hop, "no completed multi-hop flow tree"
    exported = json.loads(json.dumps(zookeeper.export_chrome_trace()))
    assert exported["traceEvents"], "empty Chrome trace export"
