"""In-simulation scraping of the /metrics endpoint."""

import json

import pytest

from repro.jre import ServerSocket, Socket
from repro.jre.http import http_get
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint.values import TBytes

#: Families the acceptance criteria require on /metrics.
REQUIRED_FAMILIES = (
    "dista_taintmap_rpc_seconds",
    "dista_jni_tainted_bytes_total",
    "dista_cache_events_total",
)


#: The Taint Map client's transport families: the client declares them
#: when the agent attaches, so they are present before any traffic.
TRANSPORT_FAMILIES = ("dista_taintmap_inflight_requests",)


@pytest.fixture()
def scraped():
    cluster = Cluster(Mode.DISTA)
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    with cluster:
        # Drive tainted traffic so every instrumented layer has data.
        server = ServerSocket(n2, 9400)
        client = Socket.connect(n1, (n2.ip, 9400))
        conn = server.accept()
        taint = n1.tree.taint_for_tag("scraped")
        client.get_output_stream().write(TBytes.tainted(b"metricsdata", taint))
        conn.get_input_stream().read_fully(11)
        metrics = cluster.start_metrics_server("n1", cluster_wide=True)
        try:
            yield cluster, n2, metrics
        finally:
            metrics.stop()


class TestMetricsEndpoint:
    def test_prometheus_text_has_required_families(self, scraped):
        cluster, n2, metrics = scraped
        response = http_get(n2, metrics.address, "/metrics")
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain")
        assert "version=0.0.4" in response.headers["content-type"]
        text = response.body.data.decode("utf-8")
        for family in REQUIRED_FAMILIES:
            assert f"# TYPE {family}" in text, f"missing {family}"
        # histograms expose cumulative buckets with the +Inf terminator
        assert 'dista_taintmap_rpc_seconds_bucket{' in text
        assert 'le="+Inf"' in text
        assert "dista_taintmap_rpc_seconds_count" in text

    def test_scrape_reflects_real_traffic(self, scraped):
        from repro.obs.registry import snapshot_total

        cluster, n2, metrics = scraped
        snap = cluster.telemetry_snapshot()
        assert snapshot_total(snap, "dista_taintmap_requests_total") > 0
        assert snapshot_total(snap, "dista_jni_tainted_bytes_total") >= 11
        assert snapshot_total(snap, "dista_crossings_total") >= 2
        assert snapshot_total(snap, "sim_kernel_bytes_total") > 0

    def test_json_snapshot_parses(self, scraped):
        cluster, n2, metrics = scraped
        response = http_get(n2, metrics.address, "/metrics.json")
        assert response.status == 200
        snapshot = json.loads(response.body.data.decode("utf-8"))
        assert snapshot["dista_taintmap_rpc_seconds"]["type"] == "histogram"
        for family in REQUIRED_FAMILIES:
            assert family in snapshot

    def test_unknown_path_is_404(self, scraped):
        cluster, n2, metrics = scraped
        response = http_get(n2, metrics.address, "/nope")
        assert response.status == 404

    def test_transport_families_present(self, scraped):
        cluster, n2, metrics = scraped
        snap = cluster.telemetry_snapshot()
        for family in TRANSPORT_FAMILIES:
            assert family in snap, f"missing {family}"
        # One metric shape: request samples carry the op label only.
        entry = snap["dista_taintmap_requests_total"]
        assert entry["samples"]
        assert all(set(s["labels"]) == {"node", "op"} for s in entry["samples"])


class TestNodeScopedServer:
    def test_node_scope_excludes_other_registries(self):
        cluster = Cluster(Mode.DISTA)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            metrics = cluster.start_metrics_server("n1", cluster_wide=False)
            try:
                response = http_get(n2, metrics.address, "/metrics.json")
                snapshot = json.loads(response.body.data.decode("utf-8"))
                nodes = {
                    sample["labels"].get("node")
                    for entry in snapshot.values()
                    for sample in entry["samples"]
                }
                assert nodes <= {"n1"}
            finally:
                metrics.stop()
