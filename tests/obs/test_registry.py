"""Tests for the metrics registry: buckets, exposition, merging."""

import json
import math
import re
import threading
from pathlib import Path

import pytest

from repro.errors import TelemetryError
from repro.obs.registry import (
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
    merge_snapshots,
    render_exposition,
    snapshot_quantile,
    snapshot_total,
)

ROOT = Path(__file__).resolve().parents[2]


class TestBuckets:
    def test_bounds_are_powers_of_two_plus_overflow(self):
        bounds = bucket_bounds(1.0, 4)
        assert bounds == [1.0, 2.0, 4.0, 8.0, None]

    def test_index_on_exact_boundaries(self):
        # Half-open on the left: a value equal to a bound lands in that
        # bound's bucket.
        assert bucket_index(1.0, 1.0, 8) == 0
        assert bucket_index(2.0, 1.0, 8) == 1
        assert bucket_index(4.0, 1.0, 8) == 2
        assert bucket_index(8.0, 1.0, 8) == 3

    def test_index_between_boundaries(self):
        assert bucket_index(1.5, 1.0, 8) == 1  # (1, 2]
        assert bucket_index(3.0, 1.0, 8) == 2  # (2, 4]
        assert bucket_index(5.0, 1.0, 8) == 3  # (4, 8]

    def test_tiny_and_huge_values_clamp(self):
        assert bucket_index(1e-12, 1e-6, 36) == 0
        assert bucket_index(1e9, 1e-6, 36) == 36  # overflow bucket

    def test_index_matches_bounds_exhaustively(self):
        lowest, buckets = 1e-6, 36
        bounds = bucket_bounds(lowest, buckets)
        for exponent in range(-8, 3):
            for mantissa in (1.0, 1.3, 1.99, 2.0):
                value = mantissa * 10.0 ** exponent
                index = bucket_index(value, lowest, buckets)
                bound = bounds[index]
                assert bound is None or value <= bound
                if index > 0:
                    assert value > bounds[index - 1]


class TestGoldenExposition:
    def test_full_text_format(self):
        registry = MetricsRegistry({"node": "n1"})
        registry.counter("events_total", "Events.", ("kind",)).labels(kind="a").inc(3)
        registry.gauge("depth", "Depth.").set(2)
        hist = registry.histogram("lat_seconds", "Latency.", lowest=1.0, buckets=2)
        hist.observe(0.5)
        hist.observe(3.0)
        hist.observe(100.0)
        expected = "\n".join(
            [
                "# HELP depth Depth.",
                "# TYPE depth gauge",
                'depth{node="n1"} 2',
                "# HELP events_total Events.",
                "# TYPE events_total counter",
                'events_total{kind="a",node="n1"} 3',
                "# HELP lat_seconds Latency.",
                "# TYPE lat_seconds histogram",
                'lat_seconds_bucket{le="1",node="n1"} 1',
                'lat_seconds_bucket{le="2",node="n1"} 1',
                'lat_seconds_bucket{le="+Inf",node="n1"} 3',
                'lat_seconds_sum{node="n1"} 103.5',
                "lat_seconds_count{node=\"n1\"} 3",
                "",
            ]
        )
        assert registry.exposition() == expected

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("path",)).labels(path='a"b\\c').inc()
        text = registry.exposition()
        assert 'path="a\\"b\\\\c"' in text

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry({"node": "n1"})
        registry.histogram("h_seconds", lowest=1.0, buckets=2).observe(1.5)
        round_tripped = json.loads(json.dumps(registry.snapshot()))
        assert round_tripped["h_seconds"]["samples"][0]["le"] == [1.0, 2.0, None]


class TestQuantiles:
    def test_percentile_math(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", lowest=1.0, buckets=4)
        for value in (1, 1, 2, 4, 8):
            hist.observe(value)
        snap = registry.snapshot()
        assert snapshot_quantile(snap, "h", 0.50) == 2.0
        assert snapshot_quantile(snap, "h", 0.95) == 8.0
        assert snapshot_quantile(snap, "h", 0.0) == 1.0

    def test_overflow_mass_gives_inf(self):
        registry = MetricsRegistry()
        registry.histogram("h", lowest=1.0, buckets=2).observe(1000.0)
        assert snapshot_quantile(registry.snapshot(), "h", 0.5) == math.inf

    def test_no_samples_gives_none(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        assert snapshot_quantile(registry.snapshot(), "h", 0.5) is None
        assert snapshot_quantile({}, "missing", 0.5) is None

    def test_invalid_quantile_rejected(self):
        with pytest.raises(TelemetryError):
            snapshot_quantile({}, "h", 1.5)


class TestConcurrency:
    def test_eight_threads_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", labels=("worker",))
        hist = registry.histogram("h_seconds", lowest=1e-6, buckets=36)
        per_thread = 1000

        def work(worker: int) -> None:
            child = counter.labels(worker=worker)
            for i in range(per_thread):
                child.inc()
                hist.observe((i % 7 + 1) * 1e-6)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snapshot_total(snap, "ops_total") == 8 * per_thread
        assert snapshot_total(snap, "h_seconds") == 8 * per_thread


class TestRegistrySemantics:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total", labels=("k",)) is registry.counter(
            "a_total", labels=("k",)
        )

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")

    def test_label_schema_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("y", labels=("a",))
        with pytest.raises(TelemetryError):
            registry.counter("y", labels=("b",))

    def test_bucket_layout_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("z", lowest=1.0, buckets=4)
        with pytest.raises(TelemetryError):
            registry.histogram("z", lowest=2.0, buckets=4)

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("n_total").inc(-1)

    def test_wrong_label_names_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("l_total", labels=("op",))
        with pytest.raises(TelemetryError):
            family.labels(verb="x")


class TestMerging:
    def test_distinct_nodes_stay_disaggregated(self):
        r1 = MetricsRegistry({"node": "n1"})
        r2 = MetricsRegistry({"node": "n2"})
        r1.counter("c_total").inc(1)
        r2.counter("c_total").inc(2)
        merged = merge_snapshots(r1.snapshot(), r2.snapshot())
        assert snapshot_total(merged, "c_total") == 3
        assert snapshot_total(merged, "c_total", {"node": "n1"}) == 1
        assert snapshot_total(merged, "c_total", {"node": "n2"}) == 2

    def test_same_labels_sum(self):
        r1 = MetricsRegistry({"node": "shared"})
        r2 = MetricsRegistry({"node": "shared"})
        for registry, value in ((r1, 2.0), (r2, 8.0)):
            registry.histogram("h", lowest=1.0, buckets=4).observe(value)
        merged = merge_snapshots(r1.snapshot(), r2.snapshot())
        (sample,) = merged["h"]["samples"]
        assert sample["count"] == 2
        assert sample["sum"] == 10.0

    def test_collector_fragments_fold_in(self):
        registry = MetricsRegistry({"node": "n1"})

        def fragment():
            return {
                "ext_total": {
                    "type": "counter",
                    "help": "External.",
                    "samples": [{"labels": {"kind": "x"}, "value": 7}],
                }
            }

        registry.register_collector(fragment)
        snap = registry.snapshot()
        assert snapshot_total(snap, "ext_total") == 7
        # constant labels are stamped onto collector samples too
        assert snap["ext_total"]["samples"][0]["labels"]["node"] == "n1"
        registry.unregister_collector(fragment)
        assert "ext_total" not in registry.snapshot()

    def test_exposition_of_merged_snapshot_is_valid(self):
        r1 = MetricsRegistry({"node": "n1"})
        r1.counter("c_total").inc()
        text = render_exposition(merge_snapshots(r1.snapshot()))
        assert text.startswith("# TYPE c_total counter")
        assert text.endswith("\n")


class TestMetricCatalog:
    def test_catalog_matches_declared_families(self):
        """docs/OBSERVABILITY.md's catalog lists exactly the families the
        code declares: names passed to ``.counter(``/``.gauge(``/
        ``.histogram(`` plus the keys of collector fragments."""
        declared = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            declared.update(
                re.findall(r'\.(?:counter|gauge|histogram)\(\s*"(\w+)"', text)
            )
            declared.update(re.findall(r'"(\w+)":\s*\{\s*"type":', text))
        doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
        section = doc.split("## Metric catalog", 1)[1].split("\n#", 1)[0]
        catalog = set(re.findall(r"^\| `(\w+)` \|", section, re.M))
        assert declared, "no metric family found in the source"
        assert catalog == declared
