"""Flow-sampling plumbing: the knob and its deterministic admission.

The flow-sampling period is one row of ``DisTAConfig``, set by keyword
or by launch extra (``taintSampleEvery=``).  These tests pin how it
reaches every node's registry, and the behavioural contract the
benchmark leans on: **sampling is deterministic** — admission is
counted at source registration, so a sampling period admits an exact
flow set, and the flows it leaves untracked reach their sinks
untainted and are counted in ``dista_sampled_out_total``.
"""

import pytest

from repro.core.config import DisTAConfig
from repro.core.launch import launch_cluster
from repro.errors import ConfigError
from repro.jre import ServerSocket, Socket
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import Cluster
from repro.runtime.fs import FILE_READ_DESCRIPTOR
from repro.runtime.logger import LOG_INFO_DESCRIPTOR
from repro.runtime.modes import Mode


class TestKnobPlumbing:
    def test_cluster_constructor_knobs(self):
        config = DisTAConfig(sample_every=2)
        cluster = Cluster(Mode.DISTA, config=config)
        assert cluster.config is config
        n1 = cluster.add_node("n1")
        assert n1.registry.sample_every == 2
        with cluster:
            # Nothing adapts the period at runtime.
            assert n1.registry.sample_every == 2

    def test_launch_extras(self):
        cluster = launch_cluster(Mode.DISTA, "taintSampleEvery=3")
        assert cluster.config == DisTAConfig(sample_every=3)

    def test_agent_rejects_bad_sample_every(self):
        """A bad period fails when the config is built, before any
        cluster exists — by keyword and by launch extra alike."""
        with pytest.raises(ConfigError, match="sample_every"):
            DisTAConfig(sample_every=0)
        with pytest.raises(ConfigError, match="sample_every"):
            launch_cluster(Mode.DISTA, "taintSampleEvery=0")


# -- behavioural contracts ---------------------------------------------- #

FILES = 12
PAYLOAD = 8


def run_transfer(config=None):
    """A deterministic mini workload: n1 reads FILES files (each read a
    SIM source), streams each over TCP to n2, which logs it (the sink).
    Returns what the taint layer and the telemetry saw."""
    cluster = Cluster(Mode.DISTA, name="sampling-transfer", config=config)
    cluster.configure_sources([FILE_READ_DESCRIPTOR])
    cluster.configure_sinks([LOG_INFO_DESCRIPTOR])
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    for index in range(FILES):
        cluster.fs.write_file(
            f"/data/part-{index:02d}", bytes([65 + index]) * PAYLOAD
        )
    with cluster:
        server = ServerSocket(n2, 9100)
        client = Socket.connect(n1, ("10.0.0.2", 9100))
        conn = server.accept()
        out, inp = client.get_output_stream(), conn.get_input_stream()
        tainted_indices = []
        for index in range(FILES):
            data = n1.files.read(f"/data/part-{index:02d}")
            out.write(data)
            received = inp.read_fully(PAYLOAD)
            n2.log.info("part {}", received)
            if received.overall_taint() is not None:
                tainted_indices.append(index)
        return {
            "tainted_indices": tainted_indices,
            "observed_tags": frozenset(
                tag for obs in n2.registry.observations for tag in obs.tags
            ),
            "tainted_observations": sum(
                1 for obs in n2.registry.observations if obs.tainted
            ),
            "admitted": n1.registry.admitted,
            "sampled_out": n1.registry.sampled_out,
            "telemetry": cluster.telemetry_snapshot(),
        }


class TestSamplingDeterminism:
    def test_sampled_out_flows_reach_the_sink_untainted(self):
        result = run_transfer(DisTAConfig(sample_every=4))
        # Admission is counted at source registration, independent of
        # Taint Map timing: exactly every fourth flow is tracked.
        assert result["tainted_indices"] == [0, 4, 8]
        assert (result["admitted"], result["sampled_out"]) == (3, 9)
        # Every file arrives and is logged; only the admitted quarter
        # carries tags.  Sampled-out flows look untainted, not missing.
        assert result["tainted_observations"] == 3
        assert len(result["observed_tags"]) == 3
        # The untracked flows are counted per node, not only in lineage.
        telemetry = result["telemetry"]
        assert snapshot_total(telemetry, "dista_sampled_out_total") == 9
        assert snapshot_total(telemetry, "dista_sampled_out_total", {"node": "n1"}) == 9
