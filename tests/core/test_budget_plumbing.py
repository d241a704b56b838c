"""Budgeted-tracking plumbing: knobs, no-op equivalence, gate flips.

The overhead budget and flow-sampling period are two rows of
``DisTAConfig``: set by keyword, by launch extra (``overheadBudget=`` /
``taintSampleEvery=``) or, for the budget, by the
``DISTA_OVERHEAD_BUDGET`` environment variable, which only feeds the
default.  These tests pin the budget's spellings and precedence, plus
the two behavioural contracts the benchmark leans on:

* **unlimited is a no-op** — without a budget no controller exists and
  taint results are identical to plain tracking (and a controller with
  astronomical headroom never actuates);
* **sampling is deterministic** — admission is counted at source
  registration, so a sampling period admits an exact flow set;
* **a flipped gate strips labels end to end** — data sent through a
  gated method arrives untainted (the receiver rides the zero-taint
  fast path), while the bytes themselves are untouched.
"""

import pytest

from repro.core.agent import DisTAAgent
from repro.core.config import DisTAConfig
from repro.core.launch import launch_cluster
from repro.errors import ConfigError
from repro.jre import ServerSocket, Socket
from repro.runtime.cluster import Cluster
from repro.runtime.fs import FILE_READ_DESCRIPTOR
from repro.runtime.logger import LOG_INFO_DESCRIPTOR
from repro.runtime.modes import Mode
from repro.taint.values import TBytes

BUDGET_ENV = "DISTA_OVERHEAD_BUDGET"


def budget_from_extra(spelling):
    return DisTAConfig.from_extras({"overheadBudget": spelling}).overhead_budget


class TestBudgetParsing:
    def test_none_is_unlimited(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        assert DisTAConfig().overhead_budget is None
        assert DisTAConfig(overhead_budget=None).overhead_budget is None

    @pytest.mark.parametrize("spelling", ["unlimited", "off", "none", "", " OFF "])
    def test_unlimited_spellings(self, spelling):
        assert budget_from_extra(spelling) is None

    def test_zero_and_negative_disable(self):
        assert budget_from_extra("0") is None
        assert budget_from_extra("-1") is None

    def test_numeric_spellings(self):
        assert budget_from_extra("1.05") == 1.05
        assert DisTAConfig(overhead_budget=1.2).overhead_budget == 1.2

    def test_sub_one_ratio_rejected(self):
        with pytest.raises(ConfigError, match="ratio over baseline"):
            DisTAConfig(overhead_budget=0.5)
        with pytest.raises(ConfigError, match="ratio over baseline"):
            budget_from_extra("0.5")

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "1.07")
        assert DisTAConfig().overhead_budget == 1.07
        assert DisTAConfig.from_extras({}).overhead_budget == 1.07
        # An explicit value wins over the environment — "unlimited" too.
        assert DisTAConfig(overhead_budget=1.2).overhead_budget == 1.2
        assert DisTAConfig(overhead_budget=None).overhead_budget is None
        assert budget_from_extra("unlimited") is None
        monkeypatch.setenv(BUDGET_ENV, "unlimited")
        assert DisTAConfig().overhead_budget is None
        monkeypatch.delenv(BUDGET_ENV)
        assert DisTAConfig().overhead_budget is None


def budget_families(cluster) -> list:
    return [name for name in cluster.telemetry_snapshot() if name.startswith("dista_budget")]


class TestKnobPlumbing:
    def test_cluster_constructor_knobs(self):
        config = DisTAConfig(overhead_budget=1.1, sample_every=2)
        cluster = Cluster(Mode.DISTA, config=config)
        assert cluster.config is config
        n1 = cluster.add_node("n1")
        assert n1.registry.sample_every == 2
        with cluster:
            # The controller attached, with the configured period as its
            # floor (it starts there).
            assert budget_families(cluster)
            assert n1.registry.sample_every == 2

    def test_launch_extras(self):
        cluster = launch_cluster(
            Mode.DISTA, "overheadBudget=1.08,taintSampleEvery=3"
        )
        assert cluster.config == DisTAConfig(overhead_budget=1.08, sample_every=3)

    def test_launch_extras_unlimited(self, monkeypatch):
        """An explicit "unlimited" beats ``DISTA_OVERHEAD_BUDGET``: no
        controller is attached, so no budget family is exported."""
        monkeypatch.setenv(BUDGET_ENV, "1.05")
        budgeted = launch_cluster(Mode.DISTA, "")
        unlimited = launch_cluster(Mode.DISTA, "overheadBudget=unlimited")
        by_keyword = Cluster(Mode.DISTA, config=DisTAConfig(overhead_budget=None))
        for cluster, expect_budget in ((budgeted, True), (unlimited, False), (by_keyword, False)):
            cluster.add_node("n1")
            with cluster:
                assert bool(budget_families(cluster)) is expect_budget

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
    Returns what the taint layer saw."""
    cluster = Cluster(Mode.DISTA, name="budget-transfer", config=config)
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
            "generated_tags": frozenset(
                event.tag for event in n1.registry.source_events
            ),
            "observed_tags": frozenset(
                tag for obs in n2.registry.observations for tag in obs.tags
            ),
            "tainted_observations": sum(
                1 for obs in n2.registry.observations if obs.tainted
            ),
            "admitted": n1.registry.admitted,
            "sampled_out": n1.registry.sampled_out,
            "global_taints": cluster.taint_map_server.stats.register_entries,
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


class TestUnlimitedBudgetIsANoOp:
    def test_unlimited_env_matches_plain_run(self, monkeypatch):
        plain = run_transfer()
        monkeypatch.setenv(BUDGET_ENV, "unlimited")
        unlimited = run_transfer()
        assert unlimited == plain

    def test_vast_headroom_controller_never_actuates(self):
        """Even with a controller attached, a budget it can never breach
        leaves every taint observation identical to the plain run."""
        plain = run_transfer()
        budgeted = run_transfer(DisTAConfig(overhead_budget=1e9))
        assert budgeted == plain


class TestGateFlip:
    def test_gated_send_method_strips_labels_end_to_end(self):
        cluster = Cluster(Mode.DISTA, config=DisTAConfig(overhead_budget=1.05))
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            # Re-attach by hand to hold the runtime (the cluster's own
            # attach discards it); the controller rides the runtime.
            agent = DisTAAgent(cluster.taint_map_server.address, cluster.config)
            agent.detach(n1)
            runtime = agent.attach(n1)
            controller = runtime._budget
            assert controller is not None

            # Synthetic load: an absurd tracking surcharge on a pure
            # send workload forces sampling to its ceiling and then a
            # gate flip on the only traffic-bearing method.
            for _ in range(8):
                if controller.is_gated("socketWrite0"):
                    break
                controller.add_tracking_seconds(10.0)
                controller.account_io("socketWrite0", "send", 4096, 0)
                controller.tick()
            assert controller.is_gated("socketWrite0")

            server = ServerSocket(n2, 9200)
            client = Socket.connect(n1, ("10.0.0.2", 9200))
            conn = server.accept()
            taint = n1.tree.taint_for_tag("secret")
            client.get_output_stream().write(TBytes.tainted(b"payload", taint))
            received = conn.get_input_stream().read_fully(7)
            # Bytes intact, labels stripped at the gate: the receiver
            # sees plain untainted traffic.
            assert received == b"payload"
            assert received.overall_taint() is None
