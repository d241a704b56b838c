"""Tests for the agent inventory (Table I), options, specs, launch model."""

import importlib
import pathlib
from collections import Counter

import pytest

from repro.core.agent import (
    INSTRUMENTED_METHODS,
    DisTAAgent,
    _WRAPPER_FACTORIES_BY_TYPE,
    instrumented_method_count,
)
from repro.core.config import AgentOptions, TaintSpec
from repro.core.launch import all_launch_scripts, average_changed_loc
from repro.errors import InstrumentationError
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode


class TestTable1Inventory:
    def test_23_methods_instrumented(self):
        """The paper's headline count (§III-C: "we instrument 23 methods")."""
        assert instrumented_method_count() == 23

    def test_three_wrapper_types(self):
        types = {m.wrapper_type for m in INSTRUMENTED_METHODS}
        assert types == {1, 2, 3}

    def test_methods_per_wrapper_type(self):
        """§III-B/C: the TCP stream methods and friends are Type 1, the 3
        UDP methods Type 2, the dispatcher/direct-buffer family Type 3."""
        counts = Counter(m.wrapper_type for m in INSTRUMENTED_METHODS)
        assert counts == {1: 5, 2: 3, 3: 15}

    def test_table1_rows_present(self):
        """The explicitly printed rows of paper Table I."""
        rows = {(m.java_class.split(".")[-1], m.method, m.wrapper_type) for m in INSTRUMENTED_METHODS}
        for expected in [
            ("SocketInputStream", "socketRead0", 1),
            ("SocketOutputStream", "socketWrite0", 1),
            ("LinuxVirtualMachine", "read", 1),
            ("LinuxVirtualMachine", "write", 1),
            ("PlainDatagramSocketImpl", "send", 2),
            ("PlainDatagramSocketImpl", "receive0", 2),
            ("DirectByteBuffer", "get", 3),
            ("DirectByteBuffer", "put", 3),
            ("IOUtil", "writeFromNativeBuffer", 3),
            ("IOUtil", "readIntoNativeBuffer", 3),
        ]:
            assert expected in rows, f"Table I row missing: {expected}"

    def test_every_descriptor_has_a_patch_or_coverage(self):
        for m in INSTRUMENTED_METHODS:
            assert (m.patch_target is not None) or (m.covered_by is not None)
            if m.patch_target is not None:
                assert m.patch_target in _WRAPPER_FACTORIES_BY_TYPE
            if m.covered_by is not None:
                assert m.covered_by in _WRAPPER_FACTORIES_BY_TYPE

    def test_udp_methods_are_type2_tcp_streams_type1(self):
        for m in INSTRUMENTED_METHODS:
            if m.java_class.endswith("PlainDatagramSocketImpl"):
                assert m.wrapper_type == 2
            if m.method in ("socketRead0", "socketWrite0"):
                assert m.wrapper_type == 1


class TestAgentAttach:
    def test_attach_patches_and_detach_restores(self):
        cluster = Cluster(Mode.DISTA)
        node = cluster.add_node("n1")
        with cluster:
            assert node.jni.instrumented
            assert node.taintmap is not None
            agent = DisTAAgent(cluster.taint_map_server.address)
            with pytest.raises(InstrumentationError, match="already instrumented"):
                agent.attach(node)
            agent.detach(node)
            assert not node.jni.instrumented
            assert node.taintmap is None

    def test_original_mode_leaves_jni_unpatched(self):
        cluster = Cluster(Mode.ORIGINAL)
        node = cluster.add_node("n1")
        with cluster:
            assert not node.jni.instrumented

    def test_node_added_after_start_is_instrumented(self):
        cluster = Cluster(Mode.DISTA)
        with cluster:
            late = cluster.add_node("late")
            assert late.jni.instrumented


class TestAgentOptions:
    def test_parse_full(self):
        options = AgentOptions.parse(
            "taintSources=src.spec,taintSinks=sink.spec,taintMap=10.0.255.1:7170,verbose=1"
        )
        assert options.taint_sources == "src.spec"
        assert options.taint_sinks == "sink.spec"
        # Not a launch flag: left for DisTAConfig.from_extras to refuse.
        assert options.extras == {"taintMap": "10.0.255.1:7170", "verbose": "1"}

    def test_parse_empty(self):
        assert AgentOptions.parse("") == AgentOptions()

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            AgentOptions.parse("justakey")


class TestTaintSpec:
    def test_parse_spec_text(self):
        spec = TaintSpec.from_texts(
            sources_text="# vote source\norg.apache.zookeeper.*Vote#<init>\n\n",
            sinks_text="org.apache.zookeeper.*#checkLeader\n",
        )
        assert spec.sources == ["org.apache.zookeeper.*Vote#<init>"]
        assert spec.sinks == ["org.apache.zookeeper.*#checkLeader"]

    def test_apply_to_cluster(self):
        cluster = Cluster(Mode.PHOSPHOR)
        node = cluster.add_node("n1")
        TaintSpec(sources=["a#b"], sinks=["c#d"]).apply(cluster)
        assert node.registry.is_source("a#b")
        assert node.registry.is_sink("c#d")
        late = cluster.add_node("n2")
        assert late.registry.is_source("a#b")


class TestLaunchScripts:
    def test_zookeeper_is_3_loc(self):
        """The paper: "we only modify 3 LOC in ZooKeeper's zkEnv.sh"."""
        scripts = all_launch_scripts()
        assert scripts["ZooKeeper"].changed_loc == 3

    def test_every_script_within_10_loc(self):
        for name, script in all_launch_scripts().items():
            assert script.changed_loc <= 10, name

    def test_systems_need_no_source_changes(self):
        """§V-E: zero source-code modifications. No module of the five
        systems names the agent or the Taint Map client; the per-JVM JNI
        table is the only integration point."""
        for system in ("zookeeper", "mapreduce", "activemq", "rocketmq", "hbase"):
            package = importlib.import_module(f"repro.systems.{system}")
            for path in pathlib.Path(package.__file__).parent.rglob("*.py"):
                source = path.read_text()
                assert "DisTAAgent" not in source, f"{system}/{path.name} hooks DisTA"
                assert "TaintMapClient" not in source, f"{system}/{path.name} hooks DisTA"

    def test_average_is_about_10_loc(self):
        """§V-E: "On average, we modify 10 LOC in launch scripts"."""
        assert 3 <= average_changed_loc() <= 10

    def test_render_contains_agent_flags(self):
        for name, script in all_launch_scripts().items():
            rendered = script.render()
            assert "-javaagent:DisTA.jar" in rendered, name
            assert "-Xbootclasspath/a:DisTA.jar" in rendered, name

    def test_modify_out_of_range(self):
        script = all_launch_scripts()["ZooKeeper"]
        with pytest.raises(IndexError):
            script.modify(99, "x")
