"""Launch-script modelling for the usability evaluation (§V-E).

The paper measures usability as *lines changed in launch scripts*: on
average 10 LOC per system, zero source-code modifications.  We model each
system's stock launch script and the DisTA-enabling edit, so the
usability table can be regenerated from data rather than asserted.

The canonical edit is the one shown for ZooKeeper's ``zkEnv.sh``::

    JAVA="$INST_JAVA_HOME/bin/java"
    SERVER_JVMFLAGS="-Xbootclasspath/a:DisTA.jar -javaagent:DisTA.jar=..."
    CLIENT_JVMFLAGS="-Xbootclasspath/a:DisTA.jar -javaagent:DisTA.jar=..."
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LaunchScript:
    """A system launch script: original lines + DisTA modifications."""

    name: str
    original_lines: list[str]
    modified_lines: dict[int, str] = field(default_factory=dict)
    added_lines: list[str] = field(default_factory=list)

    def modify(self, index: int, new_line: str) -> None:
        if not 0 <= index < len(self.original_lines):
            raise IndexError(f"{self.name}: no line {index}")
        self.modified_lines[index] = new_line

    def add(self, line: str) -> None:
        self.added_lines.append(line)

    @property
    def changed_loc(self) -> int:
        """LOC touched to enable DisTA (the paper's usability metric)."""
        return len(self.modified_lines) + len(self.added_lines)

    def render(self) -> str:
        lines = [
            self.modified_lines.get(i, line) for i, line in enumerate(self.original_lines)
        ]
        return "\n".join(lines + self.added_lines)


_JVMFLAGS = '"-Xbootclasspath/a:DisTA.jar -javaagent:DisTA.jar=taintSources=sources.spec,taintSinks=sinks.spec"'


def _script(name: str, stock: list[str], edits: list[tuple[int, str]], adds: list[str]) -> LaunchScript:
    script = LaunchScript(name, stock)
    for index, line in edits:
        script.modify(index, line)
    for line in adds:
        script.add(line)
    return script


def zookeeper_launch() -> LaunchScript:
    """zkEnv.sh: 3 LOC, the example the paper prints."""
    return _script(
        "zookeeper/bin/zkEnv.sh",
        [
            "#!/usr/bin/env bash",
            'ZOOBINDIR="${ZOOBINDIR:-/usr/bin}"',
            'JAVA="$JAVA_HOME/bin/java"',
            'SERVER_JVMFLAGS=""',
            'CLIENT_JVMFLAGS=""',
            'ZOO_LOG_DIR="$ZOOKEEPER_PREFIX/logs"',
        ],
        [
            (2, 'JAVA="$INST_JAVA_HOME/bin/java"'),
            (3, f"SERVER_JVMFLAGS={_JVMFLAGS}"),
            (4, f"CLIENT_JVMFLAGS={_JVMFLAGS}"),
        ],
        [],
    )


def mapreduce_launch() -> LaunchScript:
    """hadoop-env.sh + yarn-env.sh: RM, NM, container and client JVMs."""
    return _script(
        "hadoop/etc/hadoop/hadoop-env.sh",
        [
            "#!/usr/bin/env bash",
            "export JAVA_HOME=${JAVA_HOME}",
            'export HADOOP_OPTS="$HADOOP_OPTS"',
            'export YARN_RESOURCEMANAGER_OPTS=""',
            'export YARN_NODEMANAGER_OPTS=""',
            'export HADOOP_CLIENT_OPTS=""',
            "export HADOOP_LOG_DIR=${HADOOP_LOG_DIR}",
        ],
        [
            (1, "export JAVA_HOME=${INST_JAVA_HOME}"),
            (2, f'export HADOOP_OPTS="$HADOOP_OPTS "{_JVMFLAGS}'),
            (3, f"export YARN_RESOURCEMANAGER_OPTS={_JVMFLAGS}"),
            (4, f"export YARN_NODEMANAGER_OPTS={_JVMFLAGS}"),
            (5, f"export HADOOP_CLIENT_OPTS={_JVMFLAGS}"),
        ],
        [f"export MAPRED_CHILD_JAVA_OPTS={_JVMFLAGS}"],
    )


def activemq_launch() -> LaunchScript:
    return _script(
        "activemq/bin/env",
        [
            "#!/bin/sh",
            'JAVA_HOME=""',
            'ACTIVEMQ_OPTS_MEMORY="-Xms64M -Xmx1G"',
            'ACTIVEMQ_OPTS="$ACTIVEMQ_OPTS_MEMORY"',
        ],
        [
            (1, 'JAVA_HOME="$INST_JAVA_HOME"'),
            (3, f'ACTIVEMQ_OPTS="$ACTIVEMQ_OPTS_MEMORY "{_JVMFLAGS}'),
        ],
        [f"ACTIVEMQ_CLIENT_OPTS={_JVMFLAGS}"],
    )


def rocketmq_launch() -> LaunchScript:
    return _script(
        "rocketmq/bin/runserver.sh",
        [
            "#!/bin/bash",
            "export JAVA_HOME",
            'export JAVA="$JAVA_HOME/bin/java"',
            'JAVA_OPT="${JAVA_OPT} -server"',
        ],
        [
            (1, "export JAVA_HOME=$INST_JAVA_HOME"),
            (2, 'export JAVA="$INST_JAVA_HOME/bin/java"'),
            (3, f'JAVA_OPT="${{JAVA_OPT}} -server "{_JVMFLAGS}'),
        ],
        [f"JAVA_OPT_CLIENT={_JVMFLAGS}"],
    )


def hbase_launch() -> LaunchScript:
    """hbase-env.sh: master, regionservers, embedded ZK, client."""
    return _script(
        "hbase/conf/hbase-env.sh",
        [
            "#!/usr/bin/env bash",
            "export JAVA_HOME=${JAVA_HOME}",
            'export HBASE_OPTS="-XX:+UseConcMarkSweepGC"',
            'export HBASE_MASTER_OPTS=""',
            'export HBASE_REGIONSERVER_OPTS=""',
            "export HBASE_MANAGES_ZK=true",
        ],
        [
            (1, "export JAVA_HOME=${INST_JAVA_HOME}"),
            (2, f'export HBASE_OPTS="-XX:+UseConcMarkSweepGC "{_JVMFLAGS}'),
            (3, f"export HBASE_MASTER_OPTS={_JVMFLAGS}"),
            (4, f"export HBASE_REGIONSERVER_OPTS={_JVMFLAGS}"),
        ],
        [f"export HBASE_ZOOKEEPER_OPTS={_JVMFLAGS}", f"export HBASE_CLIENT_OPTS={_JVMFLAGS}"],
    )


def launch_cluster(
    mode,
    agent_argument: str = "",
    sources_text: str = "",
    sinks_text: str = "",
    name: str = "cluster",
):
    """Build a cluster the way a launch script would (§V-E end to end).

    Parses the ``-javaagent:DisTA.jar=<agent_argument>`` option string
    (its extras become a :class:`~repro.core.config.DisTAConfig`; an
    unknown key raises :class:`~repro.errors.ConfigError`) and the two
    spec files' contents, returning a ready
    :class:`~repro.runtime.cluster.Cluster` (not yet started).
    """
    from repro.core.config import AgentOptions, DisTAConfig, TaintSpec
    from repro.runtime.cluster import Cluster
    from repro.runtime.modes import Mode

    options = AgentOptions.parse(agent_argument)
    cluster = Cluster(mode, name=name, config=DisTAConfig.from_extras(options.extras))
    if mode is not Mode.ORIGINAL:
        TaintSpec.from_texts(sources_text, sinks_text).apply(cluster)
    return cluster


def all_launch_scripts() -> dict[str, LaunchScript]:
    """Launch edits for the five evaluated systems (§V-E)."""
    return {
        "ZooKeeper": zookeeper_launch(),
        "MapReduce/Yarn": mapreduce_launch(),
        "ActiveMQ": activemq_launch(),
        "RocketMQ": rocketmq_launch(),
        "HBase+ZooKeeper": hbase_launch(),
    }


def average_changed_loc() -> float:
    scripts = all_launch_scripts()
    return sum(s.changed_loc for s in scripts.values()) / len(scripts)
