"""The MapReduce/Yarn evaluation workload: a Pi job (Table III).

Cluster setting per the paper: 1 ResourceManager + 1 NodeManager +
1 Task Container, plus a client node.
"""

from __future__ import annotations

import time

from repro.core.config import DisTAConfig, TaintSpec
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.systems import common
from repro.systems.common import SystemInfo, WorkloadResult, run_system_workload, sim_spec
from repro.systems.mapreduce.daemons import (
    RM_PORT,
    ContainerExecutor,
    NodeManager,
    ResourceManager,
    write_default_conf,
)
from repro.systems.mapreduce.protocol import (
    APP_ID_DESCRIPTOR,
    GET_REPORT_DESCRIPTOR,
    STATE_FINISHED,
    ApplicationId,
    JobSpec,
)
from repro.systems.mapreduce.rpc import RpcClient
from repro.taint.values import TInt, TLong

SYSTEM = SystemInfo(
    name="MapReduce/Yarn",
    kind="Computing framework",
    protocols=("JRE NIO", "Yarn RPC"),
    workload="Calculate the value of Pi",
    cluster_setting="1 ResourceManager + 1 NodeManager + 1 Task Container (+ client)",
)


def sdt_spec() -> TaintSpec:
    """Table IV: ApplicationID → getApplicationReport."""
    return TaintSpec(sources=[APP_ID_DESCRIPTOR], sinks=[GET_REPORT_DESCRIPTOR])


def deploy_and_run_pi(cluster: Cluster, maps: int = 4, samples: int = 2000) -> dict:
    """Boot the daemons, submit the Pi job, poll until FINISHED."""
    rm_node = cluster.add_node("rm")
    nm_node = cluster.add_node("nm")
    container_node = cluster.add_node("container")
    client_node = cluster.add_node("client")
    write_default_conf(cluster.fs)

    executor = ContainerExecutor(container_node)
    nm = NodeManager(nm_node, executor_ip=container_node.ip)
    rm = ResourceManager(rm_node, nm_ip=nm_node.ip)

    client = RpcClient(client_node, (rm_node.ip, RM_PORT))
    try:
        client.call("registerNodeManager", nm.hostname)
        # The SDT source point: the ApplicationID generated on the client.
        app_id = client_node.registry.source(
            APP_ID_DESCRIPTOR,
            ApplicationId(TLong(1_688_000_000_000), TInt(1)),
            tag_value="application_1688000000000_0001",
        )
        # The job jar + config resources, read from files on the client
        # node (SIM sources fire once per file).
        common.seed_data_files(cluster.fs, "/jars", 16, 1024)
        job_resources = common.read_data_files(client_node, "/jars")
        client.call(
            "submitApplication", JobSpec(app_id, TInt(maps), TInt(samples), job_resources)
        )
        deadline = time.monotonic() + 30
        report = None
        while time.monotonic() < deadline:
            report = client.call("getApplicationReport", app_id)
            if report.state.value == STATE_FINISHED:
                break
            time.sleep(0.01)
        assert report is not None and report.state.value == STATE_FINISHED, "job never finished"
        # The SDT sink point, on the client node.
        client_node.registry.sink(GET_REPORT_DESCRIPTOR, report, detail=report.app_id.text())
        pi = report.pi_estimate.value
        assert 2.8 < pi < 3.5, f"implausible pi estimate {pi}"
        return {"pi": pi, "app_id": report.app_id.text()}
    finally:
        client.close()
        rm.stop()
        nm.stop()
        executor.stop()


def run_workload(
    mode: Mode, scenario: str | None = None, config: DisTAConfig | None = None
) -> WorkloadResult:
    return run_system_workload(
        "MapReduce/Yarn", mode, scenario, sdt_spec, deploy_and_run_pi, config
    )
