"""No system workload may leak threads: every connection, acceptor and
Taint Map thread a run starts must have exited once ``run_workload``
returns, in both modes."""

import threading
import time

import pytest

from repro.runtime.modes import Mode
from repro.systems.activemq import workload as activemq
from repro.systems.hbase import workload as hbase
from repro.systems.mapreduce import workload as mapreduce
from repro.systems.rocketmq import workload as rocketmq
from repro.systems.zookeeper import workload as zookeeper

SYSTEMS = {
    "zookeeper": zookeeper,
    "mapreduce": mapreduce,
    "activemq": activemq,
    "rocketmq": rocketmq,
    "hbase": hbase,
}


def _leftover(before: set, timeout: float = 5.0) -> list:
    """Threads started since ``before`` that are still alive after
    ``timeout`` (closed sockets wake their threads asynchronously)."""
    deadline = time.monotonic() + timeout
    while True:
        extra = [t for t in threading.enumerate() if t not in before]
        if not extra or time.monotonic() > deadline:
            return sorted(t.name for t in extra)
        time.sleep(0.01)


@pytest.mark.parametrize("mode", [Mode.ORIGINAL, Mode.DISTA], ids=lambda m: m.value)
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_run_workload_leaves_no_threads(system, mode):
    before = set(threading.enumerate())
    SYSTEMS[system].run_workload(mode)
    assert _leftover(before) == []
