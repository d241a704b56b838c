"""Ablation: partial API coverage — the §II-D soundness argument.

    "By default, FlowDist only modifies 6 JRE APIs for network
    communication … However, there are over 100 APIs for network
    communication in JRE.  FlowDist can drop the data flow information
    within these unmonitored APIs.  Thus, it is unsound."

We model a FlowDist-like tool by instrumenting only the **stream**
wrapper type (Type 1 — the socket/object-stream APIs FlowDist covers)
and run the full 30-case matrix: the socket-family cases stay sound,
while every UDP/NIO/AIO/Netty case silently loses its taints — exactly
the coverage hole DisTA's JNI-level completeness closes.
"""

import pytest

from repro.core.config import DisTAConfig
from repro.microbench.cases import CASES
from repro.microbench.workload import run_case
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode

#: Protocol groups FlowDist's 6 stream-level APIs would cover in our
#: simulated JRE (everything that bottoms out in socketRead0/Write0).
STREAM_COVERED = {"JRE Socket", "JRE HTTP"}


def _run_partial(case, size=2048):
    # wrapper_types={1}: Type-1 (stream) instrumentation only.
    from repro.microbench.workload import CaseContext
    import repro.microbench.workload as workload_module

    original_cluster_ctor = workload_module.Cluster
    try:
        workload_module.Cluster = lambda mode, name: original_cluster_ctor(
            mode, name, config=DisTAConfig(wrapper_types=frozenset({1}))
        )
        return run_case(case, Mode.DISTA, size=size)
    finally:
        workload_module.Cluster = original_cluster_ctor


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_partial_coverage_matrix(case):
    result = _run_partial(case)
    assert result.data_ok, f"{case.name}: data corrupted under partial coverage"
    if case.protocol in STREAM_COVERED:
        assert result.sound, f"{case.name}: should be covered by stream APIs"
    else:
        assert not result.sound, (
            f"{case.name}: unexpectedly sound — the partial tool should "
            "have dropped this protocol's taints"
        )


def test_coverage_summary():
    """Counted the way the paper argues it: a stream-API-only tool covers
    23/30 cases; DisTA's 23 JNI methods cover 30/30."""
    covered = sum(1 for c in CASES if c.protocol in STREAM_COVERED)
    assert covered == 23
    assert len(CASES) - covered == 7  # UDP, NIO, AIO, Netty cases


@pytest.mark.parametrize("protocol", sorted({c.protocol for c in CASES}))
def test_benchmark_partial_by_protocol(benchmark, protocol):
    case = next(c for c in CASES if c.protocol == protocol)
    benchmark.pedantic(lambda: _run_partial(case), rounds=2, iterations=1)
