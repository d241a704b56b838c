"""§V-F Taint Map scalability: throughput and taint-population scaling.

The paper's conclusion: the Taint Map is a single-point service, but
overhead "does not increase significantly with the number of global
taints" thanks to client-side caching.  These benchmarks quantify both
the raw service throughput and the cached steady state.
"""

import pytest

from repro.bench.tables import taint_count_report
from repro.core.taintmap import TaintMapClient, TaintMapServer
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode


@pytest.fixture()
def service():
    kernel = SimKernel("tm-bench")
    kernel.register_node(TAINT_MAP_IP)
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
    fs = SimFileSystem()
    node = SimNode("n1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    client = TaintMapClient(node, server.address)
    yield server, node, client
    client.close()
    server.stop()


def test_benchmark_register_throughput(benchmark, service):
    """Fresh-taint registrations per second (the worst case)."""
    server, node, client = service
    counter = [0]

    def register_fresh():
        counter[0] += 1
        taint = node.tree.taint_for_tag(f"t{counter[0]}")
        return client.gid_for(taint)

    benchmark(register_fresh)


def test_benchmark_cached_gid_lookup(benchmark, service):
    """The steady state: Fig. 9 step ② — no request at all."""
    server, node, client = service
    taint = node.tree.taint_for_tag("hot")
    client.gid_for(taint)
    requests_before = client.requests_sent
    benchmark(lambda: client.gid_for(taint))
    assert client.requests_sent == requests_before


def test_benchmark_lookup_throughput(benchmark, service):
    server, node, client = service
    gids = [client.gid_for(node.tree.taint_for_tag(f"l{i}")) for i in range(64)]
    uncached = TaintMapClient(node, server.address, cache_enabled=False)
    index = [0]

    def lookup():
        index[0] = (index[0] + 1) % len(gids)
        return uncached.taint_for(gids[index[0]])

    benchmark(lookup)
    uncached.close()


@pytest.mark.parametrize("population", [1, 10, 100, 500])
def test_benchmark_population_scaling(benchmark, service, population):
    """Per-byte gid resolution cost versus global-taint population."""
    server, node, client = service
    taints = [node.tree.taint_for_tag(f"p{population}-{i}") for i in range(population)]
    for taint in taints:
        client.gid_for(taint)

    def resolve_all():
        return sum(client.gid_for(t) for t in taints)

    benchmark(resolve_all)


def test_taint_count_report():
    print("\n" + taint_count_report())
