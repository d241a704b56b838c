"""The Table-II soundness/precision matrix as a test suite (RQ1).

Every one of the 30 micro-benchmark cases must be sound *and* precise
under DisTA; a sample of cases re-runs under Phosphor-only to confirm the
baseline's inter-node unsoundness.
"""

import pytest

from repro.microbench.cases import CASES, CASES_BY_NAME, SOCKET_CASES
from repro.microbench.workload import app_process, run_case
from repro.runtime.modes import Mode

SMALL = 4096


class TestRegistry:
    def test_thirty_cases(self):
        assert len(CASES) == 30

    def test_twenty_two_socket_cases(self):
        assert len(SOCKET_CASES) == 22

    def test_protocol_groups_match_table2(self):
        protocols = {c.protocol for c in CASES}
        assert protocols == {
            "JRE Socket",
            "JRE Datagram",
            "JRE SocketChannel",
            "JRE DatagramChannel",
            "JRE AIO",
            "JRE HTTP",
            "Netty Socket",
            "Netty DatagramSocket",
            "Netty HTTP",
        }

    def test_unique_names(self):
        assert len(CASES_BY_NAME) == len(CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_dista_sound_and_precise(case):
    """RQ1: DisTA accurately tracks all inter-node taints (Table II)."""
    result = run_case(case, Mode.DISTA, size=SMALL)
    assert result.data_ok, f"{case.name}: payload corrupted"
    assert result.sound, f"{case.name}: a source taint was dropped"
    assert result.precise, f"{case.name}: unexpected taint appeared"
    assert result.global_taints >= 1


@pytest.mark.parametrize(
    "name",
    [
        "socket_bytes_bulk",
        "socket_object_custom",
        "jre_datagram",
        "jre_socket_channel",
        "jre_http",
        "netty_socket",
    ],
)
def test_phosphor_is_unsound_inter_node(name):
    """The motivating limitation (Fig. 4): intra-node-only tracking loses
    every taint that crosses the network."""
    result = run_case(CASES_BY_NAME[name], Mode.PHOSPHOR, size=SMALL)
    assert result.data_ok
    assert result.sound is False
    assert result.observed_tags == frozenset()


@pytest.mark.parametrize("name", ["socket_bytes_bulk", "jre_http"])
def test_original_mode_runs_untracked(name):
    result = run_case(CASES_BY_NAME[name], Mode.ORIGINAL, size=SMALL)
    assert result.data_ok
    assert result.sound is None and result.precise is None
    assert result.wire_bytes > 0


@pytest.mark.parametrize(
    "name, low, high",
    [
        # A stream carries exactly one 4-byte GID per data byte.
        ("socket_bytes_bulk", 4.99, 5.01),
        # Datagrams add a constant envelope header on top of the 5x.
        ("jre_datagram", 4.9, 5.2),
    ],
    ids=["tcp", "udp"],
)
def test_dista_wire_overhead_is_5x(name, low, high):
    original = run_case(CASES_BY_NAME[name], Mode.ORIGINAL, size=SMALL)
    dista = run_case(CASES_BY_NAME[name], Mode.DISTA, size=SMALL)
    ratio = dista.wire_bytes / original.wire_bytes
    assert low <= ratio <= high


def test_app_process_is_mode_aware():
    from repro.taint.policy import POLICY
    from repro.taint.values import TBytes, TInt

    with POLICY.shadows(False):
        assert isinstance(app_process(TBytes(b"ab")), int)
    with POLICY.shadows(True):
        out = app_process(TBytes(b"ab"))
        assert isinstance(out, TInt)


def test_global_taint_count_small_in_micro_cases():
    """Fig. 10 workloads carry exactly two source taints; the Taint Map
    should register 2-3 global taints (data1, data2, their union)."""
    result = run_case(CASES_BY_NAME["socket_bytes_bulk"], Mode.DISTA, size=SMALL)
    assert 1 <= result.global_taints <= 3
