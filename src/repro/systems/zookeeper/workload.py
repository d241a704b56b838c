"""The ZooKeeper evaluation workload: 3-node leader election (Table III).

Cluster setting per the paper: 1 leader + 2 followers.  Node ``zk1`` is
given the largest recovered zxid so it deterministically wins — which
also makes the SIM trace match Fig. 11 (zk1's last-log-file taint is the
one that reaches the follower's sink on another node).
"""

from __future__ import annotations

import threading

from repro.core.config import DisTAConfig, TaintSpec
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.systems import common
from repro.systems.common import SystemInfo, WorkloadResult, run_system_workload, sim_spec
from repro.systems.zookeeper.election import QuorumPeer
from repro.systems.zookeeper.messages import (
    CHECK_LEADER_DESCRIPTOR,
    FOLLOWING,
    LEADING,
    VOTE_INIT_DESCRIPTOR,
)
from repro.systems.zookeeper.txnlog import write_txn_logs

SYSTEM = SystemInfo(
    name="ZooKeeper",
    kind="Coordination service",
    protocols=("JRE TCP", "Netty"),
    workload="Leader election",
    cluster_setting="1 Leader + 2 Followers",
)

#: zxids per node: zk1 holds the largest, and holds *three* log files so
#: the SIM scenario generates the Fig. 11 taint pattern.
TXN_LOGS = {
    "zk1": [100, 200, 300],
    "zk2": [150],
    "zk3": [120],
}


def sdt_spec() -> TaintSpec:
    """Table IV: Vote → checkLeader."""
    return TaintSpec(sources=[VOTE_INIT_DESCRIPTOR], sinks=[CHECK_LEADER_DESCRIPTOR])


#: Leader→learner synchronization port (ZooKeeper's quorum port 2888).
SYNC_PORT = 2888
#: Size of the snapshot the leader ships to each learner after election.
SNAPSHOT_SIZE = 48 * 1024


def _leader_learner_sync(cluster: Cluster, nodes: dict, leader_peer, follower_sids: list):
    """Post-election follower synchronization (ZAB's SNAP sync).

    After FLE the learners connect to the leader's quorum port and
    download a snapshot; each follower then processes it.  This is the
    data-carrying phase of the election workload — votes themselves are
    a few dozen bytes."""
    import threading

    from repro.appmodel import app_process
    from repro.jre.socket_api import ServerSocket, Socket
    from repro.jre.streams import DataInputStream, DataOutputStream
    from repro.taint.values import TBytes, TInt, TStr

    leader_node = nodes[f"zk{leader_peer.sid}"]
    # The snapshot header carries the leader's recovered zxid (whose
    # taint, under SIM, is the last-log-file read of Fig. 11); the body
    # is the database read chunk-by-chunk from the leader's data dir,
    # each chunk read being another SIM source.
    zxid = leader_peer.last_zxid
    header = TStr(f"zxid={zxid.value}\n").with_taint(zxid.taint).encode()
    common.seed_data_files(cluster.fs, f"/{leader_node.name}/snapdb", 48, SNAPSHOT_SIZE // 48)
    body = common.read_data_files(leader_node, f"/{leader_node.name}/snapdb")
    snapshot = header + body

    server = ServerSocket(leader_node, SYNC_PORT)

    def learner_handler() -> None:
        for _ in follower_sids:
            conn = server.accept()
            outs = DataOutputStream(conn.get_output_stream())
            outs.write_int(TInt(len(snapshot)))
            outs.write(snapshot)
            conn.close()

    handler_thread = threading.Thread(target=learner_handler, daemon=True)
    handler_thread.start()

    def learner(sid: int) -> None:
        node = nodes[f"zk{sid}"]
        socket = Socket.connect(node, (leader_node.ip, SYNC_PORT))
        ins = DataInputStream(socket.get_input_stream())
        received = ins.read_fully(ins.read_int().value)
        app_process(received)  # replay the snapshot into the local tree
        node.log.info("Synchronized with leader, snapshot of {} bytes", TInt(len(received)))
        socket.close()

    learner_threads = [
        threading.Thread(target=learner, args=(sid,), daemon=True) for sid in follower_sids
    ]
    for t in learner_threads:
        t.start()
    for t in learner_threads:
        t.join(30)
    handler_thread.join(30)
    server.close()


def deploy_and_elect(cluster: Cluster, timeout: float = 30.0) -> dict:
    """Boot three peers, run the election + learner sync."""
    nodes = {name: cluster.add_node(name) for name in TXN_LOGS}
    for name, zxids in TXN_LOGS.items():
        write_txn_logs(cluster.fs, name, zxids)
    addresses = {sid: nodes[f"zk{sid}"].ip for sid in (1, 2, 3)}
    peers = [QuorumPeer(nodes[f"zk{sid}"], sid, addresses) for sid in (1, 2, 3)]
    for peer in peers:
        peer.start()
    for peer in peers:
        if not peer.decided.wait(timeout):
            raise TimeoutError(f"sid {peer.sid} did not decide within {timeout}s")
    leader_sids = [p.sid for p in peers if p.state == LEADING]
    follower_sids = [p.sid for p in peers if p.state == FOLLOWING]
    if leader_sids:
        leader_peer = next(p for p in peers if p.sid == leader_sids[0])
        _leader_learner_sync(cluster, nodes, leader_peer, follower_sids)
    for peer in peers:
        peer.shutdown()
    for node in nodes.values():
        node.raise_thread_errors()
    return {
        "leader": leader_sids[0] if leader_sids else None,
        "followers": sorted(follower_sids),
        "winning_vote": peers[0].final_vote,
    }


def run_workload(
    mode: Mode, scenario: str | None = None, config: DisTAConfig | None = None
) -> WorkloadResult:
    """One Table-VI cell for ZooKeeper."""
    return run_system_workload(
        "ZooKeeper", mode, scenario, sdt_spec, deploy_and_elect, config
    )
