#!/usr/bin/env python
"""Quickstart: inter-node taint tracking in ~40 lines.

Deploys a two-node cluster with DisTA attached, sends tainted bytes over
a plain TCP socket, and shows the taint arriving on the other node —
then repeats the experiment with Phosphor-only tracking to show why the
JNI-level wrappers are needed (paper Fig. 4).

Run:  python examples/quickstart.py
"""

from repro.jre import ServerSocket, Socket
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint.values import TBytes


def demo(mode: Mode) -> None:
    print(f"\n--- {mode.value.upper()} ---")
    cluster = Cluster(mode)
    node1 = cluster.add_node("node1")
    node2 = cluster.add_node("node2")
    with cluster:
        server = ServerSocket(node2, 9000)
        client = Socket.connect(node1, (node2.ip, 9000))
        connection = server.accept()

        # Taint the message on node1 (a source point, in DisTA terms).
        secret = node1.tree.taint_for_tag("secret-password")
        message = TBytes(b"user=admin pass=") + TBytes.tainted(b"hunter2", secret)
        client.get_output_stream().write(message)

        # Receive it on node2 and inspect the shadow labels.
        received = connection.get_input_stream().read_fully(len(message))
        print(f"node2 received: {received.data!r}")
        taint = received.overall_taint()
        if taint is None:
            print("node2 sees NO taint — the flow was lost at the JNI boundary")
        else:
            tags = sorted(str(t.tag) for t in taint.tags)
            print(f"node2 sees taint tags: {tags}")
            # Byte-level precision: only the password bytes are tainted.
            print(f"  prefix tainted? {received[:16].overall_taint() is not None}")
            print(f"  secret tainted? {received[16:].overall_taint() is not None}")
        if cluster.taint_map_server is not None:
            # The Taint Map's request counts, from the cluster's telemetry.
            snapshot = cluster.telemetry_snapshot()
            requests = {
                kind: int(snapshot_total(
                    snapshot, "dista_taintmap_server_requests_total", {"kind": kind}
                ))
                for kind in ("register", "lookup")
            }
            taints = int(snapshot_total(snapshot, "dista_taintmap_global_taints"))
            print(f"taint map requests: {requests}, global taints: {taints}")
        print(f"wire bytes (5x under DisTA): {cluster.wire_bytes()}")


if __name__ == "__main__":
    demo(Mode.DISTA)      # sound + precise inter-node tracking
    demo(Mode.PHOSPHOR)   # intra-node only: the taint dies at socketRead0
